"""Zero-point equation solver checks.

The decisive oracle is exact diagonalization: solved energies have to land
on ED levels. Everything else (residual reduction, branch invariance,
classification) supports that comparison.
"""
import functools
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axxz import bae, cli, core, thermo
from axxz.model import (
    ETA,
    Excitation,
    ModelParams,
    NonConvergenceError,
    NonPhysicalRootsError,
    RootCollisionError,
    SingularConfigurationError,
    ZeroPointSet,
)


def ground_solution(n):
    params = ModelParams(n_sites=n)
    return bae.solve_newton(
        bae.seed_from_quantum_numbers(bae.ground_numbers(n), params), params
    ), params


def _residual_loop(z, params):
    """The residual from its definition, one root at a time through sinh
    factors and complex logs: the oracle for the tanh form in bae."""
    th = params.theta_array
    out = np.zeros(len(z), dtype=complex)
    for j in range(len(z)):
        others = np.delete(z, j)
        d = (np.sum(np.log(np.sinh(z[j] - th)) - np.log(np.sinh(z[j] - th - 2 * ETA)))
             - np.sum(np.log(np.sinh(z[j] - others + ETA)) - np.log(np.sinh(z[j] - others - ETA))))
        out[j] = d - 2j * np.pi * np.round(d.imag / (2 * np.pi))
    return out


def _jacobian_loop(z, params):
    """The Jacobian from its definition, entry by entry through coth."""
    th = params.theta_array
    n = len(z)
    jac = np.zeros((n, n), dtype=complex)
    for j in range(n):
        diag = np.sum(1 / np.tanh(z[j] - th) - 1 / np.tanh(z[j] - th - 2 * ETA))
        for k in range(n):
            if k != j:
                jac[j, k] = 1 / np.tanh(z[j] - z[k] + ETA) - 1 / np.tanh(z[j] - z[k] - ETA)
                diag -= jac[j, k]
        jac[j, j] = diag
    return jac


def _random_system(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.5, 1.5, n - 1) + 1j * rng.uniform(-np.pi / 2, np.pi / 2, n - 1)
    return z, ModelParams(n_sites=n, thetas=tuple(rng.uniform(-0.5, 0.5, n)))


class TestTanhForm:
    """bae_residual and bae_jacobian against their sinh/coth definitions."""

    @pytest.mark.parametrize("n", range(4, 17))
    def test_residual_matches_loop_definition(self, n):
        z, params = _random_system(n, n)
        d = bae.bae_residual(z, params) - _residual_loop(z, params)
        d -= 2j * np.pi * np.round(d.imag / (2 * np.pi))  # a sum at +-pi may land on either side
        assert np.max(np.abs(d)) < 1e-12

    @pytest.mark.parametrize("n", range(4, 17))
    def test_jacobian_matches_loop_definition(self, n):
        z, params = _random_system(n, 100 + n)
        ref = _jacobian_loop(z, params)
        assert np.max(np.abs(bae.bae_jacobian(z, params) - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_jacobian_accurate_at_large_tanh(self):
        # z_j - theta_l and z_j - z_k near i pi/2 give |t| ~ 1e7; a difference
        # of two ~1/t terms would lose about seven digits there
        z, params = _random_system(8, 11)
        z[2] = params.thetas[5] + 0.5j * np.pi + 1e-7
        z[4] = z[1] + 0.5j * np.pi + 1e-7
        ref = _jacobian_loop(z, params)
        assert np.max(np.abs(bae.bae_jacobian(z, params) - ref)) < 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("fn", [bae.bae_residual, bae.bae_jacobian])
    def test_pole_raises(self, fn):
        z, params = _random_system(8, 3)
        on_theta = z.copy()
        on_theta[2] = params.thetas[5]
        with pytest.raises(SingularConfigurationError, match="root 2 sits on a pole"):
            fn(on_theta, params)
        on_pair = z.copy()
        on_pair[4] = on_pair[1] + ETA
        with pytest.raises(SingularConfigurationError, match="root 1 sits on a pole"):
            fn(on_pair, params)


class TestRowBlocks:
    """The residual, Jacobian and collision check split into several row blocks."""

    @staticmethod
    def _system(n, seed, repeated):
        z, params = _random_system(n, seed)
        if repeated:  # a few distinct thetas, each at several sites
            thetas = np.resize([0.1, 0.1, -0.2, 0.1, 0.3, -0.2], n)
            params = ModelParams(n_sites=n, thetas=tuple(thetas))
        return z, params

    @pytest.mark.parametrize("repeated", [False, True])
    @pytest.mark.parametrize("n", range(7, 17))
    def test_uneven_blocks_match_loop_definitions(self, monkeypatch, n, repeated):
        z, params = self._system(n, 200 + n, repeated)
        whole = bae.bae_residual(z, params), bae.bae_jacobian(z, params)
        monkeypatch.setattr(bae, "_BLOCK", 40)  # 2 to 5 rows a block, the last one short
        res, jac = bae.bae_residual(z, params), bae.bae_jacobian(z, params)
        d = res - _residual_loop(z, params)
        d -= 2j * np.pi * np.round(d.imag / (2 * np.pi))
        assert np.max(np.abs(d)) < 1e-12
        ref = _jacobian_loop(z, params)
        assert np.max(np.abs(jac - ref)) < 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(res, whole[0]) and np.array_equal(jac, whole[1])

    @pytest.mark.parametrize("fn", [bae.bae_residual, bae.bae_jacobian])
    def test_pole_in_a_later_block_names_its_root(self, monkeypatch, fn):
        z, params = self._system(8, 3, True)
        monkeypatch.setattr(bae, "_BLOCK", 16)  # two rows a block
        on_theta = z.copy()
        on_theta[5] = params.thetas[2]
        with pytest.raises(SingularConfigurationError, match="root 5 sits on a pole"):
            fn(on_theta, params)
        on_pair = z.copy()
        on_pair[6] = on_pair[3] + ETA  # rows 3 and 6 both sit on the pole
        with pytest.raises(SingularConfigurationError, match="root 3 sits on a pole"):
            fn(on_pair, params)
        both = on_theta.copy()
        both[2] = params.thetas[0]
        with pytest.raises(SingularConfigurationError, match="root 2 sits on a pole"):
            fn(both, params)

    @pytest.mark.parametrize("z, pair", [
        ([0.1, 0.2, 0.3, 0.7, 0.3 + 1e-9, 0.7, 0.2 + 2e-9j], (1, 6)),
        ([0.1, 0.2, 0.3, 0.7, 0.3 + 1e-9, 0.7], (2, 4)),
        ([0.1, 0.2, 0.3, 0.7, 0.9, 0.9 + 1e-9], (4, 5)),
    ])
    def test_collision_across_blocks_names_first_pair(self, monkeypatch, z, pair):
        z = np.array(z)
        first = next((j, k) for j in range(len(z)) for k in range(j + 1, len(z))
                     if abs(z[j] - z[k]) < 1e-8)
        monkeypatch.setattr(bae, "_BLOCK", 2 * len(z))  # two rows a block
        with pytest.raises(RootCollisionError, match=f"roots {pair[0]} and {pair[1]} collided"):
            bae._check_collisions(z, 1e-8, 0.0)
        assert first == pair
        bae._check_collisions(np.arange(7.0), 1e-8, 0.0)  # no pair, diagonal of every block

    def test_working_memory_is_one_block(self):
        z, params = _random_system(512, 5)
        bae.bae_residual(z, params)  # the distinct thetas are kept on params from here on
        for fn, allowed in ((bae.bae_residual, 4 << 20),
                            (bae.bae_jacobian, 511 * 511 * 16 + (4 << 20))):
            tracemalloc.start()
            try:
                fn(z, params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < allowed, (fn.__name__, peak)

    def test_distinct_thetas_kept_outside_the_fields(self):
        thetas = (0.1, 0.1, -0.2, 0.1)
        a, b = ModelParams(n_sites=4, thetas=thetas), ModelParams(n_sites=4, thetas=thetas)
        groups = a.theta_groups
        assert a.theta_groups is groups
        assert np.array_equal(groups[0], [-0.2, 0.1]) and np.array_equal(groups[1], [1, 1, 0, 1])
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


# The idealized seed system by class (0 bulk root, 1 half-line root,
# 2 string centre) in its theta_m form: kernel of the driving term, and sign
# and kernel with which a centre of the row class feels one of the column class.
_DRIVE_KERNEL = (1, 2, 1)
_PAIR_SIGN = ((1, -1, -1), (1, -1, -1), (1, 1, -1))
_PAIR_KERNEL = ((2, 1, 2), (1, 2, 1), (2, 1, 2))


def _seed_system_loop(x, cls, numbers, n):
    """The seed system and its Jacobian term by term through thermo.theta_m
    and its derivative 2 pi a_m: the oracle for the tanh form in bae."""
    f, jac = np.zeros(len(x)), np.zeros((len(x), len(x)))
    for i, a in enumerate(cls):
        f[i] = thermo.theta_m(x[i], _DRIVE_KERNEL[a]) - 2 * np.pi * numbers[i] / n
        jac[i, i] = 2 * np.pi * thermo.a_m(x[i], _DRIVE_KERNEL[a])
        for j, b in enumerate(cls):
            if j != i:
                s, m = _PAIR_SIGN[a][b], _PAIR_KERNEL[a][b]
                f[i] += s * thermo.theta_m(x[i] - x[j], m) / n
                jac[i, j] = -2 * np.pi * s * thermo.a_m(x[i] - x[j], m) / n
                jac[i, i] -= jac[i, j]
    return f, jac


class TestSeedSystem:
    """The tanh-form seed system against s theta_m and 2 pi s a_m, over all
    nine class pairs and all three driving classes."""

    @staticmethod
    def _system(monkeypatch, cls, numbers, n):
        """The residual and Jacobian that seeding hands to the shared Newton loop."""
        got = []

        def capture(x, residual, jacobian, *rest):
            got.append((residual, jacobian))
            return x, 0.0, 0

        monkeypatch.setattr(bae, "_damped_newton", capture)
        bae._refine_centres(np.zeros(len(cls)), cls, numbers, n)
        return got[0]

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_theta_m_form(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        cls = rng.permutation(np.repeat([0, 1, 2], [6, 3, 3]))
        numbers, x = rng.uniform(-5, 5, 12), rng.uniform(-3, 3, 12)
        residual, jacobian = self._system(monkeypatch, cls, numbers, 14)
        f, jac = _seed_system_loop(x, cls, numbers, 14)
        assert np.max(np.abs(residual(x) - f)) < 1e-14
        assert np.max(np.abs(jacobian(x) - jac)) < 1e-14


class TestResidual:
    def test_converged_set_has_tiny_residual(self, table_rows, params6):
        zps = bae.solve_newton(ZeroPointSet.from_shifted(table_rows[0]["lambdas"]), params6)
        assert np.max(np.abs(bae.bae_residual(zps, params6))) < 1e-12

    def test_jacobian_matches_finite_differences(self, params6):
        zps, _ = ground_solution(6)
        z = zps.zeros + 0.01  # step off the solution so the residual is generic
        jac = bae.bae_jacobian(z, params6)
        h = 1e-7
        for k in range(len(z)):
            dz = np.zeros(len(z), dtype=complex)
            dz[k] = h
            fd = (bae.bae_residual(z + dz, params6) - bae.bae_residual(z - dz, params6)) / (2 * h)
            assert np.max(np.abs(fd - jac[:, k])) < 1e-5

    def test_branch_invariance_under_ipi_shifts(self, params6):
        zps, _ = ground_solution(6)
        shifted = zps.zeros.copy()
        shifted[1] += 1j * np.pi
        shifted[3] -= 2j * np.pi
        r0 = bae.bae_residual(zps.zeros, params6)
        r1 = bae.bae_residual(shifted, params6)
        assert np.max(np.abs(r1 - r0)) < 1e-12
        assert abs(bae.energy_from_zeros(shifted, params6) - zps.energy) < 1e-12


class TestNewton:
    def test_fixed_point_on_converged_input(self, params6):
        zps, _ = ground_solution(6)
        again = bae.solve_newton(zps, params6)
        assert again.iterations == 0
        assert np.max(np.abs(again.zeros - zps.zeros)) < 1e-12

    def test_quadratic_convergence(self, params6):
        zps, _ = ground_solution(6)
        rng = np.random.default_rng(5)
        z = zps.zeros + 1e-3 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
        norms = [np.linalg.norm(bae.bae_residual(z, params6))]
        for _ in range(4):
            z = z + np.linalg.solve(bae.bae_jacobian(z, params6), -bae.bae_residual(z, params6))
            norms.append(np.linalg.norm(bae.bae_residual(z, params6)))
        # each step should square the error until rounding noise
        for a, b in zip(norms, norms[1:]):
            if a > 1e-7:
                assert b < 50 * a**2

    def test_nonconvergence_reports_residual(self, monkeypatch, params6):
        bad = np.array([3.0 + 0.4j, -2.0 + 0.9j, 0.5 - 1.1j, 1.0 + 0.2j, -0.3 + 0.6j])
        monkeypatch.setattr(bae, "_MAX_ITER", 2)
        with pytest.raises(bae.NonConvergenceError) as exc:
            bae.solve_newton(bad, params6)
        assert exc.value.residual > 0

    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
    def test_bad_tol_rejected(self, params6, tol):
        zps, _ = ground_solution(6)
        with pytest.raises(ValueError, match="^tol must be positive and finite"):
            bae.solve_newton(zps, params6, tol)

    def test_root_collision_detected(self, monkeypatch, params4):
        # force dedupe by feeding two nearly identical roots with a huge tol
        zps, _ = ground_solution(4)
        monkeypatch.setattr(bae, "_DEDUPE_TOL", 10.0)
        with pytest.raises(ValueError):
            bae.solve_newton(zps, params4)

    def test_root_collision_is_a_solver_failure(self, monkeypatch, params4):
        zps, _ = ground_solution(4)
        monkeypatch.setattr(bae, "_DEDUPE_TOL", 10.0)
        with pytest.raises(RootCollisionError, match="collided") as exc:
            bae.solve_newton(zps, params4)
        assert isinstance(exc.value, NonConvergenceError)
        assert exc.value.residual < 1e-12


    @pytest.mark.parametrize("n", [256, 512, 1024])
    def test_ground_converges_at_large_n(self, n):
        zps, params = ground_solution(n)
        assert zps.iterations <= 1
        assert np.max(np.abs(bae.bae_residual(zps, params))) <= 32 * np.finfo(float).eps * n
        assert abs(zps.energy / n - thermo.ground_energy_density()) < 1 / n**2
        lam = zps.shifted
        assert np.max(np.abs(lam.imag)) < 1e-8
        assert np.all(np.diff(lam.real) > 0)

    @staticmethod
    def _record_residual_calls(monkeypatch, residual):
        calls = []

        def recording(z, params):
            calls.append(np.array(z, copy=True))
            return residual(z, params)

        monkeypatch.setattr(bae, "bae_residual", recording)
        return calls

    def test_residual_not_recomputed_at_accepted_point(self, monkeypatch, params6):
        zps, _ = ground_solution(6)
        rng = np.random.default_rng(5)
        z = zps.zeros + 1e-2 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
        calls = self._record_residual_calls(monkeypatch, bae.bae_residual)
        assert bae.solve_newton(z, params6).iterations > 1
        assert not any(np.array_equal(a, b) for a, b in zip(calls, calls[1:]))

    def test_residual_recomputed_after_refused_line_search(self, monkeypatch, params6):
        # a residual norm that grows on every call refuses all 40 halvings, so
        # the point taken (step / 2^40) differs from the last trial evaluated
        zps, _ = ground_solution(6)
        calls = self._record_residual_calls(
            monkeypatch, lambda z, params: np.full(len(z), float(len(calls))))
        monkeypatch.setattr(bae, "_MAX_ITER", 2)
        with pytest.raises(NonConvergenceError):
            bae.solve_newton(zps.zeros + 1e-3, params6)
        assert len(calls) == 82  # per iteration: the new point, then 40 trials
        assert not np.array_equal(calls[41], calls[40])
        assert not np.array_equal(calls[41], calls[0])

    def test_stall_stops_wandering_newton(self, monkeypatch):
        # N = 9 type_II position 4 wandered to the 200-iteration cap: 7776 residual calls
        params = ModelParams(n_sites=9)
        seed = bae.seed_from_quantum_numbers(bae.type_two_numbers(9, 4), params)
        calls = self._record_residual_calls(monkeypatch, bae.bae_residual)
        with pytest.raises(NonConvergenceError) as exc:
            bae.solve_newton(seed, params)
        assert not isinstance(exc.value, RootCollisionError)
        assert len(calls) <= 500
        j, k, gap = bae._closest_pair(calls[-1])
        assert str(exc.value) == (
            f"stalled at residual {exc.value.residual:.3e}: no 10x fall in 12 iterations "
            f"(closest roots {j} and {k}, {gap:.3e} apart)")
        assert exc.value.residual == np.linalg.norm(bae.bae_residual(calls[-1], params))

    def test_stall_on_merged_roots_is_a_collision(self, monkeypatch, capsys):
        # N = 11 type_II position 3 stalls with two roots already equal: the stall names
        # the collision, and the CLI keeps the solver-failure exit code
        params = ModelParams(n_sites=11)
        seed = bae.seed_from_quantum_numbers(bae.type_two_numbers(11, 3), params)
        calls = self._record_residual_calls(monkeypatch, bae.bae_residual)
        with pytest.raises(RootCollisionError,
                           match=r"^roots \d+ and \d+ collided within 1e-08; solve is invalid$"):
            bae.solve_newton(seed, params)
        assert bae._closest_pair(calls[-1])[2] < bae._DEDUPE_TOL
        monkeypatch.undo()
        code = cli.main(["bae", "--n", "11", "--pattern", "type_II", "--position", "3"])
        assert code == 3 and "collided" in capsys.readouterr().err

    def test_stall_needs_twelve_flat_iterations(self, monkeypatch, params6):
        # a residual stuck at one norm: the best of iteration 12 is not 10x below that
        # of iteration 0, so the solve stops there, after 12 line searches of 40 trials
        zps, _ = ground_solution(6)
        calls = self._record_residual_calls(monkeypatch, lambda z, params: np.ones(len(z)))
        with pytest.raises(NonConvergenceError, match="^stalled at residual 2.236e"):
            bae.solve_newton(zps.zeros + 1e-3, params6)
        assert len(calls) == 1 + 12 * 41

    @pytest.mark.parametrize("fall, stalls", [(9.0, True), (11.0, False)])
    def test_stall_is_a_10x_fall_over_12_iterations(self, monkeypatch, params6, fall, stalls):
        # a residual norm that falls by fall^(1/12) per call: the first trial of every
        # line search is taken, and 12 iterations take the norm down by `fall`
        zps, _ = ground_solution(6)
        calls = self._record_residual_calls(
            monkeypatch, lambda z, params: np.full(len(z), fall ** (-len(calls) / 12)))
        monkeypatch.setattr(bae, "_MAX_ITER", 30)
        with pytest.raises(NonConvergenceError) as exc:
            bae.solve_newton(zps.zeros + 1e-3, params6)
        assert str(exc.value).startswith("stalled" if stalls else "no convergence in 30")
        assert len(calls) == (13 if stalls else 31)

    @pytest.mark.parametrize("block", [2, 3, 7, 1 << 14])
    def test_closest_pair_across_blocks(self, monkeypatch, block):
        z = np.array([0.5, 1.0, 0.3, 1.0 + 1e-3, 0.3 + 2e-4j, 2.0, 2.1, 0.5 + 3e-4])
        monkeypatch.setattr(bae, "_BLOCK", block * len(z))  # `block` rows a block
        j, k, gap = bae._closest_pair(z)
        zc = bae.canonicalize(z)
        assert (j, k) == (2, 4) and gap == abs(zc[2] - zc[4])

    def test_collision_names_first_pair(self):
        z = np.array([0.5, 1.0, 0.3, 1.0 + 1e-9, 0.3 + 2e-9j, 2.0, 2.0])
        first = next((j, k) for j in range(len(z)) for k in range(j + 1, len(z))
                     if abs(z[j] - z[k]) < 1e-8)
        with pytest.raises(RootCollisionError, match="roots 1 and 3 collided") as exc:
            bae._check_collisions(z, 1e-8, 2.5e-13)
        assert first == (1, 3)
        assert exc.value.residual == 2.5e-13


class TestEnergy:
    def test_ground_energy_matches_ed(self, ed6):
        zps, _ = ground_solution(6)
        assert abs(zps.energy - ed6.eigenvalues[0]) < 1e-10

    def test_complex_energy_rejected(self, params6):
        z = np.array([0.3 + 0.2j, 0.1 - 0.4j, -0.2 + 0.15j, 0.45 + 0.05j, -0.6 - 0.3j])
        with pytest.raises(NonPhysicalRootsError):
            bae.energy_from_zeros(z, params6)


class TestQuantumNumbers:
    def test_ground_set(self):
        assert bae.ground_numbers(6).bulk == (-2.0, -1.0, 0.0, 1.0, 2.0)

    def test_type_one_window(self):
        # a half-odd J at even N would converge onto the level of a neighbouring J
        for j in (0.5, 1.5, 3):
            with pytest.raises(ValueError, match=r"-2, \.\.\., 2"):
                bae.type_one_numbers(6, j)
        qn = bae.type_one_numbers(6, -2)
        assert len(qn.bulk) == 4 and qn.excitations == (Excitation("type_I", -2.0),)

    def test_type_two_positions(self):
        for position in (1.5, 5):
            with pytest.raises(ValueError, match=f"position {position}"):
                bae.type_two_numbers(6, position)
        qn = bae.type_two_numbers(6, 1)
        assert qn.excitations == (Excitation("type_II", 1.5),)  # (N-1)/2 - 1
        assert len(qn.bulk) == 3

    def test_odd_sizes_centred(self):
        assert bae.ground_numbers(5).bulk == (-1.5, -0.5, 0.5, 1.5)
        qn = bae.type_one_numbers(5, -1.5)
        assert qn.bulk == (-1.0, 0.0, 1.0) and qn.excitations == (Excitation("type_I", -1.5),)
        with pytest.raises(ValueError, match=r"-1\.5, \.\.\., 1\.5"):
            bae.type_one_numbers(5, 1)
        assert [label for label, _ in bae.enumerate_seed_sets(5)] == [
            "ground", "type_I J=-1.5", "type_I J=-0.5", "type_I J=0.5", "type_I J=1.5",
            "type_II pos=1", "type_II pos=2", "type_II pos=3"]

    @pytest.mark.parametrize("n", range(2, 17))
    def test_string_takes_the_vacated_slot(self, n):
        slots = {(n - 3) / 2 - i for i in range(n - 2)}
        for position in range(1, n - 1):
            qn = bae.type_two_numbers(n, position)
            (string,) = qn.excitations
            assert string.number == (n - 1) / 2 - position
            assert set(qn.bulk) == slots - {string.number} and len(qn.bulk) == n - 3

    def test_seed_root_count_guard(self, params6):
        with pytest.raises(ValueError):
            bae.seed_from_quantum_numbers(bae.ground_numbers(4), params6)


class TestSpectrumCoverage:
    def test_full_scan_n4(self, ed4, params4):
        energies = []
        for _, qn in bae.enumerate_seed_sets(4):
            zps = bae.solve_newton(bae.seed_from_quantum_numbers(qn, params4), params4)
            energies.append(zps.energy)
        doubled = sorted(energies + energies)  # +-lambda0 pairing doubles each level
        assert np.max(np.abs(np.asarray(doubled) - ed4.eigenvalues)) < 1e-8

    def test_table_rows_reconverge(self, table_rows, params6, ed6):
        for row in table_rows[::6]:
            zps = bae.solve_newton(ZeroPointSet.from_shifted(row["lambdas"]), params6)
            assert abs(zps.energy - row["energy"]) < 1e-3
            assert np.min(np.abs(ed6.eigenvalues - zps.energy)) < 1e-8

    def test_match_spectrum_reporting(self):
        report = bae.match_spectrum(np.array([0.0, 1.0, 5.0]), [1.0 + 1e-10, -3.0], tol=1e-6)
        assert len(report["pairs"]) == 1
        assert report["unmatched_bae"] == [1]
        assert set(report["unmatched_ed"]) == {0, 2}
        assert report["max_pair_deviation"] < 1e-9


@functools.lru_cache(maxsize=None)
def _ed_levels(n):
    return np.linalg.eigvalsh(core.build_hamiltonian(ModelParams(n_sites=n)))


def _solve(qn, n):
    params = ModelParams(n_sites=n)
    return bae.solve_from_quantum_numbers(qn, params), params


class TestSeeding:
    """The one real Newton on the idealized system seeds every labeling."""

    @pytest.mark.parametrize("n,j", [(n, j) for n in (8, 10) for j in range(-n // 2 + 1, n // 2)])
    def test_type_one_matches_ed(self, n, j):
        zps, _ = _solve(bae.type_one_numbers(n, j), n)
        assert np.min(np.abs(_ed_levels(n) - zps.energy)) < 1e-8
        assert bae.classify_roots(zps, tol=0.1).name == "type_I"

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_odd_sizes_match_ed(self, n):
        # from N = 9 on, type_II fails away from the edge positions, as at even N
        for label, qn in bae.enumerate_seed_sets(n):
            kind = label.split()[0]
            if kind == "type_II" and n > 7:
                continue
            zps, _ = _solve(qn, n)
            assert np.min(np.abs(_ed_levels(n) - zps.energy)) < 1e-8, label
            assert bae.classify_roots(zps, tol=0.1).name == {"ground": "ground-like"}.get(kind, kind)

    @pytest.mark.parametrize("position", [1, 6])
    def test_type_two_matches_ed(self, position):
        zps, _ = _solve(bae.type_two_numbers(8, position), 8)
        assert np.min(np.abs(_ed_levels(8) - zps.energy)) < 1e-8
        assert bae.classify_roots(zps, tol=0.1).name == "type_II"

    @pytest.mark.parametrize("j", [0, 17])
    def test_type_one_large_n(self, j):
        zps, params = _solve(bae.type_one_numbers(64, j), 64)
        assert np.max(np.abs(bae.bae_residual(zps, params))) < 1e-10
        assert len(bae.classify_roots(zps, tol=0.1).half_line) == 1

    @staticmethod
    def _record_seed_residuals(monkeypatch, wrap):
        """Record the point of each residual evaluation in the shared Newton
        loop; wrap(system) gives the residual the loop sees. Seeding calls
        that loop once, on the idealized system."""
        calls = []
        loop = bae._damped_newton

        def recording(x, residual, *rest):
            def traced(y):
                calls.append(np.array(y, copy=True))
                return wrap(residual)(y)
            return loop(x, traced, *rest)

        monkeypatch.setattr(bae, "_damped_newton", recording)
        return calls

    def test_residual_not_recomputed_at_accepted_point(self, monkeypatch):
        params = ModelParams(n_sites=64)
        calls = self._record_seed_residuals(monkeypatch, lambda system: system)
        bae.seed_from_quantum_numbers(bae.ground_numbers(64), params)
        assert len(calls) > 2
        assert not any(np.array_equal(a, b) for a, b in zip(calls, calls[1:]))

    def test_residual_recomputed_after_refused_line_search(self, monkeypatch):
        # a residual that grows on every call refuses all 30 halvings, so
        # the point taken (step / 2^30) differs from the last trial evaluated
        calls = self._record_seed_residuals(
            monkeypatch, lambda system: lambda y: np.full(len(y), 1e3 * len(calls)))
        bae.seed_from_quantum_numbers(bae.ground_numbers(8), ModelParams(n_sites=8))
        assert len(calls) == 60 * 31  # per iteration: the new point, then 30 trials
        assert not np.array_equal(calls[31], calls[30])
        assert not np.array_equal(calls[31], calls[0])

    def test_ground_scaling_script_runs(self):
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(root / "src"), os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "ground_energy_scaling.py"), "--nmax", "32"],
            capture_output=True, text=True, timeout=120, check=False, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        sizes = [int(line.split()[0]) for line in proc.stdout.splitlines()
                 if line.split() and line.split()[0].isdigit()]
        assert sizes == [8, 9, 16, 17, 32, 33]

    def test_solver_parity_script_runs(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(root / "src"), os.environ.get("PYTHONPATH"))))}
        script = [sys.executable, str(root / "scripts" / "solver_parity.py")]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        subprocess.run(script + ["--nmax", "8", "--out", str(a)], check=True, env=env,
                       timeout=60)
        records = [json.loads(line) for line in a.read_text().splitlines()]
        assert [(r["n"], r["label"]) for r in records] == [
            (n, label) for n in range(4, 9) for label, _ in bae.enumerate_seed_sets(n)] + [
            (n, "ed") for n in range(2, 9)]
        for ed in records[-7:]:
            levels = core.diagonalize_symmetric(
                core.build_hamiltonian(ModelParams(n_sites=ed["n"])))
            assert [float.fromhex(e) for e in ed["energies"]] == levels.eigenvalues.tolist()
            assert ed["parity"] == levels.parity.tolist()
            assert ed["t_residual"] < 1e-12
        ground = records[0]
        assert ground["outcome"] == "converged" and ground["residual_calls"] >= 1
        assert len(ground["roots"]) == 3
        failed = [r for r in records[:-7] if r["outcome"] == "failed"]
        assert failed and all(r["error"] and r["message"] for r in failed)

        records[1]["energy"] += 1e-15
        records[2]["roots"][0][0] = float.hex(float.fromhex(records[2]["roots"][0][0]) + 1e-14)
        ed4 = next(r for r in records if (r["n"], r["label"]) == (4, "ed"))
        ed4["energies"][9] = float.hex(float.fromhex(ed4["energies"][9]) + 2**-40)
        ed4["parity"][2] *= -1
        b.write_text("".join(json.dumps(r) + "\n" for r in records[:-1]))
        same = subprocess.run(script + ["--compare", str(a), str(a)], capture_output=True,
                              text=True, env=env, timeout=60)
        assert (same.returncode, same.stdout) == (0, "no differences\n")
        diff = subprocess.run(script + ["--compare", str(a), str(b)], capture_output=True,
                              text=True, env=env, timeout=60)
        assert diff.returncode == 1
        lines = diff.stdout.splitlines()
        assert len(lines) == 5
        assert lines[0].startswith(f"N=4 {records[1]['label']}: energy ")
        assert lines[1].startswith(f"N=4 {records[2]['label']}: 1 roots moved")
        assert lines[2] == f"N=4 ed: 1 of 16 energies moved, the largest by {2**-40:.3g} (level 10)"
        assert lines[3] == "N=4 ed: parity differs at 1 of 16 levels, the first at level 3"
        assert lines[4] == f"N=8 ed: only in {a}"


class TestClassification:
    def test_three_canonical_patterns(self, params6):
        ground, _ = ground_solution(6)
        assert bae.classify_roots(ground).name == "ground-like"
        p = ModelParams(n_sites=6)
        one = bae.solve_newton(bae.seed_from_quantum_numbers(bae.type_one_numbers(6, 1), p), p)
        assert bae.classify_roots(one).name == "type_I"
        two = bae.solve_newton(bae.seed_from_quantum_numbers(bae.type_two_numbers(6, 2), p), p)
        pat = bae.classify_roots(two, tol=0.1)
        assert pat.name == "type_II"
        assert pat.counts == (3, 0, 1)

    def test_off_pattern_warns(self):
        lam = np.array([0.1, -0.2, 0.3 + 0.6j, 0.3 - 0.6j, 0.0 + 1.5708j])
        with pytest.warns(UserWarning):
            pat = bae.classify_roots(ZeroPointSet.from_shifted(lam))
        assert pat.name == "other"
        assert len(pat.others) == 2


@settings(max_examples=60, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=6))
def test_canonicalize_idempotent_and_in_band(zs):
    z = bae.canonicalize(np.array(zs))
    assert np.all(z.imag > -np.pi / 2) and np.all(z.imag <= np.pi / 2 + 1e-12)
    assert np.max(np.abs(bae.canonicalize(z) - z)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-3, max_value=3), st.integers(min_value=0, max_value=4))
def test_energy_invariant_under_branch_shifts(k, which):
    params = ModelParams(n_sites=6)
    zps = bae.solve_newton(
        bae.seed_from_quantum_numbers(bae.ground_numbers(6), params), params
    )
    z = zps.zeros.copy()
    z[which] += 1j * np.pi * k
    assert abs(bae.energy_from_zeros(z, params) - zps.energy) < 1e-10
