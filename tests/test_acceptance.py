"""Acceptance gate: the nine headline guarantees, one test each.

Tolerances here are contractual, not aspirational; do not tighten or loosen
them when refactoring. Each test is independent of the others.
"""
import itertools
import math
import time

import numpy as np
from scipy.integrate import quad

from axxz import bae, core, thermo, tqverify
from axxz.model import ExcitationSpec, ModelParams, ZeroPointSet

SQ3, SQ6 = math.sqrt(3), math.sqrt(6)


def test_criterion_1_table_reproduction(table_rows, params6, ed6):
    """All 32 bundled levels re-converge onto their printed energies and ED."""
    assert len(table_rows) == 32
    for row in table_rows:
        zps = bae.solve_newton(ZeroPointSet.from_shifted(row["lambdas"]), params6)
        assert abs(zps.energy - row["energy"]) <= 1e-3
        assert np.min(np.abs(ed6.eigenvalues - zps.energy)) <= 1e-8


def test_criterion_2_spectrum_edges(ed6):
    """N = 6 extremal energies match the reference values."""
    assert abs(ed6.eigenvalues[0] - (-6.4785)) <= 1e-3
    assert abs(ed6.eigenvalues[-1] - 8.7513) <= 1e-3


def test_criterion_3_bilinear_and_cubic(params4, params6, joint4, joint6):
    """Factored eigenvalues obey the bilinear and cubic identities."""
    for params, (vals, vecs) in ((params4, joint4), (params6, joint6)):
        dim = len(vals)
        levels = sorted(set(np.linspace(0, dim - 1, 5).astype(int)))
        assert len(levels) >= 5
        for i in levels:
            f = tqverify.spectral_function_from_state(vecs[:, i], params)
            assert tqverify.verify_bilinear(f, params)["max_residual"] < 1e-8
            cubic = tqverify.verify_cubic(f, params, samples=20)
            assert cubic["max_relative_residual"] < 1e-6


def test_criterion_4_transfer_family_structure():
    """Commuting family, quasi-periodicity, and the Hamiltonian connection."""
    rng = np.random.default_rng(314)
    params8 = ModelParams(n_sites=8)
    mats = {}

    def t_at(u):
        if u not in mats:
            mats[u] = core.build_transfer_matrix(u, params8)
        return mats[u]

    for _ in range(10):
        u, v = (complex(*rng.uniform(-0.8, 0.8, 2)) for _ in range(2))
        a, b = t_at(u), t_at(v)
        rel = np.linalg.norm(a @ b - b @ a) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert rel < 1e-10

    u0 = 0.27 + 0.19j
    t0 = core.build_transfer_matrix(u0, params8)
    ts = core.build_transfer_matrix(u0 + 1j * np.pi, params8)
    assert np.linalg.norm(ts - (-1) ** 7 * t0) / np.linalg.norm(t0) < 1e-10

    for n in (2, 4, 6):
        params = ModelParams(n_sites=n)
        h = core.build_hamiltonian(params)
        ht = core.hamiltonian_from_transfer(params, np.eye(2**n))
        assert np.linalg.norm(ht - h) / np.linalg.norm(h) < 1e-6


def test_criterion_5_ground_energy_density():
    """Closed-form energy density against quadrature, and against N = 64."""
    eg = thermo.ground_energy_density()

    def integrand(x, part):
        val = 1j * SQ3 / np.tanh(x - 1j * np.pi / 6) * thermo.rho_bulk(x)
        return val.real if part == "re" else val.imag

    re_val, _ = quad(integrand, -25, 25, args=("re",), limit=400,
                     epsabs=1e-13, epsrel=1e-13)
    im_val, _ = quad(integrand, -25, 25, args=("im",), limit=400,
                     epsabs=1e-13, epsrel=1e-13)
    assert abs(im_val) < 1e-10
    assert abs((re_val + 0.5) - eg) < 1e-8

    start = time.monotonic()
    params = ModelParams(n_sites=64)
    zps = bae.solve_newton(
        bae.seed_from_quantum_numbers(bae.ground_numbers(64), params), params
    )
    assert time.monotonic() - start < 60
    assert abs(zps.energy / 64 - eg) < 1e-3


def test_criterion_6_dispersions():
    """Both dispersion laws, their quadrature forms, and the delta pairing."""
    assert abs(thermo.excitation_energy(ExcitationSpec("type_I", 0.0)) - 1.5 * SQ3) < 1e-12
    assert abs(thermo.excitation_energy(ExcitationSpec("type_II", 0.0)) - 3 * SQ6) < 1e-12
    for a in np.linspace(-2, 2, 9):
        for kind in ("type_I", "type_II"):
            spec = ExcitationSpec(kind, float(a))
            assert abs(thermo.excitation_energy(spec)
                       - thermo.excitation_energy_quadrature(spec)) < 1e-6
        de2 = thermo.excitation_energy(ExcitationSpec("type_II", float(a)))
        assert abs(de2 - 3 * (thermo.hole_delta(a) + thermo.hole_delta(-a))) < 1e-10


def test_criterion_7_sum_rules():
    """Root-count sum rules at N = 8 for the three state families."""
    n = 8
    ground = thermo.ground_profile(hole_pos=2.0, n=n).total_integral()
    assert abs(ground - (n - 1) / n) < 1e-6
    one = ground + thermo.excitation_profile(ExcitationSpec("type_I", 0.4), n).total_integral()
    assert abs(one - (n - 2) / n) < 1e-6
    two = ground + thermo.excitation_profile(ExcitationSpec("type_II", 0.4), n).total_integral()
    assert abs(two - (n - 3) / n) < 1e-6


def test_criterion_8_scattering_grid():
    """Unimodularity, swap inverses, diagonal triviality, process split."""
    grid = np.linspace(-2, 2, 10)
    gap = 0.0
    for a1, a2 in itertools.product(grid, grid):
        for proc in ("I_I", "II_II", "I_II"):
            s = thermo.smatrix(proc, a1, a2).value
            assert abs(abs(s) - 1) <= 1e-12
            assert abs(s * thermo.smatrix(proc, a2, a1).value - 1) <= 1e-12
        assert thermo.smatrix("I_I", a1, a2).value == thermo.smatrix("II_II", a1, a2).value
        gap = max(gap, abs(thermo.smatrix("I_II", a1, a2).value
                           - thermo.smatrix("I_I", a1, a2).value))
    for a in grid:
        for proc in ("I_I", "II_II", "I_II"):
            assert abs(thermo.smatrix(proc, a, a).value - 1) <= 1e-12
    assert gap > 1e-2


def test_criterion_9_newton_behavior_and_classification(table_rows, params6):
    """Solver is a genuine Newton method and labels every table row sanely."""
    solved = bae.solve_newton(
        bae.seed_from_quantum_numbers(bae.ground_numbers(6), params6), params6
    )
    again = bae.solve_newton(solved, params6)
    assert again.iterations == 0
    assert np.max(np.abs(again.zeros - solved.zeros)) < 1e-12

    rng = np.random.default_rng(17)
    z = solved.zeros + 1e-3 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
    norms = [np.linalg.norm(bae.bae_residual(z, params6))]
    for _ in range(4):
        z = z + np.linalg.solve(bae.bae_jacobian(z, params6), -bae.bae_residual(z, params6))
        norms.append(np.linalg.norm(bae.bae_residual(z, params6)))
    for a, b in zip(norms, norms[1:]):
        if a > 1e-7:
            assert b < 50 * a**2  # error squares each step

    for row in table_rows:
        ims = np.array([abs(x.imag) for x in row["lambdas"]])
        n_half = int(np.sum(np.abs(ims - np.pi / 2) < 0.05))
        n_string = int(np.sum((ims > 0.9) & (ims < 1.2))) // 2
        n_real = int(np.sum(ims < 0.05))
        if n_real == 5:
            expect = "ground-like"
        elif n_half == 1 and n_real == 4:
            expect = "type_I"
        elif n_string == 1 and n_real == 3:
            expect = "type_II"
        else:
            expect = "mixed"
        zps = bae.solve_newton(ZeroPointSet.from_shifted(row["lambdas"]), params6)
        pat = bae.classify_roots(zps, tol=0.1)
        assert pat.name == expect, f"level {row['level']}: {pat.name} != {expect}"
        if expect == "ground-like":
            assert pat.counts == (5, 0, 0)
        elif expect == "type_I":
            assert pat.counts == (4, 1, 0)
        elif expect == "type_II":
            assert pat.counts == (3, 0, 1)
