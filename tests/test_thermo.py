"""Closed-form thermodynamics against independent numerical oracles.

Every closed form is cross-checked here by quadrature, Fourier transform,
or a direct solve of the discretized integral equation, never against
itself.
"""
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import solve_toeplitz

from axxz import bae, thermo
from axxz.model import ConsistencyError, ExcitationSpec, ModelParams

SQ2, SQ3, SQ6 = math.sqrt(2), math.sqrt(3), math.sqrt(6)

finite_alpha = st.floats(min_value=-3, max_value=3, allow_nan=False)
any_finite = st.floats(allow_nan=False, allow_infinity=False)

DENSITY_SOURCES = {
    "a1": lambda x: thermo.a_m(x, 1),
    "a2_shifted": lambda x: thermo.a_m(x - 0.7, 2),
    "a4": lambda x: thermo.a_m(x, 4),
    "gauss": lambda x: np.exp(-x ** 2),
}


def refined_levinson(col, g):
    """Levinson solve of the symmetric Toeplitz system plus one refinement step.

    The plain Levinson solution of the Gaussian source at n = 4001 leaves a
    residual of 1.2e-14 and sits 1.3e-14 from the refined one; one step with
    the residual from a direct convolution brings it to 1e-15.
    """
    f = solve_toeplitz(col, g)
    residual = g - np.convolve(np.concatenate([col[:0:-1], col]), f, mode="valid")
    return f + solve_toeplitz(col, residual)


class TestKernels:
    def test_theta_ranges_and_oddness(self):
        lam = np.linspace(-30, 30, 1501)
        t1, t2, t4 = (thermo.theta_m(lam, m) for m in (1, 2, 4))
        assert np.max(np.abs(t1)) < 2 * np.pi / 3 + 1e-12  # saturates at the edge
        assert np.max(np.abs(t2)) < np.pi / 3 + 1e-12
        assert np.max(np.abs(t4 + t2)) < 1e-12
        for t in (t1, t2):
            assert np.max(np.abs(t + t[::-1])) < 1e-12  # odd
            assert np.max(np.abs(np.diff(t))) < 0.2  # no branch jumps

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_real_theta_matches_complex_definition(self, m):
        def definition(lam):
            a = 1j * m * np.pi / 6
            return (-1j * np.log(np.sinh(a - lam) / np.sinh(a + lam))).real

        lam = np.linspace(-30, 30, 2001)
        assert np.max(np.abs(thermo.theta_m(lam, m) - definition(lam))) < 4e-15
        for x in (-2.5, 0.0, 0.7, 3):
            val = thermo.theta_m(x, m)
            assert type(val) is float
            assert abs(val - definition(x)) < 4e-15

    def test_theta_rejects_bad_index(self):
        with pytest.raises(ValueError):
            thermo.theta_m(0.3, 3)

    def test_derivative_is_2pi_a(self):
        h = 1e-6
        for m in (1, 2, 4):
            for lam in (-1.2, 0.0, 0.43, 2.7):
                fd = (thermo.theta_m(lam + h, m) - thermo.theta_m(lam - h, m)) / (2 * h)
                assert abs(fd - 2 * np.pi * thermo.a_m(lam, m)) < 1e-7

    def test_kernel_integrals(self):
        for m, want in ((1, 2 / 3), (2, 1 / 3)):
            val, _ = quad(lambda x: thermo.a_m(x, m), -40, 40, limit=200)
            assert abs(val - want) < 1e-10

    def test_fourier_transform_oracle(self):
        for m in (1, 2, 4):
            for w in (0.0, 0.5, 1.0, 2.3):
                val, _ = quad(lambda x: thermo.a_m(x, m) * np.cos(w * x),
                              -40, 40, limit=400)
                assert abs(val - thermo.a_m_fourier(w, m)) < 1e-9

    def test_fourier_closed_ratios(self):
        w = np.linspace(-4, 4, 41)
        t1, t2 = thermo.a_m_fourier(w, 1), thermo.a_m_fourier(w, 2)
        assert np.max(np.abs(t1 / (1 - t2) - np.cosh(np.pi * w / 6) / np.cosh(np.pi * w / 3))) < 1e-12
        assert np.max(np.abs(t2 / (1 - t2) - 0.5 / np.cosh(np.pi * w / 3))) < 1e-12
        assert thermo.a_m_fourier(1.0, 4) < 0  # the m=4 channel goes negative

    def test_counting_inverse(self):
        for lam in (-2.0, -0.3, 0.0, 0.9, 3.5):
            x = np.arctan(SQ2 * np.sinh(1.5 * lam)) / np.pi
            assert abs(thermo.counting_inverse(x) - lam) < 1e-10


class TestDensities:
    def test_bulk_density_solves_integral_equation(self):
        grid, f = thermo.solve_density_equation(lambda x: thermo.a_m(x, 1))
        assert np.max(np.abs(f - thermo.rho_bulk(grid))) < 1e-8

    def test_toeplitz_kernel_matches_dense(self):
        def source(x):
            return thermo.a_m(x, 1)

        grid, f = thermo.solve_density_equation(source, n_points=801)
        h = grid[1] - grid[0]
        kernel = thermo.a_m(grid[:, None] - grid[None, :], 2)
        ref = np.linalg.solve(np.eye(len(grid)) - h * kernel, source(grid))
        assert np.max(np.abs(f - ref)) < 1e-14

    def test_density_solve_forms_no_dense_kernel(self):
        # a dense 4001 x 4001 float kernel alone would take 128 MB; the small
        # warm-up solve keeps first-call costs out of the traced peak
        def source(x):
            return thermo.a_m(x, 1)

        thermo.solve_density_equation(source, n_points=201)
        tracemalloc.start()
        try:
            thermo.solve_density_equation(source, n_points=4001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    @pytest.mark.parametrize("n", (201, 800, 801, 4000, 4001))
    @pytest.mark.parametrize("name", sorted(DENSITY_SOURCES))
    def test_density_solve_matches_direct_solvers(self, name, n):
        source = DENSITY_SOURCES[name]
        grid, f = thermo.solve_density_equation(source, n_points=n)
        h = grid[1] - grid[0]
        col = -h * thermo.a_m(grid - grid[0], 2)
        col[0] += 1
        g = source(grid)
        assert np.max(np.abs(f - refined_levinson(col, g))) < 1e-14
        if n <= 801:
            dense = np.eye(n) - h * thermo.a_m(grid[:, None] - grid[None, :], 2)
            assert np.max(np.abs(f - np.linalg.solve(dense, g))) < 1e-14

    @pytest.mark.parametrize("name", sorted(DENSITY_SOURCES))
    def test_density_solve_iterations(self, monkeypatch, name):
        # one irfft per conjugate-gradient iteration, none anywhere else
        calls = []
        irfft = np.fft.irfft

        def counting(*args, **kw):
            calls.append(1)
            return irfft(*args, **kw)

        monkeypatch.setattr(np.fft, "irfft", counting)
        thermo.solve_density_equation(DENSITY_SOURCES[name], n_points=4001)
        assert 0 < len(calls) <= 20

    @pytest.mark.parametrize("where", [slice(None), slice(2000, 2001)], ids=["all", "one"])
    def test_density_solve_nan_source_raises(self, where):
        def source(x):
            g = thermo.a_m(x, 1)
            g[where] = np.nan
            return g

        with pytest.raises(ConsistencyError, match="conjugate gradients"):
            thermo.solve_density_equation(source)

    def test_bulk_density_normalized(self):
        val, _ = quad(thermo.rho_bulk, -40, 40, limit=200)
        assert abs(val - 1.0) < 1e-10

    def test_ground_profile_integral(self):
        for n in (8, 64):
            prof = thermo.ground_profile(hole_pos=2.0, n=n)
            assert abs(prof.total_integral() - (n - 1) / n) < 1e-9

    def test_finite_size_correction_sign(self):
        # the boundary holes deplete the smooth density near their positions
        assert thermo.rho_ground(2.0, hole_pos=2.0, n=16) < thermo.rho_bulk(2.0)
        assert abs(thermo.rho_ground(0.0, hole_pos=2.0, n=np.inf) - thermo.rho_bulk(0.0)) < 1e-15

    def test_excitation_density_equations(self):
        n, alpha = 32, 0.6
        g1 = thermo.solve_density_equation(lambda x: -thermo.a_m(x - alpha, 1) / n)
        s1 = ExcitationSpec("type_I", alpha)
        assert np.max(np.abs(g1[1] - thermo.delta_rho(s1, g1[0], n))) < 1e-8

        s2 = ExcitationSpec("type_II", alpha)
        g2 = thermo.solve_density_equation(
            lambda x: (thermo.a_m(x - alpha, 4) - thermo.a_m(x - alpha, 2)) / n
        )
        assert np.max(np.abs(g2[1] - thermo.delta_rho(s2, g2[0], n))) < 1e-8

    def test_excitation_profile_integrals(self):
        n = 24
        p1 = thermo.excitation_profile(ExcitationSpec("type_I", 0.3), n)
        assert abs(p1.total_integral() - (-1 / n)) < 1e-9
        p2 = thermo.excitation_profile(ExcitationSpec("type_II", 0.3), n)
        assert abs(p2.total_integral() - (-2 / n)) < 1e-9
        assert p2.holes == ((0.3, -1 / n),)

    def test_delta_rho_needs_finite_n(self):
        with pytest.raises(ValueError):
            thermo.delta_rho(ExcitationSpec("type_I", 0.0), 0.1, np.inf)

    def test_empirical_density_convergence(self):
        sets = []
        for n in (8, 16, 32):
            params = ModelParams(n_sites=n)
            sets.append(bae.solve_newton(
                bae.seed_from_quantum_numbers(bae.ground_numbers(n), params), params
            ))
        report = thermo.finite_size_density_check(sets, thermo.ground_profile(0.0, np.inf))
        devs = [r["max_deviation"] for r in report["per_size"]]
        assert report["trend_non_increasing"]
        assert devs[-1] < 0.02
        assert [r["filling"] for r in report["per_size"]] == [7 / 8, 15 / 16, 31 / 32]

    def test_density_check_rejects_complex_roots(self, params6):
        one = bae.solve_newton(
            bae.seed_from_quantum_numbers(bae.type_one_numbers(6, 0), params6), params6
        )
        with pytest.raises(ValueError):
            thermo.finite_size_density_check([one], thermo.ground_profile(0.0, np.inf))


class TestEnergies:
    def test_ground_energy_closed_form(self):
        val = thermo.ground_energy_density()
        assert abs(val - (3 - 3 * SQ3) / 2) < 1e-15

    def test_hole_delta_values(self):
        assert abs(thermo.hole_delta(0.0) - SQ6 / 2) < 1e-14
        for x in (0.4, 1.1, 2.5):
            want = (SQ6 / 2) * np.cosh(1.5 * x) / np.cosh(3 * x)
            assert abs(thermo.hole_delta(x) - want) < 1e-13
            assert abs(thermo.hole_delta(-x) - thermo.hole_delta(x)) < 1e-15

    def test_dispersion_values_at_zero(self):
        # each law carries its own constant, so the sech ratio 1 at zero gives it exactly
        assert thermo.excitation_energy(ExcitationSpec("type_I", 0.0)) == 1.5 * SQ3
        assert thermo.excitation_energy(ExcitationSpec("type_II", 0.0)) == 3 * SQ6
        assert thermo.hole_delta(0.0) == SQ6 / 2

    @pytest.mark.parametrize("x", [0.0, 0.4, -1.3, 3.0, 40.0])
    def test_sech_pair_laws_are_multiples_of_rho(self, x):
        rho = thermo.rho_bulk(x)
        for value, factor in ((thermo.hole_delta(x), np.pi / SQ3),
                              (thermo.excitation_energy(ExcitationSpec("type_II", x)),
                               2 * np.pi * SQ3)):
            assert abs(value - factor * rho) <= 1e-15 * factor * rho

    def test_type_two_is_a_delta_pair(self):
        for a in np.linspace(-2, 2, 9):
            lhs = thermo.excitation_energy(ExcitationSpec("type_II", a))
            rhs = 3 * (thermo.hole_delta(a) + thermo.hole_delta(-a))
            assert abs(lhs - rhs) < 1e-12

    def test_dispersions_against_quadrature(self):
        for a in (0.0, 0.7, -1.3):
            for kind in ("type_I", "type_II"):
                spec = ExcitationSpec(kind, a)
                closed = thermo.excitation_energy(spec)
                quadr = thermo.excitation_energy_quadrature(spec)
                assert abs(closed - quadr) < 1e-8

    def test_dispersion_scan_script_runs(self):
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(root / "src"), os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "dispersion_scan.py"), "--points", "3"],
            capture_output=True, text=True, timeout=120, check=False, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        last = proc.stdout.strip().splitlines()[-1]
        assert last.startswith("worst closed-form vs quadrature deviation:")
        assert float(last.split(":")[1]) < 1e-8

    def test_consistency_guard_fires_on_broken_cache(self, monkeypatch):
        monkeypatch.setattr(thermo, "E_GROUND_DENSITY", -1.0)
        with pytest.raises(ConsistencyError):
            thermo.ground_energy_density()


class TestScattering:
    @settings(max_examples=80, deadline=None)
    @given(finite_alpha, finite_alpha)
    def test_unimodular_and_swap_inverse(self, a1, a2):
        for proc in ("I_I", "II_II", "I_II"):
            s = thermo.smatrix(proc, a1, a2).value
            assert abs(abs(s) - 1) < 1e-12
            assert abs(s * thermo.smatrix(proc, a2, a1).value - 1) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(finite_alpha)
    def test_no_scattering_at_equal_rapidity(self, a):
        for proc in ("I_I", "II_II", "I_II"):
            assert abs(thermo.smatrix(proc, a, a).value - 1) < 1e-12

    def test_like_processes_coincide(self):
        for a1, a2 in ((0.3, -0.8), (1.7, 0.2)):
            assert thermo.smatrix("I_I", a1, a2).value == thermo.smatrix("II_II", a1, a2).value

    def test_mixed_process_differs(self):
        gap = abs(thermo.smatrix("I_II", 1.0, 0.0).value - thermo.smatrix("I_I", 1.0, 0.0).value)
        assert gap > 1e-2

    def test_unknown_process(self):
        with pytest.raises(ValueError):
            thermo.smatrix("I_III", 0.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-8, max_value=8, allow_nan=False))
def test_theta_odd_property(x):
    for m in (1, 2, 4):
        assert abs(thermo.theta_m(x, m) + thermo.theta_m(-x, m)) < 1e-11


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-8, max_value=8, allow_nan=False))
def test_kernel_even_property(x):
    for m in (1, 2):
        assert thermo.a_m(x, m) > 0
        assert abs(thermo.a_m(x, m) - thermo.a_m(-x, m)) < 1e-14
    assert abs(thermo.a_m(x, 4) + thermo.a_m(x, 2)) < 1e-14


BIG = np.finfo(float).max


@settings(max_examples=300, deadline=None)
@given(any_finite, any_finite, st.integers(min_value=2, max_value=10**6))
@example(BIG, -BIG, 2)
@example(-BIG, BIG, 3)
@example(1000.0, -1000.0, 4)
def test_closed_forms_finite_at_every_rapidity(x, a, n):
    # cosh and sinh overflow past |y| ~ 710; a RuntimeWarning is an error under pytest
    values = [thermo.rho_bulk(x), thermo.rho_ground(x, a, n), thermo.hole_delta(x)]
    for kind in ("type_I", "type_II"):
        values += [thermo.excitation_energy(ExcitationSpec(kind, x)),
                   thermo.delta_rho(ExcitationSpec(kind, a), x, n)]
    assert np.all(np.isfinite(values))
    for proc in ("I_I", "II_II", "I_II"):
        s = thermo.smatrix(proc, x, a).value
        assert np.isfinite(s) and abs(abs(s) - 1) <= 1e-15


def _plain_kernels(x, m):
    """a_m and a_m_fourier in their plain cosh and sinh forms, overflow allowed, each
    with whether its cosh or sinh stayed finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        c, s = np.cosh(2 * x), np.sinh(np.pi * x / 2)
        a = (1 / np.pi) * np.sin(m * thermo.GAMMA) / (c - np.cos(m * thermo.GAMMA))
        fourier = np.sinh(np.pi * x / 2 - m / 6.0 * np.pi * x) / s
    return a, bool(np.isfinite(c)), fourier, bool(np.isfinite(s))


@settings(max_examples=300, deadline=None)
@given(any_finite)
@example(400.0)
@example(500.0)
@example(BIG)
@example(-BIG)
@example(452.30298031293574)  # the largest w at which sinh(pi w / 2) is finite
@example(355.23793003697195)  # the largest lam at which cosh(2 lam) is finite
def test_kernels_finite_at_every_argument(x):
    # a_m(400, 1) and a_m_fourier(500, 1) overflowed in cosh and sinh; where the
    # plain forms do not overflow, the kernels keep their bits
    for m in (1, 2, 4):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning, not only a RuntimeWarning
            a, fourier = thermo.a_m(x, m), thermo.a_m_fourier(x, m)
        assert np.isfinite(a) and np.isfinite(fourier)
        plain_a, cosh_finite, plain_fourier, sinh_finite = _plain_kernels(x, m)
        if cosh_finite:
            assert a == plain_a
        if sinh_finite and abs(x) >= 1e-12:  # below, the removable point 1 - m/3
            assert fourier == plain_fourier


@pytest.mark.parametrize("m", [1, 2, 4])
def test_fourier_tail_continues_the_ratio(m):
    # the two floats either side of the overflow of sinh(pi w / 2)
    inside = 452.30298031293574
    outside = np.nextafter(inside, np.inf)
    ratio = thermo.a_m_fourier(inside, m)
    tail = thermo.a_m_fourier(outside, m)
    assert not _plain_kernels(outside, m)[3]
    assert abs(tail - ratio) <= 1e-12 * abs(ratio)
    assert thermo.a_m_fourier(-outside, m) == tail
