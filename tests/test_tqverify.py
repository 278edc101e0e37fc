"""Factored-eigenvalue extraction and the functional identities.

Eigenvectors come straight from dense diagonalization, so every check here
is an independent cross-validation of the factored form: the FFT
extraction, the bilinear and cubic identities, and the Fourier band filter
all have to agree on the same state.
"""
import numpy as np
import pytest

from axxz import bae, core, tqverify
from axxz.model import (
    ETA,
    InconsistentZeroSetError,
    ModelParams,
    SpectralFunction,
    ZeroPointSet,
)


@pytest.fixture(scope="module")
def inhom_params():
    rng = np.random.default_rng(42)
    return ModelParams(n_sites=4, thetas=tuple(rng.uniform(-0.1, 0.1, 4)))


@pytest.fixture(scope="module")
def inhom_basis(inhom_params):
    return core.transfer_eigenbasis(inhom_params)


class TestAD:
    def test_d_is_shifted_a(self, inhom_params, rng):
        for _ in range(5):
            u = complex(*rng.uniform(-1, 1, 2))
            assert abs(tqverify.d_function(u, inhom_params)
                       - tqverify.a_function(u - ETA, inhom_params)) < 1e-12

    def test_homogeneous_values(self, params6):
        assert abs(tqverify.a_function(0.0, params6) - 1.0) < 1e-14
        assert abs(tqverify.d_function(ETA, params6) - 1.0) < 1e-14

    def test_vectorized(self, params6):
        us = np.array([0.1, 0.2 + 0.3j, -0.4j])
        vals = tqverify.a_function(us, params6)
        assert vals.shape == (3,)
        assert abs(vals[1] - tqverify.a_function(us[1], params6)) < 1e-14


class TestExtraction:
    def test_matches_direct_samples(self, params6, joint6):
        _, vecs = joint6
        f = tqverify.spectral_function_from_state(vecs[:, 3], params6)
        assert len(f.zeros) == 5
        for u in (0.17, 0.3 - 0.22j, 0.05 + 0.4j):
            direct = core.transfer_eigenvalue_on_state(u, params6, vecs[:, 3])
            assert abs(tqverify.lambda_from_zeros(u, f) - direct) < 1e-9 * max(1, abs(direct))

    def test_ground_zeros_match_solved_set(self, params6, joint6):
        _, vecs = joint6
        f = tqverify.spectral_function_from_state(vecs[:, 0], params6)
        solved = bae.solve_newton(
            bae.seed_from_quantum_numbers(bae.ground_numbers(6), params6), params6
        )
        got = np.sort_complex(np.asarray(f.zeros))
        want = np.sort_complex(solved.zeros)
        assert np.max(np.abs(got - want)) < 1e-7

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_zeros_satisfy_bae_across_sizes(self, n):
        params = ModelParams(n_sites=n)
        _, vecs = core.joint_eigenstates(params)
        worst = max(
            np.max(np.abs(bae.bae_residual(
                tqverify.spectral_function_from_state(vecs[:, i], params).zeros, params)))
            for i in np.linspace(0, 2**n - 1, 26).astype(int)
        )
        assert worst <= 1e-9

    def test_band_filter_is_tight(self, params6, joint6):
        _, vecs = joint6
        assert tqverify.functional_form_check(vecs[:, 10], params6) < 1e-10

    def test_band_weight_comes_with_the_extraction(self, params6, joint6):
        _, vecs = joint6
        f = tqverify.spectral_function_from_state(vecs[:, 10], params6)
        assert f.band_weight == tqverify.functional_form_check(vecs[:, 10], params6)

    def test_extraction_propagates_mixed_state_error(self, params6, joint6):
        from axxz.model import DegeneracyResolutionError

        _, vecs = joint6
        with pytest.raises(DegeneracyResolutionError):
            tqverify.spectral_function_from_state(vecs[:, 0] + vecs[:, 9], params6)


def fit_lambda0(zeros, params):
    """(SpectralFunction, residuals): a zero set with its prefactor fixed through
    the bilinear identity, and that identity's relative residuals at all N points.

    At each theta_j the identity determines lambda0 squared; the square root
    is taken at the best-conditioned point. The sign is a convention: both
    signs of lambda0 occur in the spectrum with identical zeros (the spin
    flip along z maps one onto the other), and every identity used here is
    even in lambda0. The residuals diagnose an inconsistent zero set when the
    thetas are distinct (coincident thetas collapse everything onto one
    equation, which the fit satisfies by construction). The fit itself only
    fails when the product of sinh factors is negligible at every point.
    """
    z = bae._zeros_of(zeros)
    th = params.theta_array
    if len(z) != params.n_sites - 1:
        raise InconsistentZeroSetError(
            f"{len(z)} zeros cannot belong to an N = {params.n_sites} eigenvalue"
        )
    unit = SpectralFunction(lambda0=1.0, zeros=z)
    prods = tqverify.lambda_from_zeros(th, unit) * tqverify.lambda_from_zeros(th - ETA, unit)
    rhs = tqverify.quantum_determinant(th, params)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    if not np.any(np.abs(prods) > 1e-12 * scale):
        raise InconsistentZeroSetError(
            "bilinear identity is degenerate at every inhomogeneity point"
        )
    best = int(np.argmax(np.abs(prods)))
    lam0 = complex(np.sqrt(rhs[best] / prods[best]))
    resid = tqverify._rel_residual(lam0 ** 2 * prods, [rhs])
    return SpectralFunction(lambda0=lam0, zeros=z), tuple(resid.tolist())


class TestFit:
    def test_fit_reproduces_eigenvalue_up_to_sign(self, params6, joint6):
        _, vecs = joint6
        extracted = tqverify.spectral_function_from_state(vecs[:, 0], params6)
        fitted, resid = fit_lambda0(np.asarray(extracted.zeros), params6)
        ratio = fitted.lambda0 / extracted.lambda0
        assert min(abs(ratio - 1), abs(ratio + 1)) < 1e-8
        assert max(resid) < 1e-10

    def test_wrong_count_rejected(self, params6):
        with pytest.raises(InconsistentZeroSetError):
            fit_lambda0(np.array([0.1, 0.2]), params6)

    def test_junk_zeros_show_large_residuals(self, inhom_params):
        # a consistent-count but wrong zero set must not fit silently; this
        # needs distinct thetas, since coincident ones give a single equation
        junk = np.array([0.4 - 0.5236j, -0.8 - 0.5236j, 1.3 - 0.5236j])
        _, resid = fit_lambda0(junk, inhom_params)
        assert max(resid) > 1e-2


class TestIdentities:
    @pytest.mark.parametrize("level", [0, 5, 11, 15])
    def test_inhomogeneous_levels(self, inhom_params, inhom_basis, level):
        _, vecs = inhom_basis
        f = tqverify.spectral_function_from_state(vecs[:, level], inhom_params)
        assert tqverify.verify_bilinear(f, inhom_params)["max_residual"] < 1e-8
        cubic = tqverify.verify_cubic(f, inhom_params, samples=20)
        assert cubic["max_relative_residual"] < 1e-6
        props = tqverify.verify_f3_properties(f, inhom_params)
        assert props["quasi_periodicity"] < 1e-8
        assert props["at_theta"] < 1e-8
        assert props["at_theta_plus_eta"] < 1e-8
        assert props["at_theta_plus_2eta"] < 1e-8

    def test_cubic_with_explicit_points(self, params6, joint6):
        _, vecs = joint6
        f = tqverify.spectral_function_from_state(vecs[:, 2], params6)
        pts = np.array([0.3 + 0.2j, -0.5 + 0.13j, 0.07 - 0.31j])
        out = tqverify.verify_cubic(f, params6, samples=pts)
        assert len(out["residuals"]) == 3
        assert out["max_relative_residual"] < 1e-8

    def test_cubic_detects_wrong_prefactor(self, params6, joint6):
        _, vecs = joint6
        f = tqverify.spectral_function_from_state(vecs[:, 2], params6)
        wrong = SpectralFunction(lambda0=1.7 * f.lambda0, zeros=f.zeros)
        assert tqverify.verify_cubic(wrong, params6, samples=10)["max_relative_residual"] > 1e-3

    def test_solved_roots_satisfy_identities(self, params6):
        zps = bae.solve_newton(
            bae.seed_from_quantum_numbers(bae.type_one_numbers(6, 0), params6), params6
        )
        f, _ = fit_lambda0(zps, params6)
        assert tqverify.verify_bilinear(f, params6)["max_residual"] < 1e-10
        assert tqverify.verify_cubic(f, params6)["max_relative_residual"] < 1e-8


# ---------------------------------------------------------------------------
# per-point reference formulas: the identity checks evaluated one scalar u at
# a time, as the definitions read


def _rel_residual_loop(lhs, terms):
    scale = max(max(abs(t) for t in terms), abs(lhs), 1e-300)
    return abs(lhs - sum(terms)) / scale


def _ad(u, params):
    return tqverify.a_function(u, params) * tqverify.d_function(u - ETA, params)


def _f3_loop(u, f):
    lam = tqverify.lambda_from_zeros
    return lam(u, f) * lam(u - ETA, f) * lam(u - 2 * ETA, f)


def _bilinear_loop(f, params):
    lam = tqverify.lambda_from_zeros
    resid = [_rel_residual_loop(lam(t, f) * lam(t - ETA, f), (-_ad(t, params),))
             for t in params.theta_array]
    return {"residuals": tuple(resid), "max_residual": max(resid)}


def _draw_samples_loop(count):
    rng = np.random.default_rng(71)
    pts = []
    while len(pts) < count:
        u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if np.min(np.abs(u.imag - np.pi / 6 * np.arange(-6, 7))) < 0.05:
            continue
        pts.append(u)
    return np.array(pts)


def _cubic_loop(f, params, samples):
    lam = tqverify.lambda_from_zeros
    sign = (-1) ** params.n_sites
    resid = []
    for u in _draw_samples_loop(samples):
        terms = (
            -_ad(u, params) * lam(u - 2 * ETA, f),
            -tqverify.a_function(u - ETA, params) * tqverify.d_function(u - 2 * ETA, params)
            * lam(u, f),
            sign * tqverify.a_function(u + ETA, params) * tqverify.d_function(u, params)
            * lam(u - ETA, f),
        )
        resid.append(_rel_residual_loop(_f3_loop(u, f), terms))
    return {"residuals": tuple(resid), "max_relative_residual": max(resid)}


def _f3_properties_loop(f, params):
    lam = tqverify.lambda_from_zeros
    n = params.n_sites
    qp = max(_rel_residual_loop(_f3_loop(u + ETA, f), ((-1) ** (n - 1) * _f3_loop(u, f),))
             for u in tqverify._CHECK_POINTS)
    at0, at1, at2 = [], [], []
    for t in params.theta_array:
        ad = _ad(t, params)
        at0.append(_rel_residual_loop(_f3_loop(t, f), (-ad * lam(t - 2 * ETA, f),)))
        at1.append(_rel_residual_loop(_f3_loop(t + ETA, f), (-ad * lam(t + ETA, f),)))
        at2.append(_rel_residual_loop(_f3_loop(t + 2 * ETA, f),
                                      ((-1) ** n * ad * lam(t + ETA, f),)))
    return {"quasi_periodicity": qp, "at_theta": max(at0),
            "at_theta_plus_eta": max(at1), "at_theta_plus_2eta": max(at2)}


def _fit_residuals_loop(zeros, params):
    z = np.asarray(zeros)
    prods = np.array([np.prod(np.sinh(t - z)) * np.prod(np.sinh(t - ETA - z))
                      for t in params.theta_array])
    rhs = np.array([-_ad(t, params) for t in params.theta_array])
    best = int(np.argmax(np.abs(prods)))
    lam0 = complex(np.sqrt(rhs[best] / prods[best]))
    return tuple(_rel_residual_loop(lam0 ** 2 * p, (r,)) for p, r in zip(prods, rhs))


@pytest.fixture(scope="module", params=[(4, None), (4, 5), (6, None), (6, 6), (8, None), (8, 7)],
                ids=lambda p: f"n{p[0]}-{'homogeneous' if p[1] is None else f'seed{p[1]}'}")
def sampled_levels(request):
    """(params, factored eigenvalues of 5 levels spread over the spectrum)."""
    n, seed = request.param
    thetas = None if seed is None else tuple(np.random.default_rng(seed).uniform(-0.1, 0.1, n))
    params = ModelParams(n_sites=n, thetas=thetas)
    _, vecs = core.joint_eigenstates(params) if seed is None else core.transfer_eigenbasis(params)
    levels = np.linspace(0, 2**n - 1, 5).astype(int)
    return params, [tqverify.spectral_function_from_state(vecs[:, i], params) for i in levels]


class TestAgainstLoops:
    """The array evaluation of each identity against the per-point formulas.

    The evaluation order differs (numpy's array and scalar complex products
    may round differently, and the at_theta checks carry the two vanishing
    terms of the cubic identity), so residuals of order 1e-15 agree to 1e-15.
    """

    def test_bilinear(self, sampled_levels):
        params, fs = sampled_levels
        for f in fs:
            got, want = tqverify.verify_bilinear(f, params), _bilinear_loop(f, params)
            assert np.allclose(got["residuals"], want["residuals"], rtol=0, atol=1e-15)
            assert abs(got["max_residual"] - want["max_residual"]) <= 1e-15

    def test_cubic(self, sampled_levels):
        params, fs = sampled_levels
        for f in fs:
            got, want = tqverify.verify_cubic(f, params, 20), _cubic_loop(f, params, 20)
            assert np.allclose(got["residuals"], want["residuals"], rtol=0, atol=1e-15)
            assert abs(got["max_relative_residual"] - want["max_relative_residual"]) <= 1e-15

    def test_f3_properties(self, sampled_levels):
        # at u = th + 2 eta the live term of the cubic identity holds
        # q(th + 3 eta), where the loop used q(th): equal, as q has period
        # i pi = 3 eta, but rounded apart by up to a few ulps
        params, fs = sampled_levels
        th, q = params.theta_array, tqverify.quantum_determinant
        period_gap = np.max(np.abs(q(th + 2 * ETA + ETA, params) / q(th, params) - 1))
        assert period_gap < 5e-15
        for f in fs:
            got, want = tqverify.verify_f3_properties(f, params), _f3_properties_loop(f, params)
            assert got.keys() == want.keys()
            for key in want:
                bound = 1e-15 + (period_gap if key == "at_theta_plus_2eta" else 0.0)
                assert abs(got[key] - want[key]) <= bound, key

    def test_fit_residuals(self, sampled_levels):
        params, fs = sampled_levels
        for f in fs:
            got = fit_lambda0(np.asarray(f.zeros), params)[1]
            assert np.allclose(got, _fit_residuals_loop(f.zeros, params), rtol=0, atol=1e-15)

    def test_draw_samples_reproduces_loop(self):
        for count in range(1, 201):
            assert np.array_equal(tqverify._draw_samples(count), _draw_samples_loop(count))

    def test_draw_samples_drawn_once_and_read_only(self, monkeypatch):
        tqverify._draw_samples.cache_clear()
        seeds = []
        rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: seeds.append(seed) or rng(seed))
        first = tqverify._draw_samples(20)
        assert tqverify._draw_samples(20) is first and seeds == [71]
        with pytest.raises(ValueError, match="read-only"):
            first[0] = 0.0

    def test_cubic_cost_independent_of_sample_count(self, params6, joint6, monkeypatch):
        f = tqverify.spectral_function_from_state(joint6[1][:, 2], params6)
        calls = []
        lam = tqverify.lambda_from_zeros

        def counting(u, g):
            calls.append(np.shape(u))
            return lam(u, g)

        monkeypatch.setattr(tqverify, "lambda_from_zeros", counting)
        counts = []
        for samples in (5, 200):
            calls.clear()
            assert len(tqverify.verify_cubic(f, params6, samples)["residuals"]) == samples
            counts.append(len(calls))
        assert counts[0] == counts[1]
