"""Functional identities tying transfer eigenvalues to their zero points.

Every transfer eigenvalue factors as Lambda(u) = Lambda_0 prod_j sinh(u - z_j)
with exactly N-1 zeros. The factored form is pinned down by two families of
identities built from

    a(u) = prod_l sinh(u - theta_l + eta) / sinh(eta),    d(u) = a(u - eta):

the bilinear relation Lambda(theta_j) Lambda(theta_j - eta) =
-a(theta_j) d(theta_j - eta) at the inhomogeneity points, and a cubic
relation that holds at every u. This module extracts the factored form from
eigenvectors by one FFT of 4N samples, fits the prefactor from zero sets,
and verifies the identities numerically.
"""
from __future__ import annotations

import numpy as np

from .bae import _zeros_of, canonicalize
from .core import transfer_eigenvalue_on_state
from .model import (
    ETA,
    SINH_ETA,
    U_PROBE,
    InconsistentZeroSetError,
    ModelParams,
    SpectralFunction,
)

# generic probe points for pointwise identity checks; chosen off the lines
# Im u = k*pi/6 where individual factors can vanish
_CHECK_POINTS = (0.31 + 0.23j, -0.47 + 0.11j, 0.08 - 0.29j, 0.64 + 0.37j, U_PROBE)


def a_function(u, params: ModelParams):
    """a(u) = prod_l sinh(u - theta_l + eta) / sinh(eta); vectorized in u."""
    th = params.theta_array
    u = np.asarray(u, dtype=complex)
    val = np.prod(np.sinh(u[..., None] - th + ETA) / SINH_ETA, axis=-1)
    return val if val.ndim else complex(val)


def d_function(u, params: ModelParams):
    """d(u) = a(u - eta) = prod_l sinh(u - theta_l) / sinh(eta)."""
    th = params.theta_array
    u = np.asarray(u, dtype=complex)
    val = np.prod(np.sinh(u[..., None] - th) / SINH_ETA, axis=-1)
    return val if val.ndim else complex(val)


def lambda_from_zeros(u, f: SpectralFunction):
    """Evaluate Lambda(u) = lambda0 * prod_j sinh(u - z_j); vectorized in u."""
    z = np.asarray(f.zeros, dtype=complex)
    u = np.asarray(u, dtype=complex)
    val = f.lambda0 * np.prod(np.sinh(u[..., None] - z), axis=-1)
    return val if val.ndim else complex(val)


def fit_lambda0(zeros, params: ModelParams) -> SpectralFunction:
    """Fix the prefactor of a zero set through the bilinear identity.

    At each theta_j the identity determines lambda0 squared; the square root
    is taken at the best-conditioned point. The sign is a convention: both
    signs of lambda0 occur in the spectrum with identical zeros (the spin
    flip along z maps one onto the other), and every identity used here is
    even in lambda0. Residuals of the identity at all N points travel with
    the result; they diagnose an inconsistent zero set when the thetas are
    distinct (coincident thetas collapse everything onto one equation, which
    the fit satisfies by construction). The fit itself only fails when the
    product of sinh factors is negligible at every point.
    """
    z = _zeros_of(zeros)
    th = params.theta_array
    if len(z) != params.n_sites - 1:
        raise InconsistentZeroSetError(
            f"{len(z)} zeros cannot belong to an N = {params.n_sites} eigenvalue"
        )
    prods = np.array([
        np.prod(np.sinh(t - z)) * np.prod(np.sinh(t - ETA - z)) for t in th
    ])
    rhs = np.array([
        -a_function(t, params) * d_function(t - ETA, params) for t in th
    ])
    scale = max(1.0, float(np.max(np.abs(rhs))))
    usable = np.abs(prods) > 1e-12 * scale
    if not np.any(usable):
        raise InconsistentZeroSetError(
            "bilinear identity is degenerate at every inhomogeneity point"
        )
    best = int(np.argmax(np.abs(prods)))
    lam0 = complex(np.sqrt(rhs[best] / prods[best]))
    resid = tuple(
        float(abs(lam0 ** 2 * p - r) / max(abs(r), abs(lam0 ** 2 * p), 1e-300))
        for p, r in zip(prods, rhs)
    )
    return SpectralFunction(lambda0=lam0, zeros=tuple(z), fit_residuals=resid)


def _sampled_spectrum(state: np.ndarray, params: ModelParams):
    """(p_0..p_{N-1}, relative off-band weight) from the FFT of Lambda at
    u = 2 pi i k / 4N: Lambda(u) = sum_m p_m e^{(2m-(N-1))u} holds only the
    frequencies 2m-(N-1), all distinct mod 4N."""
    grid = 4 * params.n_sites
    samples = transfer_eigenvalue_on_state(2j * np.pi * np.arange(grid) / grid, params, state)
    spec = np.fft.fft(samples) / grid
    band = (2 * np.arange(params.n_sites) - (params.n_sites - 1)) % grid
    total = np.linalg.norm(spec)
    off = float(np.linalg.norm(np.delete(spec, band)) / total) if total else 0.0
    return spec[band], off


def spectral_function_from_state(state: np.ndarray, params: ModelParams) -> SpectralFunction:
    """Extract the factored eigenvalue carried by one joint eigenvector.

    Lambda(u) e^{(N-1)u} is a degree N-1 polynomial in x = e^{2u}, whose
    coefficients are read off the FFT of 4N samples on the imaginary axis;
    its roots are e^{2 z_j} and its leading coefficient carries lambda0.
    The off-band weight of the same FFT (see functional_form_check) travels
    with the result as band_weight.
    """
    coeff, off = _sampled_spectrum(state, params)
    if abs(coeff[-1]) < 1e-10 * np.max(np.abs(coeff)):
        raise InconsistentZeroSetError(
            "sampled eigenvalue has deficient degree; not a generic eigenvector"
        )
    roots = np.roots(coeff[::-1])
    z = canonicalize(np.log(roots) / 2)
    lam0 = coeff[-1] * 2 ** (len(coeff) - 1) * np.exp(np.sum(z))
    return SpectralFunction(lambda0=complex(lam0), zeros=tuple(z), band_weight=off)


def functional_form_check(state: np.ndarray, params: ModelParams) -> float:
    """Off-band Fourier weight of the sampled eigenvalue.

    On the imaginary axis the factored form only contains the frequencies
    N-1-2m, m = 0..N-1. Returns the relative weight outside that band in the
    FFT of 4N equispaced samples, the one the extraction reads; values at
    rounding level confirm the functional form it assumes.
    """
    return _sampled_spectrum(state, params)[1]


# ---------------------------------------------------------------------------
# identity verification


def _rel_residual(lhs, terms):
    scale = max(max(abs(t) for t in terms), abs(lhs), 1e-300)
    return abs(lhs - sum(terms)) / scale


def verify_bilinear(f: SpectralFunction, params: ModelParams) -> dict:
    """Residuals of Lambda(th_j) Lambda(th_j - eta) = -a(th_j) d(th_j - eta)."""
    resid = []
    for t in params.theta_array:
        lhs = lambda_from_zeros(t, f) * lambda_from_zeros(t - ETA, f)
        rhs = -a_function(t, params) * d_function(t - ETA, params)
        resid.append(_rel_residual(lhs, (rhs,)))
    return {"residuals": tuple(resid), "max_residual": max(resid)}


def _draw_samples(count: int, seed: int) -> np.ndarray:
    """Generic complex points, rejecting the lines Im u = k*pi/6 where the
    cubic's individual terms can degenerate."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        u = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if np.min(np.abs(u.imag - np.pi / 6 * np.arange(-6, 7))) < 0.05:
            continue
        pts.append(u)
    return np.array(pts)


def verify_cubic(f: SpectralFunction, params: ModelParams, samples=20,
                 seed: int = 71) -> dict:
    """Check the cubic identity at generic points.

    Lambda(u) Lambda(u-eta) Lambda(u-2eta)
        = -a(u) d(u-eta) Lambda(u-2eta) - a(u-eta) d(u-2eta) Lambda(u)
          + (-1)^N a(u+eta) d(u) Lambda(u-eta).

    samples may be a count (points drawn reproducibly away from degenerate
    lines) or an explicit array of u values. Residuals are relative to the
    largest term at each point.
    """
    pts = _draw_samples(samples, seed) if np.isscalar(samples) else np.asarray(samples, dtype=complex)
    sign = (-1) ** params.n_sites
    resid = []
    for u in pts:
        lhs = (lambda_from_zeros(u, f) * lambda_from_zeros(u - ETA, f)
               * lambda_from_zeros(u - 2 * ETA, f))
        terms = (
            -a_function(u, params) * d_function(u - ETA, params) * lambda_from_zeros(u - 2 * ETA, f),
            -a_function(u - ETA, params) * d_function(u - 2 * ETA, params) * lambda_from_zeros(u, f),
            sign * a_function(u + ETA, params) * d_function(u, params) * lambda_from_zeros(u - ETA, f),
        )
        resid.append(_rel_residual(lhs, terms))
    return {
        "points": tuple(complex(u) for u in pts),
        "residuals": tuple(resid),
        "max_relative_residual": max(resid),
    }


def verify_f3_properties(f: SpectralFunction, params: ModelParams) -> dict:
    """Properties of F3(u) = Lambda(u) Lambda(u-eta) Lambda(u-2eta).

    F3 is quasi-periodic, F3(u + eta) = (-1)^(N-1) F3(u), and at the
    inhomogeneity points it collapses onto single products:

        F3(th_j)        = -a d Lambda(th_j - 2 eta)
        F3(th_j + eta)  = -a d Lambda(th_j + eta)
        F3(th_j + 2eta) = (-1)^N a d Lambda(th_j + eta)

    with a d shorthand for a(th_j) d(th_j - eta). Returns the max relative
    residual of each family.
    """
    def f3(u):
        return (lambda_from_zeros(u, f) * lambda_from_zeros(u - ETA, f)
                * lambda_from_zeros(u - 2 * ETA, f))

    n = params.n_sites
    qp = max(
        _rel_residual(f3(u + ETA), ((-1) ** (n - 1) * f3(u),)) for u in _CHECK_POINTS
    )
    at0, at1, at2 = [], [], []
    for t in params.theta_array:
        ad = a_function(t, params) * d_function(t - ETA, params)
        at0.append(_rel_residual(f3(t), (-ad * lambda_from_zeros(t - 2 * ETA, f),)))
        at1.append(_rel_residual(f3(t + ETA), (-ad * lambda_from_zeros(t + ETA, f),)))
        at2.append(_rel_residual(
            f3(t + 2 * ETA), ((-1) ** n * ad * lambda_from_zeros(t + ETA, f),)
        ))
    return {
        "quasi_periodicity": qp,
        "at_theta": max(at0),
        "at_theta_plus_eta": max(at1),
        "at_theta_plus_2eta": max(at2),
    }
