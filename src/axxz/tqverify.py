"""Functional identities tying transfer eigenvalues to their zero points.

Every transfer eigenvalue factors as Lambda(u) = Lambda_0 prod_j sinh(u - z_j)
with exactly N-1 zeros. The factored form is pinned down by two families of
identities built from

    a(u) = prod_l sinh(u - theta_l + eta) / sinh(eta),    d(u) = a(u - eta):

the bilinear relation Lambda(theta_j) Lambda(theta_j - eta) = q(theta_j),
with the quantum determinant q(u) = -a(u) d(u - eta), at the inhomogeneity
points, and a cubic relation that holds at every u. This module extracts the
factored form from eigenvectors by one FFT of 4N samples and verifies the
identities numerically.
"""
from __future__ import annotations

import functools

import numpy as np

from .bae import canonicalize
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


def quantum_determinant(u, params: ModelParams):
    """The quantum determinant q(u) = -a(u) d(u - eta); vectorized in u."""
    return -a_function(u, params) * d_function(np.asarray(u) - ETA, params)


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
    """|lhs - sum(terms)| relative to the largest of lhs and the terms, pointwise."""
    scale = np.max(np.abs([lhs, *terms]), axis=0)
    return np.abs(lhs - sum(terms)) / np.maximum(scale, 1e-300)


def _f3(u, f: SpectralFunction):
    """F3(u) = Lambda(u) Lambda(u - eta) Lambda(u - 2 eta), and these three factors."""
    lam = lambda_from_zeros(np.array([u, u - ETA, u - 2 * ETA]), f)
    return lam[0] * lam[1] * lam[2], lam


def _cubic_residuals(u, f: SpectralFunction, params: ModelParams):
    """Relative residuals of the cubic identity (see verify_cubic) at every point of u."""
    f3, lam = _f3(u, f)
    q = quantum_determinant(np.array([u, u - ETA, u + ETA]), params)
    sign = (-1) ** params.n_sites
    return _rel_residual(f3, (q[0] * lam[2], q[1] * lam[0], -sign * q[2] * lam[1]))


def verify_bilinear(f: SpectralFunction, params: ModelParams) -> dict:
    """Residuals of Lambda(th_j) Lambda(th_j - eta) = q(th_j)."""
    th = params.theta_array
    resid = _rel_residual(lambda_from_zeros(th, f) * lambda_from_zeros(th - ETA, f),
                          [quantum_determinant(th, params)])
    return {"residuals": tuple(resid.tolist()), "max_residual": float(np.max(resid))}


@functools.lru_cache(maxsize=16)
def _draw_samples(count: int) -> np.ndarray:
    """Generic complex points, rejecting the lines Im u = k*pi/6 where the
    cubic's individual terms can degenerate. About 15% of the candidates are
    rejected; 2 count + 16 of them hold count points for every count to 10^6.
    Drawn once per count and returned read-only, as every call shares them."""
    draws = np.random.default_rng(71).uniform(-1, 1, (2 * count + 16, 2))
    near = np.abs(draws[:, 1, None] - np.pi / 6 * np.arange(-6, 7)).min(axis=1) < 0.05
    pts = (draws[:, 0] + 1j * draws[:, 1])[~near][:count]
    pts.flags.writeable = False
    return pts


def verify_cubic(f: SpectralFunction, params: ModelParams, samples=20) -> dict:
    """Check the cubic identity at generic points.

    F3(u) = q(u) Lambda(u-2eta) + q(u-eta) Lambda(u) - (-1)^N q(u+eta) Lambda(u-eta),

    with F3(u) = Lambda(u) Lambda(u-eta) Lambda(u-2eta) and q the quantum
    determinant. samples may be a count (points drawn reproducibly away from
    degenerate lines) or an explicit array of u values. Residuals are
    relative to the largest term at each point.
    """
    pts = _draw_samples(samples) if np.isscalar(samples) else np.asarray(samples, dtype=complex)
    resid = _cubic_residuals(pts, f, params)
    return {"residuals": tuple(resid.tolist()), "max_relative_residual": float(np.max(resid))}


def verify_f3_properties(f: SpectralFunction, params: ModelParams) -> dict:
    """Properties of F3(u) = Lambda(u) Lambda(u-eta) Lambda(u-2eta).

    F3 is quasi-periodic, F3(u + eta) = (-1)^(N-1) F3(u). At u = th_j,
    th_j + eta and th_j + 2 eta two of the three terms of the cubic
    identity vanish, leaving

        F3(th_j)        = q(th_j) Lambda(th_j - 2 eta)
        F3(th_j + eta)  = q(th_j) Lambda(th_j + eta)
        F3(th_j + 2eta) = -(-1)^N q(th_j + 3 eta) Lambda(th_j + eta)

    where q(th_j + 3 eta) = q(th_j), as q has period i pi. Returns the max
    relative residual of each family.
    """
    u = np.asarray(_CHECK_POINTS)
    f3 = _f3(np.array([u + ETA, u]), f)[0]
    qp = _rel_residual(f3[0], [(-1) ** (params.n_sites - 1) * f3[1]])
    at = _cubic_residuals(params.theta_array + ETA * np.arange(3)[:, None], f, params)
    return {
        "quasi_periodicity": float(np.max(qp)),
        "at_theta": float(np.max(at[0])),
        "at_theta_plus_eta": float(np.max(at[1])),
        "at_theta_plus_2eta": float(np.max(at[2])),
    }
