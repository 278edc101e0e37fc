"""Closed-form thermodynamic-limit quantities and their quadrature checks.

Kernels a_m, the ground-state root density with its two boundary holes,
the hole contribution Delta, the ground energy density (3 - 3*sqrt(3))/2,
both elementary dispersion laws, the density shifts they induce, and the
three two-body scattering amplitudes. Every Fourier-derived closed form
can be re-checked against a direct numerical solution of its integral
equation, by conjugate gradients with an FFT mat-vec (numpy only). The
energy quadratures are trapezoid sums on a uniform grid centred where the
density decays from: each integrand is analytic in a strip around the real
axis and decays exponentially, so the sum converges geometrically and no
adaptive integrator is needed.
"""
from __future__ import annotations

import math

import numpy as np

from .model import (
    ConsistencyError,
    DensityProfile,
    ExcitationSpec,
    ScatteringAmplitude,
)

GAMMA = np.pi / 3
SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)
SQ6 = math.sqrt(6.0)

QUAD_CUTOFF = 25.0  # all integrands here decay at least like exp(-3|lam|/2)

# the largest argument at which cosh and sinh are finite, ln(2 * DBL_MAX) = 710.4758...
_COSH_MAX = math.log(np.finfo(float).max) + math.log(2)

E_GROUND_DENSITY = (3 - 3 * SQ3) / 2
_RHO_0 = 3 * SQ2 / (2 * np.pi)  # rho_bulk(0)


def theta_m(lam, m: int):
    """Odd continuous branch of -i*ln[sinh(i*m*pi/6 - lam)/sinh(i*m*pi/6 + lam)].

    For m in {1, 2, 4} and real lam the principal logarithm is already
    continuous and odd, with ranges (-2pi/3, 2pi/3), (-pi/3, pi/3) and the
    negative of the m=2 branch respectively, and equals
    2*atan(tanh(lam)/tan(m*pi/6)), which is what is evaluated.
    """
    if m not in (1, 2, 4):
        raise ValueError("theta_m is defined for m in {1, 2, 4}")
    lam = np.asarray(lam, dtype=float)
    out = 2 * np.arctan(np.tanh(lam) / math.tan(m * np.pi / 6))
    return out if out.ndim else float(out)


def a_m(lam, m: int):
    """Derivative kernel: theta_m'(lam) = 2*pi*a_m(lam).

    2 lam is clipped to where cosh stays finite, so a_m is finite and
    warning-free at every finite lam: below 5e-309 past |lam| = 355.2, and
    with the bits of the unclipped form up to there.
    """
    if m not in (1, 2, 4):
        raise ValueError("a_m is defined for m in {1, 2, 4}")
    lam = np.clip(np.asarray(lam, dtype=float), -_COSH_MAX / 2, _COSH_MAX / 2)
    out = (1 / np.pi) * np.sin(m * GAMMA) / (np.cosh(2 * lam) - np.cos(m * GAMMA))
    return out if out.ndim else float(out)


def counting_inverse(x):
    """Inverse of the infinite-size counting function (1/pi)*atan(sqrt2*sinh(3lam/2)).

    Used to place initial guesses for bulk roots at quantum-number fraction
    x = I/N. Saturates near |x| = 1/2 where the true inverse diverges.
    """
    x = np.clip(np.asarray(x, dtype=float), -0.49999, 0.49999)
    out = (2.0 / 3.0) * np.arcsinh(np.tan(np.pi * x) / SQ2)
    return out if out.ndim else float(out)


def _y(a, b=0.0):
    """y = 3(a - b)/2, formed from the halves of a and b, which cannot overflow, and
    clipped to |y| <= 900, far past where sech y underflows to 0; below that it has
    the bits of 1.5 * (a - b)."""
    half = 0.5 * np.asarray(a, dtype=float) - 0.5 * np.asarray(b, dtype=float)
    return 3 * np.clip(half, -300.0, 300.0)


def _sech(a, b=0.0):
    """sech y for y = 3(a - b)/2, finite and warning-free at every finite a and b.

    The sech family of closed forms all goes through here. sech y is
    2e/(1 + e^2) from e = exp(-|y|), which can only underflow, where cosh
    overflows from |y| ~ 710 on.
    """
    e = np.exp(-np.abs(_y(a, b)))
    return 2 * e / (1 + e * e)


def _sech_ratio(a, b=0.0):
    """cosh y / cosh 2y = s / (2 - s^2), with s = sech y and y = 3(a - b)/2."""
    s = _sech(a, b)
    return s / (2 - s * s)


def rho_bulk(lam):
    """Infinite-size smooth root density (3*sqrt2/2pi) cosh(3lam/2)/cosh(3lam)."""
    out = _RHO_0 * _sech_ratio(lam)
    return out if out.ndim else float(out)


def rho_ground(lam, hole_pos: float, n) -> float:
    """Smooth part of the ground-state density at system size n.

    Bulk term minus the 1/n backflow of the two boundary holes at
    +-hole_pos. The holes' own delta atoms (weight -1/(3n) each) live in
    DensityProfile.holes, not here. n = inf drops all corrections.
    """
    out = rho_bulk(lam)
    if np.isfinite(n):
        out = out - (1 / (4 * np.pi * n)) * (_sech(lam, hole_pos) + _sech(lam, -hole_pos))
    return out if np.ndim(out) else float(out)


def ground_profile(hole_pos: float, n) -> DensityProfile:
    holes = ()
    if np.isfinite(n):
        holes = ((-hole_pos, -1 / (3 * n)), (hole_pos, -1 / (3 * n)))
    return DensityProfile(smooth=lambda x: rho_ground(x, hole_pos, n), holes=holes)


def hole_delta(hole_pos: float) -> float:
    """Energy contribution of one boundary hole at hole_pos.

    The closed form (sqrt3/4)[sech(3l/2 + i pi/4) + sech(3l/2 - i pi/4)]
    + (sqrt3/2) i tanh(3l) carries an odd imaginary piece that cancels
    against the mirror hole in every physical combination (the two holes
    always come as +-hole_pos), so the even real part is returned. The
    sech pair is real: (sqrt6/2) cosh(3l/2)/cosh(3l), which is
    (pi/sqrt3) rho_bulk(l).
    """
    return float((SQ6 / 2) * _sech_ratio(hole_pos))


def _coth(z):
    return 1.0 / np.tanh(z)


def _energy_quadrature(profile: DensityProfile, centre: float, root_terms=()):
    """i*sqrt3 * (integral coth(lam - i pi/6) rho(lam) + sum coth(z)) for the O(1)
    density rho of profile, smooth part plus hole atoms.

    root_terms are the z-plane positions of discrete roots added on top of
    the sea; each atom (position p, weight w) adds w * i*sqrt3 coth(p - i pi/6).
    The smooth integrand is analytic for |Im lam| < pi/6 and negligible
    farther than QUAD_CUTOFF from centre, the point the density decays from,
    so the trapezoid sum on 801 uniform nodes around it converges
    geometrically.
    """
    x = centre + np.linspace(-QUAD_CUTOFF, QUAD_CUTOFF, 801)
    total = np.trapezoid(1j * SQ3 * _coth(x - 1j * np.pi / 6) * profile.smooth(x), x)
    for z in root_terms:
        total += 1j * SQ3 * _coth(z)
    for p, w in profile.holes:
        total += w * (1j * SQ3 * _coth(p - 1j * np.pi / 6))
    return total


def ground_energy_density() -> float:
    """Ground energy per site, (3 - 3*sqrt3)/2.

    The value is recomputed by quadrature over the bulk density (E/N =
    2 sinh(eta) int coth(lam - i pi/6) rho + cosh(eta)), and the two must
    agree to 1e-8.
    """
    val = _energy_quadrature(DensityProfile(rho_bulk), 0.0) + 0.5
    if abs(val.real - E_GROUND_DENSITY) > 1e-8 or abs(val.imag) > 1e-8:
        raise ConsistencyError(
            f"quadrature {val} disagrees with closed form {E_GROUND_DENSITY}"
        )
    return E_GROUND_DENSITY


def excitation_energy(spec: ExcitationSpec) -> float:
    """Closed-form dispersion of one elementary excitation: (3 sqrt3/2) sech(3a/2)
    for type_I, and 3 sqrt6 cosh(3a/2)/cosh(3a), which is 2 pi sqrt3 rho_bulk(a),
    for type_II."""
    if spec.kind == "type_I":
        return float((3 * SQ3 / 2) * _sech(spec.alpha))
    return float(3 * SQ6 * _sech_ratio(spec.alpha))


def delta_rho(spec: ExcitationSpec, lam, n) -> float:
    """Smooth density shift induced by one excitation at system size n.

    type_I: -(1/n) * rho_bulk(lam - alpha). type_II: one sech around alpha
    from the string and one from the bulk hole it drags along to alpha; the
    hole's -1/n delta atom is carried by excitation_profile, not sampled here.
    """
    if not np.isfinite(n):
        raise ValueError("density shifts are O(1/n); pass a finite n")
    if spec.kind == "type_I":
        out = -_RHO_0 * _sech_ratio(lam, spec.alpha) / n
    else:
        out = -(3 / (2 * np.pi * n)) * _sech(lam, spec.alpha)
    return out if np.ndim(out) else float(out)


def excitation_profile(spec: ExcitationSpec, n) -> DensityProfile:
    holes = ((spec.alpha, -1 / n),) if spec.kind == "type_II" else ()
    return DensityProfile(smooth=lambda x: delta_rho(spec, x, n), holes=holes)


def excitation_energy_quadrature(spec: ExcitationSpec) -> float:
    """Dispersion recomputed from the density shift instead of the closed form.

    The n factors cancel, so the shift is excitation_profile at n = 1: the
    smooth n * delta_rho and, for type_II, the dragged bulk hole of weight -1.
    The excited roots enter as discrete coth terms. The shift decays from
    alpha, so the grid is centred there, which holds the sum to rounding at
    every |alpha| <= 700.
    """
    a = spec.alpha
    roots = {"type_I": (a - 2j * np.pi / 3,), "type_II": (a + 1j * np.pi / 6, a - 1j * np.pi / 2)}
    val = _energy_quadrature(excitation_profile(spec, 1), a, roots[spec.kind])
    if abs(val.imag) > 1e-8:
        raise ConsistencyError(f"dispersion quadrature came out complex: {val}")
    return float(val.real)


def smatrix(process: str, alpha1: float, alpha2: float) -> ScatteringAmplitude:
    """Two-body scattering amplitude for the three processes.

    I_I and II_II share -(sinh[3(a1-a2)/2] - i)/(sinh[3(a1-a2)/2] + i).
    I_II uses sqrt2 * sinh[3(a2-a1)/2] in the same Cayley form; note the
    swapped argument order in its phase. With c sinh y divided through by
    cosh y, the form is -(c tanh y - i sech y)/(c tanh y + i sech y), which
    stays finite where sinh overflows.
    """
    if process not in ("I_I", "II_II", "I_II"):
        raise ValueError(f"unknown process {process!r}")
    c, a, b = (SQ2, alpha2, alpha1) if process == "I_II" else (1.0, alpha1, alpha2)
    x, s = c * np.tanh(_y(a, b)), _sech(a, b)
    value = -(x - 1j * s) / (x + 1j * s)
    return ScatteringAmplitude(value=complex(value))


_CG_CAP = 40  # the solve takes 15-16 iterations at every grid size used here


def solve_density_equation(inhomogeneity, n_points: int = 4001):
    """Solution of f = inhomogeneity + a_2 * f on a uniform grid over [-20, 20].

    Returns (grid, solution). Direct numerical oracle for the Fourier-derived
    closed forms. Every node carries the weight h, so the discrete system
    (1 - h A) f = g is symmetric Toeplitz; the end weights differ from the
    trapezoid's h/2 only where every source used here is below 1e-13. Its
    symbol 1 - a_2^ lies in [2/3, 1], so plain conjugate gradients converge
    by about a factor 10 per iteration: 15-16 iterations reach the stop
    ||r|| <= 4 eps ||g|| at every n. Each mat-vec embeds the matrix in a
    zero-padded circulant of power-of-two length at least 2n - 1 and costs
    one rfft/irfft pair. Raises ConsistencyError if the stop is not reached
    in _CG_CAP iterations (a non-finite source never reaches it).
    """
    grid = np.linspace(-20.0, 20.0, n_points)
    h = grid[1] - grid[0]
    col = -h * a_m(grid - grid[0], 2)  # a_2 is even: entry i, j is a_2(|i - j| h)
    col[0] += 1
    size = 1 << (2 * n_points - 2).bit_length()
    embedded = np.zeros(size)
    embedded[:n_points] = col
    embedded[size - n_points + 1:] = col[:0:-1]
    symbol = np.fft.rfft(embedded).real  # the embedding is symmetric, so its spectrum is real

    g = np.asarray(inhomogeneity(grid), dtype=float)
    f = np.zeros(n_points)
    r = g.copy()
    p = r.copy()
    rr = r @ r
    stop = (4 * np.finfo(float).eps) ** 2 * rr
    iterations = 0
    while not rr <= stop:  # written so that a NaN residual never passes
        if iterations == _CG_CAP:
            raise ConsistencyError(
                f"density solve: conjugate gradients left ||r|| = {math.sqrt(rr):.3g} "
                f"after {_CG_CAP} iterations, stop at {math.sqrt(stop):.3g}")
        q = np.fft.irfft(symbol * np.fft.rfft(p, size), size)[:n_points]
        step = rr / (p @ q)
        f += step * p
        r -= step * q
        rr, rr_old = r @ r, rr
        p = r + (rr / rr_old) * p
        iterations += 1
    return grid, f


def finite_size_density_check(sets, profile: DensityProfile) -> dict:
    """Empirical root densities versus a smooth profile, per system size.

    Each entry of sets must be a converged ground-like solution with real,
    ascending shifted roots; the empirical density at midpoints is
    1/(N * spacing). Reports the max deviation inside |lam| <= 1.5 and
    whether the deviation trend is non-increasing in N.
    """
    rows = []
    for zps in sets:
        lam = np.asarray(zps.shifted, dtype=complex)
        if np.max(np.abs(lam.imag)) > 1e-8:
            raise ValueError("density check needs all-real shifted roots")
        lam = lam.real
        if np.any(np.diff(lam) <= 0):
            raise ValueError("density check needs ascending roots")
        n = zps.n_sites
        mids = 0.5 * (lam[1:] + lam[:-1])
        emp = 1.0 / (n * np.diff(lam))
        mask = np.abs(mids) <= 1.5
        dev = np.max(np.abs(emp[mask] - np.asarray(profile.smooth(mids[mask]), dtype=float)))
        rows.append({"n": n, "max_deviation": float(dev), "filling": (len(lam)) / n})
    rows.sort(key=lambda r: r["n"])
    devs = [r["max_deviation"] for r in rows]
    return {
        "per_size": rows,
        "trend_non_increasing": all(b <= a * 1.05 for a, b in zip(devs, devs[1:])),
    }
