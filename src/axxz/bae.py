"""Zero-point Bethe equations: residuals, damped Newton, seeds, patterns.

The N-1 zeros z_j of a transfer eigenvalue satisfy, at eta = i*pi/3 and
inhomogeneities theta_l,

    prod_l sinh(z_j - theta_l) / sinh(z_j - theta_l - 2 eta)
        = prod_{k != j} sinh(z_j - z_k + eta) / sinh(z_j - z_k - eta),

and the energy is E = 2 sinh(eta) sum_j coth(z_j) + N cosh(eta). Residuals
are taken in logarithmic form, reduced mod 2 pi i, which keeps Newton steps
well-scaled and makes branch bookkeeping explicit.

A labeling is solved in two stages that share one damped-Newton loop: a real
solve of the idealized counting-function system of the root centres gives the
seed, and the complex zero-point equations are solved from it. Both systems are
in tanh form. The zero-point residual, its Jacobian and the root-pair scan run
over row blocks of _BLOCK entries, with one theta factor per distinct theta.
"""
from __future__ import annotations

import warnings

import numpy as np

from . import thermo
from .model import (
    COSH_ETA,
    SINH_ETA,
    Excitation,
    ModelParams,
    NonConvergenceError,
    NonPhysicalRootsError,
    QuantumNumberSet,
    RootCollisionError,
    RootPattern,
    SingularConfigurationError,
    ZeroPointSet,
)

_POLE_TOL = 1e-14
_TOL = 1e-12  # default Newton stop on the residual 2-norm
_MAX_ITER = 200  # Newton iterations before NonConvergenceError
_STALL = 12  # zero-point Newton iterations without a 10x fall of the best residual
_DEDUPE_TOL = 1e-8  # two converged roots closer than this are a collision
_BLOCK = 1 << 14  # entries per row block of the residual, Jacobian and root-pair scan
_SQ3 = np.sqrt(3.0)
_I_SQ3 = 1j * _SQ3  # tanh(eta)
_STRING_KICK = 0.045  # nudge string seeds off the exact line, where the
                      # Jacobian of an ideal string is singular


def canonicalize(z):
    """Reduce imaginary parts to (-pi/2, pi/2] using i*pi periodicity."""
    z = np.asarray(z, dtype=complex)
    im = np.mod(z.imag + np.pi / 2, np.pi) - np.pi / 2
    im = np.where(np.isclose(im, -np.pi / 2, atol=1e-9), np.pi / 2, im)
    return z.real + 1j * im


def _zeros_of(zeros) -> np.ndarray:
    if isinstance(zeros, ZeroPointSet):
        return np.asarray(zeros.zeros, dtype=complex)
    return np.asarray(zeros, dtype=complex)


def _row_blocks(z, params: ModelParams):
    """(lo, tanh(z_j - theta) per distinct theta, tanh(z_j - z_k)) for each block of
    rows j = lo, lo + 1, ...; the first root on a pole of the equations is refused."""
    thetas, step = params.theta_groups[0], max(1, _BLOCK // params.n_sites)
    for lo in range(0, len(z), step):
        t_th, t_zz = np.tanh(z[lo:lo + step, None] - thetas), np.tanh(z[lo:lo + step, None] - z)
        near = (abs(t_th) < _POLE_TOL).any(axis=1)
        for t, pole in ((t_th, -_I_SQ3), (t_zz, _I_SQ3), (t_zz, -_I_SQ3)):
            near |= (abs(t - pole) < _POLE_TOL).any(axis=1)
        rows = np.flatnonzero(near)
        if rows.size:
            raise SingularConfigurationError(f"root {lo + rows[0]} sits on a pole of the equations")
        yield lo, t_th, t_zz


def _log(w):
    """Principal log; log|w| + i angle(w) beats np.log on large complex arrays."""
    return np.log(np.abs(w)) + 1j * np.angle(w)


def bae_residual(zeros, params: ModelParams) -> np.ndarray:
    """Per-root logarithmic residual of the zero-point equations.

    Entry j is log(LHS_j) - log(RHS_j) with the principal branch, shifted by
    the integer multiple of 2 pi i that brings it into (-pi, pi]. A residual
    near zero for every j certifies a solution on a consistent branch. Each
    factor is rational in a tanh: sinh(x)/sinh(x - 2 eta) = -2t/(t + i sqrt3)
    at t = tanh(z_j - theta_l), and sinh(d + eta)/sinh(d - eta) =
    (t + i sqrt3)/(t - i sqrt3) at t = tanh(z_j - z_k).
    """
    z, inverse = _zeros_of(zeros), params.theta_groups[1]
    d = np.empty(len(z), dtype=complex)
    for lo, t_th, t_zz in _row_blocks(z, params):
        pair = _log((t_zz + _I_SQ3) / (t_zz - _I_SQ3))
        np.fill_diagonal(pair[:, lo:], 0.0)
        # take, unlike [:, inverse], returns C order: each row then sums pairwise
        theta = _log(-2 * t_th / (t_th + _I_SQ3)).take(inverse, axis=1)
        d[lo:lo + len(pair)] = theta.sum(axis=1) - pair.sum(axis=1)
    return d - 2j * np.pi * np.round(d.imag / (2 * np.pi))


def bae_jacobian(zeros, params: ModelParams) -> np.ndarray:
    """Analytic Jacobian of bae_residual, from d/dx log f(tanh x) = (1 - t^2) f'(t)/f(t)
    on each factor; the diagonal also subtracts the pair entries of its row.
    Each f'/f is one fraction, so no two near-equal terms cancel at large |t|."""
    z, inverse = _zeros_of(zeros), params.theta_groups[1]
    jac = np.empty((len(z), len(z)), dtype=complex)
    for lo, t_th, t_zz in _row_blocks(z, params):
        block = np.divide((1 - t_zz**2) * (-2 * _I_SQ3), t_zz**2 + 3, out=jac[lo:lo + len(t_zz)])
        np.fill_diagonal(block[:, lo:], 0.0)
        # not t * (t + c): numpy's temporary elision swaps the factors on large arrays
        f = (1 - t_th**2) * _I_SQ3 / np.multiply(t_th, t_th + _I_SQ3)
        np.fill_diagonal(block[:, lo:], f.take(inverse, axis=1).sum(axis=1) - block.sum(axis=1))
    return jac


def energy_from_zeros(zeros, params: ModelParams) -> float:
    """E = 2 sinh(eta) sum coth(z_j) + N cosh(eta); must come out real."""
    z = _zeros_of(zeros)
    e = 2 * SINH_ETA * np.sum(1 / np.tanh(z)) + params.n_sites * COSH_ETA
    if abs(e.imag) > 1e-8:
        raise NonPhysicalRootsError(
            f"energy has imaginary part {e.imag:.3e}; root set is not physical"
        )
    return float(e.real)


def solve_newton(initial, params: ModelParams, tol: float = _TOL) -> ZeroPointSet:
    """Damped Newton iteration on the logarithmic residuals.

    Full analytic Jacobian, backtracking line search that halves the step
    until the residual norm drops. Near a solution convergence is quadratic;
    a converged input returns in zero iterations. It stops when the residual
    2-norm is below tol or its max-norm is at most 32*eps*N: ground seeds
    already sit at 3.5e-13, 9.1e-13 and 1.8e-12 (6-8 eps*N) at N = 256, 512
    and 1024, out of reach of a fixed tol on the 2-norm of N-1 entries.
    It gives up early, with NonConvergenceError naming the residual and the
    closest pair of roots, once the best residual has not fallen 10x in
    _STALL iterations: such a path wanders, and ends in a collision, a
    non-physical energy or the iteration cap. The converged and the stalled
    exit each scan the root pairs once (_pair_scan): two roots closer than
    _DEDUPE_TOL are a RootCollisionError at either, and the stall message
    names the closest pair. The iteration-cap exit scans nothing. The energy
    is taken from the roots as iterated, before they are canonicalized.
    """
    if not 0 < tol < np.inf:  # a NaN fails both comparisons
        raise ValueError(f"tol must be positive and finite, got {tol}")
    floor = 32 * np.finfo(float).eps * params.n_sites
    z, nr, it, ok = _damped_newton(
        canonicalize(_zeros_of(initial)),
        lambda z: bae_residual(z, params),
        lambda z: bae_jacobian(z, params),
        lambda r, nr: nr < tol or np.max(np.abs(r)) <= floor,
        _MAX_ITER, 40, _STALL,
    )
    if it == _MAX_ITER:
        raise NonConvergenceError(
            f"no convergence in {_MAX_ITER} iterations (residual {nr:.3e})", float(nr)
        )
    j, k, gap = _pair_scan(z, _DEDUPE_TOL, float(nr))
    if not ok:
        raise NonConvergenceError(
            f"stalled at residual {nr:.3e}: no 10x fall in {_STALL} iterations "
            f"(closest roots {j} and {k}, {gap:.3e} apart)", float(nr)
        )
    return ZeroPointSet(
        zeros=canonicalize(z),
        energy=energy_from_zeros(z, params),
        residual=float(nr),
        iterations=it,
    )


def _damped_newton(x, residual, jacobian, converged, max_iter: int, halvings: int,
                   stall: int | None = None):
    """Damped Newton from x on residual(x) = 0; the loop of both solves.

    Stops at the first iterate where converged(r, |r|) holds, or else halves
    the Newton step up to `halvings` times until |r| drops. An accepted
    trial's residual is reused; after a refused search it is recomputed at
    the point taken. Returns (x, |r|, it, converged). It gives up after
    max_iter steps (x unchecked, |r| that of the point before) or, with a
    `stall`, at the first iterate whose best |r| so far is not 10x below the
    best of `stall` iterations before. A non-finite residual or a singular
    Jacobian raises NonConvergenceError.
    """
    r = None  # residual at x, carried over from an accepted line-search trial
    best = []  # best |r| up to each iteration
    for it in range(max_iter):
        if r is None:
            r = residual(x)
        norm = np.linalg.norm(r)
        if not np.isfinite(norm):
            raise NonConvergenceError(
                f"residual overflowed after {it} iterations; seed is unusable", float("inf")
            )
        if converged(r, norm):
            return x, norm, it, True
        best.append(min(norm, best[-1]) if best else norm)
        if stall and it >= stall and best[-1] * 10 > best[-1 - stall]:
            return x, norm, it, False
        try:
            step = np.linalg.solve(jacobian(x), -r)
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError(
                f"singular Jacobian after {it} iterations; re-seed", float(norm)
            ) from exc
        scale = 1.0
        for _ in range(halvings):
            r = residual(x + scale * step)
            if np.linalg.norm(r) < norm:
                break
            scale /= 2
        else:  # every halving refused: the step taken below was never tried
            r = None
        x = x + scale * step
    return x, norm, max_iter, False


def _pair_scan(z, tol, residual):
    """(j, k, |z_j - z_k|) for the closest pair j < k of the canonical roots, scanned in
    row blocks; the first pair closer than tol in row-major order is a RootCollisionError
    carrying `residual`."""
    zc = canonicalize(z)
    cols, step = np.arange(len(zc)), max(1, _BLOCK // max(len(zc), 1))
    best = (0, 0, np.inf)
    for lo in range(0, len(zc), step):
        gap = np.abs(zc[lo:lo + step, None] - zc)
        np.copyto(gap, np.inf, where=cols[lo:lo + step, None] >= cols)  # j >= k: diagonal and below
        j, k = divmod(int(np.argmin(gap)), len(zc))
        if gap[j, k] < tol:  # a pair of this block collided: name the first
            j, k = divmod(int(np.argmax(gap < tol)), len(zc))
            raise RootCollisionError(f"roots {lo + j} and {k} collided within {tol:g}; "
                                     "solve is invalid", residual)
        if gap[j, k] < best[2]:
            best = (lo + j, k, float(gap[j, k]))
    return best


# ---------------------------------------------------------------------------
# quantum numbers and seeding


def ground_numbers(n: int) -> QuantumNumberSet:
    """Bulk numbers c(N-1), no excitation; c(k) = _centred(k)."""
    return QuantumNumberSet(bulk=_centred(n - 1))


def type_one_numbers(n: int, j: float) -> QuantumNumberSet:
    """Bulk numbers c(N-2) plus one half-line number J from c(N-1).

    J is an integer at even N and half-odd at odd N; any other J would
    name the level of a neighbouring J.
    """
    if j not in _centred(n - 1):
        raise ValueError(f"J = {j} not in the window {-(n - 2) / 2:g}, ..., {(n - 2) / 2:g}")
    return QuantumNumberSet(
        bulk=_centred(n - 2),
        excitations=(Excitation("type_I", float(j)),),
    )


def type_two_numbers(n: int, position: int) -> QuantumNumberSet:
    """Bulk slots c(N-2) with a gap; the string takes the number of the gap.

    The slot at 1-based `position` of c(N-2) in descending order is
    vacated, and its number K = (N-1)/2 - position becomes the string's.
    """
    if position not in range(1, n - 1):
        raise ValueError(f"position {position} outside 1..{n - 2}")
    slots = list(reversed(_centred(n - 2)))
    k = slots.pop(position - 1)
    return QuantumNumberSet(
        bulk=tuple(slots),
        excitations=(Excitation("type_II", k),),
    )


def enumerate_seed_sets(n: int):
    """Every labeling used for the full-spectrum scans: the ground, type_I
    at each J of c(N-1) and type_II at each position 1..N-2.

    For N = 4 the ground plus single-excitation classes leave two levels
    uncovered; those are the two-excitation labelings appended at the end
    (one pair of half-line roots, and one half-line root plus one string).
    """
    sets = [("ground", ground_numbers(n))]
    for j in _centred(n - 1):
        sets.append((f"type_I J={j}", type_one_numbers(n, j)))
    for pos in range(1, n - 1):
        sets.append((f"type_II pos={pos}", type_two_numbers(n, pos)))
    if n == 4:
        sets.append((
            "type_I x2",
            QuantumNumberSet(
                bulk=(0.0,),
                excitations=(Excitation("type_I", -0.5), Excitation("type_I", 0.5)),
            ),
        ))
        sets.append((
            "type_I + type_II",
            QuantumNumberSet(
                bulk=(),
                excitations=(Excitation("type_I", 0.0), Excitation("type_II", 0.0)),
            ),
        ))
    return sets


def _centred(k: int) -> tuple:
    """c(k): the k centred consecutive numbers -(k-1)/2, ..., (k-1)/2, Python
    ints for odd k and half-odd floats for even k."""
    return tuple(range(-(k // 2), k // 2 + 1) if k % 2 else (-(k - 1) / 2 + i for i in range(k)))


# Idealized logarithmic system of the centres, by class (0 bulk root,
# 1 half-line root, 2 string centre). Each term s theta_m(x) of it is
# 2 atan(c tanh x) with c = s / tan(m pi/6): _PAIR[a, b] holds c for a
# centre of class a feeling one of class b, _DRIVE the driving term of each
# class. m = 1 gives c = s sqrt3, and m = 2 gives c = s / sqrt3.
_DRIVE = np.array([_SQ3, 1 / _SQ3, _SQ3])
_PAIR = np.array([[1 / _SQ3, -_SQ3, -1 / _SQ3],
                  [_SQ3, -1 / _SQ3, -_SQ3],
                  [1 / _SQ3, _SQ3, -1 / _SQ3]])


def _tanh_term(c):
    """x -> 2 atan(c tanh x) and its derivative 1/(p cosh 2x + q), with
    p = (1 + c^2)/4c and q = (1 - c^2)/4c fixed once for the coefficients c."""
    p, q = (1 + c**2) / (4 * c), (1 - c**2) / (4 * c)
    return (lambda x: 2 * np.arctan(c * np.tanh(x))), (lambda x: 1 / (p * np.cosh(2 * x) + q))


def _refine_centres(x, cls, numbers, n):
    """Real Newton on the idealized logarithmic system of all centres.

    x holds the starting centres, cls their classes and numbers their
    quantum numbers n_i, one entry per centre. The system is

    F_i = theta_{d_i}(x_i) + (1/N) sum_{j != i} s_ij theta_{m_ij}(x_i - x_j)
          - 2 pi n_i / N

    with each term in the tanh form of _DRIVE and _PAIR: at most 60 damped
    Newton steps of up to 30 halvings each, stopping once |F| < 1e-13.
    """
    drive, drive_prime = _tanh_term(_DRIVE[cls])
    pair, pair_prime = _tanh_term(_PAIR[cls[:, None], cls])

    def system(x):
        return drive(x) + pair(x[:, None] - x).sum(axis=1) / n - 2 * np.pi * numbers / n

    def jacobian(x):
        a = pair_prime(x[:, None] - x)
        np.fill_diagonal(a, 0.0)
        diag = drive_prime(x) + a.sum(axis=1) / n
        a /= -n
        np.fill_diagonal(a, diag)
        return a

    return _damped_newton(x, system, jacobian, lambda f, norm: norm < 1e-13, 60, 30)[0]


def seed_from_quantum_numbers(qn: QuantumNumberSet, params: ModelParams) -> ZeroPointSet:
    """Initial zero points for a quantum-number labeling.

    Each bulk number I, half-line number J and string number K starts its
    centre at the infinite-size counting-function inverse of I/N, J/N or
    K/N. One real Newton then solves the idealized coupled system of all
    centres (_refine_centres). Bulk roots go on the line
    Im z = -pi/6, half-line roots on Im z = -2pi/3, and each string centre
    becomes a pair nudged _STRING_KICK off the ideal string.
    """
    n = params.n_sites
    if qn.n_roots != n - 1:
        raise ValueError(f"labeling yields {qn.n_roots} roots, need {n - 1}")
    half = [e.number for e in qn.excitations if e.kind == "type_I"]
    strings = [e.number for e in qn.excitations if e.kind == "type_II"]
    numbers = np.array(list(qn.bulk) + half + strings, dtype=float)
    cls = np.repeat([0, 1, 2], [len(qn.bulk), len(half), len(strings)])
    x = _refine_centres(thermo.counting_inverse(numbers / n), cls, numbers, n)
    lam, alphas, betas = np.split(x, np.cumsum([len(qn.bulk), len(half)]))
    zs = list(lam - 1j * np.pi / 6)
    zs += list(alphas - 2j * np.pi / 3)
    for b in betas:
        zs.append(b + 1j * (np.pi / 6 + _STRING_KICK))
        zs.append(b - 1j * (np.pi / 2 + _STRING_KICK))
    return ZeroPointSet(zeros=np.array(zs, dtype=complex))


def solve_from_quantum_numbers(qn: QuantumNumberSet, params: ModelParams,
                               tol: float = _TOL) -> ZeroPointSet:
    """Seed a labeling and converge it."""
    return solve_newton(seed_from_quantum_numbers(qn, params), params, tol)


# ---------------------------------------------------------------------------
# classification and spectrum matching


def classify_roots(zeros, tol: float = 0.05) -> RootPattern:
    """Label each shifted root by the line its imaginary part sits on.

    real: |Im| < tol. half_line: within tol of -pi/2 (mod pi). string
    member: within tol of +-pi/3, paired up/down by nearest real part.
    Anything else is labeled "other" with a warning. String deviations from
    the exact line are reported through the centers, not modeled away.
    """
    zps = zeros if isinstance(zeros, ZeroPointSet) else ZeroPointSet(zeros=_zeros_of(zeros))
    lam = canonicalize(zps.shifted)
    im = lam.imag
    # line index per root, the first line that fits: real, half, up, down, other
    line = np.select([abs(im) < tol, abs(abs(im) - np.pi / 2) < tol,
                      abs(im - np.pi / 3) < tol, abs(im + np.pi / 3) < tol], [0, 1, 2, 3], 4)
    real_roots, half_line, ups, downs = (np.sort(lam.real[line == k]).tolist() for k in range(4))
    others = [complex(x) for x in lam[line == 4]]
    strings = []
    for d in downs:
        if not ups:
            others.append(complex(d, -np.pi / 3))
            continue
        i = int(np.argmin([abs(u - d) for u in ups]))
        strings.append(0.5 * (ups.pop(i) + d))
    others += [complex(u, np.pi / 3) for u in ups]

    if others:
        warnings.warn(f"{len(others)} root(s) fit no pattern line within {tol}")
        name = "other"
    elif not half_line and not strings:
        name = "ground-like"
    elif len(half_line) == 1 and not strings:
        name = "type_I"
    elif len(strings) == 1 and not half_line:
        name = "type_II"
    else:
        name = "mixed"
    return RootPattern(
        real_roots=tuple(real_roots),
        half_line=tuple(half_line),
        strings=tuple(sorted(strings)),
        others=tuple(others),
        name=name,
    )


def match_spectrum(ed, bae_energies, tol: float) -> dict:
    """Greedy nearest pairing of solver energies onto the exact spectrum.

    Each solver energy claims its nearest unused exact level within tol.
    Degenerate exact levels count separately, so a doubly degenerate level
    needs two hits to be fully covered.
    """
    ed_vals = np.sort(np.asarray(ed, dtype=float))
    used = np.zeros(len(ed_vals), dtype=bool)
    pairs = []
    unmatched_bae = []
    for j, e in enumerate(bae_energies):
        cand = np.where(~used)[0]
        if len(cand) == 0:
            unmatched_bae.append(j)
            continue
        i = cand[int(np.argmin(np.abs(ed_vals[cand] - e)))]
        if abs(ed_vals[i] - e) <= tol:
            used[i] = True
            pairs.append((int(i), int(j), float(abs(ed_vals[i] - e))))
        else:
            unmatched_bae.append(j)
    return {
        "pairs": pairs,
        "unmatched_ed": [int(i) for i in np.where(~used)[0]],
        "unmatched_bae": unmatched_bae,
        "max_pair_deviation": max((d for *_, d in pairs), default=0.0),
    }
