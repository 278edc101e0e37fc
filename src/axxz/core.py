"""Transfer matrix and Hamiltonian for small chains.

Builds the antiperiodic XXZ Hamiltonian and gives the twisted transfer
matrix, contracted from the two weights of the six-vertex R-matrix,
t(u) = tr_0{ sigma^x_0 R_0N(u - theta_N) ... R_01(u - theta_1) } on vectors:
`apply_transfer` costs O(N 2^N) work per u and column, without forming the
matrix. Every check of t(u) goes through it, including the joint eigenbasis
of H and t and H rebuilt from t'(0). The dense 2^N x 2^N t(u) of
`build_transfer_matrix` is only built for `transfer_eigenbasis` and as a
test oracle. This module is the exact-diagonalization oracle everything
else is checked against.

Basis index bits are spins, site 1 the most significant bit, bit 0 = up.
H, or any set of its rows, is filled from bit arithmetic on these indices,
in O(N 2^N) work for the whole matrix. Two spin flips halve the work:

- U = prod sigma^x maps index i to 2^N - 1 - i, so it acts on a vector or
  on matrix rows by reversal. It commutes with H and every t(u), and
  t(u) = B(u) + U B(u) U, so t(u) on an exact U eigenstate costs one
  propagation instead of two. Every basis here is built of exact U
  eigenstates.
- W = prod sigma^z is the sign (-1)^(down spins). It commutes with H and
  anticommutes with every t(u), so t(U_PROBE) has exact +-Lambda pairs
  v, W v, and `transfer_eigenbasis` solves half of them with one normal
  eigen-solver (`_normal_eig`): at even N one quarter-size problem per U
  block, the W-even corner of t^2, at odd N the U = +1 block only.

The twisted translation G = sigma^x_1 T (T the cyclic shift) is a bit
rotation with one flip; it commutes with H and every t(u), G^N = U, and W
anticommutes with G. So H splits into the momentum sectors k = 0..2N-1 of
G, a level in sector k has U-parity (-1)^k, sector 2N-k is the conjugate
of sector k and sector k+N is W times sector k: one eigh per sector
k = 0..N/2 solves H.
"""
from __future__ import annotations

import functools
import math
import mmap

import numpy as np

from .model import (
    ED_CAP,
    ETA,
    SINH_ETA,
    U_PROBE,
    CapacityError,
    DegeneracyResolutionError,
    ModelParams,
    SpectrumResult,
)

_HERM_TOL = 1e-10  # largest imaginary part, or relative asymmetry on a test vector, taken as rounding
# columns per apply_transfer call in joint_eigenstates, which keeps each probe call
# cache-sized: one call over all 280 probed columns at N = 12 made `verify --n 12`
# slower (1.5 s against 1.2-1.35 s on 2 CPUs), and was neutral at N = 10
_SLAB = 16
_RUN_GAP = 1e-4  # relative gap below which Hermitian-part eigenvalues share one small eig
_JOINT_PHASE = np.exp(0.5j)  # 0.5 rad, no multiple of pi/N; see joint_eigenstates


def _check_capacity(n: int):
    if n > ED_CAP:
        raise CapacityError(f"n_sites={n} exceeds the dense cap of {ED_CAP}")


def _check_zero_thetas(params: ModelParams, what: str):
    if any(abs(t) > 1e-14 for t in params.thetas):
        raise ValueError(f"{what} needs all thetas zero")


def _dense(shape, dtype=float) -> np.ndarray:
    """Zeros for a dense result; from 4 MiB up on a private anonymous mapping of its own.

    Callers keep these results (H, a sector basis, t(u)) while they allocate
    and free many temporaries. Inside malloc's heap such a block pins the
    blocks around it and leaves a resident hole when freed, so the peak RSS
    of a loop over ED at N = 10 would depend on the history of the heap and
    differ by a whole 16 MiB matrix from one run to the next. A mapping of
    its own goes back to the OS when the array is freed. It is private and
    advised for huge pages, as numpy's own large arrays are: transparent
    huge pages never back a shared mapping (mmap's default), so filling a
    16 MiB result there took 4096 page faults of 4 KiB, against 8 here.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if nbytes < 4 << 20:
        return np.zeros(shape, dtype)
    buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    buf.madvise(getattr(mmap, "MADV_HUGEPAGE", mmap.MADV_NORMAL))
    return np.frombuffer(buf, dtype).reshape(shape)


def _r_weights(u):
    """The two R-matrix weights sinh(u + eta)/sinh(eta) and sinh(u)/sinh(eta)."""
    return np.sinh(u + ETA) / SINH_ETA, np.sinh(u) / SINH_ETA


def build_hamiltonian(params: ModelParams) -> np.ndarray:
    """Antiperiodic XXZ Hamiltonian, real symmetric at eta = i*pi/3.

    H = -sum_j [xx + yy + cosh(eta) zz] with the sigma^x-twisted closure
    sigma_{N+1} = sigma^x_1 sigma_1 sigma^x_1: the boundary bond picks up
    sign flips on yy and zz. On basis states, bulk bond (j, j+1) adds
    -cosh(eta) zz to the diagonal and hops antiparallel pairs with
    amplitude -2; the boundary bond (N, 1) adds +cosh(eta) zz and hops
    parallel pairs. The diagonal sums bonds in order j = 1..N-1, then the
    boundary.
    """
    _check_capacity(params.n_sites)
    return _hamiltonian_rows(params, np.arange(2**params.n_sites))


def _representative_rows(params: ModelParams) -> np.ndarray:
    """The rows of H at the orbit representatives of G; the cap is checked before the orbit table."""
    _check_capacity(params.n_sites)
    return _hamiltonian_rows(params, _twisted_orbits(params.n_sites)[0][:, 0])


def _hamiltonian_rows(params: ModelParams, rows) -> np.ndarray:
    """The rows of H at the basis indices `rows`, shape (len(rows), 2^N)."""
    n = params.n_sites
    ch = np.cosh(ETA).real
    rows = np.asarray(rows)
    at = np.arange(len(rows))
    spins = (rows >> np.arange(n - 1, -1, -1)[:, None]) & 1  # row j-1: site j
    h = _dense((len(rows), 2**n))
    for j in range(n):
        k = (j + 1) % n
        anti = spins[j] != spins[k]
        if not k:  # twisted boundary bond: zz changes sign and parallel pairs hop
            anti = ~anti
        h[at, rows] -= np.where(anti, -ch, ch)
        h[at[anti], rows[anti] ^ ((1 << (n - 1 - j)) | (1 << (n - 1 - k)))] = -2.0
    return h


def build_transfer_matrix(u: complex, params: ModelParams) -> np.ndarray:
    """Twisted transfer matrix t(u) as a dense 2^N x 2^N array.

    The auxiliary space is contracted block-iteratively: keep the four
    2^k x 2^k blocks M[a][b] of the partial monodromy (seeded with the
    sigma^x twist) and attach one site per step, as the new most significant
    spin. The R blocks are diagonal (a = b) or a single unit entry, so each
    step writes the quadrants of the new blocks straight from the old ones:
    M'[a][0] = [[b+ M[a][0], M[a][1]], [0, b- M[a][0]]] and
    M'[a][1] = [[b- M[a][1], 0], [M[a][0], b+ M[a][1]]]. The last site
    (site 1) only forms the trace M'[0][0] + M'[1][1].
    """
    n = params.n_sites
    _check_capacity(n)
    theta = params.theta_array
    z1 = np.zeros((1, 1), dtype=complex)
    o1 = np.ones((1, 1), dtype=complex)
    m = [[z1, o1], [o1, z1]]  # twist sigma^x in the auxiliary space
    for j in range(n, 1, -1):
        bp, bm = _r_weights(u - theta[j - 1])
        s = len(m[0][0])
        new = []
        for m0, m1 in m:
            x0, x1 = np.zeros((2, 2 * s, 2 * s), dtype=complex)
            x0[:s, :s], x0[:s, s:], x0[s:, s:] = bp * m0, m1, bm * m0
            x1[:s, :s], x1[s:, :s], x1[s:, s:] = bm * m1, m0, bp * m1
            new.append((x0, x1))
        m = new
    bp, bm = _r_weights(u - theta[0])
    (m00, m01), (m10, m11) = m
    s = len(m00)
    t = _dense((2 * s, 2 * s), complex)
    t[:s, :s], t[:s, s:] = bp * m00 + bm * m11, m01
    t[s:, :s], t[s:, s:] = m10, bm * m00 + bp * m11
    t += 0.0  # every zero entry +0.0, whatever the signs of the weights
    return t


def apply_transfer(u, params: ModelParams, vectors) -> np.ndarray:
    """t(u) @ vectors for every u of a grid, shape (len(u), 2^N, K).

    The sigma^x-twisted trace pairs opposite start and end aux states, and
    the six-vertex R is invariant under a full spin flip, so
    t(u) = B(u) + U B(u) U with B(u) the start-0, end-1 element of the
    monodromy. B is applied to the columns of [V, UV] (`_apply_b`); a column
    with V[::-1] = +-V gets no mirrored copy, since U B U V = +-U B V there,
    and costs half. On a U-odd column that mirror is -(B V) where two starts
    give B(UV): the same values, but a sum of two zeros of opposite sign is
    +0.0 either way round, so a zero may come out with the other sign.
    Nonzero entries with an exactly zero real or imaginary part make that
    likely; `joint_eigenstates` turns its columns by a unit phase so that
    none has one, and its U-odd columns get the two-start bits.
    """
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    v = np.asarray(vectors, dtype=complex).reshape(2**params.n_sites, -1)
    flip = v[::-1]
    even = (flip == v).all(axis=0)
    odd = (flip == -v).all(axis=0) & ~even  # a zero column counts as even
    mixed = np.flatnonzero(~(even | odd))
    b = _apply_b(u, params, np.hstack([v, flip[:, mixed]]))
    # column i of U B U V is the reversal of column src[i] of b, negated where V is U-odd
    src = np.arange(v.shape[1])
    src[mixed] = v.shape[1] + np.arange(len(mixed))
    mirror = b[::-1, src]
    np.negative(mirror, out=mirror, where=odd[:, None])
    out = np.empty((len(u),) + v.shape, dtype=complex)
    np.add(b[:, :v.shape[1]].transpose(2, 0, 1), mirror.transpose(2, 0, 1), out=out)
    return out


def _apply_b(u, params: ModelParams, v) -> np.ndarray:
    """B(u) @ v, shape (2^N, K, len(u)): R_0j(u - theta_j) applied site by site,
    j = 1..N, to an array indexed (aux, spins and column, u) from aux 0,
    keeping the aux-1 end. Each step is one product with the R weights, b+
    where the aux and site spins agree and b- where they differ, and the two
    hops; the weights are taken once per distinct theta. The u axis is
    innermost, so every step runs over contiguous runs of len(u) at least."""
    thetas, inverse = params.theta_groups
    bp, bm = _r_weights(u[:, None] - thetas)
    # w[g, aux, 0, site, 0, u], broadcast over the spins left and right of the site
    w = np.array([[bp, bm], [bm, bp]]).transpose(3, 0, 1, 2)[:, :, None, :, None, :]
    x = np.zeros((2, v.size, len(u)), dtype=complex)
    x[0] = v.reshape(-1, 1)
    for j, g in enumerate(inverse):
        y = x.reshape(2, 2**j, 2, -1, len(u))  # (aux, left, site j, right, u)
        x = w[g] * y
        x[0, :, 1] += y[1, :, 0]
        x[1, :, 0] += y[0, :, 1]
    return x[1].reshape(len(v), -1, len(u))


def _twist(i, n: int):
    """Index of G|i>: every spin moves one site on, and the one that wraps round to site 1 flips."""
    return ((i >> 1) | (i & 1) << (n - 1)) ^ (1 << (n - 1))


@functools.cache
def _twisted_orbits(n: int):
    """Orbits of the twisted translation G = sigma^x_1 T on basis indices.

    G^N = U, so every orbit length L_b divides 2N. Returns a (n_orbits, 2N)
    table whose row b is G^m r_b for m = 0..2N-1, r_b the smallest index of
    orbit b, and the lengths L_b; both read-only, since they are cached.
    """
    g = np.empty((2 * n, 2**n), dtype=np.int64)
    g[0] = np.arange(2**n)
    for m in range(1, 2 * n):
        g[m] = _twist(g[m - 1], n)
    reps, lengths = np.unique(g.min(axis=0), return_counts=True)
    table = g[:, reps].T.copy()
    table.flags.writeable = lengths.flags.writeable = False
    return table, lengths


def _w_odd(i) -> np.ndarray:
    """Where W = prod sigma^z is -1 on basis indices i: an odd number of spins down."""
    return np.bitwise_count(i) & 1 == 1


def _sector_source(ks, n: int):
    """For each sector k of G, the solved sector k0 <= N/2 it comes from, and how.

    W anticommutes with G, so W maps sector k to k + N; conjugation maps k to
    2N - k. Returns (k0, conj, flip): sector k is conj(sector k0) where conj,
    then times W where flip. Sector 2N - k is always the exact conjugate of
    sector k, so sector 3N/2 is conj(sector N/2), not W times it.
    """
    r = ks % n
    conj = (2 * r > n) | ((2 * r == n) & (ks > n))
    return np.where(conj, n - r, r), conj, (ks >= n) ^ conj


def _sector_eigh(rows: np.ndarray, vectors: bool = False):
    """Spectrum of a real 2^N x 2^N matrix m that commutes with G and W, sector by sector.

    Takes only the rows of m at the orbit representatives r_b, in orbit
    order. Sector k, where G = e^{i pi k / N}, holds the orbits with
    k L_b = 0 mod 2N, spanned by
    |b, k> = sum_{m < L_b} e^{-i pi k m / N} |G^m r_b> / sqrt(L_b).
    One real FFT over d of m[r_a, G^d r_b] gives the blocks, and only
    sectors k = 0..N/2 get an eigh (k = 0 is real). Every other sector is
    one of these signed by W (k + N) or conjugated (2N - k), or both
    (`_sector_source`), and takes the same floats. Levels ascend, and a
    run of equal energies lists U-parity +1 first. Returns (eigenvalues,
    sector k of each level, orbit coefficients, source level of each
    level): column j of the coefficients is c[b] / sqrt(L_b) of the
    eigenvector of a solved level, and level j is built from column
    src[j] (`_sector_columns`). The last two are None without vectors.
    """
    n = rows.shape[1].bit_length() - 1
    table, lengths = _twisted_orbits(n)
    # blocks[a, k, b] = <a, k|m|b, k> for k = 0..N/2, from m[r_a, G^d r_b] at d = 0..2N-1
    blocks = np.fft.rfft(rows[:, table.T], axis=1)[:, :n // 2 + 1]
    blocks *= (np.sqrt(np.outer(lengths, lengths)) / (2 * n))[:, None]
    sels = [np.flatnonzero(k * lengths % (2 * n) == 0) for k in range(n // 2 + 1)]
    # eigh even without vectors: eigvalsh rounds differently, which could
    # reorder the levels of a degenerate energy and so their sector labels
    eigs = [np.linalg.eigh(blocks[:, k][np.ix_(sel, sel)].real if k == 0
                           else blocks[:, k][np.ix_(sel, sel)]) for k, sel in enumerate(sels)]
    source = _sector_source(np.arange(2 * n), n)[0]
    sizes = [len(sels[s]) for s in source]
    vals = np.concatenate([eigs[s].eigenvalues for s in source])
    sector = np.repeat(np.arange(2 * n), sizes)
    order = np.lexsort((sector % 2, vals))
    if not vectors:
        return vals[order], sector[order], None, None
    slots = np.split(np.argsort(order), np.cumsum(sizes)[:-1])  # sorted slots, per sector
    coef = np.zeros((len(lengths), len(order)), dtype=complex)
    src = np.empty_like(order)
    for k, s in enumerate(source):
        if k == s:
            coef[np.ix_(sels[s], slots[k])] = (eigs[s].eigenvectors
                                               / np.sqrt(lengths[sels[s]])[:, None])
        src[slots[k]] = slots[s]
    return vals[order], sector[order], coef, src


def _sector_columns(n: int, coef: np.ndarray, ks, src, dtype) -> np.ndarray:
    """Eigenvector columns of sectors ks, built from the coefficient columns src.

    Column j is level src[j]'s coefficients carried to sector ks[j]
    (`_sector_source`) and written orbit by orbit: row G^d r_b is
    c[b] phase[k d mod 2N], one product of coefficients and phases per
    orbit. The phase table is built with phase[a + N] = -phase[a], so every
    column is an exact U = G^N eigenstate, v[::-1] = (-1)^k v, and a column
    built by W is exactly W times its source column. dtype
    complex gives these G eigenstates; dtype float gives sqrt2 Re v and
    sqrt2 Im v in place of each conjugate pair v, conj(v) (k < N and
    k > N), and the real v of k = 0 and N.
    """
    table, lengths = _twisted_orbits(n)
    _, conj, flip = _sector_source(ks, n)
    c = coef[:, src]
    np.conjugate(c, out=c, where=conj)
    np.negative(c, out=c, where=_w_odd(table[:, 0])[:, None] & flip)
    if dtype is float:  # sqrt2 Im v is the real part of i sqrt2 conj(v), the partner's column
        c *= np.where(ks % n, np.sqrt(2), 1.0) * np.where(ks > n, 1j, 1.0)
    phase = np.exp(-1j * np.pi / n * np.arange(n))
    phase = np.r_[phase, -phase][np.outer(np.arange(2 * n), ks) % (2 * n)]
    vecs = _dense((2**n, len(ks)), dtype)
    for orbit, length, cb in zip(table, lengths, c):
        block = cb * phase[:length]
        vecs[orbit[:length]] = block.real if dtype is float else block
    return vecs


def spectrum(params: ModelParams) -> SpectrumResult:
    """Ascending levels of H and their U-parities, without vectors.

    Solved sector by sector (`_sector_eigh`) from the rows of H at the orbit
    representatives alone, so no dense H is formed; the floats are those of
    `diagonalize_symmetric(build_hamiltonian(params))`.
    """
    vals, ks, _, _ = _sector_eigh(_representative_rows(params))
    return SpectrumResult(eigenvalues=vals, parity=1 - 2 * (ks % 2))


def diagonalize_symmetric(m: np.ndarray) -> SpectrumResult:
    """Full ascending spectrum of a real symmetric chain operator.

    The dimension must be 2^N and the matrix must commute with the twisted
    translation G and with W = prod sigma^z, as H does. It is solved in the
    momentum sectors of G (`_sector_eigh`): one eigh per sector
    k = 0..N/2, none wider than a sector, and a level in sector k has
    U-parity (-1)^k because U = G^N. Eigenvectors are real, and exact U
    eigenstates: the conjugate G eigenstates v and conj(v) of sectors k and
    2N-k become sqrt2 Re v and sqrt2 Im v, which share the energy and the
    parity.
    """
    m = np.asarray(m)
    if np.iscomplexobj(m) and np.max(np.abs(m.imag)) > _HERM_TOL:
        raise ValueError("matrix has a non-negligible imaginary part")
    m = np.real(m).astype(float, copy=False)
    dim = m.shape[0]
    # m - m^T, [m, G^-1] and [m, W] on one fixed generic vector, where (G^-1 x)_i = x_{G(i)}
    x = np.cos(np.arange(dim))
    mx = m @ x
    tol = _HERM_TOL * max(np.linalg.norm(x), np.linalg.norm(mx))
    if np.linalg.norm(mx - m.T @ x) > tol:
        raise ValueError("matrix is not symmetric")
    n = dim.bit_length() - 1
    if n < 1 or dim != 2**n:
        raise ValueError(f"dimension {dim} is not a power of two")
    g = _twist(np.arange(dim), n)
    if np.linalg.norm(m @ x[g] - mx[g]) > tol:
        raise ValueError("matrix does not commute with the twisted translation")
    odd = _w_odd(np.arange(dim))
    if np.linalg.norm(m @ np.where(odd, -x, x) - np.where(odd, -mx, mx)) > tol:
        raise ValueError("matrix does not commute with W = prod sigma^z")
    vals, ks, coef, src = _sector_eigh(m[_twisted_orbits(n)[0][:, 0]], vectors=True)
    return SpectrumResult(eigenvalues=vals, eigenvectors=_sector_columns(n, coef, ks, src, float),
                          parity=1 - 2 * (ks % 2))


def joint_eigenstates(params: ModelParams):
    """Common eigenbasis of H and the transfer family, at zero thetas.

    G commutes with H and every t(u), so H is solved sector by sector
    (`_sector_eigh`) from the rows of H at the orbit representatives alone.
    Only levels still degenerate inside one solved sector k <= N/2 are
    rotated into eigenvectors of t(U_PROBE), applied to those columns
    alone; the rotation is applied to their orbit coefficients, so the runs
    of the sectors built from them by W and conjugation follow. W
    anticommutes with every t(u), so W v is a joint eigenstate at -Lambda.
    Returns (energies ascending, eigenvector matrix) with columns that are
    complex joint eigenstates and exact U eigenstates, each turned by the
    unit phase _JOINT_PHASE so that no nonzero entry is purely real or imaginary
    (see `apply_transfer`).
    """
    n = params.n_sites
    rows = _representative_rows(params)  # checks the cap before the thetas are walked
    _check_zero_thetas(params, "joint eigenbasis")
    vals, ks, coef, src = _sector_eigh(rows, vectors=True)
    # runs of levels within 1e-8 of each other inside one sector; those of k <= N/2 are probed
    by_sector = np.lexsort((vals, ks))
    run = np.r_[0, np.cumsum((np.diff(ks[by_sector]) != 0) | (np.diff(vals[by_sector]) >= 1e-8))]
    probed = (np.bincount(run)[run] > 1) & (ks[by_sector] <= n // 2)
    cols = by_sector[probed]
    x = _sector_columns(n, coef, ks[cols], cols, complex)
    tx = np.empty_like(x)
    for i in range(0, len(cols), _SLAB):
        tx[:, i:i + _SLAB] = apply_transfer(U_PROBE, params, x[:, i:i + _SLAB])[0]
    sizes = np.bincount(run[probed])
    ends = np.cumsum(sizes[sizes > 0])
    for blk in map(slice, np.r_[0, ends[:-1]], ends):
        _, s = np.linalg.eig(x[:, blk].conj().T @ tx[:, blk])
        coef[:, cols[blk]] = coef[:, cols[blk]] @ (s / np.linalg.norm(s, axis=0, keepdims=True))
    coef *= _JOINT_PHASE
    return vals, _sector_columns(n, coef, ks, src, complex)


def _normal_eig(b: np.ndarray):
    """Eigenvalues and orthonormal eigenvector columns of a normal matrix b.

    A normal b commutes with its Hermitian part, so the eigh of that part
    already gives b's eigenvectors, except inside runs of Hermitian
    eigenvalues closer than _RUN_GAP (relative), where b is diagonalized by a
    small eig in the run's columns. One first-order Rayleigh-Ritz step then
    removes the eigh error between runs; inside a run the eigenvalue
    differences it divides by can vanish.
    """
    w, v = np.linalg.eigh((b + b.conj().T) / 2)
    cut = np.diff(w) > _RUN_GAP * max(abs(w[0]), abs(w[-1]))
    bv = b @ v
    for run in np.split(np.arange(len(w)), np.flatnonzero(cut) + 1):
        if len(run) > 1:
            _, s = np.linalg.eig(v[:, run].conj().T @ bv[:, run])  # unit columns
            v[:, run], bv[:, run] = v[:, run] @ s, bv[:, run] @ s
    c = v.conj().T @ bv
    lam = c.diagonal().copy()
    label = np.r_[0, np.cumsum(cut)]
    same = label[:, None] == label
    # v_i += sum_j v_j c_ji / (lam_i - lam_j) over j in other runs
    v += v @ np.where(same, 0.0, c / np.where(same, 1.0, lam - lam[:, None]))
    v /= np.linalg.norm(v, axis=0)
    return lam, v


def _paired_eig(a: np.ndarray, b: np.ndarray):
    """The eigenpairs of the normal matrix M = [[0, a], [b, 0]], from problems of the size of a.

    M anticommutes with W = diag(1, -1), so its eigenvectors come in pairs
    (x, y) at lam and (x, -y) at -lam; returns the first of each pair as
    (lam, x, y), with |x|^2 + |y|^2 = 1. M^2 = diag(ab, ba) is normal, so ab
    is, and a unit eigenvector x of ab at lam^2 (`_normal_eig`) gives the
    pair (x, +-b x / lam) / sqrt2: |b x| = |lam| since (x, b x / lam) is an
    eigenvector of the normal M orthogonal to its W partner.

    This needs every |lam| away from 0, and the eigenvalues of M apart:
    two pairs at lam and near -lam would meet in ab. Both hold for the U
    blocks of t(U_PROBE) at real thetas, measured over zero thetas and
    thetas drawn from [-s, s], s = 0.1, 1, 10: the smallest |lam| is 0.268
    of the largest or more at N <= 10, 0.234 at N = 11 and 0.205 at
    N = 12. At thetas from [-0.1, 0.1], as `verify --seed` draws them, the
    eigenvalues of one U block lie 2.4e-4 of the largest apart or more up
    to N = 12.
    """
    mu, x = _normal_eig(a @ b)
    lam = np.sqrt(mu)
    return lam, x / np.sqrt(2), b @ x / (lam * np.sqrt(2))


def transfer_eigenbasis(params: ModelParams):
    """Eigenbasis of t(U_PROBE), valid for any real inhomogeneities.

    With nonzero thetas the local Hamiltonian is no longer part of the
    commuting family, so the basis has to come from the family itself. For
    real thetas t(u)^dagger is a unimodular multiple of t(conj(u) - eta),
    so t(U_PROBE) is normal, and U = prod sigma^x commutes with it. U
    reverses the index order, so the U = +-1 block of t in the basis
    (|i> +- |2^N - 1 - i>)/sqrt(2), i < 2^(N-1), is
    t[:h, :h] +- t[:h, ::-1][:, :h]. W = prod sigma^z anticommutes with t,
    and is the sign s_i = (-1)^(down spins of i) on these coefficients.
    At even N, W commutes with U, so each U block couples W-even only to
    W-odd indices, and its square is solved on the W-even quarter
    (`_paired_eig`). At odd N, W anticommutes with U: the U = +1 block is
    solved, and the U = -1 block is W times it. `_normal_eig` is the
    eigen-solver either way, and the eigenvalues are exact +-lam pairs with
    columns v and W v. Columns are orthonormal U eigenstates sorted by
    decreasing |eigenvalue|.
    """
    if np.any(params.theta_array.imag != 0):
        raise ValueError("transfer eigenbasis needs real thetas (t(U_PROBE) is normal only then)")
    t = build_transfer_matrix(U_PROBE, params)
    h = len(t) // 2
    w_odd = _w_odd(np.arange(h))
    vals, tops = [], []  # per U block: eigenvalues and the top halves of the columns
    if params.n_sites % 2:
        lam, v = _normal_eig(t[:h, :h] + t[:h, ::-1][:, :h])
        v /= np.sqrt(2)
        vals, tops = [lam, -lam], [v, np.where(w_odd[:, None], -v, v)]
    else:
        even, odd = np.flatnonzero(~w_odd), np.flatnonzero(w_odd)
        # the W-quarters of t (a: W-even rows, b: W-odd rows) and of t U (a2, b2)
        (a, a2), (b, b2) = ((t[np.ix_(r, c)], t[np.ix_(r, len(t) - 1 - c)])
                            for r, c in ((even, odd), (odd, even)))
        for sign in (1, -1):
            lam, x, y = _paired_eig(a + sign * a2, b + sign * b2)
            x, y = x / np.sqrt(2), y / np.sqrt(2)
            v = np.empty((h, h), dtype=complex)
            v[even], v[odd] = np.hstack([x, x]), np.hstack([y, -y])
            vals += [lam, -lam]
            tops.append(v)
    del t  # freed before the result of the same size is allocated
    vals = np.concatenate(vals)
    order = np.argsort(-np.abs(vals), kind="stable")
    out = _dense((2 * h, 2 * h), complex)
    for top, dest in zip(tops, np.split(np.argsort(order), len(tops))):
        out[:h, dest] = top  # column j of the blocks lands where order holds j
    out[h:] = out[:h][::-1]
    np.negative(out[h:], out=out[h:], where=order >= h)  # the U = -1 block comes second
    return vals[order], out


def transfer_eigenvalue_on_state(u, params: ModelParams, state: np.ndarray):
    """Lambda(u) = <state|t(u)|state> / <state|state>, for one u or an array.

    The state must already be an eigenvector of t(U_PROBE); a Rayleigh
    quotient on a non-eigenstate would silently average eigenvalues. The
    probe is checked once per call, in the same pass as the samples, so pass
    a whole grid of u at once; an array of u gives an array of eigenvalues.
    """
    state = np.asarray(state, dtype=complex)
    tus = apply_transfer(np.r_[U_PROBE, np.ravel(u)], params, state)[..., 0]
    lams = np.array([np.vdot(state, tu) for tu in tus]) / np.vdot(state, state)
    if np.linalg.norm(tus[0] - lams[0] * state) > 1e-8 * np.linalg.norm(tus[0]):
        raise DegeneracyResolutionError("state is not an eigenvector of the probe transfer matrix")
    return lams[1:] if np.ndim(u) else complex(lams[1])


def hamiltonian_from_transfer(params: ModelParams, vectors) -> np.ndarray:
    """H @ vectors, shape (2^N, K), as -2 sinh(eta) t'(0) t(0)^{-1} + N cosh(eta).

    Only defined at zero thetas. There t(0) is the twisted translation G,
    t(0)|i> = |_twist(i)>, so t(0)^{-1} X is the gather X[_twist(i)].
    t(u) holds only the frequencies e^{fu}, f = -N..N, so one FFT of 2N+2
    samples on the imaginary axis gives every coefficient and t'(0) exactly.
    """
    _check_zero_thetas(params, "transfer-derivative construction")
    n = params.n_sites
    x = np.asarray(vectors, dtype=complex).reshape(2**n, -1)
    y = x[_twist(np.arange(2**n), n)]
    m = 2 * n + 2
    spec = np.fft.fft(apply_transfer(2j * np.pi * np.arange(m) / m, params, y), axis=0) / m
    dt = np.tensordot(np.fft.fftfreq(m, 1 / m), spec, axes=1)
    return -2 * SINH_ETA * dt + n * np.cosh(ETA) * x
