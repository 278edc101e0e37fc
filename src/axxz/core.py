"""Transfer matrix and Hamiltonian for small chains.

Builds the antiperiodic XXZ Hamiltonian and gives the twisted transfer
matrix, contracted from the two weights of the six-vertex R-matrix,
t(u) = tr_0{ sigma^x_0 R_0N(u - theta_N) ... R_01(u - theta_1) } on vectors:
`apply_transfer` costs O(N 2^N) work per u and column, without forming the
matrix. Every check of t(u) goes through it, including the joint eigenbasis
of H and t and H rebuilt from t'(0). The dense 2^N x 2^N t(u) of
`build_transfer_matrix` is only built for `transfer_eigenbasis`, which
splits t(U_PROBE) into its two U-parity blocks and solves each as a normal
matrix (eigh of its Hermitian part), and as a test oracle. This module is
the exact-diagonalization oracle everything else is checked against.

Basis index bits are spins, site 1 the most significant bit, bit 0 = up.
H is filled from bit arithmetic on these indices, in O(N 2^N) work, and the
spin flip U = prod sigma^x maps index i to 2^N - 1 - i, so U acts on a
vector or on matrix rows by reversal. The twisted translation
G = sigma^x_1 T (T the cyclic shift) is a bit rotation with one flip; it
commutes with H and every t(u) and G^N = U, so H is solved by one eigh per
momentum sector k of G, and a level in sector k has U-parity (-1)^k.
"""
from __future__ import annotations

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
_SLAB = 16  # columns per apply_transfer call in joint_eigenstates
_RUN_GAP = 1e-4  # relative gap below which Hermitian-part eigenvalues share one small eig


def _check_capacity(n: int):
    if n > ED_CAP:
        raise CapacityError(f"n_sites={n} exceeds the dense cap of {ED_CAP}")


def _check_zero_thetas(params: ModelParams, what: str):
    if any(abs(t) > 1e-14 for t in params.thetas):
        raise ValueError(f"{what} needs all thetas zero")


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
    n = params.n_sites
    _check_capacity(n)
    ch = np.cosh(ETA).real
    dim = 2**n
    idx = np.arange(dim)
    spins = (idx >> np.arange(n - 1, -1, -1)[:, None]) & 1  # row j-1: site j
    diag = np.zeros(dim)
    hops = []
    for j in range(n):
        k = (j + 1) % n
        anti = spins[j] != spins[k]
        zz = np.where(anti, -1.0, 1.0)
        mask = (1 << (n - 1 - j)) | (1 << (n - 1 - k))
        if k:
            diag -= ch * zz
            hops.append((idx[anti], mask))
        else:  # twisted boundary bond
            diag += ch * zz
            hops.append((idx[~anti], mask))
    h = np.zeros((dim, dim))
    h[idx, idx] = diag
    for src, mask in hops:
        h[src, src ^ mask] = -2.0
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
    t = np.empty((2 * s, 2 * s), dtype=complex)
    t[:s, :s], t[:s, s:] = bp * m00 + bm * m11, m01
    t[s:, :s], t[s:, s:] = m10, bm * m00 + bp * m11
    t += 0.0  # every zero entry +0.0, whatever the signs of the weights
    return t


def apply_transfer(u, params: ModelParams, vectors) -> np.ndarray:
    """t(u) @ vectors for every u of a grid, shape (len(u), 2^N, K).

    R_0j(u - theta_j) is applied site by site, j = 1..N, to an array indexed
    (u, start aux, current aux, spins and column); the sigma^x-twisted trace
    then pairs opposite start and end aux states.
    """
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    v = np.asarray(vectors, dtype=complex).reshape(2**params.n_sites, -1)
    x = np.zeros((len(u), 2, 2, v.size), dtype=complex)
    x[:, 0, 0] = x[:, 1, 1] = v.ravel()
    for j, th in enumerate(params.theta_array):
        bp, bm = (w[:, None, None, None] for w in _r_weights(u - th))
        y = x.reshape(len(u), 2, 2, 2**j, 2, -1)  # (u, start, aux, left, site j, right)
        x = np.empty_like(y)
        x[:, :, 0, :, 0] = bp * y[:, :, 0, :, 0]
        x[:, :, 1, :, 1] = bp * y[:, :, 1, :, 1]
        x[:, :, 0, :, 1] = bm * y[:, :, 0, :, 1] + y[:, :, 1, :, 0]
        x[:, :, 1, :, 0] = bm * y[:, :, 1, :, 0] + y[:, :, 0, :, 1]
    return (x[:, 0, 1] + x[:, 1, 0]).reshape(len(u), len(v), -1)


def _twist(i, n: int):
    """Index of G|i>: every spin moves one site on, and the one that wraps round to site 1 flips."""
    return ((i >> 1) | (i & 1) << (n - 1)) ^ (1 << (n - 1))


def _twisted_orbits(n: int):
    """Orbits of the twisted translation G = sigma^x_1 T on basis indices.

    G^N = U, so every orbit length L_b divides 2N. Returns a (n_orbits, 2N)
    table whose row b is G^m r_b for m = 0..2N-1, r_b the smallest index of
    orbit b, and the lengths L_b.
    """
    g = np.empty((2 * n, 2**n), dtype=np.int64)
    g[0] = np.arange(2**n)
    for m in range(1, 2 * n):
        g[m] = _twist(g[m - 1], n)
    reps, lengths = np.unique(g.min(axis=0), return_counts=True)
    return g[:, reps].T, lengths


def _sector_eigh(m: np.ndarray, want_vectors: bool):
    """Spectrum of a real 2^N x 2^N matrix that commutes with G, sector by sector.

    Sector k, where G = e^{i pi k / N}, holds the orbits with k L_b = 0 mod 2N,
    spanned by |b, k> = sum_{m < L_b} e^{-i pi k m / N} |G^m r_b> / sqrt(L_b).
    One FFT over d of m[r_a, G^d r_b] gives every sector block, and each
    block gets its own eigh. Returns (eigenvalues ascending, sector k of each
    level, eigenvector columns in the same order or None).
    """
    n = m.shape[0].bit_length() - 1
    table, lengths = _twisted_orbits(n)
    # blocks[k, a, b] = <a, k|m|b, k>, from m[r_a, G^d r_b] at d = 0..2N-1
    blocks = np.fft.fft(m[table[:, 0, None], table.T[:, None]], axis=0)
    blocks *= np.sqrt(np.outer(lengths, lengths)) / (2 * n)
    sels = [np.flatnonzero(k * lengths % (2 * n) == 0) for k in range(2 * n)]
    # eigh even without vectors: eigvalsh rounds differently, which could
    # reorder the levels of a degenerate energy and so their sector labels
    eigs = [np.linalg.eigh(blocks[k][np.ix_(sel, sel)]) for k, sel in enumerate(sels)]
    sizes = [len(sel) for sel in sels]
    vals = np.concatenate([e.eigenvalues for e in eigs])
    order = np.argsort(vals, kind="stable")
    ks = np.repeat(np.arange(2 * n), sizes)[order]
    if not want_vectors:
        return vals[order], ks, None
    slots = np.empty_like(order)
    slots[order] = np.arange(len(order))
    # columns go straight into their sorted slots; a reorder would copy 2^N x 2^N
    vecs = np.zeros((2**n, 2**n), dtype=complex)
    for k, (sel, e, slot) in enumerate(zip(sels, eigs, np.split(slots, np.cumsum(sizes)[:-1]))):
        orb, d = np.nonzero(np.arange(2 * n) < lengths[sel][:, None])
        amp = np.exp(-1j * np.pi * k * d / n) / np.sqrt(lengths[sel][orb])
        vecs[table[sel][orb, d][:, None], slot] = amp[:, None] * e.eigenvectors[orb]
    return vals[order], ks, vecs


def diagonalize_symmetric(m: np.ndarray, want_vectors: bool = True) -> SpectrumResult:
    """Full ascending spectrum of a real symmetric chain operator.

    The dimension must be 2^N and the matrix must commute with the twisted
    translation G, as H does. It is solved in the 2N momentum sectors of G
    (`_sector_eigh`), so no eigh is wider than a sector, and a level in
    sector k has U-parity (-1)^k because U = G^N. Eigenvectors are complex
    G eigenstates.
    """
    m = np.asarray(m)
    if np.iscomplexobj(m):
        if np.max(np.abs(m.imag)) > _HERM_TOL:
            raise ValueError("matrix has a non-negligible imaginary part")
        m = m.real
    m = m.astype(float, copy=False)
    dim = m.shape[0]
    # m - m^T and [m, G^-1] on one fixed generic vector, where (G^-1 x)_i = x_{G(i)}
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
    vals, ks, vecs = _sector_eigh(m, want_vectors)
    return SpectrumResult(eigenvalues=vals, eigenvectors=vecs, parity=1 - 2 * (ks % 2))


def joint_eigenstates(params: ModelParams):
    """Common eigenbasis of H and the transfer family, at zero thetas.

    G commutes with H and every t(u), so H is solved sector by sector
    (`_sector_eigh`). Only levels still degenerate inside one sector are
    rotated into eigenvectors of t(U_PROBE), applied to those columns alone.
    Returns (energies ascending, eigenvector matrix) with columns that are
    joint eigenstates.
    """
    _check_zero_thetas(params, "joint eigenbasis")
    vals, ks, vecs = _sector_eigh(build_hamiltonian(params), True)
    # slots of the runs of levels within 1e-8 of each other inside one sector
    by_sector = np.lexsort((vals, ks))
    cut = (np.diff(ks[by_sector]) != 0) | (np.diff(vals[by_sector]) >= 1e-8)
    deg = [blk for blk in np.split(by_sector, np.flatnonzero(cut) + 1) if len(blk) > 1]
    cols = np.concatenate(deg) if deg else np.zeros(0, dtype=int)
    x = vecs[:, cols]
    tx = np.empty_like(x)
    for i in range(0, len(cols), _SLAB):
        tx[:, i:i + _SLAB] = apply_transfer(U_PROBE, params, x[:, i:i + _SLAB])[0]
    bounds = np.cumsum([len(blk) for blk in deg])[:-1]
    for blk, xb, tb in zip(deg, np.split(x, bounds, axis=1), np.split(tx, bounds, axis=1)):
        _, s = np.linalg.eig(xb.conj().T @ tb)
        s /= np.linalg.norm(s, axis=0, keepdims=True)
        vecs[:, blk] = xb @ s
    return vals, vecs


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


def transfer_eigenbasis(params: ModelParams):
    """Eigenbasis of t(U_PROBE), valid for any real inhomogeneities.

    With nonzero thetas the local Hamiltonian is no longer part of the
    commuting family, so the basis has to come from the family itself. For
    real thetas t(u)^dagger is a unimodular multiple of t(conj(u) - eta),
    so t(U_PROBE) is normal, and U = prod sigma^x commutes with it. U
    reverses the index order, so the U = +-1 block of t in the basis
    (|i> +- |2^N - 1 - i>)/sqrt(2), i < 2^(N-1), is
    t[:h, :h] +- t[:h, ::-1][:, :h]; each block is solved by `_normal_eig`,
    so no eig is wider than a run of near-equal eigenvalues. Columns are
    orthonormal U eigenstates sorted by decreasing |eigenvalue|.
    """
    if np.any(params.theta_array.imag != 0):
        raise ValueError("transfer eigenbasis needs real thetas (t(U_PROBE) is normal only then)")
    t = build_transfer_matrix(U_PROBE, params)
    h = len(t) // 2
    blocks = [_normal_eig(t[:h, :h] + sign * t[:h, ::-1][:, :h]) for sign in (1, -1)]
    vals = np.concatenate([lam for lam, _ in blocks])
    order = np.argsort(-np.abs(vals), kind="stable")
    slots = np.empty_like(order)
    slots[order] = np.arange(len(order))
    # columns go straight into their sorted slots; a reorder would copy 2^N x 2^N
    vecs = np.empty_like(t)
    for (_, v), sign, slot in zip(blocks, (1, -1), np.split(slots, 2)):
        vecs[:h, slot] = v / np.sqrt(2)
        vecs[h:, slot] = sign * v[::-1] / np.sqrt(2)
    return vals[order], vecs


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
