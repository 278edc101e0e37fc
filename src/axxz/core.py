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
H, or any set of its rows, is filled from bit arithmetic on these indices,
in O(N 2^N) work for the whole matrix, and the spin flip U = prod sigma^x
maps index i to 2^N - 1 - i, so U acts on a vector or on matrix rows by
reversal. The twisted translation
G = sigma^x_1 T (T the cyclic shift) is a bit rotation with one flip; it
commutes with H and every t(u) and G^N = U, so H is solved by one eigh per
momentum sector k = 0..N of G (sector 2N-k is the conjugate of sector k),
and a level in sector k has U-parity (-1)^k.
"""
from __future__ import annotations

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
_SLAB = 16  # columns per apply_transfer call in joint_eigenstates
_RUN_GAP = 1e-4  # relative gap below which Hermitian-part eigenvalues share one small eig


def _check_capacity(n: int):
    if n > ED_CAP:
        raise CapacityError(f"n_sites={n} exceeds the dense cap of {ED_CAP}")


def _check_zero_thetas(params: ModelParams, what: str):
    if any(abs(t) > 1e-14 for t in params.thetas):
        raise ValueError(f"{what} needs all thetas zero")


def _dense(shape, dtype=float) -> np.ndarray:
    """Zeros for a dense result; from 4 MiB up on an anonymous mapping of its own.

    Callers keep these results (H, a sector basis, t(u)) while they allocate
    and free many temporaries. Inside malloc's heap such a block pins the
    blocks around it and leaves a resident hole when freed, so the peak RSS
    of a loop over ED at N = 10 would depend on the history of the heap and
    differ by a whole 16 MiB matrix from one run to the next. A mapping of
    its own goes back to the OS when the array is freed.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if nbytes < 4 << 20:
        return np.zeros(shape, dtype)
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype).reshape(shape)


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


def _sector_eigh(rows: np.ndarray, dtype=None):
    """Spectrum of a real 2^N x 2^N matrix m that commutes with G, sector by sector.

    Takes only the rows of m at the orbit representatives r_b, in orbit
    order. Sector k, where G = e^{i pi k / N}, holds the orbits with
    k L_b = 0 mod 2N, spanned by
    |b, k> = sum_{m < L_b} e^{-i pi k m / N} |G^m r_b> / sqrt(L_b).
    One real FFT over d of m[r_a, G^d r_b] gives the blocks of k = 0..N,
    and each gets its own eigh (k = 0 and N are real). m is real, so the
    block of sector 2N-k is the conjugate of that of sector k: its levels
    take the same floats and its vectors the conjugates. A column is
    written orbit by orbit: row G^d r_b of level j is
    c[b, j] e^{-i pi k_j d / N} / sqrt(L_b), one product of coefficients
    and phases per orbit. dtype complex gives these G eigenstates; dtype
    float gives sqrt2 Re v and sqrt2 Im v in place of each conjugate pair
    v, conj(v), and the real v of k = 0 and N. Returns (eigenvalues
    ascending, sector k of each level, eigenvector columns, the level of
    each level's conjugate partner); the last two are None without a dtype.
    """
    n = rows.shape[1].bit_length() - 1
    table, lengths = _twisted_orbits(n)
    # blocks[a, k, b] = <a, k|m|b, k> for k = 0..N, from m[r_a, G^d r_b] at d = 0..2N-1
    blocks = np.fft.rfft(rows[:, table.T], axis=1)
    blocks *= (np.sqrt(np.outer(lengths, lengths)) / (2 * n))[:, None]
    sels = [np.flatnonzero(k * lengths % (2 * n) == 0) for k in range(n + 1)]
    # eigh even without vectors: eigvalsh rounds differently, which could
    # reorder the levels of a degenerate energy and so their sector labels
    eigs = [np.linalg.eigh(blocks[:, k][np.ix_(sel, sel)].real if k % n == 0
                           else blocks[:, k][np.ix_(sel, sel)]) for k, sel in enumerate(sels)]
    src = np.r_[0:n + 1, n - 1:0:-1]  # sector k is solved as sector min(k, 2N-k)
    sizes = [len(sels[s]) for s in src]
    vals = np.concatenate([eigs[s].eigenvalues for s in src])
    order = np.argsort(vals, kind="stable")
    ks = np.repeat(np.arange(2 * n), sizes)[order]
    if dtype is None:
        return vals[order], ks, None, None
    slots = np.split(np.argsort(order), np.cumsum(sizes)[:-1])  # sorted slots, per sector
    coef = np.zeros((len(lengths), len(order)), dtype=complex)
    partner = np.empty_like(order)
    for k, s in enumerate(src):
        v = eigs[s].eigenvectors / np.sqrt(lengths[sels[s]])[:, None]
        coef[np.ix_(sels[s], slots[k])] = v if k <= n else v.conj()
        partner[slots[k]] = slots[-k]
    if dtype is float:  # sqrt2 Im v is the real part of i sqrt2 conj(v), the partner's column
        coef *= np.where(ks % n, np.sqrt(2), 1.0) * np.where(ks > n, 1j, 1.0)
    phase = np.exp(-1j * np.pi / n * (np.outer(np.arange(2 * n), ks) % (2 * n)))
    vecs = _dense((2**n, len(ks)), dtype)
    for orbit, length, c in zip(table, lengths, coef):
        block = c * phase[:length]
        vecs[orbit[:length]] = block.real if dtype is float else block
    return vals[order], ks, vecs, partner


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
    translation G, as H does. It is solved in the momentum sectors of G
    (`_sector_eigh`): one eigh per sector k = 0..N, none wider than a
    sector, and a level in sector k has U-parity (-1)^k because U = G^N.
    Eigenvectors are real: the conjugate G eigenstates v and conj(v) of
    sectors k and 2N-k become sqrt2 Re v and sqrt2 Im v, which share the
    energy and the parity.
    """
    m = np.asarray(m)
    if np.iscomplexobj(m) and np.max(np.abs(m.imag)) > _HERM_TOL:
        raise ValueError("matrix has a non-negligible imaginary part")
    m = np.real(m).astype(float, copy=False)
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
    vals, ks, v, _ = _sector_eigh(m[_twisted_orbits(n)[0][:, 0]], float)
    return SpectrumResult(eigenvalues=vals, eigenvectors=v, parity=1 - 2 * (ks % 2))


def joint_eigenstates(params: ModelParams):
    """Common eigenbasis of H and the transfer family, at zero thetas.

    G commutes with H and every t(u), so H is solved sector by sector
    (`_sector_eigh`) from the rows of H at the orbit representatives alone.
    Only levels still degenerate inside one sector k <= N are rotated into
    eigenvectors of t(U_PROBE), applied to those columns alone; the partner
    run of sector 2N-k takes the conjugate columns. Returns (energies
    ascending, eigenvector matrix) with columns that are complex joint
    eigenstates.
    """
    n = params.n_sites
    rows = _representative_rows(params)  # checks the cap before the thetas are walked
    _check_zero_thetas(params, "joint eigenbasis")
    vals, ks, vecs, partner = _sector_eigh(rows, complex)
    # slots of the runs of levels within 1e-8 of each other inside one sector k <= N
    by_sector = np.lexsort((vals, ks))
    cut = (np.diff(ks[by_sector]) != 0) | (np.diff(vals[by_sector]) >= 1e-8)
    deg = [blk for blk in np.split(by_sector, np.flatnonzero(cut) + 1)
           if len(blk) > 1 and ks[blk[0]] <= n]
    cols = np.concatenate(deg) if deg else np.zeros(0, dtype=int)
    x = vecs[:, cols]
    tx = np.empty_like(x)
    for i in range(0, len(cols), _SLAB):
        tx[:, i:i + _SLAB] = apply_transfer(U_PROBE, params, x[:, i:i + _SLAB])[0]
    bounds = np.cumsum([len(blk) for blk in deg])[:-1]
    for xb, tb in zip(np.split(x, bounds, axis=1), np.split(tx, bounds, axis=1)):
        _, s = np.linalg.eig(xb.conj().T @ tb)
        xb[:] = xb @ (s / np.linalg.norm(s, axis=0, keepdims=True))
    vecs[:, cols] = x
    pair = ks[cols] % n != 0  # sectors 0 and N are their own partners
    vecs[:, partner[cols[pair]]] = x[:, pair].conj()
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
    # top half of every column, sorted (take keeps C order); the bottom half is its
    # reversal times the parity
    top = np.hstack([v for _, v in blocks]).take(order, axis=1) / np.sqrt(2)
    return vals[order], np.vstack([top, top[::-1] * np.repeat([1, -1], h)[order]])


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
