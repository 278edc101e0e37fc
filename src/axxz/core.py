"""R-matrix, transfer matrix and Hamiltonian for small chains.

Builds the six-vertex R-matrix and the antiperiodic XXZ Hamiltonian, and
gives the twisted transfer matrix
t(u) = tr_0{ sigma^x_0 R_0N(u - theta_N) ... R_01(u - theta_1) } on vectors:
`apply_transfer` costs O(N 2^N) work per u and column, without forming the
matrix. Every check of t(u) goes through it, including the joint eigenbasis
of H and t and H rebuilt from t'(0). The dense 2^N x 2^N t(u) of
`build_transfer_matrix` is only built for the eig of t(U_PROBE) in
`transfer_eigenbasis` and as a test oracle. This module is the
exact-diagonalization oracle everything else is checked against.

Basis index bits are spins, site 1 the most significant bit, bit 0 = up.
H is filled from bit arithmetic on these indices, in O(N 2^N) work, and the
spin flip U = prod sigma^x maps index i to 2^N - 1 - i, so U acts on a
vector or on matrix rows by reversal.
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

_HERM_TOL = 1e-10  # largest imaginary part or asymmetry taken as rounding
_SLAB = 16  # columns per apply_transfer call in joint_eigenstates


def _check_capacity(n: int):
    if n > ED_CAP:
        raise CapacityError(f"n_sites={n} exceeds the dense cap of {ED_CAP}")


def _r_weights(u):
    """The two R-matrix weights sinh(u + eta)/sinh(eta) and sinh(u)/sinh(eta)."""
    return np.sinh(u + ETA) / SINH_ETA, np.sinh(u) / SINH_ETA


def build_r_matrix(u: complex) -> np.ndarray:
    """4x4 six-vertex R-matrix on auxiliary (x) quantum space.

    Diagonal sinh(u + eta)/sinh(eta) in the aligned sectors, sinh(u)/sinh(eta)
    plus unit off-diagonal hopping in the mixed sector. R(0) is the
    permutation matrix.
    """
    bp, bm = _r_weights(u)
    return np.array(
        [
            [bp, 0, 0, 0],
            [0, bm, 1, 0],
            [0, 1, bm, 0],
            [0, 0, 0, bp],
        ],
        dtype=complex,
    )


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
    sigma^x twist) and attach one site per step.
    """
    n = params.n_sites
    _check_capacity(n)
    theta = params.theta_array
    z1 = np.zeros((1, 1), dtype=complex)
    o1 = np.ones((1, 1), dtype=complex)
    m = [[z1, o1], [o1, z1]]  # twist sigma^x in the auxiliary space
    for j in range(n, 0, -1):
        r4 = build_r_matrix(u - theta[j - 1])
        r = [[r4[2 * a : 2 * a + 2, 2 * b : 2 * b + 2] for b in range(2)] for a in range(2)]
        m = [
            [sum(np.kron(r[c][b], m[a][c]) for c in range(2)) for b in range(2)]
            for a in range(2)
        ]
    return m[0][0] + m[1][1]


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


def _degenerate_blocks(vals: np.ndarray, tol: float = 1e-8):
    """Yield (start, stop) of each run of ascending levels within tol of its first."""
    i, dim = 0, len(vals)
    while i < dim:
        j = i + 1
        while j < dim and vals[j] - vals[i] < tol:
            j += 1
        yield i, j
        i = j


def diagonalize_symmetric(m: np.ndarray, want_vectors: bool = True) -> SpectrumResult:
    """Full ascending spectrum of a real symmetric matrix.

    When the matrix is a chain operator commuting with U = prod sigma^x,
    degenerate eigenspaces are rotated so every retained eigenvector is a
    U-parity eigenstate, and the +-1 labels are returned.
    """
    m = np.asarray(m)
    if np.iscomplexobj(m):
        if np.max(np.abs(m.imag)) > _HERM_TOL:
            raise ValueError("matrix has a non-negligible imaginary part")
        m = m.real
    m = m.astype(float, copy=False)
    if np.max(np.abs(m - m.T)) > _HERM_TOL * max(1.0, np.max(np.abs(m))):
        raise ValueError("matrix is not symmetric")
    vals, vecs = np.linalg.eigh(m)
    if not want_vectors:
        return SpectrumResult(eigenvalues=vals)

    parity = None
    dim = m.shape[0]
    n = dim.bit_length() - 1
    # U m U = m with U the index reversal: U commutes with m
    if 2**n == dim and n >= 1 and (
            np.max(np.abs(m[::-1, ::-1] - m)) < 1e-9 * max(1.0, np.max(np.abs(m)))):
        # rotate each degenerate block into U eigenvectors
        parity = np.empty(dim, dtype=int)
        for i, j in _degenerate_blocks(vals):
            block = vecs[:, i:j]
            w, s = np.linalg.eigh(block.T @ block[::-1])
            vecs[:, i:j] = block @ s
            parity[i:j] = np.where(w > 0, 1, -1)
    return SpectrumResult(eigenvalues=vals, eigenvectors=vecs, parity=parity)


def joint_eigenstates(params: ModelParams):
    """Common eigenbasis of H and the transfer family.

    H eigenspaces can be degenerate (the spin-flip pairing alone doubles
    every level), so each near-degenerate block is diagonalized again in
    t(U_PROBE). t(U_PROBE) is applied to the H eigenvectors a slab of
    columns at a time, never formed. Returns (energies ascending,
    eigenvector matrix) with columns that are joint eigenstates.
    """
    vals, q = np.linalg.eigh(build_hamiltonian(params))
    tq = np.empty(q.shape, dtype=complex)
    for i in range(0, len(vals), _SLAB):
        tq[:, i:i + _SLAB] = apply_transfer(U_PROBE, params, q[:, i:i + _SLAB])[0]
    vecs = q.astype(complex)
    for i, j in _degenerate_blocks(vals):
        if j - i > 1:
            block = vecs[:, i:j]
            _, s = np.linalg.eig(block.conj().T @ tq[:, i:j])
            s /= np.linalg.norm(s, axis=0, keepdims=True)
            vecs[:, i:j] = block @ s
    return vals, vecs


def transfer_eigenbasis(params: ModelParams):
    """Eigenbasis of t(U_PROBE), valid for any inhomogeneities.

    With nonzero thetas the local Hamiltonian is no longer part of the
    commuting family, so the basis has to come from the family itself. The
    probe eigenvalues are generically simple; columns are sorted by
    decreasing |eigenvalue|.
    """
    t = build_transfer_matrix(U_PROBE, params)
    vals, vecs = np.linalg.eig(t)
    order = np.argsort(-np.abs(vals))
    return vals[order], vecs[:, order]


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

    Only defined at zero thetas. There t(0) is a permutation with
    t(0)^N = U, the index reversal, so t(0)^{-1} X = t(0)^(N-1) X[::-1].
    t(u) holds only the frequencies e^{fu}, f = -N..N, so one FFT of 2N+2
    samples on the imaginary axis gives every coefficient and t'(0) exactly.
    """
    if any(abs(t) > 1e-14 for t in params.thetas):
        raise ValueError("transfer-derivative construction needs all thetas zero")
    n = params.n_sites
    x = np.asarray(vectors, dtype=complex).reshape(2**n, -1)
    y = x[::-1]
    for _ in range(n - 1):
        y = apply_transfer(0.0, params, y)[0]
    m = 2 * n + 2
    spec = np.fft.fft(apply_transfer(2j * np.pi * np.arange(m) / m, params, y), axis=0) / m
    dt = np.tensordot(np.fft.fftfreq(m, 1 / m), spec, axes=1)
    return -2 * SINH_ETA * dt + n * np.cosh(ETA) * x
