"""Operator-level checks: R matrix structure, Hamiltonian, transfer family.

Oracles here are either algebraic (permutation at u = 0, inversion to a
scalar, symmetry conjugations) or cross-constructions (the Hamiltonian
rebuilt from the transfer derivative, the matrix-free transfer action
against the dense transfer matrix).
"""
import ctypes
import sys

import numpy as np
import pytest

from axxz import core, tqverify
from axxz.model import (
    ETA,
    U_PROBE,
    CapacityError,
    DegeneracyResolutionError,
    ModelParams,
    QuantumNumberSet,
    ZeroPointSet,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0])
PERM = np.eye(4)[[0, 2, 1, 3]]
# tracemalloc peaks at N = 10 with vectors, as measured (11.3 and 21.8 MiB) plus 25%
PEAK_DIAGONALIZE = int(1.25 * 11.3 * 2**20)
PEAK_JOINT = int(1.25 * 21.8 * 2**20)


def build_r_matrix(u):
    """4x4 six-vertex R-matrix on auxiliary (x) quantum space, from the two
    weights of core: diagonal sinh(u + eta)/sinh(eta) in the aligned
    sectors, sinh(u)/sinh(eta) plus unit hopping in the mixed sector."""
    bp, bm = core._r_weights(u)
    return np.array([[bp, 0, 0, 0], [0, bm, 1, 0], [0, 1, bm, 0], [0, 0, 0, bp]],
                    dtype=complex)


def rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)


def two_start_transfer(u, params, vectors):
    """t(u) @ vectors from both auxiliary start states, shape (len(u), 2^N, K).

    R_0j(u - theta_j) is applied site by site, j = 1..N, to an array indexed
    (u, start aux, current aux, spins and column); the sigma^x-twisted trace
    then pairs opposite start and end aux states. The oracle for the
    one-start action of core.apply_transfer, which must match it bit for bit.
    """
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    v = np.asarray(vectors, dtype=complex).reshape(2**params.n_sites, -1)
    x = np.zeros((len(u), 2, 2, v.size), dtype=complex)
    x[:, 0, 0] = x[:, 1, 1] = v.ravel()
    for j, th in enumerate(params.theta_array):
        bp, bm = (w[:, None, None, None] for w in core._r_weights(u - th))
        y = x.reshape(len(u), 2, 2, 2**j, 2, -1)  # (u, start, aux, left, site j, right)
        x = np.empty_like(y)
        x[:, :, 0, :, 0] = bp * y[:, :, 0, :, 0]
        x[:, :, 1, :, 1] = bp * y[:, :, 1, :, 1]
        x[:, :, 0, :, 1] = bm * y[:, :, 0, :, 1] + y[:, :, 1, :, 0]
        x[:, :, 1, :, 0] = bm * y[:, :, 1, :, 0] + y[:, :, 0, :, 1]
    return (x[:, 0, 1] + x[:, 1, 0]).reshape(len(u), len(v), -1)


def bits(a):
    """The IEEE bit patterns of a complex array, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


def kron_hamiltonian(params):
    """The defining H, with Paulis lifted by Kronecker products (site 1 leftmost)."""
    n, ch = params.n_sites, np.cosh(ETA)

    def lift(op, site):
        return np.kron(np.kron(np.eye(2 ** (site - 1)), op), np.eye(2 ** (n - site)))

    h = np.zeros((2**n, 2**n), dtype=complex)
    for j in range(1, n):
        h -= (lift(SX, j) @ lift(SX, j + 1) + lift(SY, j) @ lift(SY, j + 1)
              + ch * lift(SZ, j) @ lift(SZ, j + 1))
    h -= lift(SX, n) @ lift(SX, 1) - lift(SY, n) @ lift(SY, 1) - ch * lift(SZ, n) @ lift(SZ, 1)
    return h.real if np.max(np.abs(h.imag)) < 1e-12 else h


class TestRMatrix:
    def test_structure(self):
        u = 0.37 + 0.21j
        r = build_r_matrix(u)
        bp = np.sinh(u + ETA) / np.sinh(ETA)
        bm = np.sinh(u) / np.sinh(ETA)
        expect = np.array([
            [bp, 0, 0, 0],
            [0, bm, 1, 0],
            [0, 1, bm, 0],
            [0, 0, 0, bp],
        ])
        assert np.allclose(r, expect, atol=1e-15)

    def test_permutation_at_zero(self):
        assert np.allclose(build_r_matrix(0.0), PERM, atol=1e-15)

    def test_inversion_to_scalar(self, rng):
        for _ in range(5):
            u = complex(*rng.uniform(-1, 1, 2))
            prod = build_r_matrix(u) @ build_r_matrix(-u)
            xi = np.sinh(u - ETA) * np.sinh(u + ETA) / np.sinh(ETA) ** 2
            assert np.allclose(prod, -xi * np.eye(4), atol=1e-13)

    def test_shift_conjugation(self):
        u = 0.52 - 0.18j
        z1 = np.kron(SZ, np.eye(2))
        lhs = build_r_matrix(u + 1j * np.pi)
        assert np.allclose(lhs, -z1 @ build_r_matrix(u) @ z1, atol=1e-12)


class TestHamiltonian:
    def test_real_symmetric(self, params6):
        h = core.build_hamiltonian(params6)
        assert np.isrealobj(h)
        assert np.max(np.abs(h - h.T)) < 1e-14

    def test_two_site_spectrum(self):
        res = core.diagonalize_symmetric(core.build_hamiltonian(ModelParams(n_sites=2)))
        assert abs(np.sum(res.eigenvalues)) < 1e-10
        assert len(res.eigenvalues) == 4

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_kronecker_definition(self, n):
        params = ModelParams(n_sites=n)
        assert np.array_equal(core.build_hamiltonian(params), kron_hamiltonian(params))

    def test_spin_flip_symmetry(self, params6):
        # U = prod sigma^x maps basis index i to 2^N - 1 - i, so U H U = H[::-1, ::-1]
        h = core.build_hamiltonian(params6)
        assert np.max(np.abs(h[::-1, ::-1] - h)) < 1e-12

    @pytest.mark.parametrize("n", range(2, 11))
    def test_parity_labels_are_eigenvalues(self, n):
        h = core.build_hamiltonian(ModelParams(n_sites=n))
        res = core.diagonalize_symmetric(h)
        v = res.eigenvectors
        assert v.dtype == np.float64
        assert np.max(np.abs(v.T @ v - np.eye(2**n))) < 1e-12
        assert np.max(np.linalg.norm(h @ v - v * res.eigenvalues, axis=0)) < 1e-12
        assert np.all(v[::-1] == res.parity * v)  # a U eigenstate exactly, not to rounding
        # sector 2N-k is the conjugate of sector k and sector k+N is W times sector k,
        # so they have the same floats
        vals, ks, _, _ = core._sector_eigh(h[core._twisted_orbits(n)[0][:, 0]])
        for k in range(1, n):
            assert np.array_equal(vals[ks == k], vals[ks == 2 * n - k])
        for k in range(n):
            assert np.array_equal(vals[ks == k], vals[ks == k + n])
        assert np.sum(res.parity) == 0  # tr U = 0

    @pytest.mark.parametrize("n", range(2, 13))
    def test_spectrum_matches_diagonalize(self, n):
        # the representative rows of H give the levels and parities of the dense route, bit for bit
        params = ModelParams(n_sites=n)
        res = core.diagonalize_symmetric(core.build_hamiltonian(params))
        levels = core.spectrum(params)
        assert levels.eigenvectors is None
        assert np.array_equal(levels.eigenvalues, res.eigenvalues)
        assert np.array_equal(levels.parity, res.parity)

    def test_spectrum_builds_no_dense_hamiltonian(self):
        import tracemalloc

        params = ModelParams(n_sites=10)
        tracemalloc.start()
        try:
            core.spectrum(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 4**10 // 4  # a quarter of the dense H (measured 1.35 MiB)

    def test_diagonalize_needs_twisted_translation_symmetry(self):
        h = core.build_hamiltonian(ModelParams(n_sites=4))
        h[1, 6] = h[6, 1] = h[1, 6] + 0.5
        with pytest.raises(ValueError, match="twisted translation"):
            core.diagonalize_symmetric(h)
        with pytest.raises(ValueError, match="power of two"):
            core.diagonalize_symmetric(np.eye(3))

    def test_diagonalize_solves_sector_blocks_only(self, monkeypatch):
        # one eigh per sector k = 0..N/2, none wider than a sector
        widths = []
        for name in ("eigh", "eigvalsh"):
            orig = getattr(np.linalg, name)

            def recording(a, *args, _orig=orig, **kw):
                widths.append(np.shape(a)[-1])
                return _orig(a, *args, **kw)

            monkeypatch.setattr(np.linalg, name, recording)
        params = ModelParams(n_sites=10)
        h = core.build_hamiltonian(params)
        for solve in (lambda: core.diagonalize_symmetric(h), lambda: core.spectrum(params)):
            widths.clear()
            solve()
            assert 0 < len(widths) <= 6 and max(widths) <= 64

    @pytest.mark.parametrize("n", [5, 6])
    def test_parity_order_in_degenerate_runs(self, n):
        # W pairs sectors k and k + N with the same floats; at odd N they have opposite
        # U-parities, and a run of equal energies lists +1 first
        levels = core.spectrum(ModelParams(n_sites=n))
        e, par = levels.eigenvalues, levels.parity
        tie = e[1:] == e[:-1]
        assert np.all(par[1:][tie] <= par[:-1][tie])
        assert np.any(tie & (par[1:] != par[:-1])) == bool(n % 2)

    def test_diagonalize_needs_w_symmetry(self):
        # a transverse field commutes with G but flips W = prod sigma^z
        n = 4
        h = core.build_hamiltonian(ModelParams(n_sites=n))
        idx = np.arange(2**n)
        for j in range(n):
            h[idx, idx ^ (1 << j)] += 0.3
        x = np.cos(idx)
        g = core._twist(idx, n)
        assert np.allclose(h @ x[g], (h @ x)[g])
        with pytest.raises(ValueError, match="prod sigma\\^z"):
            core.diagonalize_symmetric(h)

    def test_diagonalize_peak_memory(self):
        import tracemalloc

        h = core.build_hamiltonian(ModelParams(n_sites=10))
        tracemalloc.start()
        try:
            core.diagonalize_symmetric(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= PEAK_DIAGONALIZE

    def test_dense_results_stay_off_the_malloc_heap(self):
        # a kept result inside the heap would pin it and leave a resident hole when freed
        if not sys.platform.startswith("linux") or not hasattr(ctypes.CDLL(None), "mallinfo2"):
            pytest.skip("needs glibc >= 2.33")

        class Mallinfo2(ctypes.Structure):
            _fields_ = [(name, ctypes.c_size_t) for name in (
                "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
                "uordblks", "fordblks", "keepcost")]

        mallinfo2 = ctypes.CDLL(None).mallinfo2
        mallinfo2.argtypes, mallinfo2.restype = [], Mallinfo2

        def malloced():
            info = mallinfo2()
            return info.uordblks + info.hblkhd

        params = ModelParams(n_sites=10)
        before = malloced()
        h = core.build_hamiltonian(params)
        kept = [h, core.diagonalize_symmetric(h).eigenvectors, core.joint_eigenstates(params)[1],
                core.build_transfer_matrix(U_PROBE, params)]
        assert sum(a.nbytes for a in kept) == 48 * 2**20
        assert malloced() - before < 2**20

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            core.build_hamiltonian(ModelParams(n_sites=13))

    def test_default_thetas_cost_no_work_per_site(self):
        # a size far past the cap is refused by the operators, so building its
        # parameters must not cost one complex object per site (32 MB at N = 10^6)
        import tracemalloc

        tracemalloc.start()
        try:
            params = ModelParams(n_sites=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * 2**20  # the tuple itself is 8 MB
        assert params.thetas == (0j,) * 10**6
        zeros = ModelParams(n_sites=4, thetas=[0.0] * 4)
        assert ModelParams(n_sites=4) == zeros and hash(ModelParams(n_sites=4)) == hash(zeros)

    def test_capacity_checked_before_orbit_table(self, monkeypatch):
        # the orbit table is 2N x 2^N int64 (6 GiB at N = 24): a refused size must not build it
        def refuse(n):
            raise AssertionError(f"orbit table built at N = {n}")

        monkeypatch.setattr(core, "_twisted_orbits", refuse)
        for solve in (core.spectrum, core.joint_eigenstates):
            with pytest.raises(CapacityError):
                solve(ModelParams(n_sites=13))

    def test_diagonalize_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            core.diagonalize_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            core.diagonalize_symmetric(np.array([[0.0, 1j], [-1j, 0.0]]))


class TestTransfer:
    def test_commuting_family(self, rng):
        params = ModelParams(n_sites=6, thetas=tuple(rng.uniform(-0.1, 0.1, 6)))
        for _ in range(4):
            u, v = (complex(*rng.uniform(-0.8, 0.8, 2)) for _ in range(2))
            a = core.build_transfer_matrix(u, params)
            b = core.build_transfer_matrix(v, params)
            assert np.linalg.norm(a @ b - b @ a) < 1e-10 * np.linalg.norm(a) * np.linalg.norm(b)

    def test_quasi_periodicity(self, params6):
        u = 0.23 + 0.11j
        t = core.build_transfer_matrix(u, params6)
        ts = core.build_transfer_matrix(u + 1j * np.pi, params6)
        assert rel(ts, (-1) ** 5 * t) < 1e-12

    def test_spin_flip_z_reverses_sign(self, params6):
        # conjugating by prod sigma^z flips the whole transfer matrix, which
        # is why each zero set carries a +-lambda0 pair of eigenvalues
        w = np.eye(1)
        for _ in range(6):
            w = np.kron(w, SZ)
        t = core.build_transfer_matrix(0.31 + 0.07j, params6)
        assert rel(w @ t @ w, -t) < 1e-13

    def test_inversion_identity(self, rng):
        thetas = tuple(rng.uniform(-0.1, 0.1, 4))
        params = ModelParams(n_sites=4, thetas=thetas)
        for j in (0, 2):
            prod = (core.build_transfer_matrix(thetas[j], params)
                    @ core.build_transfer_matrix(thetas[j] - ETA, params))
            target = (-tqverify.a_function(thetas[j], params)
                      * tqverify.d_function(thetas[j] - ETA, params))
            assert rel(prod, target * np.eye(16)) < 1e-10

    def test_hamiltonian_from_transfer(self, params6):
        h = core.build_hamiltonian(params6)
        ht = core.hamiltonian_from_transfer(params6, np.eye(64))
        assert rel(ht, h) < 1e-6

    @pytest.mark.parametrize("n", range(2, 11))
    def test_hamiltonian_from_transfer_on_vectors(self, n):
        # the FFT gives t'(0) exactly, so H X comes out at rounding level
        rng = np.random.default_rng(300 + n)
        params = ModelParams(n_sites=n)
        x = rng.normal(size=(2**n, 3)) + 1j * rng.normal(size=(2**n, 3))
        assert rel(core.hamiltonian_from_transfer(params, x),
                   core.build_hamiltonian(params) @ x) <= 1e-13

    def test_hamiltonian_from_transfer_applies_t_once(self, monkeypatch, params6):
        # t(0)^{-1} is a gather, so the only transfer action is the FFT grid
        calls = []
        real = core.apply_transfer

        def recording(u, params, vectors):
            calls.append(np.atleast_1d(u))
            return real(u, params, vectors)

        monkeypatch.setattr(core, "apply_transfer", recording)
        core.hamiltonian_from_transfer(params6, np.eye(64)[:, :2])
        assert len(calls) == 1
        assert np.array_equal(calls[0], 2j * np.pi * np.arange(14) / 14)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_t0_is_twisted_translation(self, n):
        # at zero thetas t(0)|i> = |G i>, which hamiltonian_from_transfer uses to invert t(0)
        idx = np.arange(2**n)
        perm = np.zeros((2**n, 2**n))
        perm[core._twist(idx, n), idx] = 1
        assert np.array_equal(core.build_transfer_matrix(0.0, ModelParams(n_sites=n)), perm)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_t0_power_n_is_spin_flip(self, n):
        # at zero thetas t(0)^N = G^N = U
        params = ModelParams(n_sites=n)
        x = np.random.default_rng(400 + n).normal(size=2**n)
        y = x
        for _ in range(n):
            y = core.apply_transfer(0.0, params, y)[0]
        assert np.array_equal(y[:, 0], x[::-1])

    def test_hamiltonian_from_transfer_needs_homogeneous(self):
        params = ModelParams(n_sites=4, thetas=(0.1, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            core.hamiltonian_from_transfer(params, np.eye(16))


class TestApplyTransfer:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_dense_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        params = ModelParams(n_sites=n, thetas=tuple(rng.uniform(-0.1, 0.1, n)))
        vecs = rng.normal(size=(2**n, 3)) + 1j * rng.normal(size=(2**n, 3))
        th1 = params.thetas[0]
        us = np.array([U_PROBE, 0.0, th1, th1 - ETA, 0.21 - 0.13j + 1j * np.pi])
        got = core.apply_transfer(us, params, vecs)
        assert got.shape == (len(us), 2**n, 3)
        for u, tv in zip(us, got):
            ref = core.build_transfer_matrix(u, params) @ vecs
            assert np.max(np.abs(tv - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_dense_build_matches_action_on_identity(self, n):
        rng = np.random.default_rng(700 + n)
        params = ModelParams(n_sites=n, thetas=tuple(rng.uniform(-0.1, 0.1, n)))
        for u in (U_PROBE, 0.0, 0.41 - 0.27j):
            t = core.build_transfer_matrix(u, params)
            ref = core.apply_transfer(u, params, np.eye(2**n))[0]
            assert np.max(np.abs(t - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("thetas", ["zero", "random", "repeated"])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_bit_identical_to_two_start_oracle(self, n, thetas):
        # U-even, U-odd and general columns, interleaved, on a grid of u
        rng = np.random.default_rng(900 + n)
        th = {"zero": None, "random": tuple(rng.uniform(-0.1, 0.1, n)),
              "repeated": tuple(rng.choice([0.0, 0.05, -0.07], n))}[thetas]
        params = ModelParams(n_sites=n, thetas=th)
        w = rng.normal(size=(2**n, 6)) + 1j * rng.normal(size=(2**n, 6))
        vecs = np.column_stack([w[:, 0] + w[::-1, 0], w[:, 1], w[:, 2] - w[::-1, 2],
                                w[:, 3] - w[::-1, 3], w[:, 4], w[:, 5] + w[::-1, 5]])
        us = np.r_[U_PROBE, 0.0, 2j * np.pi * np.arange(4 * n) / (4 * n), rng.normal(size=3)]
        for k in (1, 3, 6):
            got = core.apply_transfer(us, params, vecs[:, :k])
            assert got.shape == (len(us), 2**n, k)
            assert np.array_equal(bits(got), bits(two_start_transfer(us, params, vecs[:, :k])))

    @pytest.mark.parametrize("thetas", ["zero", "random"])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_w_anticommutes(self, n, thetas):
        # W = prod sigma^z flips the sign of t(u) exactly; == takes -0.0 and 0.0 as equal
        rng = np.random.default_rng(1000 + n)
        th = tuple(rng.uniform(-0.1, 0.1, n)) if thetas == "random" else None
        params = ModelParams(n_sites=n, thetas=th)
        s = np.where(core._w_odd(np.arange(2**n)), -1.0, 1.0)[:, None]
        w = rng.normal(size=(2**n, 3)) + 1j * rng.normal(size=(2**n, 3))
        x = np.column_stack([w[:, 0] + w[::-1, 0], w[:, 1] - w[::-1, 1], w[:, 2]])
        us = np.r_[U_PROBE, 0.0, rng.normal(size=2) + 1j * rng.normal(size=2)]
        got = core.apply_transfer(us, params, s * x)
        assert np.all(got == -s * core.apply_transfer(us, params, x))

    @pytest.mark.parametrize("n", [4, 6, 7])
    def test_eigenbasis_columns_bit_identical_to_oracle(self, n):
        # basis columns carry exact zeros and parity from how they are built
        rng = np.random.default_rng(n)
        us = np.r_[U_PROBE, 2j * np.pi * np.arange(4 * n) / (4 * n)]
        for params, basis in (
            (ModelParams(n_sites=n), core.joint_eigenstates),
            (ModelParams(n_sites=n, thetas=tuple(rng.uniform(-0.1, 0.1, n))),
             core.transfer_eigenbasis),
        ):
            vecs = basis(params)[1]
            for i in range(0, 2**n, 3):
                assert np.array_equal(bits(core.apply_transfer(us, params, vecs[:, i])),
                                      bits(two_start_transfer(us, params, vecs[:, i])))

    @staticmethod
    def _record_widths(monkeypatch):
        """The column count of every B(u) propagation, recorded into the returned list."""
        widths = []
        real = core._apply_b

        def recording(u, params, v):
            widths.append(v.shape[1])
            return real(u, params, v)

        monkeypatch.setattr(core, "_apply_b", recording)
        return widths

    def test_parity_column_propagated_once(self, monkeypatch, params6):
        widths = self._record_widths(monkeypatch)
        w = np.random.default_rng(3).normal(size=(64, 3))
        even, odd, general = w[:, 0] + w[::-1, 0], w[:, 1] - w[::-1, 1], w[:, 2]
        for cols, width in (([even], 1), ([odd], 1), ([general], 2),
                            ([even, general, odd], 4)):
            widths.clear()
            core.apply_transfer([0.1, U_PROBE], params6, np.column_stack(cols))
            assert widths == [width]

    def test_eigenbasis_columns_cost_half(self, monkeypatch):
        # every transfer_eigenbasis column is a U eigenvector, exactly
        params = ModelParams(n_sites=6, thetas=tuple(np.linspace(-0.1, 0.1, 6)))
        vecs = core.transfer_eigenbasis(params)[1]
        widths = self._record_widths(monkeypatch)
        core.apply_transfer(U_PROBE, params, vecs)
        assert widths == [64]

    @pytest.mark.parametrize("n", [6, 7])
    def test_joint_columns_cost_half(self, monkeypatch, n):
        # every joint column is a U eigenvector exactly, U-odd ones included
        params = ModelParams(n_sites=n)
        vecs = core.joint_eigenstates(params)[1]
        widths = self._record_widths(monkeypatch)
        core.apply_transfer(U_PROBE, params, vecs)
        assert widths == [2**n]

    def test_vector_input_keeps_a_column_axis(self, params6, joint6):
        _, vecs = joint6
        assert core.apply_transfer([0.1, 0.2j], params6, vecs[:, 0]).shape == (2, 64, 1)


class TestEigenstates:
    def test_rayleigh_matches_family(self, params6, joint6):
        _, vecs = joint6
        u = 0.4 - 0.2j
        t = core.build_transfer_matrix(u, params6)
        v = vecs[:, 0]
        lam = core.transfer_eigenvalue_on_state(u, params6, v)
        assert np.linalg.norm(t @ v - lam * v) < 1e-9 * np.linalg.norm(t @ v)

    def test_grid_of_u_matches_scalar_calls(self, params6, joint6):
        _, vecs = joint6
        us = np.array([0.17, 0.3 - 0.22j, 0.05 + 0.4j])
        got = core.transfer_eigenvalue_on_state(us, params6, vecs[:, 3])
        assert got.shape == us.shape
        for u, lam in zip(us, got):
            assert lam == core.transfer_eigenvalue_on_state(u, params6, vecs[:, 3])

    def test_mixed_state_rejected(self, params6, joint6):
        _, vecs = joint6
        mixed = vecs[:, 0] + vecs[:, 5]
        with pytest.raises(DegeneracyResolutionError):
            core.transfer_eigenvalue_on_state(0.2, params6, mixed)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_joint_basis_diagonalizes_probe(self, n):
        params = ModelParams(n_sites=n)
        vals, vecs = core.joint_eigenstates(params)
        assert np.max(np.abs(vals - np.linalg.eigvalsh(core.build_hamiltonian(params)))) < 1e-12
        tv = core.build_transfer_matrix(U_PROBE, params) @ vecs
        lam = np.einsum("ij,ij->j", vecs.conj(), tv) / np.einsum("ij,ij->j", vecs.conj(), vecs)
        resid = np.linalg.norm(tv - lam * vecs, axis=0) / np.linalg.norm(tv, axis=0)
        assert np.max(resid) <= 1e-10
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(2**n))) < 1e-12
        parity = 1 - 2 * (core._sector_eigh(core._representative_rows(params))[1] % 2)
        assert np.all(vecs[::-1] == parity * vecs)

    def test_joint_basis_rejects_thetas(self):
        with pytest.raises(ValueError):
            core.joint_eigenstates(ModelParams(n_sites=4, thetas=(0.0, 0.1, 0.0, 0.0)))

    def test_joint_basis_applies_probe_to_degenerate_columns_only(self, monkeypatch):
        seen = []
        orig = core.apply_transfer

        def counting(u, params, vectors):
            seen.append(np.shape(vectors)[1])
            return orig(u, params, vectors)

        monkeypatch.setattr(core, "apply_transfer", counting)
        core.joint_eigenstates(ModelParams(n_sites=10))
        assert 0 < sum(seen) <= 72  # the runs of sectors k <= N/2; all 2N sectors hold 144

    def test_joint_basis_peak_memory(self):
        import tracemalloc

        params = ModelParams(n_sites=10)
        tracemalloc.start()
        try:
            core.joint_eigenstates(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= PEAK_JOINT

    def test_transfer_eigenbasis_spans_family(self, rng):
        params = ModelParams(n_sites=4, thetas=tuple(rng.uniform(-0.1, 0.1, 4)))
        _, vecs = core.transfer_eigenbasis(params)
        t = core.build_transfer_matrix(-0.3 + 0.4j, params)
        for i in (0, 7, 15):
            v = vecs[:, i]
            lam = np.vdot(v, t @ v) / np.vdot(v, v)
            assert np.linalg.norm(t @ v - lam * v) < 1e-8 * np.linalg.norm(t @ v)


class TestTransferEigenbasis:
    @pytest.mark.parametrize("kind", ["random", "zero"])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_eigenpairs(self, n, kind):
        rng = np.random.default_rng(800 + n)
        thetas = tuple(rng.uniform(-0.1, 0.1, n)) if kind == "random" else None
        params = ModelParams(n_sites=n, thetas=thetas)
        vals, vecs = core.transfer_eigenbasis(params)
        t = core.build_transfer_matrix(U_PROBE, params)
        # the probe eigenvalues are simple, so nearest neighbours pair the two lists
        ref = np.linalg.eigvals(t)
        dist = np.abs(ref[:, None] - vals)
        match = np.argmin(dist, axis=1)
        assert np.array_equal(np.sort(match), np.arange(2**n))
        assert np.max(dist[np.arange(2**n), match]) <= 1e-12
        tv = t @ vecs
        assert np.max(np.linalg.norm(tv - vals * vecs, axis=0) / np.linalg.norm(tv, axis=0)) <= 1e-13
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(2**n))) <= 1e-12
        even = np.linalg.norm(vecs[::-1] - vecs, axis=0) <= 1e-12
        odd = np.linalg.norm(vecs[::-1] + vecs, axis=0) <= 1e-12
        assert np.all(even | odd) and np.sum(even) == 2 ** (n - 1)
        assert np.all(np.diff(np.abs(vals)) <= 0)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_exact_w_pairs(self, n):
        # each column v at lam has its partner W v at -lam, as the same floats
        thetas = tuple(np.random.default_rng(n).uniform(-0.1, 0.1, n))
        vals, vecs = core.transfer_eigenbasis(ModelParams(n_sites=n, thetas=thetas))
        s = np.where(core._w_odd(np.arange(2**n)), -1.0, 1.0)[:, None]
        partner = np.argmin(np.abs(vals[:, None] + vals), axis=1)
        assert np.array_equal(np.sort(partner), np.arange(2**n))
        assert np.array_equal(vals[partner], -vals)
        assert np.all(vecs[:, partner] == s * vecs)

    @pytest.mark.parametrize("n", [4, 6])
    def test_adjoint_is_shifted_transfer(self, n):
        # t(u)^dagger = c t(conj(u) - eta), |c| = 1, for real thetas: t(U_PROBE) is normal
        rng = np.random.default_rng(900 + n)
        params = ModelParams(n_sites=n, thetas=tuple(rng.uniform(-0.1, 0.1, n)))
        for u in (U_PROBE, 0.3 - 0.2j, -0.7 + 0.5j):
            adj = core.build_transfer_matrix(u, params).conj().T
            shifted = core.build_transfer_matrix(np.conj(u) - ETA, params)
            c = np.vdot(shifted, adj) / np.vdot(shifted, shifted)
            assert abs(abs(c) - 1) <= 1e-13
            assert rel(adj, c * shifted) <= 1e-13

    def test_normal_eig_resolves_runs(self):
        # Hermitian parts 1 and 1 + 1e-7, -0.4 and -0.4 + 3e-9 share runs;
        # the imaginary parts tell them apart
        rng = np.random.default_rng(17)
        lam = np.array([1 + 0.5j, 1 + 1e-7 - 0.3j, -0.4 + 0.2j, -0.4 + 3e-9 - 0.6j, 0.2 + 0.1j, -1.3])
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        b = (q * lam) @ q.conj().T
        vals, vecs = core._normal_eig(b)
        assert np.max(np.abs(np.sort_complex(vals) - np.sort_complex(lam))) <= 1e-14
        assert np.max(np.linalg.norm(b @ vecs - vals * vecs, axis=0)) <= 1e-14
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(6))) <= 1e-14

    def test_paired_eig_resolves_runs(self):
        # [[0, a], [b, 0]] with eigenvalues +-lam: Hermitian parts 1 and 1 + 1e-7, 0.4 and
        # 0.4 + 3e-9 share runs, and 2e-9 and -1e-9 share one run with their own partners
        # round 0; the imaginary parts tell them apart
        rng = np.random.default_rng(18)
        lam = np.array([1 + 0.5j, 1 + 1e-7 - 0.3j, 0.4 + 0.2j, 0.4 + 3e-9 - 0.6j, 0.2 + 0.1j,
                        1.3, 2e-9 + 0.7j, -1e-9 + 0.35j])
        x, y = (np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))[0]
                for _ in range(2))
        a, b = (x * lam) @ y.conj().T, (y * lam) @ x.conj().T
        vals, xv, yv = core._paired_eig(a, b)
        full = np.block([[np.zeros((8, 8)), a], [b, np.zeros((8, 8))]])
        vecs = np.block([[xv, xv], [yv, -yv]])
        both = np.r_[vals, -vals]
        assert np.max(np.abs(np.sort_complex(both) - np.sort_complex(np.r_[lam, -lam]))) <= 1e-14
        assert np.max(np.linalg.norm(full @ vecs - both * vecs, axis=0)) <= 1e-14
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(16))) <= 1e-14

    def test_no_eig_on_the_full_space(self, monkeypatch):
        # even N: no eigh, svd or eig wider than 2^(N-2); odd N: one eigh, of one U block
        widths = {}
        for name in ("eigh", "svd", "eig"):
            orig = getattr(np.linalg, name)

            def recording(a, *args, _orig=orig, _name=name, **kw):
                widths.setdefault(_name, []).append(np.shape(a)[-1])
                return _orig(a, *args, **kw)

            monkeypatch.setattr(np.linalg, name, recording)
        # N = 10 is the first size whose probe spectrum has runs of near-equal Hermitian parts
        for n in (9, 10):
            widths.clear()
            thetas = tuple(np.random.default_rng(n).uniform(-0.1, 0.1, n))
            core.transfer_eigenbasis(ModelParams(n_sites=n, thetas=thetas))
            if n % 2:
                assert widths["eigh"] == [2 ** (n - 1)] and "svd" not in widths
            else:
                assert "eigh" not in widths and widths["svd"] == [2 ** (n - 2)] * 2
            assert max(widths.get("eig", [0])) <= 4
        assert widths["eig"]

    def test_rejects_complex_thetas(self):
        with pytest.raises(ValueError, match="real thetas"):
            core.transfer_eigenbasis(ModelParams(n_sites=4, thetas=(0.1, 0.05j, 0.0, -0.02)))


class TestModelTypes:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            ModelParams(n_sites=1)
        with pytest.raises(ValueError):
            ModelParams(n_sites=4, thetas=(0.1, 0.2))

    def test_zero_point_set_shift_roundtrip(self):
        lam = np.array([0.3, -0.1 + 0.2j])
        zps = ZeroPointSet.from_shifted(lam)
        assert np.allclose(zps.shifted, lam)
        assert zps.n_sites == 3

    def test_quantum_number_counting(self):
        from axxz.model import Excitation

        qn = QuantumNumberSet(bulk=(0.5, -0.5), excitations=[Excitation("type_II", 1.0)])
        assert qn.n_roots == 4
        assert qn.excitations == (Excitation("type_II", 1.0),)
