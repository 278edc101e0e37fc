#!/usr/bin/env python3
"""Outcome record of the zero-point solver and of ED over fixed inputs.

Solves every labeling of bae.enumerate_seed_sets at N = 4..16 (odd N
included), type_I at N = 32 (J = 0, 5) and N = 64 (J = 0, 17), and the
ground at N = 32, 64, 128, 256 and 1024: 245 labelings, 137 of them at even
N, about 2 s on 2 CPUs. Each gets one JSON line: the outcome, the exception
class and message of a failed solve, the iterations, energy and residual,
the roots as hex floats and the number of bae_residual calls. Then one
line per N = 2..12, labeled "ed": the levels of core.spectrum as hex
floats, the parity of each level, for N <= 10 the worst relative
t(U_PROBE) residual of the columns of core.joint_eigenstates, and the
same residual and the orthonormality defect max |V^H V - 1| of
core.transfer_eigenbasis at seeded thetas, with the two figures its W pairing
relies on (the smallest |lambda| and the smallest gap between eigenvalues of
one U block, both over the largest |lambda|), and, for N = 4..8, the lambda0
and zeros that tqverify.spectral_function_from_state extracts from a few
joint levels and a few levels of the transfer eigenbasis, as hex floats;
about 2 s more.
--nmax keeps the inputs with N <= nmax.

    python scripts/solver_parity.py --out before.jsonl
    python scripts/solver_parity.py --compare before.jsonl after.jsonl

--compare lists every field that differs between two records and exits 1
if any does, so two source trees solve alike exactly when it exits 0. For
roots and energies it gives the count that moved and the largest move, and
for parities the count of levels whose label differs.
"""
import argparse
import itertools
import json
import sys

import numpy as np

from axxz import bae, core, tqverify
from axxz.model import ED_CAP, U_PROBE, ModelParams

_TYPE_ONE = ((32, 0), (32, 5), (64, 0), (64, 17))
_GROUND = (32, 64, 128, 256, 1024)
_JOINT_MAX = 10  # largest N whose joint basis is checked against t(U_PROBE)
_SLAB = 64  # columns per apply_transfer call in that check
_SPECTRAL_N = range(4, 9)  # chain lengths whose sampled eigenvalues are recorded
_SPECTRAL_LEVELS = 5  # levels sampled per basis, spread over the columns


def labelings(nmax):
    """(N, label, quantum numbers) for every labeling of the set with N <= nmax."""
    for n in range(4, min(nmax, 16) + 1):
        for label, qn in bae.enumerate_seed_sets(n):
            yield n, label, qn
    for n, j in _TYPE_ONE:
        if n <= nmax:
            yield n, f"type_I J={j}", bae.type_one_numbers(n, j)
    for n in _GROUND:
        if n <= nmax:
            yield n, "ground", bae.ground_numbers(n)


def records(nmax):
    """One record per labeling; bae_residual is wrapped to count its calls."""
    calls = 0
    residual = bae.bae_residual

    def counted(zeros, params):
        nonlocal calls
        calls += 1
        return residual(zeros, params)

    bae.bae_residual = counted
    try:
        for n, label, qn in labelings(nmax):
            calls = 0
            rec = {"n": n, "label": label}
            try:
                zps = bae.solve_from_quantum_numbers(qn, ModelParams(n_sites=n))
            except Exception as exc:  # every failure is an outcome to record
                rec.update(outcome="failed", error=type(exc).__name__, message=str(exc),
                           residual=getattr(exc, "residual", None))
            else:
                rec.update(outcome="converged", iterations=zps.iterations,
                           energy=zps.energy, residual=zps.residual,
                           roots=[_hex(z) for z in zps.zeros])
            rec["residual_calls"] = calls
            yield rec
    finally:
        bae.bae_residual = residual


def ed_records(nmax):
    """One record per N = 2..min(nmax, ED_CAP): the ED levels and parities, and
    for N <= _JOINT_MAX the worst |t v - lambda v| / |t v| over the joint basis and the
    seeded transfer eigenbasis, the orthonormality defect of the latter, its two premise
    figures (`_premise`) and, for N in _SPECTRAL_N, the sampled eigenvalues of a few
    joint and seeded levels."""
    for n in range(2, min(nmax, ED_CAP) + 1):
        params = ModelParams(n_sites=n)
        res = core.spectrum(params)
        rec = {"n": n, "label": "ed", "energies": [float(e).hex() for e in res.eigenvalues],
               "parity": res.parity.tolist()}
        if n <= _JOINT_MAX:
            _, vecs = core.joint_eigenstates(params)
            rec["t_residual"] = _t_residual(params, vecs)
            seeded = ModelParams(n_sites=n, thetas=np.random.default_rng(n).uniform(-0.1, 0.1, n))
            lam, basis = core.transfer_eigenbasis(seeded)
            rec["seeded_t_residual"] = _t_residual(seeded, basis)
            rec["seeded_orthonormality"] = float(
                np.max(np.abs(basis.conj().T @ basis - np.eye(2**n))))
            rec["seeded_min_abs"], rec["seeded_block_gap"] = _premise(lam, basis)
            if n in _SPECTRAL_N:
                rec["spectral"] = (_spectral(params, vecs, "joint")
                                   + _spectral(seeded, basis, "seeded"))
        yield rec


def _t_residual(params, vecs) -> float:
    """The worst |t v - lambda v| / |t v| at U_PROBE over the columns v."""
    worst = 0.0
    for i in range(0, vecs.shape[1], _SLAB):
        v = vecs[:, i:i + _SLAB]
        tv = core.apply_transfer(U_PROBE, params, v)[0]
        lam = np.sum(v.conj() * tv, axis=0) / np.sum(abs(v) ** 2, axis=0)
        worst = max(worst, float(np.max(np.linalg.norm(tv - v * lam, axis=0)
                                        / np.linalg.norm(tv, axis=0))))
    return worst


def _premise(lam, vecs):
    """min |lambda| and the smallest gap between two eigenvalues of one U block, both
    over max |lambda|; the U-parity of a column is read from its exact mirror symmetry."""
    top = float(np.max(np.abs(lam)))
    even = np.all(vecs[::-1] == vecs, axis=0)
    gap = min(float(np.min(np.abs(b[:, None] - b) + np.diag(np.full(len(b), np.inf))))
              for b in (lam[even], lam[~even]))
    return float(np.min(np.abs(lam))) / top, gap / top


def _hex(z) -> list:
    return [float(z.real).hex(), float(z.imag).hex()]


def _spectral(params, vecs, basis) -> list:
    """[basis, column, lambda0, zeros] of a few columns, the complex numbers as hex pairs."""
    out = []
    for i in np.linspace(0, vecs.shape[1] - 1, _SPECTRAL_LEVELS).astype(int):
        f = tqverify.spectral_function_from_state(vecs[:, i], params)
        out.append([basis, int(i), _hex(f.lambda0), [_hex(z) for z in f.zeros]])
    return out


def _load(path):
    with open(path) as fh:
        return {(r["n"], r["label"]): r for r in map(json.loads, fh)}


def compare(path_a, path_b) -> list:
    """One line per field that differs, and per labeling found in one file only."""
    a, b = _load(path_a), _load(path_b)
    diffs = []
    for key in list(a) + [k for k in b if k not in a]:
        where = f"N={key[0]} {key[1]}"
        if key not in a or key not in b:
            diffs.append(f"{where}: only in {path_a if key in a else path_b}")
            continue
        for field in sorted(a[key].keys() | b[key].keys()):
            va, vb = a[key].get(field), b[key].get(field)
            if va == vb:
                continue
            if field == "roots" and va and vb and len(va) == len(vb):
                moved = [max(abs(float.fromhex(x) - float.fromhex(y)) for x, y in zip(p, q))
                         for p, q in zip(va, vb)]
                diffs.append(f"{where}: {sum(d > 0 for d in moved)} roots moved, "
                             f"the largest part by {max(moved):.3g}")
            elif field == "energies" and va and vb and len(va) == len(vb):
                moved = [abs(float.fromhex(x) - float.fromhex(y)) for x, y in zip(va, vb)]
                worst = int(np.argmax(moved))
                diffs.append(f"{where}: {sum(d > 0 for d in moved)} of {len(moved)} energies "
                             f"moved, the largest by {moved[worst]:.3g} (level {worst + 1})")
            elif field == "spectral" and va and vb and len(va) == len(vb):
                moved = [f"{x[0]} {x[1]}" for x, y in zip(va, vb) if x != y]
                diffs.append(f"{where}: the sampled eigenvalue differs at {len(moved)} of "
                             f"{len(va)} levels, the first at {moved[0]}")
            elif field == "parity" and va and vb and len(va) == len(vb):
                flips = [i + 1 for i, (x, y) in enumerate(zip(va, vb)) if x != y]
                diffs.append(f"{where}: parity differs at {len(flips)} of {len(va)} levels, "
                             f"the first at level {flips[0]}")
            else:
                diffs.append(f"{where}: {field} {va!r} -> {vb!r}")
    return diffs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--nmax", type=int, default=max(_GROUND))
    ap.add_argument("--out", help="write the records here instead of stdout")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)

    if args.compare:
        diffs = compare(*args.compare)
        print("\n".join(diffs) if diffs else "no differences")
        return 1 if diffs else 0
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for rec in itertools.chain(records(args.nmax), ed_records(args.nmax)):
            out.write(json.dumps(rec) + "\n")
    finally:
        if args.out:
            out.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
