#!/usr/bin/env python3
"""Outcome record of the zero-point solver over a fixed set of labelings.

Solves every labeling of bae.enumerate_seed_sets at even N = 4..16, type_I
at N = 32 (J = 0, 5) and N = 64 (J = 0, 17), and the ground at N = 32, 64,
128, 256 and 1024: 137 labelings, about 2 s on 2 CPUs. Each gets one JSON
line: the outcome, the exception class and message of a failed solve, the
iterations, energy and residual, the roots as hex floats and the number of
bae_residual calls. --nmax keeps the labelings with N <= nmax.

    python scripts/solver_parity.py --out before.jsonl
    python scripts/solver_parity.py --compare before.jsonl after.jsonl

--compare lists every field that differs between two records and exits 1
if any does, so two source trees solve alike exactly when it exits 0.
"""
import argparse
import json
import sys

from axxz import bae
from axxz.model import ModelParams

_TYPE_ONE = ((32, 0), (32, 5), (64, 0), (64, 17))
_GROUND = (32, 64, 128, 256, 1024)


def labelings(nmax):
    """(N, label, quantum numbers) for every labeling of the set with N <= nmax."""
    for n in range(4, min(nmax, 16) + 1, 2):
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
                           roots=[[float(z.real).hex(), float(z.imag).hex()]
                                  for z in zps.zeros])
            rec["residual_calls"] = calls
            yield rec
    finally:
        bae.bae_residual = residual


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
        for rec in records(args.nmax):
            out.write(json.dumps(rec) + "\n")
    finally:
        if args.out:
            out.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
