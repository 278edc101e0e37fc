"""Command line front end.

Subcommands
    ed       exact diagonalization; CSV rows level,energy,parity
    bae      solve the zero-point equations for one labeled state
    verify   transfer-matrix and factored-eigenvalue identity checks
    thermo   closed-form densities, dispersions and energy density
    scatter  two-body scattering amplitudes
    table1   re-converge the bundled N = 6 reference table against ED

Each subcommand returns (exit code, document, rows); main renders them in
one place, to stdout or --out. JSON is the document, indented by one space
when it holds an array and on one line otherwise; a complex value is
{"re": x, "im": y}. CSV is the rows joined by commas, a float cell as repr
(so both forms round-trip exactly), None as an empty cell, anything else as
str.

Exit codes: 0 success, 2 invalid input (a float option that is NaN or
infinite, thermo --n below 2, a thermo or bae option that does not apply to
the quantity or pattern, table1 --tol not positive, a corrupted table1
fixture, and a size whose arrays cannot be allocated included) or failed
validation, 3 solver non-convergence or a root collision after convergence,
4 I/O failure. Every error leaves through main as one "error: ..." line on
stderr.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bae, thermo, tqverify
# perfbench/tracing.py wraps these names in this module by name: keep each importable, even unused
from .core import (
    apply_transfer,
    build_hamiltonian,
    build_transfer_matrix,
    diagonalize_symmetric,
    hamiltonian_from_transfer,
    joint_eigenstates,
    spectrum,
    transfer_eigenbasis,
)
from .model import (
    ED_CAP,
    ETA,
    U_PROBE,
    DensityProfile,
    ExcitationSpec,
    ModelParams,
    NonConvergenceError,
    ZeroPointSet,
)

_PROCESSES = ("I_I", "II_II", "I_II")


def _cnum(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _cell(x) -> str:
    if isinstance(x, float):
        return repr(float(x))
    return "" if x is None else str(x)


def _render(fmt: str, doc: dict, rows) -> str:
    if fmt == "json":
        nested = any(isinstance(v, list) for v in doc.values())
        return json.dumps(doc, indent=1 if nested else None)
    return "\n".join(",".join(_cell(c) for c in row) for row in rows)


def _required(cfg: argparse.Namespace, choice: str, opt: str, why: str):
    """cfg.<opt>, which the choice cannot do without."""
    if getattr(cfg, opt) is None:
        raise ValueError(f"{choice} needs --{opt} ({why})")
    return getattr(cfg, opt)


def _compute(cfg: argparse.Namespace, dest: str, table: dict):
    """What table computes for the choice cfg.<dest>, once every option given
    applies to it; table maps each choice to (its options, its function)."""
    choice = getattr(cfg, dest)
    for opt in dict.fromkeys(o for opts, _ in table.values() for o in opts):
        if getattr(cfg, opt) is not None and opt not in table[choice][0]:
            raise ValueError(f"--{opt.replace('_', '-')} does not apply to --{dest} {choice}")
    return table[choice][1](cfg)


# ---------------------------------------------------------------------------
# subcommands


def run_ed(cfg: argparse.Namespace):
    res = spectrum(ModelParams(n_sites=cfg.n))
    levels = [{"level": i + 1, "energy": float(e), "parity": p}
              for i, (e, p) in enumerate(zip(res.eigenvalues, res.parity.tolist()))]
    return 0, {"n": cfg.n, "levels": levels}, [list(r.values()) for r in levels]


# each --pattern: the options that apply to it, and its quantum numbers
_PATTERNS = {
    "ground": ((), lambda cfg: bae.ground_numbers(cfg.n)),
    "type_I": (("number",), lambda cfg: bae.type_one_numbers(
        cfg.n, _required(cfg, "type_I", "number", "the half-line quantum number J"))),
    "type_II": (("position",), lambda cfg: bae.type_two_numbers(
        cfg.n, _required(cfg, "type_II", "position", "1-based gap slot"))),
}


def run_bae(cfg: argparse.Namespace):
    params = ModelParams(n_sites=cfg.n)
    tol = {} if cfg.tol is None else {"tol": cfg.tol}
    zps = bae.solve_from_quantum_numbers(_compute(cfg, "pattern", _PATTERNS), params, **tol)
    pattern = bae.classify_roots(zps, tol=0.1)
    lams = zps.shifted
    doc = {
        "n": cfg.n,
        "pattern": cfg.pattern,
        "zeros": [_cnum(z) for z in zps.zeros],
        "lambdas": [_cnum(x) for x in lams],
        "energy": zps.energy,
        "iterations": zps.iterations,
        "residual": zps.residual,
        "classified": pattern.name,
    }
    rows = [("root", j, z.real, z.imag, x.real, x.imag)
            for j, (z, x) in enumerate(zip(zps.zeros, lams))]
    rows += [(key, doc[key]) for key in ("energy", "iterations", "residual", "classified")]
    return 0, doc, rows


def run_verify(cfg: argparse.Namespace):
    n = cfg.n
    if cfg.seed is not None and n > 8:
        raise ValueError("verify --seed is limited to n <= 8 (dense t(probe) for its eigenbasis)")
    if n > ED_CAP:
        raise ValueError(f"verify is limited to n <= {ED_CAP} (the dense H of the H-from-t check)")
    for flag in ("levels", "samples"):
        if getattr(cfg, flag) < 1:
            raise ValueError(f"--{flag} must be at least 1")
    rng = np.random.default_rng(cfg.seed)
    thetas = tuple(rng.uniform(-0.1, 0.1, n)) if cfg.seed is not None else None
    params = ModelParams(n_sites=n, thetas=thetas)

    checks = []

    def add(name, value, threshold):
        checks.append({
            "name": name,
            "value": float(value),
            "threshold": threshold,
            "ok": bool(value < threshold),
        })

    # the operator identities are checked on three random columns X
    pair_rng = np.random.default_rng(913 if cfg.seed is None else cfg.seed + 1)
    pairs = [[complex(*pair_rng.uniform(-0.8, 0.8, 2)) for _ in range(2)] for _ in range(3)]
    x = pair_rng.normal(size=(2**n, 3)) + 1j * pair_rng.normal(size=(2**n, 3))

    def t(u, y):
        return apply_transfer(u, params, y)[0]

    worst = 0.0
    for u, v in pairs:
        uv = t(u, t(v, x))
        worst = max(worst, np.linalg.norm(uv - t(v, t(u, x))) / np.linalg.norm(uv))
    add("transfer_commutator", worst, 1e-10)

    tx, shifted = apply_transfer([U_PROBE, U_PROBE + 1j * np.pi], params, x)
    add("quasi_periodicity",
        np.linalg.norm(shifted - (-1) ** (n - 1) * tx) / np.linalg.norm(tx), 1e-10)

    th0 = params.theta_array[0]
    target = tqverify.quantum_determinant(th0, params)
    add("inversion_identity",
        np.linalg.norm(t(th0, t(th0 - ETA, x)) - target * x) / (abs(target) * np.linalg.norm(x)),
        1e-8)

    if thetas is None:
        hx = build_hamiltonian(params) @ x
        add("hamiltonian_from_transfer",
            np.linalg.norm(hamiltonian_from_transfer(params, x) - hx) / np.linalg.norm(hx),
            1e-6)
        vals, vecs = joint_eigenstates(params)
    else:
        vals, vecs = transfer_eigenbasis(params)
    # a count above 2^N picks the same set as 2^N, without the larger linspace
    idx = sorted(set(np.linspace(0, len(vals) - 1, min(cfg.levels, len(vals))).astype(int)))
    per_level = []
    for i in idx:
        f = tqverify.spectral_function_from_state(vecs[:, i], params)
        per_level.append((tqverify.verify_bilinear(f, params)["max_residual"],
                          tqverify.verify_cubic(f, params, cfg.samples)["max_relative_residual"],
                          tqverify.verify_f3_properties(f, params)["quasi_periodicity"],
                          f.band_weight))
    # np.max, not max(): a level with a NaN residual has to fail its check
    bil, cub, f3qp, band = np.max(per_level, axis=0)
    add("bilinear_identity", bil, 1e-8)
    add("cubic_identity", cub, 1e-6)
    add("f3_quasi_periodicity", f3qp, 1e-8)
    add("fourier_band", band, 1e-8)

    ok = all(c["ok"] for c in checks)
    doc = {"n": n, "seed": cfg.seed, "levels": [int(i) for i in idx], "checks": checks, "ok": ok}
    rows = [("seed", cfg.seed)] if cfg.seed is not None else []
    rows += [("check", c["name"], c["value"], c["threshold"], "ok" if c["ok"] else "FAIL")
             for c in checks]
    return (0 if ok else 2), doc, rows


_GRID = np.linspace(-5.0, 5.0, 201)


def _zero(x):
    """An unset rapidity option as 0."""
    return 0.0 if x is None else x


def _spec(cfg: argparse.Namespace, kind: str) -> ExcitationSpec:
    return ExcitationSpec(kind, _zero(cfg.alpha))


def _rho(cfg: argparse.Namespace):
    if (cfg.n is None) != (cfg.hole_pos is None):
        raise ValueError("finite-size rho needs both --n and --hole-pos")
    return thermo.ground_profile(cfg.hole_pos, cfg.n or math.inf)


def _correction(cfg: argparse.Namespace, kind: str):
    n = _required(cfg, cfg.quantity, "n", "it scales like 1/N")
    return thermo.excitation_profile(_spec(cfg, kind), n)


# each --quantity: the options that apply to it, and its value or its density
# profile; a value is reported with the options that apply, 0 when unset
_QUANTITIES = {
    "eg": ((), lambda cfg: thermo.ground_energy_density()),
    "de1": (("alpha",), lambda cfg: thermo.excitation_energy(_spec(cfg, "type_I"))),
    "de2": (("alpha",), lambda cfg: thermo.excitation_energy(_spec(cfg, "type_II"))),
    "rho": (("hole_pos", "n"), _rho),
    "drho1": (("alpha", "n"), lambda cfg: _correction(cfg, "type_I")),
    "drho2": (("alpha", "n"), lambda cfg: _correction(cfg, "type_II")),
    "delta": (("hole_pos",), lambda cfg: thermo.hole_delta(_zero(cfg.hole_pos))),
}


def run_thermo(cfg: argparse.Namespace):
    if cfg.n is not None and cfg.n < 2:
        raise ValueError(f"--n must be at least 2, got {cfg.n}")
    result = _compute(cfg, "quantity", _QUANTITIES)
    if not isinstance(result, DensityProfile):
        meta = {opt: _zero(getattr(cfg, opt)) for opt in _QUANTITIES[cfg.quantity][0]}
        return 0, {"quantity": cfg.quantity, **meta, "value": float(result)}, [(float(result),)]
    doc = {
        "quantity": cfg.quantity,
        "alpha": _zero(cfg.alpha),
        "n": cfg.n,
        "lambda": [float(x) for x in _GRID],
        "values": [float(result.smooth(x)) for x in _GRID],
        "atoms": [{"position": float(p), "weight": float(w)} for p, w in result.holes],
    }
    rows = list(zip(doc["lambda"], doc["values"]))
    rows += [("atom", a["position"], a["weight"]) for a in doc["atoms"]]
    return 0, doc, rows


def _short(x: float) -> str:
    """Shortest round-trip repr, with -0.0 as 0 and a trailing .0 dropped."""
    text = repr(x + 0.0)
    return text[:-2] if text.endswith(".0") else text


def run_scatter(cfg: argparse.Namespace):
    v = thermo.smatrix(cfg.process, cfg.a1, cfg.a2).value
    im = _short(v.imag)
    doc = {"process": cfg.process, "a1": cfg.a1, "a2": cfg.a2, "value": _cnum(v)}
    return 0, doc, [(_short(v.real) + ("" if im.startswith("-") else "+") + im + "i",)]


def _bundled_fixture() -> str:
    from importlib.resources import files

    return str(files("axxz").joinpath("data/table1.csv"))


def _load_fixture(path: str):
    """Parse and validate the reference table; any defect reports as corrupt."""
    import csv

    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for i, raw in enumerate(reader):
            if not raw or (i == 0 and raw[0].strip() == "level"):
                continue
            if len(raw) != 12:
                raise ValueError(f"fixture row {i + 1}: expected 12 fields, got {len(raw)}")
            try:
                level = int(raw[0])
                nums = [float(x) for x in raw[1:]]
            except ValueError:
                raise ValueError(f"fixture row {i + 1}: non-numeric field") from None
            if not all(np.isfinite(nums)):
                raise ValueError(f"fixture row {i + 1}: non-finite value")
            lams = [complex(nums[2 * k], nums[2 * k + 1]) for k in range(5)]
            rows.append({"level": level, "lambdas": lams, "energy": nums[10]})
    if not rows:
        raise ValueError("fixture is empty")
    return rows


def run_table1(cfg: argparse.Namespace):
    if not cfg.tol > 0:
        raise ValueError(f"--tol must be positive, got {cfg.tol:g}")
    path = cfg.fixture or _bundled_fixture()
    try:
        rows = _load_fixture(path)
    except ValueError as exc:
        raise ValueError(f"corrupted fixture: {exc}") from None

    params = ModelParams(n_sites=6)
    ed_vals = spectrum(params).eigenvalues

    def solve_row(row):
        seed = ZeroPointSet.from_shifted(row["lambdas"])
        zps = bae.solve_newton(seed, params)
        i = int(np.argmin(np.abs(ed_vals - zps.energy)))
        d_fixture, d_ed = abs(zps.energy - row["energy"]), abs(zps.energy - ed_vals[i])
        return {
            "level": row["level"],
            "energy_fixture": row["energy"],
            "energy_solved": zps.energy,
            "energy_ed": float(ed_vals[i]),
            "delta_fixture": d_fixture,
            "delta_ed": d_ed,
            "ok": bool(d_fixture <= cfg.tol and d_ed <= 1e-8),
        }

    results = [solve_row(r) for r in rows]
    failed = sum(not r["ok"] for r in results)
    lines = [(r["level"], r["energy_fixture"], r["energy_solved"], r["energy_ed"],
              r["delta_fixture"], r["delta_ed"], "OK" if r["ok"] else "FAIL") for r in results]
    lines.append(("summary", "rows", len(results), "failed", failed))
    return (0 if failed == 0 else 2), {"tol": cfg.tol, "rows": results, "failed": failed}, lines


# ---------------------------------------------------------------------------
# parser and entry point


def _finite_float(text: str) -> float:
    """Type of every float option: NaN and infinities exit 2 with the flag named."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_common(p: argparse.ArgumentParser, run):
    p.set_defaults(run=run)
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="write output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="axxz",
        description="antiperiodic XXZ chain at eta = i*pi/3: diagonalization, "
                    "zero-point equations, identity checks, thermodynamics",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ed", help="diagonalize the chain; rows level,energy,parity")
    p.add_argument("--n", type=int, required=True, help="number of sites")
    _add_common(p, run_ed)

    p = sub.add_parser("bae", help="solve the zero-point equations for one labeling")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pattern", choices=tuple(_PATTERNS), default="ground")
    p.add_argument("--number", type=_finite_float, default=None,
                   help="half-line number J (type_I): an integer at even N, half-odd at odd N")
    p.add_argument("--position", type=int, default=None, help="1-based gap slot (type_II)")
    p.add_argument("--tol", type=_finite_float, default=None)
    _add_common(p, run_bae)

    p = sub.add_parser("verify", help="transfer-matrix and factored-form identity checks")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--levels", type=int, default=5, help="eigenstates to spot-check")
    p.add_argument("--samples", type=int, default=20, help="points for the cubic identity")
    p.add_argument("--seed", type=int, default=None,
                   help="draw random inhomogeneities in [-0.1, 0.1] with this seed")
    _add_common(p, run_verify)

    p = sub.add_parser("thermo", help="closed-form limit quantities")
    p.add_argument("--quantity", choices=tuple(_QUANTITIES), required=True)
    p.add_argument("--alpha", type=_finite_float, default=None, help="rapidity (default 0)")
    p.add_argument("--hole-pos", dest="hole_pos", type=_finite_float, default=None)
    p.add_argument("--n", type=int, default=None, help="finite size for 1/N corrections")
    _add_common(p, run_thermo)

    p = sub.add_parser("scatter", help="two-body scattering amplitude")
    p.add_argument("--process", choices=_PROCESSES, required=True)
    p.add_argument("--a1", type=_finite_float, default=0.0)
    p.add_argument("--a2", type=_finite_float, default=0.0)
    _add_common(p, run_scatter)

    p = sub.add_parser("table1", help="re-converge the bundled N = 6 table against ED")
    p.add_argument("--tol", type=_finite_float, default=1e-3,
                   help="energy tolerance (default 1e-3)")
    p.add_argument("--fixture", default=None, help="alternate fixture CSV path")
    _add_common(p, run_table1)

    return ap


# the exit code of each error, first match: a root collision is a solver failure
# although it is a ValueError, and an input too large to allocate is invalid
_EXIT_CODES = {NonConvergenceError: 3, ValueError: 2, MemoryError: 2, OSError: 4}


def main(argv=None) -> int:
    try:
        cfg = build_parser().parse_args(argv)
        code, doc, rows = cfg.run(cfg)
        text = _render(cfg.fmt, doc, rows)
        if cfg.out is None:
            print(text)
        else:
            with open(cfg.out, "w") as fh:
                fh.write(text + "\n")
    except SystemExit as exc:  # argparse printed its help (0) or a usage error (2)
        return exc.code
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
