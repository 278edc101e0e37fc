"""The benchmark's workloads: inputs drawn from the seed, fixed task lists,
and the reference check that every task runs.

    ed-crosscheck    dense ED at N = 6, 8, 10 against every BAE labeling
    identity-verify  factored-form identities on seeded levels at N = 6, 8
    large-n          BAE solves up to N = 1024 and the thermo cross-checks
    cli-session      a closed loop of CLI calls, each in a fresh interpreter

A task returns a list of Checks. A check with a `rel_error` compares against
an exact reference (another route to the same number, or the defining
equations), and that error counts toward min_digits. A check without one
(finite-size physics, text rounded by the output format) only passes or
fails. Relative errors are taken against max(1, |reference|).

A task's `known` set names failure kinds that are known defects of the
program for that task: the solver failures that ROADMAP item 3 lists
(exactly the type_II labelings that fail, see `type_two_known`, and the
ground stall from N = 192), and the crash of `table1 --format json`. Such
tasks stay in every pass and their failures are counted by kind as known;
any other failure, including one of a labeling that converges today, is
unexpected.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable

import numpy as np

from axxz import bae, cli, core, thermo, tqverify
from axxz.model import (
    ETA,
    U_PROBE,
    DensityProfile,
    ExcitationSpec,
    ModelParams,
    NonConvergenceError,
)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CLI_MAIN = "import sys; from axxz.cli import main; sys.exit(main())"

ED_TOL = 1e-8  # a BAE energy must sit this close to an ED level
RESIDUAL_LIMIT = 1e-10  # max-norm of the recomputed zero-point residual
# per-level thresholds of `axxz verify`
VERIFY_LIMITS = {"bilinear": 1e-8, "cubic": 1e-6, "f3_quasi_periodicity": 1e-8,
                 "fourier_band": 1e-8}
GROUND_DEADLINE_S = 3.0  # ground solves; bounds the N >= 192 stall
TASK_DEADLINE_S = 60.0  # every other task
GROUND_STALL_N = 192  # ground stalls from here up (ROADMAP item 3)
SOLVER_DEFECT = frozenset({"nonconvergence", "collision", "overflow", "deadline"})
# `axxz table1 --format json` raises TypeError: the rows carry numpy bools
TABLE1_JSON_DEFECT = frozenset({"error"})


def type_two_known(n: int, pos: int) -> frozenset:
    """Known solver failures of the type_II labeling at (N, position).

    Fail (ROADMAP item 3): N = 8 positions 2-5, every position at N = 10,
    N = 16 positions 2-13. Every other labeling with N <= 16 converges, so a
    failure there is unexpected.
    """
    fails = n == 10 or (n in (8, 16) and 2 <= pos <= n - 3)
    return SOLVER_DEFECT if fails else frozenset()


@dataclass
class Check:
    name: str
    value: float
    limit: float
    rel_error: float | None = None

    @property
    def ok(self) -> bool:
        return bool(self.value <= self.limit)  # NaN fails


@dataclass
class Task:
    name: str
    run: Callable[[], list]
    deadline: float = TASK_DEADLINE_S
    known: frozenset = frozenset()  # failure kinds that are known defects


@dataclass
class Workload:
    name: str
    tasks: list
    replay: tuple = ()  # CLI argv lists replayed in-process by the traced run


class Context:
    """Seed, size and the tracer (None when tracing is off) for one run."""

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.tracer = None

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def check(self):
        return self.span("harness.check")

    def peak(self, name: str, value: float):
        if self.tracer:
            self.tracer.peak(name, value)

    def add(self, name: str, value: float):
        if self.tracer:
            self.tracer.add(name, value)


def rel(err: float, ref) -> float:
    return float(err) / max(1.0, float(np.max(np.abs(ref))))


def zero_point_residual(zeros, params: ModelParams) -> float:
    """Max-norm of the zero-point equations in log form, evaluated here
    (vectorized, independently of bae.bae_residual)."""
    z = np.asarray(zeros, dtype=complex)
    th = params.theta_array
    with np.errstate(all="ignore"):
        outer = np.log(np.sinh(z[:, None] - th)) - np.log(np.sinh(z[:, None] - th - 2 * ETA))
        d = z[:, None] - z[None, :]
        inner = np.log(np.sinh(d + ETA)) - np.log(np.sinh(d - ETA))
    np.fill_diagonal(inner, 0.0)
    r = outer.sum(axis=1) - inner.sum(axis=1)
    r -= 2j * np.pi * np.round(r.imag / (2 * np.pi))
    return float(np.max(np.abs(r)))


def eigen_residual(op, vecs, vals) -> float:
    """max_k |op v_k - vals_k v_k| / |v_k|, relative to max(1, |vals|)."""
    res = np.linalg.norm(op @ vecs - vecs * vals, axis=0) / np.linalg.norm(vecs, axis=0)
    return rel(np.max(res), vals)


def t_eigen_residual(p: ModelParams, vecs) -> float:
    """max_k |t(probe) v_k - lambda_k v_k| / |t(probe) v_k|, lambda_k the Rayleigh quotient."""
    tv = core.build_transfer_matrix(U_PROBE, p) @ vecs
    lam = np.sum(vecs.conj() * tv, axis=0) / np.sum(np.abs(vecs) ** 2, axis=0)
    return float(np.max(np.linalg.norm(tv - vecs * lam, axis=0) / np.linalg.norm(tv, axis=0)))


def run_main(ctx: Context, argv) -> int:
    """cli.main in-process with its output captured; traced as cli.main.<sub>."""
    out, err = io.StringIO(), io.StringIO()
    with ctx.span("cli.main." + argv[0]), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    ctx.add(f"cli.{argv[0]}.output_bytes", len(out.getvalue().encode()))
    return code


def cli_env() -> dict:
    env = dict(os.environ)
    env.pop("AXXZ_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_cli(argv) -> subprocess.CompletedProcess:
    """One CLI call in a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", CLI_MAIN, *argv], capture_output=True,
                          text=True, env=cli_env(), check=False)


def startup_seconds(count: int) -> float:
    """Median wall time of a bare `scatter` call, which is almost all start-up."""
    times = []
    for _ in range(count):
        t0 = perf_counter()
        proc = run_cli(["scatter", "--process", "I_I"])
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"bare scatter call exited {proc.returncode}: {proc.stderr}")
    return median(times)


WARM_CLI = (
    ("ed", "--n", "4"),
    ("bae", "--n", "4"),
    ("verify", "--n", "4"),
    ("thermo", "--quantity", "eg"),
    ("scatter", "--process", "I_I"),
    ("table1", "--fixture", str(HERE / "table1_warmup.csv")),
)


def warm_up(ctx: Context):
    """Call every timed function once at the smallest size.

    Takes lazy imports and first-call costs out of the timed passes, and in
    the traced run gives every per-layer metric a measured value on every
    workload.
    """
    p4 = ModelParams(n_sites=4)
    core.diagonalize_symmetric(core.build_hamiltonian(p4))
    vals, _ = core.joint_eigenstates(p4)
    pr = ModelParams(n_sites=4, thetas=(0.03, -0.05, 0.07, -0.01))
    _, vecs = core.transfer_eigenbasis(pr)
    f = tqverify.spectral_function_from_state(vecs[:, 0], pr)
    tqverify.verify_bilinear(f, pr)
    ctx.peak("tqverify.max_cubic_residual",
             tqverify.verify_cubic(f, pr, 4)["max_relative_residual"])
    tqverify.verify_f3_properties(f, pr)
    ctx.peak("tqverify.max_band_weight", tqverify.functional_form_check(vecs[:, 0], pr))
    ground = bae.solve_from_quantum_numbers(bae.ground_numbers(4), p4)
    excited = bae.solve_from_quantum_numbers(bae.type_one_numbers(4, 0), p4)
    bae.match_spectrum(vals, [ground.energy, excited.energy], ED_TOL)
    thermo.ground_energy_density()
    thermo.excitation_energy_quadrature(ExcitationSpec("type_I", 0.0))
    thermo.solve_density_equation(lambda x: thermo.a_m(x, 1), n_points=201)
    thermo.finite_size_density_check([ground], DensityProfile(smooth=thermo.rho_bulk))
    for argv in WARM_CLI:
        code = run_main(ctx, argv)
        if code != 0:
            raise RuntimeError(f"warm-up call {' '.join(argv)} exited {code}")


# ---------------------------------------------------------------------------
# ed-crosscheck


def ed_crosscheck(ctx: Context) -> Workload:
    """Dense H, ED with parity labels and the joint basis at each N, then every
    labeling of bae.enumerate_seed_sets(N) matched against ED at 1e-8. The
    inputs are fixed (thetas zero); the seed orders the labelings. Every
    eigenvector is checked, so min_digits does not depend on the seed."""
    rng = np.random.default_rng(ctx.seed)
    state: dict = {}
    tasks = []
    for n in (4,) if ctx.smoke else (6, 8, 10):
        p = ModelParams(n_sites=n)
        tasks += [Task(f"ed N={n}", _ed_task(ctx, p, state)),
                  Task(f"joint N={n}", _joint_task(ctx, p, state))]
        labelings = bae.enumerate_seed_sets(n)
        for i in rng.permutation(len(labelings)):
            label, qn = labelings[i]
            known = frozenset()
            if label.startswith("type_II pos="):
                known = type_two_known(n, int(label.split("=")[1]))
            tasks.append(Task(f"bae N={n} {label}", _bae_vs_ed_task(ctx, p, qn, state),
                              known=known))
        tasks.append(Task(f"match N={n}", _match_task(ctx, n, state)))
    return Workload("ed-crosscheck", tasks)


def _ed_task(ctx, p, state):
    def run():
        h = core.build_hamiltonian(p)
        res = core.diagonalize_symmetric(h)
        with ctx.check():
            state[p.n_sites] = {"h": h, "levels": res.eigenvalues, "energies": []}
            v = res.eigenvectors
            resid = eigen_residual(h, v, res.eigenvalues)
            # U = prod sigma^x maps basis index i to 2^N - 1 - i
            flip = float(np.max(np.linalg.norm(v[::-1] - v * res.parity, axis=0)))
            balance = abs(int(np.sum(res.parity)))  # tr U = 0
        return [Check("eigen_residual", resid, 1e-10, resid),
                Check("parity_by_reversal", flip, 1e-8, flip),
                Check("parity_balance", balance, 0)]
    return run


def _joint_task(ctx, p, state):
    def run():
        vals, vecs = core.joint_eigenstates(p)
        with ctx.check():
            st = state[p.n_sites]
            spec = rel(np.max(np.abs(vals - st["levels"])), st["levels"])
            h_res = eigen_residual(st["h"], vecs, vals)
            t_res = t_eigen_residual(p, vecs)
        return [Check("levels_vs_ed", spec, 1e-10, spec),
                Check("h_eigen_residual", h_res, 1e-10, h_res),
                Check("t_eigen_residual", t_res, 1e-8, t_res)]
    return run


def _bae_vs_ed_task(ctx, p, qn, state):
    def run():
        zps = bae.solve_from_quantum_numbers(qn, p)
        with ctx.check():
            st = state[p.n_sites]
            st["energies"].append(zps.energy)
            err = float(np.min(np.abs(st["levels"] - zps.energy)))
            res = zero_point_residual(zps.zeros, p)
        return [Check("energy_vs_ed", err, ED_TOL, rel(err, zps.energy)),
                Check("zero_point_residual", res, RESIDUAL_LIMIT, res)]
    return run


def _match_task(ctx, n, state):
    def run():
        st = state[n]
        m = bae.match_spectrum(st["levels"], st["energies"], ED_TOL)
        dev = m["max_pair_deviation"]
        return [Check("unmatched_bae", len(m["unmatched_bae"]), 0),
                Check("max_pair_deviation", dev, ED_TOL, rel(dev, st["levels"]))]
    return run


# ---------------------------------------------------------------------------
# identity-verify


def identity_verify(ctx: Context) -> Workload:
    """Factored-form extraction and identity checks on seeded levels, with
    zero thetas (joint basis) and seeded thetas in [-0.1, 0.1] (t eigenbasis)."""
    rng = np.random.default_rng(ctx.seed)
    levels = {4: 1, 6: 4, 8: 3}
    state: dict = {}
    tasks = []
    for n in (4,) if ctx.smoke else (6, 8):
        for kind in ("zero", "random"):
            thetas = tuple(rng.uniform(-0.1, 0.1, n)) if kind == "random" else None
            p = ModelParams(n_sites=n, thetas=thetas)
            picks = [int(i) for i in rng.choice(2**n, size=levels[n], replace=False)]
            key = (n, kind)
            tasks.append(Task(f"basis N={n} thetas={kind}", _basis_task(ctx, p, key, picks, state)))
            for i in picks:
                u = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 0.45))
                tasks.append(Task(f"level N={n} thetas={kind} #{i}",
                                  _level_task(ctx, p, key, i, u, state)))
    return Workload("identity-verify", tasks)


def _basis_task(ctx, p, key, picks, state):
    def run():
        if key[1] == "zero":
            _, vecs = core.joint_eigenstates(p)
        else:
            _, vecs = core.transfer_eigenbasis(p)
        with ctx.check():
            state[key] = vecs
            t_res = t_eigen_residual(p, vecs[:, picks])
        return [Check("t_eigen_residual", t_res, 1e-8, t_res)]
    return run


def _level_task(ctx, p, key, i, u, state):
    def run():
        v = state[key][:, i]
        f = tqverify.spectral_function_from_state(v, p)
        values = {
            "bilinear": tqverify.verify_bilinear(f, p)["max_residual"],
            "cubic": tqverify.verify_cubic(f, p, 20)["max_relative_residual"],
            "f3_quasi_periodicity": tqverify.verify_f3_properties(f, p)["quasi_periodicity"],
            "fourier_band": tqverify.functional_form_check(v, p),
        }
        with ctx.check():
            direct = core.transfer_eigenvalue_on_state(u, p, v)
            gap = abs(direct - tqverify.lambda_from_zeros(u, f)) / abs(direct)
            ctx.peak("tqverify.max_cubic_residual", values["cubic"])
            ctx.peak("tqverify.max_band_weight", values["fourier_band"])
        checks = [Check(name, val, VERIFY_LIMITS[name], val) for name, val in values.items()]
        return checks + [Check("factored_vs_direct", gap, 1e-8, gap)]
    return run


# ---------------------------------------------------------------------------
# large-n


def large_n(ctx: Context) -> Workload:
    """Ground N = 16..1024, type_I at N = 16, 32, 64, type_II at every position
    for N = 8, 10, 16, then the thermo cross-checks. No dense operator."""
    rng = np.random.default_rng(ctx.seed)
    grounds = (16, 32) if ctx.smoke else (16, 32, 64, 128, 256, 512, 1024)
    if ctx.smoke:
        type_one = [(16, int(rng.integers(-7, 8)))]
        type_two = (8,)
    else:
        # J is seeded at N = 16 and 32; at N = 64 it stays 0, because the seeding
        # time there (4-8 s) depends on J and would make wall_s depend on the seed
        j16 = rng.choice(np.arange(-7, 8), size=2, replace=False)
        type_one = [(16, int(j16[0])), (16, int(j16[1])),
                    (32, int(rng.integers(-15, 16))), (64, 0)]
        type_two = (8, 10, 16)
    alphas = rng.uniform(-2.5, 2.5, 1 if ctx.smoke else 3)
    state: dict = {}
    tasks = [Task(f"ground N={n}", _ground_task(ctx, n, state), deadline=GROUND_DEADLINE_S,
                  known=SOLVER_DEFECT if n >= GROUND_STALL_N else frozenset())
             for n in grounds]
    tasks += [Task(f"type_I N={n} J={j}", _type_one_task(ctx, n, j, state)) for n, j in type_one]
    tasks += [Task(f"type_II N={n} pos={pos}", _type_two_task(ctx, n, pos),
                   known=type_two_known(n, pos))
              for n in type_two for pos in range(1, n - 1)]
    tasks.append(Task("thermo density equation", _density_equation_task(ctx)))
    tasks += [Task(f"thermo quadrature alpha={a:.4f}", _quadrature_task(ctx, float(a)))
              for a in alphas]
    tasks.append(Task("thermo finite-size density", _finite_size_task(ctx, state)))
    return Workload("large-n", tasks)


def _ground_task(ctx, n, state):
    p = ModelParams(n_sites=n)

    def run():
        state.pop(n, None)
        zps = bae.solve_from_quantum_numbers(bae.ground_numbers(n), p)
        with ctx.check():
            state[n] = zps
            res = zero_point_residual(zps.zeros, p)
            gap = abs(zps.energy / n - thermo.ground_energy_density())
        # E/N - e_g is about 0.68 / N^2 at these sizes
        return [Check("zero_point_residual", res, RESIDUAL_LIMIT, res),
                Check("energy_density_vs_limit", gap, 1.0 / n**2)]
    return run


def _type_one_task(ctx, n, j, state):
    p = ModelParams(n_sites=n)

    def run():
        zps = bae.solve_from_quantum_numbers(bae.type_one_numbers(n, j), p)
        with ctx.check():
            res = zero_point_residual(zps.zeros, p)
            lam = zps.shifted
            half = lam[np.abs(np.abs(lam.imag) - np.pi / 2) < 0.1]
            checks = [Check("zero_point_residual", res, RESIDUAL_LIMIT, res),
                      Check("half_line_roots", abs(len(half) - 1), 0)]
            if len(half) == 1:
                spec = ExcitationSpec("type_I", float(half[0].real))
                gap = abs(zps.energy - state[n].energy - thermo.excitation_energy(spec))
                ctx.peak("thermo.max_dispersion_gap", gap)
                # O(1/N) near the band edge, O(1/N^2) inside it
                checks.append(Check("dispersion_vs_closed_form", gap, 4.0 / n))
        return checks
    return run


def _type_two_task(ctx, n, pos):
    p = ModelParams(n_sites=n)

    def run():
        zps = bae.solve_from_quantum_numbers(bae.type_two_numbers(n, pos), p)
        with ctx.check(), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = zero_point_residual(zps.zeros, p)
            pattern = bae.classify_roots(zps, tol=0.1).name
        return [Check("zero_point_residual", res, RESIDUAL_LIMIT, res),
                Check("classified_type_II", float(pattern != "type_II"), 0)]
    return run


def _density_equation_task(ctx):
    def run():
        grid, f = thermo.solve_density_equation(lambda x: thermo.a_m(x, 1))
        with ctx.check():
            ref = thermo.rho_bulk(grid)
            err = float(np.max(np.abs(f - ref)) / np.max(ref))
        return [Check("density_vs_rho_bulk", err, 1e-8, err)]
    return run


def _quadrature_task(ctx, alpha):
    def run():
        checks = []
        for kind in ("type_I", "type_II"):
            spec = ExcitationSpec(kind, alpha)
            quad = thermo.excitation_energy_quadrature(spec)
            with ctx.check():
                closed = thermo.excitation_energy(spec)
                err = rel(abs(quad - closed), closed)
            checks.append(Check(f"{kind}_quadrature_vs_closed_form", err, 1e-8, err))
        return checks
    return run


def _finite_size_task(ctx, state):
    def run():
        sets = [state[n] for n in sorted(state)]
        report = thermo.finite_size_density_check(sets, DensityProfile(smooth=thermo.rho_bulk))
        checks = [Check("trend_non_increasing", float(not report["trend_non_increasing"]), 0)]
        checks += [Check(f"density_deviation_N={r['n']}", r["max_deviation"], 1.0 / r["n"])
                   for r in report["per_size"]]
        return checks
    return run


# ---------------------------------------------------------------------------
# cli-session


def cli_session(ctx: Context) -> Workload:
    """One closed-loop client: each CLI call in a fresh interpreter, one at a
    time, its exit code and parsed output checked against in-process
    library results computed during set-up."""
    rng = np.random.default_rng(ctx.seed)
    j = int(rng.integers(-4, 5))
    alpha, hole, a1, a2 = (float(x) for x in rng.uniform(-2.0, 2.0, 4))
    vseed = int(rng.integers(0, 10_000))
    with ctx.check():
        ed6 = np.linalg.eigvalsh(core.build_hamiltonian(ModelParams(n_sites=6)))
        ed8 = np.linalg.eigvalsh(core.build_hamiltonian(ModelParams(n_sites=8)))
        refs = {key: _library_outcome(n, qn) for key, n, qn in (
            ("ground", 16, bae.ground_numbers(16)),
            ("type_I", 10, bae.type_one_numbers(10, j)),
            ("type_II", 8, bae.type_two_numbers(8, 3)),
        )}
    spec1, spec2 = ExcitationSpec("type_I", alpha), ExcitationSpec("type_II", alpha)
    grid = np.linspace(-5.0, 5.0, 201)
    # (argv, expected exit code, output check)
    session = [
        (("scatter", "--process", "I_I"), 0, _expect_text("1+0i")),
        (("ed", "--n", "8"), 0, _check_ed(ed8)),
        (("bae", "--n", "16", "--format", "json"), refs["ground"][0],
         _check_bae(refs["ground"], "ground-like")),
        (("bae", "--n", "10", "--pattern", "type_I", "--number", str(j)), refs["type_I"][0],
         _check_bae(refs["type_I"], "type_I")),
        (("bae", "--n", "8", "--pattern", "type_II", "--position", "3"), refs["type_II"][0],
         _check_bae(refs["type_II"], "type_II")),
        (("verify", "--n", "6", "--seed", str(vseed), "--format", "json"), 0,
         _check_verify(vseed)),
        (("verify", "--n", "8"), 0, _check_verify(None)),
        (("thermo", "--quantity", "eg"), 0,
         _check_scalar(lambda: thermo.ground_energy_density())),
        (("thermo", "--quantity", "de1", "--alpha", repr(alpha), "--format", "json"), 0,
         _check_scalar(lambda: thermo.excitation_energy(spec1))),
        (("thermo", "--quantity", "de2", "--alpha", repr(alpha)), 0,
         _check_scalar(lambda: thermo.excitation_energy(spec2))),
        (("thermo", "--quantity", "delta", "--hole-pos", repr(hole), "--format", "json"), 0,
         _check_scalar(lambda: thermo.hole_delta(hole))),
        (("thermo", "--quantity", "rho"), 0, _check_grid(grid, thermo.rho_bulk, ())),
        (("thermo", "--quantity", "drho1", "--alpha", repr(alpha), "--n", "32",
          "--format", "json"), 0,
         _check_grid(grid, lambda x: thermo.delta_rho(spec1, x, 32), ())),
        (("thermo", "--quantity", "drho2", "--alpha", repr(alpha), "--n", "32"), 0,
         _check_grid(grid, lambda x: thermo.delta_rho(spec2, x, 32), ((alpha, -1 / 32),))),
        (("scatter", "--process", "II_II", "--a1", repr(a1), "--a2", repr(a2), "--format",
          "json"), 0, _check_scatter(thermo.smatrix("II_II", a1, a2).value)),
        (("scatter", "--process", "I_II", "--a1", repr(a1), "--a2", repr(a2)), 0,
         _check_scatter(thermo.smatrix("I_II", a1, a2).value)),
        (("table1",), 0, _check_table1(ed6)),
        (("table1", "--format", "json"), 0, _check_table1(ed6)),
    ]
    if ctx.smoke:
        session = [session[0], session[7]]
    tasks = [Task(f"cli {' '.join(argv)}", _cli_task(ctx, argv, code, check),
                  known=TABLE1_JSON_DEFECT if argv == ("table1", "--format", "json") else frozenset())
             for argv, code, check in session]
    return Workload("cli-session", tasks, replay=tuple(argv for argv, _, _ in session))


def _library_outcome(n, qn):
    """(expected exit code, energy or None) from the library, using the CLI's
    documented exit codes: 2 invalid input, 3 non-convergence."""
    try:
        return 0, bae.solve_from_quantum_numbers(qn, ModelParams(n_sites=n)).energy
    except NonConvergenceError:
        return 3, None
    except ValueError:
        return 2, None


class CliCrash(RuntimeError):
    """A CLI call died with a Python traceback instead of an exit code."""


def _cli_task(ctx, argv, exit_code, check):
    def run():
        with ctx.span("cli." + argv[0]):
            proc = run_cli(argv)
        if proc.returncode != exit_code and "Traceback" in proc.stderr:
            raise CliCrash(proc.stderr.strip().splitlines()[-1])
        with ctx.check():
            checks = [Check("exit_code", float(proc.returncode != exit_code), 0)]
            if proc.returncode == exit_code:
                checks += check(proc.stdout, proc.stderr)
        return checks
    return run


def _err_check(name, err, ref, limit=1e-12):
    """Check an absolute error, relative to max(1, |ref|), against an exact reference."""
    e = rel(err, ref)
    return Check(name, e, limit, e)


def _expect_text(text):
    def check(out, err):
        return [Check("output_text", float(out.strip() != text), 0)]
    return check


def _check_ed(levels):
    def check(out, err):
        rows = [line.split(",") for line in out.split()]
        energies = np.array([float(r[1]) for r in rows])
        parity = np.array([int(r[2]) for r in rows])
        spec = rel(np.max(np.abs(energies - levels)), levels) if len(rows) == len(levels) else np.inf
        return [Check("levels_vs_eigvalsh", spec, 1e-10, spec),
                Check("parity_balance", abs(int(parity.sum())), 0)]
    return check


def _check_bae(ref, pattern):
    code, energy = ref

    def check(out, err):
        if code != 0:
            return [Check("error_message", float(out != "" or not err.startswith("error:")), 0)]
        if out.lstrip().startswith("{"):
            data = json.loads(out)
        else:
            data = dict(line.split(",", 1) for line in out.split() if not line.startswith("root,"))
        return [_err_check("energy_vs_library", abs(float(data["energy"]) - energy), energy),
                Check("residual", float(data["residual"]), 1e-12),
                Check("classified", float(data["classified"] != pattern), 0)]
    return check


def _check_verify(seed):
    def check(out, err):
        if seed is not None:
            data = json.loads(out)
            rows = [(c["name"], c["value"], c["threshold"]) for c in data["checks"]]
            echo = float(data["seed"] != seed)
        else:
            rows = [(f[1], float(f[2]), float(f[3]))
                    for f in (line.split(",") for line in out.split()) if f[0] == "check"]
            echo = 0.0
        checks = [Check(f"verify_{name}", value, threshold, value)
                  for name, value, threshold in rows]
        return checks + [Check("check_count", float(len(rows) < 7), 0),
                         Check("seed_echo", echo, 0)]
    return check


def _check_scalar(reference):
    def check(out, err):
        text = out.strip()
        got = json.loads(text)["value"] if text.startswith("{") else float(text)
        ref = reference()
        return [_err_check("value_vs_library", abs(got - ref), ref)]
    return check


def _check_grid(grid, reference, atoms):
    def check(out, err):
        if out.lstrip().startswith("{"):
            data = json.loads(out)
            lam, values = np.array(data["lambda"]), np.array(data["values"])
            got_atoms = [(a["position"], a["weight"]) for a in data["atoms"]]
        else:
            rows = [line.split(",") for line in out.split()]
            lam = np.array([float(r[0]) for r in rows if r[0] != "atom"])
            values = np.array([float(r[1]) for r in rows if r[0] != "atom"])
            got_atoms = [(float(r[1]), float(r[2])) for r in rows if r[0] == "atom"]
        if len(lam) != len(grid) or len(got_atoms) != len(atoms):
            return [Check("row_count", 1.0, 0)]
        ref = np.asarray(reference(grid), dtype=float)
        checks = [_err_check("grid", float(np.max(np.abs(lam - grid))), grid),
                  _err_check("values_vs_library", float(np.max(np.abs(values - ref))), ref)]
        checks += [_err_check("atom", abs(complex(*g) - complex(*a)), 1.0)
                   for g, a in zip(got_atoms, atoms)]
        return checks
    return check


def _check_scatter(value):
    def check(out, err):
        text = out.strip()
        if text.startswith("{"):
            v = json.loads(text)["value"]
            return [_err_check("amplitude_vs_library", abs(complex(v["re"], v["im"]) - value), 1.0)]
        body = text[:-1]  # "{re:g}{im:+g}i": six significant digits
        k = max(i for i in range(1, len(body)) if body[i] in "+-" and body[i - 1] != "e")
        got = complex(float(body[:k]), float(body[k:]))
        return [Check("amplitude_vs_library_6_digits", abs(got - value), 1e-5)]
    return check


def _check_table1(levels):
    def check(out, err):
        if out.lstrip().startswith("{"):
            data = json.loads(out)
            rows, failed = data["rows"], data["failed"]
            status, counted = [r["ok"] for r in rows], len(rows)
        else:
            # level,energy_fixture,energy_solved,energy_ed,delta_fixture,delta_ed,OK|FAIL
            # and a last line summary,rows,<count>,failed,<count>
            lines = [line.split(",") for line in out.split()]
            summary = lines.pop()
            keys = ("energy_solved", "energy_ed", "delta_ed")
            rows = [dict(zip(keys, map(float, (f[2], f[3], f[5])))) for f in lines]
            failed, counted = int(summary[4]), int(summary[2])
            status = [f[6] == "OK" for f in lines]
        ed = max(float(np.min(np.abs(levels - r["energy_ed"]))) for r in rows)
        solved = max(abs(r["energy_solved"] - r["energy_ed"]) for r in rows)
        reported = max(r["delta_ed"] for r in rows)
        return [Check("failed_rows", failed, 0),
                Check("rows_not_ok", float(len(status) - sum(status)), 0),
                Check("row_count", float(len(rows) != 32), 0),
                Check("summary_row_count", float(counted != len(rows)), 0),
                _err_check("ed_vs_eigvalsh", ed, levels, 1e-10),
                Check("solved_vs_ed", solved, ED_TOL, rel(solved, levels)),
                Check("reported_delta_ed", reported, ED_TOL)]
    return check


WORKLOADS = {
    "ed-crosscheck": ed_crosscheck,
    "identity-verify": identity_verify,
    "large-n": large_n,
    "cli-session": cli_session,
}
