"""Span recorder for the traced benchmark run.

Spans are kept in memory as parallel arrays (name, parent span, task id,
start, end) and written out when the run ends. Layers are timed from
outside: `Tracer.install` replaces public functions of the axxz modules by
wrappers, in every module namespace that calls them, and `uninstall` puts
the originals back. A layer's self time is its span's duration minus the
time covered by its child spans.

Code inside a `harness.check` span (the benchmark's own reference checks)
records no layer spans, so a check that calls the library charges its time
to the check, not to the layer it calls.
"""
from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np


def _nbytes(value) -> int:
    """Bytes held by the arrays a core function returned (computed, not measured)."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    if hasattr(value, "__dataclass_fields__"):
        return sum(_nbytes(getattr(value, f)) for f in value.__dataclass_fields__)
    return 0


class DeadlineExceeded(Exception):
    """A task ran past its deadline (raised from the SIGALRM handler)."""


def failure_kind(exc: BaseException) -> str:
    """Name the failure kinds the benchmark reports separately."""
    from axxz.model import NonConvergenceError

    if isinstance(exc, NonConvergenceError):
        return "overflow" if "overflow" in str(exc) else "nonconvergence"
    if isinstance(exc, ValueError) and "collided" in str(exc):
        return "collision"
    if isinstance(exc, DeadlineExceeded):
        return "deadline"
    return "error"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.task_id = -1
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []
        self._muted = 0
        self._saved: list[tuple] = []
        # a deadline that fires while open() appends is deferred to close()
        self.busy = False
        self.pending = False

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        if self._muted:
            return -1
        self.busy = True
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self.task_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        self.busy = False
        return i

    def close(self, i: int):
        if i >= 0:
            self.end[i] = time.perf_counter()
            self._stack.pop()
        if self.pending:
            self.pending = False
            raise DeadlineExceeded

    def depth(self) -> int:
        return len(self._stack)

    def unwind(self, depth: int):
        """End the spans a deadline left open above `depth`."""
        now = time.perf_counter()
        while len(self._stack) > depth:
            self.end[self._stack.pop()] = now
        self._muted = 0

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        muted = name == "harness.check"
        self._muted += muted
        try:
            yield
        finally:
            self._muted -= muted
            self.close(i)

    def add(self, name: str, value: float = 1.0):
        self.counters[name] = self.counters.get(name, 0.0) + value

    def peak(self, name: str, value: float):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, module, attr: str, name: str, fn, on_result=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None and not tracer._muted:
                    on_error(exc)
                raise
            finally:
                tracer.close(i)
            if on_result is not None and not tracer._muted:
                on_result(out)
            return out

        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, traced)

    def install(self):
        """Wrap the timed public functions of core, bae, tqverify and thermo."""
        from axxz import bae, cli, core, thermo, tqverify

        def dense(out):
            self.add("core.dense_bytes", _nbytes(out))

        def newton_ok(zps):
            self.add("bae.solve_newton.converged")
            self.add("bae.solve_newton.iterations", zps.iterations)
            self.peak("bae.max_residual", zps.residual)

        def solve_failed(exc):  # a solve fails once, in seeding or in Newton
            self.add("bae.failed_solves")
            self.add("bae.failures." + failure_kind(exc))

        core_fns = {
            "build_hamiltonian": (core, cli),
            "diagonalize_symmetric": (core, cli),
            "joint_eigenstates": (core, cli),
            "build_transfer_matrix": (core, cli),
            "transfer_eigenbasis": (core, cli),
            "hamiltonian_from_transfer": (core, cli),
            "transfer_eigenvalue_on_state": (core, tqverify),
        }
        for attr, callers in core_fns.items():
            fn = getattr(core, attr)
            hook = None if attr == "transfer_eigenvalue_on_state" else dense
            for module in callers:
                self._wrap(module, attr, "core." + attr, fn, on_result=hook)
        for attr in ("bae_residual", "bae_jacobian", "match_spectrum"):
            self._wrap(bae, attr, "bae." + attr, getattr(bae, attr))
        self._wrap(bae, "seed_from_quantum_numbers", "bae.seed_from_quantum_numbers",
                   bae.seed_from_quantum_numbers, on_error=solve_failed)
        self._wrap(bae, "solve_newton", "bae.solve_newton", bae.solve_newton,
                   on_result=newton_ok, on_error=solve_failed)
        for attr in ("spectral_function_from_state", "functional_form_check",
                     "verify_cubic", "verify_bilinear", "verify_f3_properties"):
            self._wrap(tqverify, attr, "tqverify." + attr, getattr(tqverify, attr))
        for attr in ("solve_density_equation", "excitation_energy_quadrature",
                     "finite_size_density_check", "theta_m"):
            self._wrap(thermo, attr, "thermo." + attr, getattr(thermo, attr))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (total self time in s, number of spans)."""
        if not len(self.start):
            return {}
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        total = np.bincount(names, weights=own, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        return {n: (float(total[i]), int(calls[i])) for i, n in enumerate(self.names)}

    def layer_totals(self, layers) -> dict[str, float]:
        """Per layer: time inside its outermost spans, i.e. those not nested in
        another span of a listed layer. theta_m called from bae seeding counts
        toward bae here, and toward thermo in self_times."""
        if not len(self.start):
            return {layer: 0.0 for layer in layers}
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_layer = np.array([next((k for k, layer in enumerate(layers)
                                     if n.startswith(layer + ".")), -1) for n in self.names])
        layer = name_layer[np.frombuffer(self.name_id, dtype=np.int32)]
        parent_layer = np.where(parent >= 0, layer[parent], -1)
        outermost = (layer >= 0) & (parent_layer < 0)
        totals = np.bincount(layer[outermost], weights=dur[outermost], minlength=len(layers))
        return {name: float(totals[k]) for k, name in enumerate(layers)}

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            task=np.frombuffer(self.task, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )
