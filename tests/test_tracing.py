"""The benchmark tracer must be able to wrap and restore every name it times.

perfbench/tracing.py wraps public functions in the axxz modules by name, so
renaming or dropping one of them breaks the traced benchmark run. Loading
the tracer here makes that a fast tier-1 failure.
"""
import importlib.util
from pathlib import Path

from axxz import bae, cli, core, thermo, tqverify

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = (core, cli, bae, tqverify, thermo)
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.build_transfer_matrix is not before[1]["build_transfer_matrix"]
    finally:
        tracer.uninstall()
    for module, saved in zip(modules, before):
        changed = [k for k, v in vars(module).items() if saved.get(k, object()) is not v]
        assert not changed, f"{module.__name__}: {changed}"
