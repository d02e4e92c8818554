"""The benchmark tracer finds every qdesk function it patches by name, and puts each back."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy.linalg

import qdesk

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patchable(tracer_module) -> dict:
    """Every attribute the tracer may replace, keyed by (owner, name)."""
    owners = [qdesk] + [importlib.import_module(f"qdesk.{m}") for m in tracer_module.QDESK_LAYERS]
    found = {(o.__name__, n): f for o in owners for n, f in vars(o).items() if inspect.isfunction(f)}
    for cls in tracer_module.TRACED_CLASSES:
        found[(cls, "__init__")] = getattr(qdesk, cls).__init__
    for name in tracer_module.NUMPY_SOLVERS:
        found[("numpy.linalg", name)] = getattr(numpy.linalg, name)
    return found


def test_tracer_hooks_resolve_and_uninstall_restores_them():
    module = _load_tracer()
    before = _patchable(module)
    tracer = module.Tracer()
    try:
        tracer.install()  # an AttributeError here means a hook names a missing function
        patched = {(getattr(owner, "__name__", owner), attr) for owner, attr, _ in tracer._patches}
        assert ("qdesk.tensor", "_partial_trace_array") in patched
        assert ("qdesk.tensor", "reduced_state") in patched
        assert _patchable(module) != before
    finally:
        tracer.uninstall()
    after = _patchable(module)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
