"""The benchmark tracer finds every qdesk function it patches by name, puts each back,
and every per-layer counter it reports is live on the commands the benchmark runs."""

import importlib
import importlib.util
import inspect
import json
import math
import sys
from pathlib import Path

import numpy.linalg

import qdesk
import qdesk.cli

ROOT = Path(__file__).resolve().parents[1]

# Counters whose hooked function no command calls any more (ROADMAP item 3);
# reviving one takes it off this list.
DEAD_COUNTERS = {"tensor.embed_calls", "tensor.embed_inflation", "tensor.partial_traces",
                 "suggestion.round_evolutions", "measurement.sample_calls", "rng.normals_drawn"}
# Metrics that bench/run.py computes outside the tracer.
NOT_TRACED = {"cli.import_s", "trace.overhead_ratio"}
# bench/selftest.py's tiny sizes; importing it would import run.py, which sets BLAS variables
TINY_SIZES = dict(chsh_resolution=2 * math.pi / 24, signal_csv_rounds=500,
                  signal_json_rounds=200, measure_rounds=200, spectral_qubits=(1, 2),
                  iterate_qubits=(1, 2), scan_qubits=(1, 1), scan_samples=20,
                  companion_rounds=100, companion_scan_samples=10)


def _load_bench(name: str):
    """bench/<name>.py as module bench_<name>, registered so its dataclasses resolve."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
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
    module = _load_bench("tracer")
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


def test_every_traced_counter_is_live_on_the_benchmark_commands(tmp_path):
    tracer_module, inputs = _load_bench("tracer"), _load_bench("inputs")
    tiny = dict(inputs.FULL_SIZES, **TINY_SIZES)
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for workload in inputs.WORKLOADS:
            work = tmp_path / workload
            work.mkdir()
            commands = [{"cid": c.cid, "argv": c.argv()}
                        for c in inputs.generate(workload, 0, str(work), tiny)]
            _, outcomes = tracer_module.run_pass(qdesk.cli.main, commands, tracer, workload)
            assert {cid: o["code"] for cid, o in outcomes.items()} == dict.fromkeys(outcomes, 0)
    finally:
        tracer.uninstall()
    metrics = tracer.snapshot(names)
    assert {n: v for n, v in metrics.items() if n.endswith(".errors") and v != 0} == {}
    zero = {n for n, v in metrics.items() if not n.endswith(".errors") and v == 0}
    assert zero == DEAD_COUNTERS | NOT_TRACED
