"""Traced in-process run of one workload: per-layer self time and counters.

    python3 tracer.py PLAN.json RESULT.json

PLAN names the commands (CLI argument lists), the metrics to report, the
seconds to measure, the directory for captured reports and the file the
spans are written to. The run alternates an untraced and a traced pass of
``qdesk.cli.main(argv)`` over the commands, stdout captured, until the time
is used. Before a traced pass, wrappers are installed from this file
(nothing in ``src/`` changes) around:

* the public module-level functions of each qdesk module, patched in every
  qdesk module that imported them by name, plus the partial-trace kernel
  ``tensor._partial_trace_array`` that every partial trace goes through;
* the constructors of StateVector, DensityMatrix and UnitaryOperator;
* the closure returned by ``ctc.induced_loop_map``;
* the eigen and QR solvers of ``numpy.linalg`` and ``scipy.linalg.schur``.

Each call becomes a span (name, layer, start, end, parent span, command id),
kept in memory and written out at the end. A layer's self time is the sum
over its spans of duration minus the time covered by child spans. Helpers
called once per output element (listed in PER_ELEMENT) are timed and
counted in aggregate instead of as spans, so a 4e5-row CSV does not store a
million spans; their time still counts as their layer's self time and is
subtracted from their parent's. Nothing that runs once per random draw is
wrapped: neither the methods of SplitMix64 nor ``rng.mix64``, which
next_u64 calls once per draw (listed in UNWRAPPED). Their time counts as the
self time of their caller, and normals are counted from haar_state's
arguments.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import json
import statistics
import sys
import time
from collections import Counter

# Each qdesk module is a layer; the solvers below form one more, "linalg".
QDESK_LAYERS = ("cli", "config", "serialization", "tensor", "measurement", "suggestion",
                "rng", "ctc", "reports")
TRACED_CLASSES = ("StateVector", "DensityMatrix", "UnitaryOperator")
NUMPY_SOLVERS = ("eig", "eigh", "eigvalsh", "qr")
EIGEN_SOLVERS = ("eig", "eigh", "eigvalsh", "schur")
PER_ELEMENT = {"format_float", "format_complex", "complex_pair"}
UNWRAPPED = {"mix64"}


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# Counters taken from call arguments (before the call) or results (after).
BEFORE = {
    "UnitaryOperator": lambda c, a, k: c.update({
        "tensor.unitary_checks": 1,
        "tensor.unitary_check_flops": 8 * _arg(a, k, 1, "layout").total_dimension ** 3}),
    "StateVector": lambda c, a, k: c.update({"tensor.states_built": 1}),
    "DensityMatrix": lambda c, a, k: c.update({"tensor.states_built": 1}),
    "embed_operator": lambda c, a, k: c.update({
        "tensor.embed_calls": 1,
        "tensor.embedded_elements": _arg(a, k, 1, "target").total_dimension ** 2,
        "tensor.canonical_elements": _arg(a, k, 0, "u").layout.total_dimension ** 2}),
    "_partial_trace_array": lambda c, a, k: c.update({"tensor.partial_traces": 1}),
    "correlator": lambda c, a, k: c.update({"suggestion.correlator_calls": 1}),
    "signaling_state": lambda c, a, k: c.update({"suggestion.round_evolutions": 1}),
    "session_records": lambda c, a, k: c.update(
        {"suggestion.records_built": _arg(a, k, 0, "n_rounds")}),
    "run_signaling_round": lambda c, a, k: c.update({"suggestion.records_built": 1}),
    "sample_branch": lambda c, a, k: c.update({"measurement.sample_calls": 1}),
    "stream_seed": lambda c, a, k: c.update({"rng.seeds_derived": 1}),
    "stream_seeds": lambda c, a, k: c.update({"rng.seeds_derived": _arg(a, k, 1, "n")}),
    "haar_state": lambda c, a, k: c.update({"rng.normals_drawn": 2 * _arg(a, k, 0, "dim")}),
    "admissible_fraction": lambda c, a, k: c.update(
        {"ctc.scan_samples": _arg(a, k, 1, "n_samples")}),
    "parse_unitary": lambda c, a, k: c.update(
        {"serialization.parsed_bytes": len(_arg(a, k, 0, "text"))}),
    "parse_state": lambda c, a, k: c.update(
        {"serialization.parsed_bytes": len(_arg(a, k, 0, "text"))}),
    "parse_density": lambda c, a, k: c.update(
        {"serialization.parsed_bytes": len(_arg(a, k, 0, "text"))}),
    "loop_map": lambda c, a, k: c.update({"ctc.map_applications": 1}),
}


def _count_bytes(counts, result):
    counts["reports.bytes_out"] += len(result.encode("utf-8"))
    return result


def _count_iterations(counts, result):
    counts["ctc.solver_iterations"] += result.iterations
    return result


class Tracer:
    """Span recorder and the wrappers that feed it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []      # indices of open spans
        self.covered: list[float] = []  # child time inside each open span
        self.counts: Counter = Counter()  # counters and self times, by metric name
        self.cmd = ""
        self._patches: list[tuple] = []
        self._after = {"render_payload": _count_bytes, "render_signal_csv": _count_bytes,
                       "deutsch_fixed_point": _count_iterations,
                       "induced_loop_map": lambda counts, fn: self.wrap("ctc", "loop_map", fn)}

    def _close(self, layer: str, name: str, duration: float, covered: float, ok: bool) -> float:
        own = duration - covered
        if self.covered:
            self.covered[-1] += duration
        self.counts[f"{layer}.self_s"] += own
        if layer == "linalg" and name in EIGEN_SOLVERS:
            self.counts["linalg.eig_s"] += own
            self.counts["linalg.eig_calls"] += 1
        if not ok:
            self.counts[f"{layer}.errors"] += 1
        return own

    def wrap(self, layer: str, name: str, fn):
        before = BEFORE.get(name)
        after = self._after.get(name)
        clock = time.perf_counter
        if name in PER_ELEMENT:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                self.covered.append(0.0)
                start = clock()
                ok = False
                try:
                    result = fn(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    self._close(layer, name, clock() - start, self.covered.pop(), ok)
            return leaf

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                before(self.counts, args, kwargs)
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self.stack.append(index)
            self.covered.append(0.0)
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                self.stack.pop()
                own = self._close(layer, name, end - start, self.covered.pop(), ok)
                self.spans[index] = (name, layer, start, end, parent, self.cmd, own, ok)
            return result if after is None else after(self.counts, result)
        return span

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import numpy.linalg
        import scipy.linalg
        modules = {m: importlib.import_module(f"qdesk.{m}") for m in QDESK_LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module("qdesk")]
        for layer, mod in modules.items():
            names = [n for n, obj in vars(mod).items()
                     if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                     and not n.startswith("_") and n not in UNWRAPPED]
            if layer == "tensor":
                names.append("_partial_trace_array")
            for name in names:
                original = getattr(mod, name)
                wrapped = self.wrap(layer, name, original)
                for ns in namespaces:
                    if vars(ns).get(name) is original:
                        self._patch(ns, name, wrapped)
        tensor = modules["tensor"]
        for cls_name in TRACED_CLASSES:
            cls = getattr(tensor, cls_name)
            self._patch(cls, "__init__", self.wrap("tensor", cls_name, cls.__init__))
        for name in NUMPY_SOLVERS:
            self._patch(numpy.linalg, name, self.wrap("linalg", name, getattr(numpy.linalg, name)))
        self._patch(scipy.linalg, "schur", self.wrap("linalg", "schur", scipy.linalg.schur))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def snapshot(self, names: list[str]) -> dict:
        """The named metrics accumulated since the last snapshot, then reset.

        A name nothing has counted reads 0.
        """
        c = self.counts
        canonical = c["tensor.canonical_elements"]
        c["tensor.embed_inflation"] = c["tensor.embedded_elements"] / canonical if canonical else 0.0
        self.counts = Counter()
        return {name: c[name] for name in names}

    def write_spans(self, path: str) -> None:
        keys = ("name", "layer", "start", "end", "parent", "cmd", "self_s", "ok")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def run_pass(main, commands: list[dict], tracer: Tracer | None, tag: str) -> tuple[float, dict]:
    """Run every command once in process; return the wall time and outcomes."""
    outcomes = {}
    total = 0.0
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.cmd = f"{tag}:{cmd['cid']}"
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(cmd["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed command, not a failed benchmark
            code = f"exception: {exc!r}"
        total += time.perf_counter() - start
        text = out.getvalue()
        outcomes[cmd["cid"]] = {"code": code, "text": text,
                                "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
    return total, outcomes


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    import qdesk.cli

    tracer = Tracer()
    untraced, traced, layers = [], [], []
    digests: dict[str, set] = {c["cid"]: set() for c in plan["commands"]}
    codes: dict[str, set] = {c["cid"]: set() for c in plan["commands"]}
    first_outputs = None
    began = time.perf_counter()
    while True:
        tag = str(len(traced))
        wall_u, out_u = run_pass(qdesk.cli.main, plan["commands"], None, tag)
        tracer.install()
        try:
            wall_t, out_t = run_pass(qdesk.cli.main, plan["commands"], tracer, tag)
        finally:
            tracer.uninstall()
        untraced.append(wall_u)
        traced.append(wall_t)
        layers.append(tracer.snapshot(plan["metrics"]))
        for outcomes in (out_u, out_t):
            for cid, o in outcomes.items():
                digests[cid].add(o["sha256"])
                codes[cid].add(str(o["code"]))
        if first_outputs is None:
            first_outputs = out_t
        if time.perf_counter() - began + wall_u + wall_t > plan["seconds"]:
            break

    for cid, o in first_outputs.items():
        with open(f"{plan['outdir']}/{cid}.out", "w", encoding="utf-8", newline="") as fh:
            fh.write(o["text"])
    tracer.write_spans(plan["spans_path"])
    metrics = {key: statistics.median(p[key] for p in layers) for key in plan["metrics"]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    result = {
        "passes": len(traced),
        "untraced_s": untraced,
        "traced_s": traced,
        "spans": len(tracer.spans),
        "metrics": metrics,
        "commands": {cid: {"codes": sorted(codes[cid]), "sha256": sorted(digests[cid])}
                     for cid in digests},
    }
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
