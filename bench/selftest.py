"""Benchmark self-test: tiny-size smoke runs plus proof that the checks are live.

    python3 bench/selftest.py

From a full checkout, this
* runs every workload at tiny sizes with --trace 0 and --trace 1 and checks
  that each metric named in BENCHMARK.json is printed with its unit, and no
  other;
* checks that every per-layer metric is non-zero on each workload that
  layers.json maps it to (``.errors`` rows must be present and zero);
* feeds a deliberately corrupted report of every command kind to the output
  checks, and one through the end-to-end tally, and requires each to count
  as a failure;
* runs every full-size ctc-solve of loop_solvers for SOLVE_SEEDS and
  requires exit 0 and a passing check, so a seed cannot turn the workload
  into a failure.

Exits 0 when all of this holds; otherwise lists the failures and exits 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile

import run  # sets the BLAS thread count before numpy loads
import checks
import inputs

TINY = dict(inputs.FULL_SIZES,
            chsh_resolution=2 * math.pi / 24,
            signal_csv_rounds=500,
            signal_json_rounds=200,
            measure_rounds=200,
            spectral_qubits=(1, 2),
            iterate_qubits=(1, 2),
            scan_qubits=(1, 1),
            scan_samples=20,
            companion_rounds=100,
            companion_scan_samples=10)
SOLVE_SEEDS = range(8)


def run_quiet(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv, TINY)
    if code != 0:
        raise RuntimeError(f"run.py {' '.join(argv)} exited {code}")
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def corrupt(cmd: inputs.Command, text: str) -> str:
    """A report that differs from the genuine one in a single value."""
    if cmd.kind == "signal" and cmd.spec["format"] == "csv":
        lines = text.split("\n")
        row = lines[1].split(",")
        row[5] = str(int(row[5]) ^ 1)
        lines[1] = ",".join(row)
        return "\n".join(lines)
    p = json.loads(text)
    if cmd.kind == "chsh":
        p["s_value"] += 1e-3
    elif cmd.kind == "signal":
        p["counts"]["n_uu"] += 1
    elif cmd.kind == "measure":
        p["sampling"]["counts"]["saw_up"] += 1
    elif cmd.kind == "ctc-solve":
        p["fixed_point"]["rho_ctc"][0][0][0] += 1e-3
    else:
        p["residual_min"] = p["residual_max"] + 1
    return json.dumps(p)


def check_metric_sets(bench: dict, layers: dict) -> list[str]:
    failures = []
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if set(layers) != set(per):
        failures.append(f"layers.json and BENCHMARK.json per_layer differ: {set(layers) ^ set(per)}")
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in ((0, e2e), (1, per)):
            result = run_quiet(["--workload", workload, "--seconds", "0", "--trace", str(trace)])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                diff = sorted(set(got.items()) ^ set(expected.items()))
                failures.append(f"{workload} trace={trace}: printed metrics differ: {diff}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload} trace={trace}: {result['failed']} failed commands")
            if not trace:
                continue
            for name, spec in layers.items():
                if not any(workload in ws for ws in spec["moves"].values()):
                    continue
                value = result["metrics"].get(name, {}).get("value")
                empty = value != 0 if name.endswith(".errors") else not value
                if not isinstance(value, (int, float)) or empty:
                    failures.append(f"{workload}: per-layer {name} = {value!r} on its mapped workload")
    return failures


def check_checks_are_live() -> list[str]:
    failures = []
    for workload in inputs.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_work") as work:
            commands = inputs.generate(workload, 0, work, TINY)
            reps = run.closed_loop(commands, 0, work)
            for cmd in commands:
                path = os.path.join(work, f"{cmd.cid}.out")
                text = run.read_text(path)
                if checks.check_output(cmd, text):
                    failures.append(f"{workload}/{cmd.cid}: genuine report fails its check")
                if not checks.check_output(cmd, corrupt(cmd, text)):
                    failures.append(f"{workload}/{cmd.cid}: corrupted report passes its check")
            victim = commands[0]
            path = os.path.join(work, f"{victim.cid}.out")
            corrupted = corrupt(victim, run.read_text(path))
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(corrupted)
            metrics, _, failed, _ = run.summarize(commands, reps, work, [{"wall_s": 1.0, "ref_s": 1.0}])
            if failed != 1 or metrics["pass_ratio"] >= 1.0:
                failures.append(f"{workload}: a corrupted {victim.cid} report counted "
                                f"{failed} failures, pass_ratio {metrics['pass_ratio']}")
    return failures


def check_solves() -> list[str]:
    failures = []
    for seed in SOLVE_SEEDS:
        with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_work") as work:
            for cmd in inputs.generate("loop_solvers", seed, work):
                if cmd.kind != "ctc-solve":
                    continue
                path = os.path.join(work, f"{cmd.cid}.out")
                _, code, _ = run.run_child([sys.executable, "-m", "qdesk", *cmd.argv()], path,
                                           run.CHILD_TIMEOUT_S)
                problems = [f"exit {code}"] if code else checks.check_output(cmd, run.read_text(path))
                if problems:
                    failures.append(f"seed {seed} {cmd.cid}: {problems}")
    return failures


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(run.HERE / "layers.json", encoding="utf-8") as fh:
        layers = json.load(fh)["per_layer"]
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    failures = check_metric_sets(bench, layers)
    failures += check_checks_are_live()
    failures += check_solves()
    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
