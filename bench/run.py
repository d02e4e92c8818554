"""qdesk benchmark: seeded CLI workloads timed end to end, and a traced run.

    python3 bench/run.py --workload chsh_grid --seed 0 --seconds 30 --trace 0

Run it from a full checkout; it needs ``src/qdesk`` and nothing installed.
All inputs are generated from ``--seed`` into a temporary directory under
``.bench_work/`` (see inputs.py); the program only receives those files.

``--trace 0``: one client drives a closed loop. Each command is a fresh
``python -m qdesk`` process, and the next starts only after the previous one
exits. The workload's command sequence repeats until ``--seconds`` is used;
each command's time is its median over those repetitions, in reference
seconds (see SpeedGauge). Before the loop, set-up is measured in fresh
processes that import ``qdesk.cli`` and load every config.

``--trace 1``: the per-layer run of tracer.py, in process, once per pass.

Every report is checked against closed forms or brute force (checks.py), and
repeated invocations must produce byte-identical stdout. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` (commands)
and ``metrics``; the lines before it give the environment and, per command,
run count, median time and the sha256 of its stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

# Pinned before numpy loads here, and inherited by every child process: the
# eigen-solves scale with the BLAS thread count, so an inherited setting
# would change the numbers.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
CAL_LOOP = 2_000_000
CAL_PRODUCTS = 2500
CAL_REF_S = 0.2  # calibration time on the reference host (see README.md)
_CAL_MATRIX = np.random.default_rng(0).standard_normal((64, 64)) / 8
CHILD_TIMEOUT_S = 60
COMMAND_METRICS = {"chsh": "chsh_s", "signal": "signal_s", "measure": "measure_s",
                   "ctc-solve": "ctc_solve_s", "ctc-scan": "ctc_scan_s"}


def metric_specs(section: str) -> list[dict]:
    """The metrics (name, unit, ...) that BENCHMARK.json lists in `section`."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[section]


def pin_to_one_cpu() -> None:
    """Run this process, and so every child, on one CPU.

    The CPUs of a shared host slow down independently, so the calibration
    only tracks a child's speed when both run on the same CPU.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(argv: list[str], stdout_path: str, timeout: float) -> tuple[float, int, float]:
    """Run one process to completion; return (wall s, exit code, max RSS in MB)."""
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_text(path: str) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def environment() -> dict:
    import scipy
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "blas_threads": BLAS_THREADS, "pinned_cpus": sorted(os.sched_getaffinity(0))}


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter loops and small numpy products."""
    start = time.perf_counter()
    total = 0
    for i in range(CAL_LOOP):
        total += i * i
    x = _CAL_MATRIX
    for _ in range(CAL_PRODUCTS):
        x = np.tanh(x @ _CAL_MATRIX)
    return time.perf_counter() - start


class SpeedGauge:
    """Host speed, read by running the calibration between child processes.

    A shared host drifts in speed by tens of percent over tens of seconds.
    Each child's wall time is scaled by CAL_REF_S over the mean of the
    calibration times just before and just after it, which gives reference
    seconds: the time the child would take on a host where the calibration
    takes CAL_REF_S. The qdesk code under test never runs in the calibration,
    so a change to it moves reference seconds exactly as it moves wall time.
    """

    def __init__(self):
        self.last = calibrate()

    def scale(self) -> float:
        now = calibrate()
        factor = CAL_REF_S / ((self.last + now) / 2)
        self.last = now
        return factor


def setup_probes(commands: list[inputs.Command], work: str) -> list[dict]:
    """One untimed warm-up, then SETUP_REPEATS timed fresh set-up processes."""
    argv = [sys.executable, str(HERE / "setup_probe.py")]
    for cmd in commands:
        argv += [cmd.kind, cmd.config]
    probes = []
    gauge = SpeedGauge()
    for i in range(SETUP_REPEATS + 1):
        path = os.path.join(work, "setup.out")
        wall, code, _ = run_child(argv, path, CHILD_TIMEOUT_S)
        ref_s = wall * gauge.scale()
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: {read_text(path + '.err')[-500:]}")
        if i:
            probes.append({"wall_s": wall, "ref_s": ref_s, **json.loads(read_text(path))})
    return probes


def closed_loop(commands: list[inputs.Command], seconds: float, work: str) -> list[dict]:
    """Repeat the command sequence until about `seconds` is used (at least once)."""
    reps = []
    start = time.perf_counter()
    deadline = start + seconds + CHILD_TIMEOUT_S  # a hung program fails, it does not stall the run
    gauge = SpeedGauge()
    while True:
        began = time.perf_counter()
        rep = {}
        for cmd in commands:
            first = not reps
            path = os.path.join(work, f"{cmd.cid}.out" if first else "repeat.out")
            wall, code, rss = run_child([sys.executable, "-m", "qdesk", *cmd.argv()], path,
                                        max(1.0, deadline - time.perf_counter()))
            rep[cmd.cid] = {"wall": wall, "ref_s": wall * gauge.scale(), "code": code,
                            "rss": rss, "sha256": sha256_file(path)}
        reps.append(rep)
        now = time.perf_counter()
        if now - start + (now - began) / 2 > seconds:  # end nearest to `seconds`
            return reps


def check_first_outputs(commands: list[inputs.Command], work: str) -> dict[str, list[str]]:
    return {cmd.cid: checks.check_output(cmd, read_text(os.path.join(work, f"{cmd.cid}.out")))
            for cmd in commands}


def untraced_run(commands, seconds, work, probes) -> tuple[dict, int, int, list[str]]:
    return summarize(commands, closed_loop(commands, seconds, work), work, probes)


def summarize(commands, reps, work, probes) -> tuple[dict, int, int, list[str]]:
    """End-to-end metrics of a closed loop.

    A command run fails on a non-zero exit, a failed output check, or stdout
    that differs from the command's first run.
    """
    problems = check_first_outputs(commands, work)
    attempted = failed = 0
    lines = []
    for cmd in commands:
        runs = [rep[cmd.cid] for rep in reps]
        first = runs[0]
        if first["code"] != 0:
            problems[cmd.cid] = [f"exit code {first['code']}"]
        bad = [r for r in runs
               if r["code"] != 0 or r["sha256"] != first["sha256"] or problems[cmd.cid]]
        if any(r["sha256"] != first["sha256"] for r in runs):
            problems[cmd.cid].append("stdout differs between repeats")
        attempted += len(runs)
        failed += len(bad)
        lines.append(f"cmd {cmd.cid} {cmd.kind} runs={len(runs)} "
                     f"median_wall_s={statistics.median(r['wall'] for r in runs):.4f} "
                     f"median_ref_s={statistics.median(r['ref_s'] for r in runs):.4f} "
                     f"max_rss_mb={max(r['rss'] for r in runs):.1f} sha256={first['sha256']} "
                     + ("ok" if not problems[cmd.cid] else "FAILED: " + "; ".join(problems[cmd.cid])))
    # Each command's median over the repeats, summed: one slow repeat of one
    # command does not move a whole sequence's figure.
    median_s = {c.cid: statistics.median(rep[c.cid]["ref_s"] for rep in reps) for c in commands}
    metrics = {
        "wall_s": sum(median_s.values()),
        "setup_s": statistics.median(p["ref_s"] for p in probes),
    }
    for kind, name in COMMAND_METRICS.items():
        metrics[name] = sum(median_s[c.cid] for c in commands if c.kind == kind)
    metrics["peak_rss_mb"] = max(r["rss"] for rep in reps for r in rep.values())
    metrics["pass_ratio"] = 1.0 - failed / attempted
    lines.append(f"samples: sequence repeats={len(reps)}, set-up probes={len(probes)}; "
                 f"failed_ratio={failed / attempted:.4f} ({failed}/{attempted} commands)")
    return metrics, attempted, failed, lines


def traced_run(commands, seconds, work, probes) -> tuple[dict, int, int, list[str]]:
    plan = {"commands": [{"cid": c.cid, "argv": c.argv()} for c in commands],
            "metrics": [m["name"] for m in metric_specs("per_layer")],
            "seconds": seconds, "outdir": work,
            "spans_path": str(ROOT / ".bench_work" / "spans.jsonl")}
    plan_path, result_path = os.path.join(work, "plan.json"), os.path.join(work, "trace.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    log = os.path.join(work, "tracer.log")
    _, code, _ = run_child([sys.executable, str(HERE / "tracer.py"), plan_path, result_path], log,
                           seconds + 2 * CHILD_TIMEOUT_S)
    if code != 0:
        raise RuntimeError(f"tracer exited {code}: {read_text(log + '.err')[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    problems = check_first_outputs(commands, work)
    failed = 0
    lines = []
    for cmd in commands:
        seen = trace["commands"][cmd.cid]
        if seen["codes"] != ["0"]:
            problems[cmd.cid].append(f"exit codes {seen['codes']}")
        if len(seen["sha256"]) != 1:
            problems[cmd.cid].append("stdout differs between traced and untraced passes")
        failed += bool(problems[cmd.cid])
        lines.append(f"cmd {cmd.cid} {cmd.kind} sha256={','.join(seen['sha256'])} "
                     + ("ok" if not problems[cmd.cid] else "FAILED: " + "; ".join(problems[cmd.cid])))
    metrics = trace["metrics"]
    # The import time is measured in the fresh set-up processes, not in process.
    metrics["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
    lines.append(f"samples: traced passes={trace['passes']}, spans={trace['spans']} "
                 f"(written to {plan['spans_path']}), set-up probes={len(probes)}; "
                 f"untraced_s={trace['untraced_s']} traced_s={trace['traced_s']}")
    return metrics, len(commands), failed, lines


def main(argv: list[str] | None = None, sizes: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qdesk" / "cli.py").is_file():
        print(f"bench: {ROOT / 'src' / 'qdesk'} not found; run from a full qdesk checkout",
              file=sys.stderr)
        return 2

    pin_to_one_cpu()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as work:
        commands = inputs.generate(args.workload, args.seed, work, sizes)
        probes = setup_probes(commands, work)
        run = traced_run if args.trace else untraced_run
        values, attempted, failed, lines = run(commands, args.seconds, work, probes)

    print("env " + json.dumps(environment()))
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_specs("per_layer" if args.trace else "end_to_end")},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
