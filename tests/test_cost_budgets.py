"""Cost budgets: exact counts of the kernels that the benchmark's commands call.

Timings on a shared host vary by 15-45%, so a kernel change's gain or loss can hide in
them; a call count cannot. The benchmark's commands (bench/inputs.py, at the tracer
test's tiny sizes, seed 0) run in process through cli.main with their kernels wrapped.
For loop_solvers these are numpy's SVD and eigensolvers, and with them np.einsum (the
loop-operator, superoperator and output contractions) and np.fromiter (the scan's
per-element libm calls); a values-only SVD (compute_uv=False) counts as svd_values, apart
from a full one. For sampled_sessions and chsh_grid they are qdesk's own: the CSV renderer
and its digit kernel, the session sampler and the signaling-weight kernel, and with them the
SVDs of the companion ctc-solve.
A session, a measure and a scan of three blocks each also pin the size of every seed draw.
A change that lowers a count lowers its budget here, in the same diff.
"""

import contextlib
import io
import json
from collections import Counter

import numpy as np

import qdesk.cli
import qdesk.ctc
import qdesk.reports
import qdesk.rng
import qdesk.suggestion
from qdesk.reports import CSV_BLOCK_ROWS

from test_bench_tracer import TINY_SIZES, _load_bench

COUNTED = [(np.linalg, "svd"), (np.linalg, "eigh"), (np.linalg, "eigvalsh"),
           (np.linalg, "eig"), (np, "einsum"), (np, "fromiter")]

# Per command: its counted calls, and the fixed-point iterations its report states. Every
# ctc-solve run makes three DensityMatrix checks, one eigvalsh each (the CR input, rho_ctc and
# the CR output), and one eigvalsh per trace distance call. Its einsum calls are the loop
# operators, built once for the map and once for the CR output, and the output contraction.
# The strict linear basis is one values-only SVD of U - I, and a full one when its smallest
# singular value is within 2 PHASE_TOL; only cr_coupled's strict space is not empty.
CR_COUPLED_SVDS = {"svd_values": 1, "svd": 1}
BUDGETS = {
    # the full SVD is Phi - I's; one clip to a density matrix (eigh), and iterations + 1 = 1
    # verification; the superoperator builds its loop operators again and contracts them
    "ctc_spectral": ({"svd_values": 1, "svd": 1, "eigh": 1, "eigvalsh": 4, "einsum": 5}, 0),
    # eigvalsh 81 = 77 blocks of successive-iterate distances (1, 2, 4, ..., 32, then 71 of
    # 64 cover the 4606 iterations) + the final residual + the 3 checks. The loop is weakly
    # coupled, so it converges slowly, and the step at which the distance falls below
    # ITERATE_TOL could move under another BLAS kernel
    "ctc_iterate": ({"svd_values": 1, "eigvalsh": 81, "einsum": 3}, 4606),
    # eigvalsh 5 = 1 block of one iterate distance + the final residual + the 3 checks
    "ctc_cr_coupled": (dict(CR_COUPLED_SVDS, eigvalsh=5, einsum=3), 1),
    # 20 Haar samples in one block: libm log1p, cos and sin over the block
    "ctc_scan": ({"fromiter": 3}, None),
    "companion_chsh": ({}, None),
    "companion_signal": ({}, None),
    # the premeasurement unitary, applied once
    "companion_measure": ({"einsum": 1}, None),
}


def _counting(counts: Counter, name: str, function):
    def counted(*args, **kwargs):
        counts[name] += 1
        return function(*args, **kwargs)
    return counted


def _counting_svd(counts: Counter, function):
    def counted(a, full_matrices=True, compute_uv=True, *args, **kwargs):
        counts["svd" if compute_uv else "svd_values"] += 1
        return function(a, full_matrices, compute_uv, *args, **kwargs)
    return counted


def _counter(counts: Counter, owner, name: str):
    function = getattr(owner, name)
    return _counting_svd(counts, function) if name == "svd" else _counting(counts, name, function)


def _run(command) -> str:
    """The command's stdout, run in process; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert qdesk.cli.main(command.argv()) == 0, command.cid
    return out.getvalue()


def test_loop_solver_commands_keep_their_kernel_budgets(tmp_path, monkeypatch):
    inputs = _load_bench("inputs")
    commands = inputs.generate("loop_solvers", 0, str(tmp_path),
                               dict(inputs.FULL_SIZES, **TINY_SIZES))
    counts: Counter = Counter()
    for owner, name in COUNTED:
        monkeypatch.setattr(owner, name, _counter(counts, owner, name))
    spent = {}
    for command in commands:
        counts.clear()
        iterations = json.loads(_run(command)).get("fixed_point", {}).get("iterations")
        spent[command.cid] = (dict(counts), iterations)
    assert spent == BUDGETS


# The qdesk kernels that sampled_sessions and chsh_grid spend their time in, counted per
# call; _decided_weights is also counted by the (alice, bob) angle pairs it weighs. numpy's
# SVD is counted too: only the companion ctc-solve calls it.
KERNELS = [(qdesk.cli, "render_signal_csv"), (qdesk.reports, "_write_decimal"),
           (qdesk.suggestion, "session_records"), (qdesk.suggestion, "_decided_weights"),
           (np.linalg, "svd")]

# A signal session weighs 5 pairs in 3 calls: the no-signaling audit's 3 settings, the exact
# correlator, and the one pair its rounds are sampled from (per block; 500 rounds are one).
# A CSV block is rendered once, its round indices and seeds in one _write_decimal each.
SIGNAL_JSON = {"_decided_weights": 3, "pairs": 5, "session_records": 1}
SESSION_BUDGETS = {
    "sampled_sessions/signal_csv": dict(SIGNAL_JSON, render_signal_csv=1, _write_decimal=2),
    "sampled_sessions/signal_json": SIGNAL_JSON,
    "sampled_sessions/measure_bell": {},
    # an explicit-angle chsh weighs its four setting pairs in one call
    "sampled_sessions/companion_chsh": {"_decided_weights": 1, "pairs": 4},
    "sampled_sessions/companion_ctc_solve": CR_COUPLED_SVDS,
    "sampled_sessions/companion_ctc_scan": {},
    # the pruned grid search at 24 angles: 32 pairs in 3 calls
    "chsh_grid/chsh_grid": {"_decided_weights": 3, "pairs": 32},
    **{f"chsh_grid/chsh_angles_{k}": {"_decided_weights": 1, "pairs": 4} for k in range(4)},
    "chsh_grid/companion_signal": SIGNAL_JSON,
    "chsh_grid/companion_measure": {},
    "chsh_grid/companion_ctc_solve": CR_COUPLED_SVDS,
    "chsh_grid/companion_ctc_scan": {},
}


def _counting_pairs(counts: Counter, function):
    def counted(alice_thetas, *args, **kwargs):
        counts["_decided_weights"] += 1
        counts["pairs"] += len(alice_thetas)
        return function(alice_thetas, *args, **kwargs)
    return counted


def _count_kernels(monkeypatch, counts: Counter) -> None:
    for owner, name in KERNELS:
        monkeypatch.setattr(owner, name, _counting_pairs(counts, getattr(owner, name))
                            if name == "_decided_weights" else _counter(counts, owner, name))


def test_session_and_chsh_commands_keep_their_kernel_budgets(tmp_path, monkeypatch):
    inputs = _load_bench("inputs")
    counts: Counter = Counter()
    _count_kernels(monkeypatch, counts)
    spent = {}
    for workload in ("sampled_sessions", "chsh_grid"):
        (tmp_path / workload).mkdir()
        for command in inputs.generate(workload, 0, str(tmp_path / workload),
                                       dict(inputs.FULL_SIZES, **TINY_SIZES)):
            counts.clear()
            _run(command)
            spent[f"{workload}/{command.cid}"] = dict(counts)
    assert spent == SESSION_BUDGETS


# At multi-block sizes, 2 * CSV_BLOCK_ROWS + 1 rounds and 2 * 2048 + 1 scan samples (2048 rows
# a scan block at d = 4): each block draws its own seeds, "seeds" being the n of each
# stream_seeds call in order, and a session block is sampled once and rendered once. A
# session still weighs its sampled pair once per block: 3 + 1 + 3 = 7 pairs in 5 calls.
ROUNDS = 2 * CSV_BLOCK_ROWS + 1
SIGNAL_BLOCKS = {"_decided_weights": 5, "pairs": 7, "session_records": 3,
                 "seeds": [CSV_BLOCK_ROWS, CSV_BLOCK_ROWS, 1]}
MULTI_BLOCK_BUDGETS = {
    "signal_csv": dict(SIGNAL_BLOCKS, render_signal_csv=3, _write_decimal=6),
    "signal_json": SIGNAL_BLOCKS,
    "measure": {"seeds": [CSV_BLOCK_ROWS, CSV_BLOCK_ROWS, 1]},
    # libm log1p, cos and sin once a block
    "ctc_scan": {"fromiter": 9, "seeds": [2048, 2048, 1]},
}
MULTI_BLOCK_CONFIGS = {
    "signal_csv": f"experiment = signal\nalice_angle = 0.3\nbob_angle = 1.2\nrounds = {ROUNDS}\n"
                  "seed = 1\nformat = csv\n",
    "signal_json": f"experiment = signal\nalice_angle = 0.3\nbob_angle = 1.2\nrounds = {ROUNDS}\n"
                   "seed = 1\n",
    "measure": f"experiment = measure\nstate = bell\nrounds = {ROUNDS}\nseed = 1\n",
    "ctc_scan": "experiment = ctc-scan\nscenario = cr_coupled\nmode = ray\n"
                f"samples = {2 * 2048 + 1}\nseed = 1\n",
}


def test_multi_block_commands_draw_their_seeds_a_block_at_a_time(tmp_path, monkeypatch):
    counts: Counter = Counter()
    seeds: list = []
    original = qdesk.rng.stream_seeds

    def stream_seeds(master_seed, n):
        seeds.append(n)
        return original(master_seed, n)

    monkeypatch.setattr(qdesk.rng, "stream_seeds", stream_seeds)
    monkeypatch.setattr(qdesk.ctc, "stream_seeds", stream_seeds)
    monkeypatch.setattr(np, "fromiter", _counting(counts, "fromiter", np.fromiter))
    _count_kernels(monkeypatch, counts)
    spent = {}
    for cid, text in MULTI_BLOCK_CONFIGS.items():
        cfg = tmp_path / f"{cid}.cfg"
        cfg.write_text(text, encoding="utf-8")
        counts.clear()
        seeds.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            kind = text.split()[2]  # the value of the experiment line
            assert qdesk.cli.main([kind, "--config", str(cfg)]) == 0, cid
        spent[cid] = dict(counts, seeds=list(seeds))
    assert spent == MULTI_BLOCK_BUDGETS
