"""Output checks against closed forms and brute force.

Each check takes a command (with the spec its generator recorded) and the
command's stdout, and returns a list of problems; an empty list means the
output is correct. The oracles here share no code with ``qdesk``: exact
correlators come from E(a, b) = -cos(a + b), loop fixed points are re-applied
with einsum to the generated unitary, and round seeds are recomputed with
this file's own SplitMix64 mix.
"""

from __future__ import annotations

import json
import math

import numpy as np

from inputs import Command

TSIRELSON = 2 * math.sqrt(2)
CSV_HEADER = "round,theta_a,theta_b,alice_decision,bob_outcome,seed"

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def round_seeds(master: int, n: int) -> np.ndarray:
    """Seed of round i: the (i+1)-th SplitMix64 output of the master seed."""
    steps = np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN
    return _mix(np.uint64(master % 2**64) + steps)


def exact_correlator(a: float, b: float) -> float:
    return -math.cos(a + b)


def _within_5_sigma(count: int, n: int, p: float) -> bool:
    sigma = math.sqrt(n * p * (1 - p))
    return abs(count - n * p) <= 5 * sigma + 1e-9


def _close(x: float, y: float, tol: float = 1e-9) -> bool:
    return abs(x - y) <= tol


def check_chsh(cmd: Command, text: str) -> list[str]:
    p = json.loads(text)
    problems = []
    if "grid_resolution" in cmd.spec:
        a = p["argmax_angles"]
        s = (exact_correlator(a["a1"], a["b1"]) + exact_correlator(a["a1"], a["b2"])
             + exact_correlator(a["a2"], a["b1"]) - exact_correlator(a["a2"], a["b2"]))
        if not _close(abs(p["s_value"]), TSIRELSON):
            problems.append(f"|S| = {abs(p['s_value'])!r}, expected 2*sqrt(2)")
        if not _close(p["s_value"], s):
            problems.append(f"S at the argmax is {s!r} by E = -cos(a+b), report says {p['s_value']!r}")
        n = round(2 * math.pi / cmd.spec["grid_resolution"])
        if p["grid_size"] != n:
            problems.append(f"grid_size {p['grid_size']} != {n}")
    else:
        a1, a2, b1, b2 = cmd.spec["angles"]
        pairs = {"E_a1_b1": (a1, b1), "E_a1_b2": (a1, b2), "E_a2_b1": (a2, b1), "E_a2_b2": (a2, b2)}
        for key, (a, b) in pairs.items():
            if not _close(p["correlators"][key], exact_correlator(a, b)):
                problems.append(f"{key} = {p['correlators'][key]!r}, expected -cos(a+b)")
        e = {k: exact_correlator(*v) for k, v in pairs.items()}
        s = e["E_a1_b1"] + e["E_a1_b2"] + e["E_a2_b1"] - e["E_a2_b2"]
        if not _close(p["s_value"], s):
            problems.append(f"s_value {p['s_value']!r} != {s!r}")
    return problems


def _check_tally(counts: dict[str, int], n: int, e: float) -> list[str]:
    problems = []
    if sum(counts.values()) != n:
        problems.append(f"counts sum to {sum(counts.values())}, expected {n}")
    for key, value in counts.items():
        p = (1 + e) / 4 if key in ("n_uu", "n_dd") else (1 - e) / 4
        if not _within_5_sigma(value, n, p):
            problems.append(f"{key} = {value} is beyond 5 sigma of {n * p:.1f}")
    return problems


def check_signal(cmd: Command, text: str) -> list[str]:
    spec = cmd.spec
    e = exact_correlator(spec["alice"], spec["bob"])
    if spec["format"] == "csv":
        return _check_signal_csv(spec, text, e)
    p = json.loads(text)
    problems = []
    if not _close(p["correlator_exact"], e):
        problems.append(f"correlator_exact {p['correlator_exact']!r} != -cos(a+b) = {e!r}")
    problems += _check_tally(p["counts"], spec["rounds"], e)
    if not p["no_signaling"]["max_tv_distance"] <= 1e-10:
        problems.append(f"max_tv_distance {p['no_signaling']['max_tv_distance']!r} > 1e-10")
    return problems


def _check_signal_csv(spec: dict, text: str, e: float) -> list[str]:
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        return ["CSV header or trailing newline is wrong"]
    rows = [ln.split(",") for ln in lines[1:-1]]
    n = spec["rounds"]
    if len(rows) != n or any(len(r) != 6 for r in rows):
        return [f"CSV has {len(rows)} rows (or a malformed row), expected {n} rows of 6 fields"]
    problems = []
    if [int(r[0]) for r in rows] != list(range(n)):
        problems.append("round column is not 0..n-1")
    theta_a, theta_b = f"{spec['alice']:.16e}", f"{spec['bob']:.16e}"
    if any(r[1] != theta_a or r[2] != theta_b for r in rows):
        problems.append("theta columns differ from the configured angles")
    seeds = np.array([int(r[5]) for r in rows], dtype=np.uint64)
    if not np.array_equal(seeds, round_seeds(spec["seed"], n)):
        problems.append("seed column differs from the recomputed SplitMix64 round seeds")
    counts = {"n_uu": 0, "n_ud": 0, "n_du": 0, "n_dd": 0}
    for r in rows:
        key = f"n_{r[3][0]}{r[4][0]}"
        if key not in counts:
            return problems + [f"unknown decision/outcome pair {r[3]!r}/{r[4]!r}"]
        counts[key] += 1
    return problems + _check_tally(counts, n, e)


def check_measure(cmd: Command, text: str) -> list[str]:
    p = json.loads(text)
    problems = []
    weights = [b["weight"] for b in p["branches"]]
    if len(weights) != 2 or not all(_close(w, 0.5, 1e-12) for w in weights):
        problems.append(f"branch weights {weights!r}, expected two of 1/2")
    n = cmd.spec["rounds"]
    counts = p["sampling"]["counts"]
    if sum(counts.values()) != n:
        problems.append(f"counts sum to {sum(counts.values())}, expected {n}")
    for key in ("saw_up", "saw_down"):
        if not _within_5_sigma(counts.get(key, 0), n, 0.5):
            problems.append(f"{key} = {counts.get(key, 0)} is beyond 5 sigma of {n / 2}")
    return problems


def _matrix(rows: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    diff = a - b
    return 0.5 * float(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum())


def check_ctc_solve(cmd: Command, text: str) -> list[str]:
    p = json.loads(text)
    u, d_cr = cmd.spec["unitary"], cmd.spec["cr_dim"]
    d_loop = u.shape[0] // d_cr
    rho = _matrix(p["fixed_point"]["rho_ctc"])
    problems = []
    if rho.shape != (d_loop, d_loop):
        return [f"rho_ctc has shape {rho.shape}, expected {(d_loop, d_loop)}"]
    if np.abs(rho - rho.conj().T).max() > 1e-10:
        problems.append("rho_ctc is not Hermitian")
    if np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() < -1e-9:
        problems.append("rho_ctc is not positive semidefinite")
    if abs(np.trace(rho) - 1) > 1e-10:
        problems.append(f"tr rho_ctc = {np.trace(rho)!r}")
    rho_in = np.zeros((d_cr, d_cr), dtype=np.complex128)
    rho_in[0, 0] = 1.0  # cr_state = zero
    evolved = u @ np.kron(rho_in, rho) @ u.conj().T
    blocks = evolved.reshape(d_cr, d_loop, d_cr, d_loop)
    image = np.einsum("ajak->jk", blocks)
    dist = _trace_distance(image, rho)
    if dist > 1e-8:
        problems.append(f"rho_ctc is {dist:.3e} from its image under the loop map")
    strict_dim = int(np.count_nonzero(np.abs(np.angle(np.linalg.eigvals(u))) <= 1e-8))
    if p["linear"]["dimension"] != strict_dim:
        problems.append(f"strict linear dimension {p['linear']['dimension']}, expected {strict_dim}")
    cr_out = np.einsum("ajbj->ab", blocks)
    if "cr_output" not in p or _trace_distance(_matrix(p["cr_output"]), cr_out) > 1e-8:
        problems.append("cr_output is missing or differs from Tr_CTC[U (rho_in x rho) U+]")
    return problems


def check_ctc_scan(cmd: Command, text: str) -> list[str]:
    p = json.loads(text)
    n = cmd.spec["samples"]
    problems = []
    if p["samples"] != n or not 0 <= p["admissible_count"] <= n:
        problems.append(f"samples {p['samples']} / count {p['admissible_count']} out of range")
    r = (p["residual_min"], p["residual_median"], p["residual_max"])
    if not 0 <= r[0] <= r[1] <= r[2] <= 2:
        problems.append(f"residuals (min, median, max) = {r!r} are not ordered within [0, 2]")
    return problems


_CHECKS = {
    "chsh": check_chsh,
    "signal": check_signal,
    "measure": check_measure,
    "ctc-solve": check_ctc_solve,
    "ctc-scan": check_ctc_scan,
}


def check_output(cmd: Command, text: str) -> list[str]:
    """Problems with one command's stdout; a report that does not parse is one."""
    try:
        return _CHECKS[cmd.kind](cmd, text)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"report does not parse: {exc!r}"]
