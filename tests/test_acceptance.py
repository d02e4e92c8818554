"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Every
tolerance is pinned here; nothing is left to later calibration.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from qdesk import (
    CtcScenario,
    DensityMatrix,
    StateVector,
    UnitaryOperator,
    apply_unitary,
    branch_decomposition,
    chsh_grid_search,
    correlator,
    deutsch_fixed_point,
    grandfather_scenario,
    admissible_fraction,
    layout_of,
    linear_consistency_basis,
    no_signaling_audit,
    pointer_scheme,
    premeasure,
    reduced_state,
    session_records,
    tally_from_records,
    trace_distance,
)
from qdesk.ctc import CONSISTENCY_TOL, _residuals
from qdesk.suggestion import AGENT, AGENT_LABELS, DISTANT, PARTICLE, PREPARED, PREPARED_LABELS

from oracles import (SplitMix64, correlator_oracle, haar_state, haar_unitary, random_density,
                     steering_unitary)

SQ2 = math.sqrt(2.0)
TSIRELSON = 2.0 * SQ2


def report(number: int, name: str, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number:2d}: {name} ({elapsed:.2f} s)"
    if detail and not ok:
        line += f" -- {detail}"
    print(line)
    assert ok, line


METER = ("ready", "saw_up", "saw_down")
SCHEME = pointer_scheme("particle", "meter", "ready", {"up": "saw_up", "down": "saw_down"})


def _preset(name: str) -> StateVector:
    if name == "bell":
        lay = layout_of(("particle", ("up", "down")), ("distant", ("up", "down")),
                        ("meter", METER))
        amps = np.zeros(lay.total_dimension, dtype=complex)
        amps[lay.basis_index({"particle": "up", "distant": "down", "meter": "ready"})] = 1.0
        amps[lay.basis_index({"particle": "down", "distant": "up", "meter": "ready"})] = 1.0
        return StateVector(lay, amps)
    lay = layout_of(("particle", ("up", "down")), ("meter", METER))
    amps = np.zeros(6, dtype=complex)
    if name in ("up", "plus"):
        amps[lay.basis_index({"particle": "up", "meter": "ready"})] = 1.0
    if name in ("down", "plus"):
        amps[lay.basis_index({"particle": "down", "meter": "ready"})] = 1.0
    return StateVector(lay, amps)


def test_criterion_01_premeasurement_branch_structure():
    t0 = time.perf_counter()
    ok = True
    detail = ""

    for preset, label in (("up", "saw_up"), ("down", "saw_down")):
        branches = branch_decomposition(premeasure(_preset(preset), SCHEME), "meter")
        ok &= len(branches) == 1 and branches[0].pointer_label == label
        ok &= abs(branches[0].weight - 1.0) <= 1e-10

    branches = branch_decomposition(premeasure(_preset("plus"), SCHEME), "meter")
    ok &= [b.pointer_label for b in branches] == ["saw_up", "saw_down"]
    ok &= all(abs(b.weight - 0.5) <= 1e-10 for b in branches)
    for b, spin in zip(branches, ("up", "down")):
        lay = b.conditional_state.layout
        ok &= abs(b.conditional_state.amplitudes[lay.basis_index({"particle": spin})] - 1.0) <= 1e-10

    branches = branch_decomposition(premeasure(_preset("bell"), SCHEME), "meter")
    ok &= [b.pointer_label for b in branches] == ["saw_up", "saw_down"]
    ok &= all(abs(b.weight - 0.5) <= 1e-10 for b in branches)
    pairings = {"saw_up": ("up", "down"), "saw_down": ("down", "up")}
    for b in branches:
        lay = b.conditional_state.layout
        near, far = pairings[b.pointer_label]
        idx = lay.basis_index({"particle": near, "distant": far})
        ok &= abs(b.conditional_state.amplitudes[idx] - 1.0) <= 1e-10

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, "pre-measurement reproduces the branch structure", ok, elapsed, detail)


def test_criterion_02_spectator_invariance():
    t0 = time.perf_counter()
    rng = SplitMix64(2024_02)
    ok = True
    worst = 0.0

    meas_lay = layout_of(("particle", ("up", "down")), ("far", ("up", "down")),
                         ("meter", METER))
    meas_scheme = pointer_scheme("particle", "meter", "ready",
                                 {"up": "saw_up", "down": "saw_down"})
    for _ in range(50):
        amps = np.zeros(meas_lay.total_dimension, dtype=complex)
        amps.reshape(2, 2, 3)[:, :, 0] = haar_state(4, rng).reshape(2, 2)
        s = StateVector(meas_lay, amps)
        before = reduced_state(s, ["far"]).matrix
        after = reduced_state(premeasure(s, meas_scheme), ["far"]).matrix
        worst = max(worst, float(np.abs(before - after).max()))

    sugg_lay = layout_of((PARTICLE, ("up", "down")), (DISTANT, ("up", "down")),
                         (AGENT, AGENT_LABELS), (PREPARED, PREPARED_LABELS))
    for _ in range(50):
        theta = (rng.random() - 0.5) * 4 * math.pi
        amps = np.zeros(sugg_lay.total_dimension, dtype=complex)
        amps.reshape(2, 2, 3, 3)[:, :, 0, 0] = haar_state(4, rng).reshape(2, 2)
        s = StateVector(sugg_lay, amps)
        before = reduced_state(s, [DISTANT]).matrix
        after = reduced_state(apply_unitary(steering_unitary(theta), s), [DISTANT]).matrix
        worst = max(worst, float(np.abs(before - after).max()))

    ok &= worst <= 1e-10
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report(2, "spectator reduced state invariant on 100 random configurations",
           ok, elapsed, f"worst deviation {worst:.2e}")


def test_criterion_03_aligned_sessions_anticorrelate_exactly():
    t0 = time.perf_counter()
    ok = True
    for theta, seed in ((0.0, 31), (math.pi, 32)):
        tally = tally_from_records(
            session_records(10_000, theta, theta, seed))
        ok &= tally.n_uu == 0 and tally.n_dd == 0
        ok &= tally.n_total == 10_000
        ok &= tally.correlator == -1.0
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(3, "aligned 10^4-round sessions give n_uu = n_dd = 0 and E = -1", ok, elapsed)


def test_criterion_04_bell_violation_and_oracle_agreement():
    t0 = time.perf_counter()
    result = chsh_grid_search(math.pi / 720)
    ok = abs(result.abs_value - TSIRELSON) <= 1e-3

    rng = SplitMix64(2024_04)
    worst = 0.0
    for _ in range(50):
        a = (rng.random() - 0.5) * 4 * math.pi
        b = (rng.random() - 0.5) * 4 * math.pi
        worst = max(worst, abs(correlator(a, b) - correlator_oracle(a, b)))
    ok &= worst <= 1e-10
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(4, "grid search reaches 2*sqrt(2) and correlators match the oracle",
           ok, elapsed, f"|S| = {result.abs_value:.6f}, worst oracle gap {worst:.2e}")


def test_criterion_05_no_signaling_audit():
    t0 = time.perf_counter()
    audit = no_signaling_audit(
        [0.0, math.pi / 4, math.pi / 2, 1.9],
        0.7,
    )
    ok = audit.max_tv_distance <= 1e-10
    elapsed = time.perf_counter() - t0
    report(5, "distant marginals independent of the steering setting", ok, elapsed,
           f"max TV distance {audit.max_tv_distance:.2e}")


def test_criterion_06_strict_constraint_on_the_flip_loop():
    t0 = time.perf_counter()
    sc = grandfather_scenario("qubit_flip")
    strict = linear_consistency_basis(sc, "strict")
    ok = strict.dimension == 1
    v = strict.eigenpairs[0].basis[:, 0]
    plus = np.array([1.0, 1.0]) / SQ2
    ok &= abs(abs(np.vdot(v, plus)) - 1.0) <= 1e-10

    u = sc.loop_unitary.matrix
    cur = v.copy()
    for _ in range(100):
        cur = u @ cur
    ok &= float(np.linalg.norm(cur - v)) <= 1e-7
    elapsed = time.perf_counter() - t0
    report(6, "flip loop admits exactly the balanced ray, stable over 100 traversals",
           ok, elapsed)


def test_criterion_07_linearity_of_the_constraint():
    t0 = time.perf_counter()
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    lay = layout_of(("p", ("b0", "b1")), ("q", ("b0", "b1")))
    sc = CtcScenario((), ("p", "q"), UnitaryOperator(lay, np.kron(x, x)))
    basis = linear_consistency_basis(sc, "strict").eigenpairs[0].basis
    ok = basis.shape[1] == 2
    rng = SplitMix64(2024_07)
    worst = 0.0
    for _ in range(100):
        combo = StateVector(lay, basis @ rng.complex_normals(basis.shape[1])).amplitudes
        res = float(_residuals(sc.loop_unitary.matrix, combo[np.newaxis], "strict")[0])
        ok &= res <= CONSISTENCY_TOL
        worst = max(worst, res)
    ok &= worst <= 1e-8
    elapsed = time.perf_counter() - t0
    report(7, "combinations of single-valued states stay single-valued", ok, elapsed,
           f"worst residual {worst:.2e}")


def test_criterion_08_scarcity_of_admissible_initial_conditions():
    t0 = time.perf_counter()
    rng = SplitMix64(2024_08)
    lay = layout_of(("loop", ("b0", "b1", "b2", "b3")))
    empty = 0
    for _ in range(100):
        sc = CtcScenario((), ("loop",), UnitaryOperator(lay, haar_unitary(4, rng)))
        if linear_consistency_basis(sc, "strict").dimension == 0:
            empty += 1
    ok = empty >= 99

    scan = admissible_fraction(grandfather_scenario("qubit_flip"), 10_000, "strict",
                               seed=2024_08)
    ok &= scan.fraction == 0.0
    ok &= scan.residual_min > 1e-3
    elapsed = time.perf_counter() - t0
    report(8, "generic loops admit no strictly consistent initial state", ok, elapsed,
           f"empty strict subspace in {empty}/100; scan min residual {scan.residual_min:.2e}")


def test_criterion_09_fixed_point_comparison():
    t0 = time.perf_counter()
    sc = grandfather_scenario("qubit_flip")
    ok = True
    for method in ("iterate", "spectral"):
        sol = deutsch_fixed_point(sc, None, method)
        ok &= float(np.abs(sol.rho_ctc.matrix - np.eye(2) / 2).max()) <= 1e-10
        ok &= sol.residual <= 1e-10

    rng = SplitMix64(2024_09)
    lay = layout_of(("mem", ("b0", "b1")), ("loop", ("b0", "b1")))
    unique_checked = 0
    for _ in range(100):
        scenario = CtcScenario(("mem",), ("loop",),
                          UnitaryOperator(lay, haar_unitary(4, rng)))
        rho_cr = DensityMatrix(scenario.cr_layout(), random_density(2, rng))
        it = deutsch_fixed_point(scenario, rho_cr, "iterate")
        sp = deutsch_fixed_point(scenario, rho_cr, "spectral")
        ok &= it.residual <= 1e-8 and sp.residual <= 1e-8
        if sp.fixed_space_dim == 1:
            unique_checked += 1
            ok &= trace_distance(it.rho_ctc.matrix, sp.rho_ctc.matrix) <= 1e-6
    ok &= unique_checked >= 90  # generic scenarios have a unique fixed point
    elapsed = time.perf_counter() - t0
    report(9, "fixed points found everywhere; methods agree when unique", ok, elapsed,
           f"{unique_checked}/100 unique-fixed-point scenarios compared")


def test_criterion_10_determinism_and_monte_carlo_consistency(tmp_path):
    t0 = time.perf_counter()
    ok = True

    configs = {
        "s.cfg": ("signal", "experiment = signal\nalice_angle = 0.4\nbob_angle = 1.3\n"
                  "rounds = 200\nseed = 99\nformat = csv\n"),
        "m.cfg": ("measure", "experiment = measure\nstate = bell\nrounds = 50\nseed = 7\n"),
        "c.cfg": ("ctc-solve", "experiment = ctc-solve\nscenario = cr_coupled\n"
                  "method = spectral\n"),
    }
    for name, (command, text) in configs.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        runs = [
            subprocess.run([sys.executable, "-m", "qdesk", command, "--config", str(path)],
                           capture_output=True)
            for _ in range(2)
        ]
        ok &= runs[0].returncode == 0 and runs[1].returncode == 0
        ok &= runs[0].stdout == runs[1].stdout

    rng = SplitMix64(2024_10)
    n = 100_000
    worst_sigmas = 0.0
    for k in range(20):
        a = (rng.random() - 0.5) * 4 * math.pi
        b = (rng.random() - 0.5) * 4 * math.pi
        exact = correlator(a, b)
        tally = tally_from_records(session_records(n, a, b, rng.next_u64()))
        sigma = math.sqrt(max((1.0 - exact**2) / n, 1e-18))
        gap = abs(tally.correlator - exact) / sigma if sigma > 0 else 0.0
        worst_sigmas = max(worst_sigmas, gap)
        ok &= abs(tally.correlator - exact) <= 4 * sigma + 1e-9
    elapsed = time.perf_counter() - t0
    report(10, "byte-identical CLI output; Monte Carlo inside 4-sigma of exact",
           ok, elapsed, f"worst deviation {worst_sigmas:.2f} sigma")


def test_measure_presets_match_cli_reports(tmp_path):
    """The CLI presets expose the same branch structure checked above."""
    path = tmp_path / "m.cfg"
    path.write_text("experiment = measure\nstate = plus\n", encoding="utf-8")
    run = subprocess.run([sys.executable, "-m", "qdesk", "measure", "--config", str(path)],
                         capture_output=True, text=True)
    assert run.returncode == 0
    payload = json.loads(run.stdout)
    assert [b["pointer"] for b in payload["branches"]] == ["saw_up", "saw_down"]
    assert all(abs(b["weight"] - 0.5) <= 1e-10 for b in payload["branches"])
