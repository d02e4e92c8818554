"""Command-line front end.

    qdesk <subcommand> --config <path> [--format json|csv|table] [--seed N]
          [--rounds N] [--mode strict|ray] [--out <path>]

Subcommands: measure, signal, chsh, ctc-solve, ctc-scan. Flags override
config values. Reports echo the seeds and tolerances actually used; the
payload written to stdout (or --out) is byte-identical across repeated runs
with identical inputs; wall-clock timing goes to stderr only.

Exit codes: 0 success, 2 config error or an --out path that cannot be
written, 3 solver non-convergence (report still emitted, with the best
residual), 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import ctc as ctc_mod
from . import measurement, suggestion
from .config import (
    CtcScanConfig,
    CtcSolveConfig,
    ChshConfig,
    MeasureConfig,
    RunConfig,
    SignalConfig,
    apply_overrides,
    load_config,
)
from .errors import ConfigError, FormatError, InvariantError, SolverError
from .reports import matrix_payload, render_payload, render_signal_csv, vector_payload
from .rng import stream_seeds
from .tensor import DensityMatrix, StateVector, layout_of


# ---------------------------------------------------------------------------
# measure


_MEASURE_SCHEME = measurement.pointer_scheme(
    "particle", "meter", "ready", {"up": "saw_up", "down": "saw_down"}
)
_METER_LABELS = ("ready", "saw_up", "saw_down")


def _measure_initial_state(preset: str) -> StateVector:
    if preset == "bell":
        lay = layout_of(("particle", ("up", "down")), ("distant", ("up", "down")),
                        ("meter", _METER_LABELS))
        amps = np.zeros(lay.total_dimension, dtype=np.complex128)
        amps[lay.basis_index({"particle": "up", "distant": "down", "meter": "ready"})] = 1.0
        amps[lay.basis_index({"particle": "down", "distant": "up", "meter": "ready"})] = 1.0
        return StateVector(lay, amps)
    lay = layout_of(("particle", ("up", "down")), ("meter", _METER_LABELS))
    amps = np.zeros(lay.total_dimension, dtype=np.complex128)
    if preset in ("up", "plus"):
        amps[lay.basis_index({"particle": "up", "meter": "ready"})] = 1.0
    if preset in ("down", "plus"):
        amps[lay.basis_index({"particle": "down", "meter": "ready"})] = 1.0
    return StateVector(lay, amps)


def cmd_measure(cfg: MeasureConfig) -> dict:
    state = _measure_initial_state(cfg.state)
    measured = measurement.premeasure(state, _MEASURE_SCHEME)
    branches = measurement.branch_decomposition(measured, "meter")
    payload: dict = {
        "experiment": cfg.kind,
        "state": cfg.state,
        "branches": [
            {
                "pointer": b.pointer_label,
                "weight": b.weight,
                "amplitude": [b.amplitude.real, b.amplitude.imag],
                "conditional_ids": list(b.conditional_state.layout.ids),
                "conditional": vector_payload(b.conditional_state.amplitudes),
            }
            for b in branches
        ],
    }
    if cfg.rounds is not None:
        labels = measurement.sample_labels(measured, "meter", stream_seeds(cfg.seed, cfg.rounds))
        counts = np.bincount(labels, minlength=len(_METER_LABELS)).tolist()
        payload["sampling"] = {
            "rounds": cfg.rounds,
            "seed": cfg.seed,
            "counts": {k: v for k, v in zip(_METER_LABELS, counts) if v or k != "ready"},
        }
    payload["tolerances"] = {
        "branch_prune": measurement.BRANCH_PRUNE_EPS,
        "ready_weight": measurement.READY_WEIGHT_TOL,
    }
    return payload


# ---------------------------------------------------------------------------
# signal


def cmd_signal(cfg: SignalConfig) -> tuple[dict, suggestion.SessionRecords]:
    alice = suggestion.Direction(cfg.alice_angle)
    bob = suggestion.Direction(cfg.bob_angle)
    records = suggestion.session_records(cfg.rounds, alice, bob, cfg.seed)
    tally = suggestion.tally_from_records(records)
    # audit the distant marginal over the session angle and two offsets
    audit_thetas = [cfg.alice_angle, cfg.alice_angle + np.pi / 4, cfg.alice_angle + np.pi / 2]
    audit = suggestion.no_signaling_audit(
        [suggestion.Direction(t) for t in audit_thetas], bob
    )
    payload = {
        "experiment": cfg.kind,
        "alice_angle": cfg.alice_angle,
        "bob_angle": cfg.bob_angle,
        "rounds": cfg.rounds,
        "seed": cfg.seed,
        "convention": "same = (decides_up, up) or (decides_down, down)",
        "counts": {
            "n_uu": tally.n_uu,
            "n_ud": tally.n_ud,
            "n_du": tally.n_du,
            "n_dd": tally.n_dd,
        },
        "correlator_sampled": tally.correlator,
        "correlator_exact": suggestion.correlator(alice, bob),
        "no_signaling": {
            "alice_settings": list(audit.alice_thetas),
            "distant_marginals": [list(m) for m in audit.marginals],
            "max_tv_distance": audit.max_tv_distance,
        },
        "tolerances": {"undecided_leak": 1e-10, "no_signaling": 1e-10},
    }
    return payload, records


# ---------------------------------------------------------------------------
# chsh


def cmd_chsh(cfg: ChshConfig) -> dict:
    payload: dict = {"experiment": cfg.kind}
    if cfg.angles is not None:
        a1, a2, b1, b2 = (suggestion.Direction(t) for t in cfg.angles)
        payload["angles"] = {
            "a1": cfg.angles[0], "a2": cfg.angles[1],
            "b1": cfg.angles[2], "b2": cfg.angles[3],
        }
        e, s = suggestion._chsh(a1, a2, b1, b2)
        keys = ("E_a1_b1", "E_a1_b2", "E_a2_b1", "E_a2_b2")
        payload["correlators"] = {k: float(v) for k, v in zip(keys, e)}
        payload["s_value"] = s
        payload["abs_s"] = abs(s)
    else:
        result = suggestion.chsh_grid_search(cfg.grid_resolution)
        payload["grid_resolution"] = result.resolution
        payload["grid_size"] = result.grid_size
        payload["s_value"] = result.s_value
        payload["abs_s"] = result.abs_value
        payload["argmax_angles"] = {
            "a1": result.angles[0], "a2": result.angles[1],
            "b1": result.angles[2], "b2": result.angles[3],
        }
    payload["tsirelson_bound"] = suggestion.TSIRELSON_BOUND
    payload["tolerances"] = {"tsirelson_guard": 1e-9}
    return payload


# ---------------------------------------------------------------------------
# ctc


def _cr_input(cfg: CtcSolveConfig) -> DensityMatrix | None:
    scenario = cfg.scenario
    if not scenario.cr_ids:
        return None
    lay = scenario.cr_layout()
    d = lay.total_dimension
    if cfg.cr_state == "mixed":
        return DensityMatrix.maximally_mixed(lay)
    mat = np.zeros((d, d), dtype=np.complex128)
    idx = 0 if cfg.cr_state == "zero" else d - 1
    mat[idx, idx] = 1.0
    return DensityMatrix(lay, mat)


def _linear_payload(scenario: ctc_mod.CtcScenario, mode: str) -> dict:
    subspace = ctc_mod.linear_consistency_basis(scenario, mode)
    return {
        "mode": subspace.mode,
        "dimension": subspace.dimension,
        "eigenspaces": [
            {
                "phase": e.phase,
                "dimension": e.dimension,
                "basis": [vector_payload(e.basis[:, k]) for k in range(e.dimension)],
            }
            for e in subspace.eigenpairs
        ],
    }


def cmd_ctc_solve(cfg: CtcSolveConfig) -> dict:
    rho_cr = _cr_input(cfg)
    payload: dict = {
        "experiment": cfg.kind,
        "scenario": cfg.scenario_name,
        "cr_ids": list(cfg.scenario.cr_ids),
        "ctc_ids": list(cfg.scenario.ctc_ids),
        "mode": cfg.mode,
        "method": cfg.method,
        "cr_state": cfg.cr_state if cfg.scenario.cr_ids else None,
        "linear": _linear_payload(cfg.scenario, cfg.mode),
    }
    try:
        solution = ctc_mod.deutsch_fixed_point(cfg.scenario, rho_cr, cfg.method)
    except SolverError as exc:
        raise SolverError("ctc-solve did not converge", residual=exc.residual) from exc
    fixed: dict = {
        "converged": True,
        "method": solution.method,
        "residual": solution.residual,
        "iterations": solution.iterations,
        "rho_ctc": matrix_payload(solution.rho_ctc.matrix),
    }
    if solution.fixed_space_dim is not None:
        fixed["fixed_space_dim"] = solution.fixed_space_dim
    payload["fixed_point"] = fixed
    if cfg.scenario.cr_ids:
        out = ctc_mod.ctc_output_state(solution)
        payload["cr_output"] = matrix_payload(out.matrix)
    payload["tolerances"] = _ctc_tolerances()
    return payload


def cmd_ctc_scan(cfg: CtcScanConfig) -> dict:
    scan = ctc_mod.admissible_fraction(cfg.scenario, cfg.samples, cfg.mode, cfg.seed)
    return {
        "experiment": cfg.kind,
        "scenario": cfg.scenario_name,
        "mode": scan.mode,
        "samples": scan.n_samples,
        "seed": scan.seed,
        "admissible_count": scan.admissible_count,
        "fraction": scan.fraction,
        "residual_min": scan.residual_min,
        "residual_median": scan.residual_median,
        "residual_max": scan.residual_max,
        "tolerances": _ctc_tolerances(),
    }


def _ctc_tolerances() -> dict:
    return {
        "phase": ctc_mod.PHASE_TOL,
        "consistency": ctc_mod.CONSISTENCY_TOL,
        "fixed_point": ctc_mod.FIXED_POINT_TOL,
        "iterate": ctc_mod.ITERATE_TOL,
    }


# ---------------------------------------------------------------------------
# driver


def build_report(cfg: RunConfig) -> str:
    """Run one command and render its report text."""
    if isinstance(cfg, MeasureConfig):
        payload = cmd_measure(cfg)
        text = render_payload(payload, cfg.format)
    elif isinstance(cfg, SignalConfig):
        payload, records = cmd_signal(cfg)
        text = render_signal_csv(records) if cfg.format == "csv" else render_payload(payload, cfg.format)
    elif isinstance(cfg, ChshConfig):
        payload = cmd_chsh(cfg)
        text = render_payload(payload, cfg.format)
    elif isinstance(cfg, CtcSolveConfig):
        payload = cmd_ctc_solve(cfg)
        text = render_payload(payload, cfg.format)
    elif isinstance(cfg, CtcScanConfig):
        payload = cmd_ctc_scan(cfg)
        text = render_payload(payload, cfg.format)
    else:  # pragma: no cover
        raise ConfigError(f"unhandled config type {type(cfg).__name__}")
    return text


def _emit(text: str, out_path: str | None) -> bool:
    """Write the report; False, after a stderr line, when out_path cannot be written."""
    if out_path is None:
        sys.stdout.write(text)
        return True
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"output error: cannot write {out_path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdesk",
        description="Exact desk-scale quantum experiments with reproducible seeds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("measure", "signal", "chsh", "ctc-solve", "ctc-scan"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a key = value config file")
        p.add_argument("--format", choices=("json", "csv", "table"), default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--rounds", type=int, default=None)
        p.add_argument("--mode", choices=("strict", "ray"), default=None)
        p.add_argument("--out", default=None, help="write the report to a file instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.command)
        cfg = apply_overrides(cfg, fmt=args.format, seed=args.seed,
                              rounds=args.rounds, mode=args.mode)
    except (ConfigError, FormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    try:
        text = build_report(cfg)
    except SolverError as exc:
        error_payload = {
            "experiment": cfg.kind,
            "error": "solver did not converge",
            "residual": exc.residual,
        }
        if not _emit(render_payload(error_payload, "json"), args.out):
            return 2
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4

    duration = time.perf_counter() - start
    if not _emit(text, args.out):
        return 2
    print(f"completed in {duration:.3f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
