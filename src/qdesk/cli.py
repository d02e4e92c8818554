"""Command-line front end.

    qdesk <command> --config <path> [--format json|csv|table] [--seed N]
          [--rounds N] [--mode strict|ray] [--out <path>]

Commands: measure, signal, chsh, ctc-solve, ctc-scan, the positional argument
of the one parser. Each flag but --config and --out replaces the config entry
of the same name and is checked as that entry. Reports echo the seeds and
tolerances actually used; the payload written to stdout (or --out) is
byte-identical across repeated runs with identical inputs; wall-clock timing
goes to stderr only.

A command imports its own modules when it runs, so a process loads only what
its command uses: chsh, explicit angles or a grid, computes with Python
floats and loads neither numpy nor dataclasses (its records are NamedTuples,
so neither inspect, ast, dis nor tokenize). Sampled rounds (signal, measure
--rounds) are drawn one block of CSV_BLOCK_ROWS at a time (rng.stream_blocks),
so memory does not grow with the round count; a signal CSV block is sampled,
rendered and written before the next, once every check of the session has
passed.

Exit codes: 0 success, 2 config error (a bad flag value, a flag the command
does not read, a file that cannot be opened, or a serialized body whose rows
disagree with its layout: a text too short for its entries never allocates
them), an --out path or stdout that cannot be written (a closed pipe, or an
encoding that cannot spell the report) or a command, config or scenario that
cannot get its memory, 3 solver non-convergence (a report in the run's format
still carries the best residual; stderr names the failed step), 4 internal
invariant violation.
An --out path that is empty, holds a NUL, names a directory, has a parent
that is missing or no directory, or is not writable (an existing file by its
own permission, a new one by its parent's) is refused before the config is read.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import stat
import sys
import time
from typing import TYPE_CHECKING, Iterable, Iterator

from .config import EXPERIMENT_KINDS, MEASURE_PRESETS, load_config
from .errors import ConfigError, InvariantError, SolverError, printable
from .reports import CSV_BLOCK_ROWS, complex_payload, render_payload, render_signal_csv

if TYPE_CHECKING:
    from .ctc import CtcScenario
    from .suggestion import NoSignalingAudit
    from .tensor import DensityMatrix, StateVector


# ---------------------------------------------------------------------------
# measure


_METER_LABELS = ("ready", "saw_up", "saw_down")


def _measure_initial_state(preset: str) -> StateVector:
    from .tensor import StateVector, layout_of

    terms = MEASURE_PRESETS[preset]
    lay = layout_of(*((sid, ("up", "down")) for sid in terms[0]), ("meter", _METER_LABELS))
    amps = [0.0] * lay.total_dimension
    for term in terms:
        amps[lay.basis_index({**term, "meter": "ready"})] = 1.0
    return StateVector(lay, amps)


def cmd_measure(state: str, rounds: int | None, seed: int | None) -> dict:
    import numpy as np

    from . import measurement
    from .rng import stream_blocks, stream_seeds

    scheme = measurement.pointer_scheme(
        "particle", "meter", "ready", {"up": "saw_up", "down": "saw_down"}
    )
    measured = measurement.premeasure(_measure_initial_state(state), scheme)
    branches = measurement.branch_decomposition(measured, "meter")
    payload: dict = {
        "experiment": "measure",
        "state": state,
        "branches": [
            {
                "pointer": b.pointer_label,
                "weight": b.weight,
                "amplitude": complex_payload(b.amplitude),
                "conditional_ids": list(b.conditional_state.layout.ids),
                "conditional": complex_payload(b.conditional_state.amplitudes),
            }
            for b in branches
        ],
    }
    if rounds is not None:
        counts = np.zeros(len(_METER_LABELS), np.int64)
        for _, m, block_seed in stream_blocks(seed, rounds, CSV_BLOCK_ROWS):
            labels = measurement.sample_labels(measured, "meter", stream_seeds(block_seed, m))
            counts += np.bincount(labels, minlength=len(_METER_LABELS))
        payload["sampling"] = {
            "rounds": rounds,
            "seed": seed,
            "counts": {k: v for k, v in zip(_METER_LABELS, counts.tolist()) if v or k != "ready"},
        }
    payload["tolerances"] = {
        "branch_prune": measurement.BRANCH_PRUNE_EPS,
        "ready_weight": measurement.READY_WEIGHT_TOL,
    }
    return payload


# ---------------------------------------------------------------------------
# signal


def _signal_exact(alice_angle: float, bob_angle: float) -> tuple[float, NoSignalingAudit]:
    """The exact correlator and the no-signaling audit, each checked as it is computed."""
    from . import suggestion

    # audit the distant marginal over the session angle and two offsets
    audit_thetas = [alice_angle, alice_angle + math.pi / 4, alice_angle + math.pi / 2]
    audit = suggestion.no_signaling_audit(audit_thetas, bob_angle)
    return suggestion.correlator(alice_angle, bob_angle), audit


def cmd_signal(alice_angle: float, bob_angle: float, rounds: int, seed: int) -> dict:
    from . import suggestion
    from .rng import stream_blocks

    tally = suggestion.tally_from_records(
        suggestion.session_records(m, alice_angle, bob_angle, block_seed)
        for _, m, block_seed in stream_blocks(seed, rounds, CSV_BLOCK_ROWS))
    exact, audit = _signal_exact(alice_angle, bob_angle)
    return {
        "experiment": "signal",
        "alice_angle": alice_angle,
        "bob_angle": bob_angle,
        "rounds": rounds,
        "seed": seed,
        "convention": "same = (decides_up, up) or (decides_down, down)",
        "counts": tally._asdict(),
        "correlator_sampled": tally.correlator,
        "correlator_exact": exact,
        "no_signaling": {
            "alice_settings": list(audit.alice_thetas),
            "distant_marginals": [list(m) for m in audit.marginals],
            "max_tv_distance": audit.max_tv_distance,
        },
        "tolerances": {"no_signaling": suggestion.NO_SIGNALING_TOL},
    }


def _signal_csv(alice_angle: float, bob_angle: float, rounds: int, seed: int) -> Iterator[str]:
    """A signal session's CSV report, one block of rounds per piece, rendered as it is written.

    Every check the session makes runs here, before the first piece: the
    audit's and the exact correlator's. Every block is rendered in one
    buffer.
    """
    from . import suggestion
    from .rng import stream_blocks

    _signal_exact(alice_angle, bob_angle)
    buffer = bytearray()
    return (render_signal_csv(suggestion.session_records(m, alice_angle, bob_angle, block_seed),
                              start, buffer)
            for start, m, block_seed in stream_blocks(seed, rounds, CSV_BLOCK_ROWS))


# ---------------------------------------------------------------------------
# chsh


_ANGLE_KEYS = ("a1", "a2", "b1", "b2")


def cmd_chsh(angles: tuple[float, float, float, float] | None,
             grid_resolution: float | None) -> dict:
    from . import suggestion

    payload: dict = {"experiment": "chsh"}
    if angles is not None:
        payload["angles"] = dict(zip(_ANGLE_KEYS, angles))
        e, s = suggestion.chsh_value(*angles)
        keys = ("E_a1_b1", "E_a1_b2", "E_a2_b1", "E_a2_b2")
        payload["correlators"] = dict(zip(keys, e))
        payload["s_value"] = s
        payload["abs_s"] = abs(s)
    else:
        result = suggestion.chsh_grid_search(grid_resolution)
        payload["grid_resolution"] = result.resolution
        payload["grid_size"] = result.grid_size
        payload["s_value"] = result.s_value
        payload["abs_s"] = result.abs_value
        payload["argmax_angles"] = dict(zip(_ANGLE_KEYS, result.angles))
    payload["tsirelson_bound"] = suggestion.TSIRELSON_BOUND
    payload["tolerances"] = {"tsirelson_guard": suggestion.TSIRELSON_GUARD}
    return payload


# ---------------------------------------------------------------------------
# ctc


def _cr_input(scenario: CtcScenario, cr_state: str) -> DensityMatrix | None:
    from .tensor import DensityMatrix

    if not scenario.cr_ids:
        return None
    lay = scenario.cr_layout()
    d = lay.total_dimension
    if cr_state == "mixed":
        return DensityMatrix.maximally_mixed(lay)
    idx = 0 if cr_state == "zero" else d - 1
    return DensityMatrix(lay, [[float(i == j == idx) for j in range(d)] for i in range(d)])


def _linear_payload(scenario: CtcScenario, mode: str) -> dict:
    from . import ctc

    subspace = ctc.linear_consistency_basis(scenario, mode)
    return {
        "mode": subspace.mode,
        "dimension": subspace.dimension,
        "eigenspaces": [
            {
                "phase": e.phase,
                "dimension": e.dimension,
                "basis": complex_payload(e.basis.T),
            }
            for e in subspace.eigenpairs
        ],
    }


def cmd_ctc_solve(scenario_name: str, scenario: CtcScenario, mode: str, method: str,
                  cr_state: str) -> dict:
    from . import ctc

    rho_cr = _cr_input(scenario, cr_state)
    payload: dict = {
        "experiment": "ctc-solve",
        "scenario": scenario_name,
        "cr_ids": list(scenario.cr_ids),
        "ctc_ids": list(scenario.ctc_ids),
        "mode": mode,
        "method": method,
        "cr_state": cr_state if scenario.cr_ids else None,
        "linear": _linear_payload(scenario, mode),
    }
    solution = ctc.deutsch_fixed_point(scenario, rho_cr, method)
    fixed: dict = {
        "converged": True,
        "method": solution.method,
        "residual": solution.residual,
        "iterations": solution.iterations,
        "rho_ctc": complex_payload(solution.rho_ctc.matrix),
    }
    if solution.fixed_space_dim is not None:
        fixed["fixed_space_dim"] = solution.fixed_space_dim
    payload["fixed_point"] = fixed
    if scenario.cr_ids:
        payload["cr_output"] = complex_payload(solution.cr_output.matrix)
    payload["tolerances"] = _ctc_tolerances()
    return payload


def cmd_ctc_scan(scenario_name: str, scenario: CtcScenario, mode: str, samples: int,
                 seed: int) -> dict:
    from . import ctc

    scan = ctc.admissible_fraction(scenario, samples, mode, seed)
    return {
        "experiment": "ctc-scan",
        "scenario": scenario_name,
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
    from . import ctc

    return {
        "phase": ctc.PHASE_TOL,
        "consistency": ctc.CONSISTENCY_TOL,
        "fixed_point": ctc.FIXED_POINT_TOL,
        "iterate": ctc.ITERATE_TOL,
    }


# ---------------------------------------------------------------------------
# driver


def build_report(kind: str, fmt: str, args: dict) -> Iterable[str]:
    """Run one command on load_config's arguments; its report, in pieces written one by one.

    A signal CSV's checks run here; its blocks are sampled and rendered only
    as they are written.
    """
    if kind == "signal" and fmt == "csv":
        return _signal_csv(**args)
    payload = {"measure": cmd_measure, "signal": cmd_signal, "chsh": cmd_chsh,
               "ctc-solve": cmd_ctc_solve, "ctc-scan": cmd_ctc_scan}[kind](**args)
    return [render_payload(payload, fmt)]


_WRITE_CHARS = 1 << 16


def _slices(pieces: Iterable[str]) -> Iterator[str]:
    """The pieces, cut into slices of at most _WRITE_CHARS characters.

    A text stream copies each write into a new bytes object: for a whole CSV
    block, 1.3 MB more at the block's peak, where a slice's copy stays small.
    """
    for piece in pieces:
        for i in range(0, len(piece), _WRITE_CHARS):
            yield piece[i:i + _WRITE_CHARS]
        del piece  # not alive while the next piece is rendered


def _emit(pieces: Iterable[str], out_path: str | None) -> bool:
    """Write the report; False, after a stderr line, when stdout or out_path cannot be written."""
    try:
        if out_path is None:
            if sys.stdout is None:  # descriptor 1 was closed when the interpreter started
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.writelines(_slices(pieces))
            sys.stdout.flush()
        else:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(_slices(pieces))
    except (OSError, UnicodeEncodeError) as exc:  # Unicode: stdout's encoding lacks a character
        if out_path is None and sys.stdout is not None:
            # point stdout at devnull, so the flush at exit cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        reason = getattr(exc, "strerror", None) or exc
        where = "stdout" if out_path is None else printable(out_path)
        print(f"output error: cannot write {where}: {reason}", file=sys.stderr)
        return False
    return True


def _unopenable(out_path: str) -> str | None:
    """Why open(out_path, "w") must fail, found without creating the file: an embedded NUL,
    a directory at the path, a parent that is not a directory, an existing file that is not
    writable, or a new file's parent that is not writable; else None."""
    if "\0" in out_path:  # os.stat would raise ValueError
        return "embedded null byte"
    if os.path.isdir(out_path):
        return os.strerror(errno.EISDIR)
    parent = os.path.dirname(out_path) or os.curdir
    try:
        if not stat.S_ISDIR(os.stat(parent).st_mode):
            return os.strerror(errno.ENOTDIR)
    except OSError as exc:  # the parent, or a directory above it, does not exist
        return exc.strerror
    # an existing file is truncated under its own permission, a new one made under its parent's
    if os.path.exists(out_path):
        writable = os.access(out_path, os.W_OK)
    else:
        writable = os.access(parent, os.W_OK | os.X_OK)
    if not writable:
        return os.strerror(errno.EACCES)
    return None


# Flags that stand for config entries of the same name.
_ENTRY_FLAGS = ("format", "seed", "rounds", "mode")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdesk",
        description="Exact desk-scale quantum experiments with reproducible seeds.",
    )
    parser.add_argument("command", choices=EXPERIMENT_KINDS)
    parser.add_argument("--config", required=True, help="path to a key = value config file")
    for key in _ENTRY_FLAGS:
        parser.add_argument(f"--{key}", help=f"replaces the config's {key!r} entry")
    parser.add_argument("--out", default=None, help="write the report to a file instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage error (2) or --help (0)
        return exc.code
    if args.out == "":  # names no file: refused before the command runs
        print("output error: --out is an empty path", file=sys.stderr)
        return 2
    reason = None if args.out is None else _unopenable(args.out)
    if reason is not None:  # refused before the config is read or the command runs, too
        print(f"output error: cannot write {printable(args.out)}: {reason}", file=sys.stderr)
        return 2
    flags = {k: v for k, v in vars(args).items() if k in _ENTRY_FLAGS and v is not None}
    try:
        fmt, cmd_args = load_config(args.config, args.command, flags)
        start = time.perf_counter()
        pieces, code, tail = build_report(args.command, fmt, cmd_args), 0, None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        payload = {"experiment": args.command, "error": "solver did not converge",
                   "residual": exc.residual}
        pieces, code, tail = [render_payload(payload, fmt)], 3, f"solver error: {exc}"
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # a scenario, or a count within MAX_COUNT, too large to hold
        detail = f": {exc}" if str(exc) else ""
        print(f"memory error: {args.command} cannot get its memory{detail}", file=sys.stderr)
        return 2

    if not _emit(pieces, args.out):
        return 2
    # rendering a signal CSV happens as it is written, so the time covers both
    print(tail or f"completed in {time.perf_counter() - start:.3f} s", file=sys.stderr)
    return code
