"""Run configuration: flat ``key = value`` files with a strict schema.

A config names its experiment kind and supplies that kind's keys; unknown
keys are rejected with file/line context so a typo in a physics parameter
can never pass silently. Angles are radians, given as plain decimal
literals. Seeds have no defaults anywhere: Monte Carlo commands refuse to
run without one.

Scenario files for the loop experiments either name a built-in variant or
carry the partition lists plus an inline serialized unitary after a
``unitary:`` marker line.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

from .ctc import CtcScenario, grandfather_scenario
from .errors import (
    ConfigError,
    DimensionMismatchError,
    FormatError,
    InvariantError,
    LayoutError,
)
from .serialization import _content_lines, parse_unitary
from .tensor import UnitaryOperator

EXPERIMENT_KINDS = ("measure", "signal", "chsh", "ctc-solve", "ctc-scan")
FORMATS = ("json", "csv", "table")
MEASURE_PRESETS = ("up", "down", "plus", "bell")


def parse_flat_file(path: str) -> dict[str, tuple[str, int]]:
    """Parse ``key = value`` lines; returns {key: (value, line_number)}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path=path) from exc
    return _parse_lines(_content_lines(lines), path)


def _parse_lines(content: list[tuple[int, str]], path: str) -> dict[str, tuple[str, int]]:
    """Entries of numbered content lines; a value ends at its first '#'."""
    entries: dict[str, tuple[str, int]] = {}
    for no, line in content:
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", path=path, line=no)
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if not key:
            raise ConfigError("empty key", path=path, line=no)
        if key in entries:
            raise ConfigError(f"duplicate key {key!r}", path=path, line=no)
        entries[key] = (value, no)
    return entries


class _Entries:
    """Typed accessors over parsed entries, tracking consumed keys."""

    def __init__(self, path: str, entries: dict[str, tuple[str, int]]):
        self.path = path
        self.entries = entries
        self.used: set[str] = set()

    def _raw(self, key: str) -> tuple[str, int] | None:
        if key in self.entries:
            self.used.add(key)
            return self.entries[key]
        return None

    def get_str(self, key: str, choices: tuple[str, ...] | None = None,
                default: str | None = None, required: bool = False) -> str | None:
        raw = self._raw(key)
        if raw is None:
            if required:
                raise ConfigError(f"missing required key {key!r}", path=self.path)
            return default
        value, no = raw
        if choices and value not in choices:
            raise ConfigError(f"{key} must be one of {choices}, got {value!r}",
                              path=self.path, line=no)
        return value

    def get_int(self, key: str, minimum: int | None = None,
                required: bool = False) -> int | None:
        raw = self._raw(key)
        if raw is None:
            if required:
                raise ConfigError(f"missing required key {key!r}", path=self.path)
            return None
        value, no = raw
        try:
            parsed = int(value)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {value!r}",
                              path=self.path, line=no) from None
        if minimum is not None and parsed < minimum:
            raise ConfigError(f"{key} must be >= {minimum}, got {parsed}",
                              path=self.path, line=no)
        return parsed

    def get_angle(self, key: str, required: bool = False) -> float | None:
        raw = self._raw(key)
        if raw is None:
            if required:
                raise ConfigError(f"missing required key {key!r} (radians)", path=self.path)
            return None
        value, no = raw
        try:
            parsed = float(value)
        except ValueError:
            raise ConfigError(f"{key} must be a decimal angle in radians, got {value!r}",
                              path=self.path, line=no) from None
        if not math.isfinite(parsed):
            raise ConfigError(f"{key} must be finite", path=self.path, line=no)
        return parsed

    def reject_unknown(self) -> None:
        unknown = set(self.entries) - self.used
        if unknown:
            key = sorted(unknown)[0]
            _, no = self.entries[key]
            raise ConfigError(f"unknown key {key!r} for this experiment",
                              path=self.path, line=no)


@dataclass(frozen=True)
class MeasureConfig:
    kind: str
    state: str
    rounds: int | None
    seed: int | None
    format: str


@dataclass(frozen=True)
class SignalConfig:
    kind: str
    alice_angle: float
    bob_angle: float
    rounds: int
    seed: int
    format: str


@dataclass(frozen=True)
class ChshConfig:
    kind: str
    angles: tuple[float, float, float, float] | None
    grid_resolution: float | None
    format: str


@dataclass(frozen=True)
class CtcSolveConfig:
    kind: str
    scenario_name: str
    scenario: CtcScenario
    mode: str
    method: str
    cr_state: str
    format: str


@dataclass(frozen=True)
class CtcScanConfig:
    kind: str
    scenario_name: str
    scenario: CtcScenario
    mode: str
    samples: int
    seed: int
    format: str


RunConfig = MeasureConfig | SignalConfig | ChshConfig | CtcSolveConfig | CtcScanConfig


def load_scenario_file(path: str) -> CtcScenario:
    """Scenario file: a named variant, or partition lists + inline unitary."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}", path=path) from exc

    lines = text.splitlines()
    head = _content_lines(lines)
    unitary_text: str | None = None
    for i, (no, line) in enumerate(head):
        if line == "unitary:":
            # the lines up to the marker stay as blank lines, so the body keeps its line numbers
            head, unitary_text = head[:i], "\n" * no + "\n".join(lines[no:])
            break

    ent = _Entries(path, _parse_lines(head, path))
    variant = ent.get_str("variant")
    if variant is not None:
        ent.reject_unknown()
        if unitary_text is not None:
            raise ConfigError("variant scenarios must not carry an inline unitary", path=path)
        try:
            return grandfather_scenario(variant)
        except ValueError as exc:
            raise ConfigError(str(exc), path=path) from exc

    cr_raw = ent.get_str("cr_ids", default="")
    ctc_raw = ent.get_str("ctc_ids", required=True)
    ent.reject_unknown()
    if unitary_text is None:
        raise ConfigError("scenario needs 'variant = ...' or a 'unitary:' section", path=path)
    try:
        unitary: UnitaryOperator = parse_unitary(unitary_text)
    except (FormatError, LayoutError, InvariantError) as exc:
        raise ConfigError(f"bad inline unitary: {exc}", path=path) from exc
    cr_ids = tuple(t.strip() for t in cr_raw.split(",") if t.strip())
    ctc_ids = tuple(t.strip() for t in ctc_raw.split(",") if t.strip())
    try:
        return CtcScenario(unitary.layout, cr_ids, ctc_ids, unitary)
    except (LayoutError, DimensionMismatchError) as exc:
        raise ConfigError(f"inconsistent scenario: {exc}", path=path) from exc


def _resolve_scenario(ent: _Entries, config_path: str) -> tuple[str, CtcScenario]:
    name = ent.get_str("scenario", choices=("qubit_flip", "cr_coupled"))
    file_ref = ent.get_str("scenario_file")
    if (name is None) == (file_ref is None):
        raise ConfigError("exactly one of 'scenario' or 'scenario_file' is required",
                          path=config_path)
    if name is not None:
        return name, grandfather_scenario(name)
    path = os.path.join(os.path.dirname(os.path.abspath(config_path)), file_ref)
    return file_ref, load_scenario_file(path)


def load_config(path: str, kind: str) -> RunConfig:
    """Load and validate a config file for the given experiment kind."""
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}", path=path)
    ent = _Entries(path, parse_flat_file(path))
    declared = ent.get_str("experiment", choices=EXPERIMENT_KINDS, required=True)
    if declared != kind:
        raise ConfigError(f"config declares experiment {declared!r}, command expects {kind!r}",
                          path=path)
    fmt = ent.get_str("format", choices=FORMATS, default="json")

    if kind == "measure":
        state = ent.get_str("state", choices=MEASURE_PRESETS, required=True)
        rounds = ent.get_int("rounds")
        seed = ent.get_int("seed")
        ent.reject_unknown()
        cfg: RunConfig = MeasureConfig(kind, state, rounds, seed, fmt)
    elif kind == "signal":
        alice = ent.get_angle("alice_angle", required=True)
        bob = ent.get_angle("bob_angle", required=True)
        rounds = ent.get_int("rounds", required=True)
        seed = ent.get_int("seed", required=True)
        ent.reject_unknown()
        cfg = SignalConfig(kind, alice, bob, rounds, seed, fmt)
    elif kind == "chsh":
        keys = ("angle_a1", "angle_a2", "angle_b1", "angle_b2")
        angles = tuple(ent.get_angle(k) for k in keys)
        resolution = ent.get_angle("grid_resolution")
        ent.reject_unknown()
        have_angles = [a is not None for a in angles]
        if resolution is not None:
            if any(have_angles):
                raise ConfigError("give either four angles or grid_resolution, not both",
                                  path=path)
            if resolution <= 0:
                raise ConfigError("grid_resolution must be positive", path=path)
            if round(2.0 * math.pi / resolution) < 4:
                raise ConfigError(f"grid_resolution {resolution} leaves fewer than 4 grid angles",
                                  path=path)
            cfg = ChshConfig(kind, None, resolution, fmt)
        else:
            if not all(have_angles):
                raise ConfigError("chsh needs angle_a1..angle_b2 or grid_resolution",
                                  path=path)
            cfg = ChshConfig(kind, angles, None, fmt)  # type: ignore[arg-type]
    elif kind == "ctc-solve":
        name, scenario = _resolve_scenario(ent, path)
        mode = ent.get_str("mode", choices=("strict", "ray"), default="strict")
        method = ent.get_str("method", choices=("iterate", "spectral"), default="iterate")
        cr_state = ent.get_str("cr_state", choices=("zero", "one", "mixed"), default="zero")
        ent.reject_unknown()
        cfg = CtcSolveConfig(kind, name, scenario, mode, method, cr_state, fmt)
    else:  # ctc-scan
        name, scenario = _resolve_scenario(ent, path)
        mode = ent.get_str("mode", choices=("strict", "ray"), default="strict")
        samples = ent.get_int("samples", minimum=1, required=True)
        seed = ent.get_int("seed", required=True)
        ent.reject_unknown()
        cfg = CtcScanConfig(kind, name, scenario, mode, samples, seed, fmt)
    return _validate(cfg, ent)


def _validate(cfg: RunConfig, ent: _Entries | None = None) -> RunConfig:
    """Checks shared by config files and flag overrides; returns cfg.

    Given the file's entries, an error names the file and the key's line.
    """
    def fail(message: str, key: str):
        if ent is None:
            raise ConfigError(message)
        raise ConfigError(message, path=ent.path, line=ent.entries[key][1])

    seed = getattr(cfg, "seed", None)
    if seed is not None and not (-(2**63) <= seed < 2**64):
        fail("seed must fit in 64 bits", "seed")
    rounds = getattr(cfg, "rounds", None)
    if rounds is not None and rounds < 1:
        fail(f"rounds must be >= 1, got {rounds}", "rounds")
    if cfg.format == "csv" and cfg.kind != "signal":
        fail("csv output is only defined for signaling sessions", "format")
    if isinstance(cfg, MeasureConfig):
        if rounds is not None and seed is None:
            fail("sampling ('rounds') requires an explicit seed", "rounds")
        if seed is not None and rounds is None:
            fail("a seed without 'rounds' would sample nothing", "seed")
    return cfg


def apply_overrides(cfg: RunConfig, *, fmt: str | None = None, seed: int | None = None,
                    rounds: int | None = None, mode: str | None = None) -> RunConfig:
    """Apply command-line flag overrides; flags win over file values."""
    updates: dict = {}
    if fmt is not None:
        updates["format"] = fmt
    if seed is not None:
        if not hasattr(cfg, "seed"):
            raise ConfigError(f"--seed does not apply to {cfg.kind}")
        updates["seed"] = seed
    if rounds is not None:
        if not hasattr(cfg, "rounds"):
            raise ConfigError(f"--rounds does not apply to {cfg.kind}")
        updates["rounds"] = rounds
    if mode is not None:
        if not hasattr(cfg, "mode"):
            raise ConfigError(f"--mode does not apply to {cfg.kind}")
        updates["mode"] = mode
    return _validate(replace(cfg, **updates))
