"""Run configuration: flat ``key = value`` files with a strict schema.

A config names its experiment kind and supplies that kind's keys; unknown
keys are rejected with file/line context, before any key is read, so a typo
in a physics parameter can never pass silently, nor be reported as the
missing key it was meant to be. Numbers are plain ASCII literals: an
integer in decimal digits, an angle in radians as a decimal float (an
exponent allowed); other Unicode digits and '_' separators are errors. Seeds
have no defaults anywhere: Monte Carlo commands refuse to run without one.

Command-line flags (``--format``, ``--seed``, ``--rounds``, ``--mode``) are
entries too: ``load_config`` writes each over the file entry of the same key
before anything is read, so a flag passes the same accessor and check as a
file value, each applied once, where the value is read. An error names
``path:line`` for a file entry and ``--key`` for a flag; a flag the
experiment does not read is an error as well.

``load_config`` returns the report format and a dict of keyword arguments
for the experiment's command (``cli.cmd_signal(**args)``, say). A loop
command gets the parsed scenario as ``scenario`` and the name it was given
by, built-in or file, as ``scenario_name``.

A built-in loop is named by the config entry ``scenario``. A scenario file
(``scenario_file``) carries the partition lists ``cr_ids`` and ``ctc_ids``,
then an inline serialized unitary after a ``unitary:`` marker line. Config
and scenario files share one file reader, ``_read_text``, and every content
line, a serialized body's included, comes from the one line reader,
``_content_lines``: a line ends at LF, CR LF or CR, and at no other
character. ``load_scenario_file`` walks a scenario's lines a second way, to
find the marker: it hands ``parse_unitary`` the whole text after it, which
that reader splits.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING, NoReturn

from .errors import ConfigError, FormatError, InvariantError, LayoutError

if TYPE_CHECKING:
    from .ctc import CtcScenario

# The keys each experiment reads besides 'experiment' and 'format'.
_KIND_KEYS = {
    "measure": ("state", "rounds", "seed"),
    "signal": ("alice_angle", "bob_angle", "rounds", "seed"),
    "chsh": ("angle_a1", "angle_a2", "angle_b1", "angle_b2", "grid_resolution"),
    "ctc-solve": ("scenario", "scenario_file", "mode", "method", "cr_state"),
    "ctc-scan": ("scenario", "scenario_file", "mode", "samples", "seed"),
}
EXPERIMENT_KINDS = tuple(_KIND_KEYS)
FORMATS = ("json", "csv", "table")
# Each measure preset's equally weighted basis terms over its two-level subsystems; the meter is
# ready. The names are the choices of the 'state' key.
MEASURE_PRESETS = {
    "up": ({"particle": "up"},),
    "down": ({"particle": "down"},),
    "plus": ({"particle": "up"}, {"particle": "down"}),
    "bell": ({"particle": "up", "distant": "down"}, {"particle": "down", "distant": "up"}),
}
# Cap on rounds, samples and CHSH grid angles; larger is a config error, before any allocation.
MAX_COUNT = 10**9
# Seeds are taken modulo 2**64; outside this range a seed is a config error.
_SEED_RANGE = (-(2**63), 2**64 - 1)


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, stripped line) of each line of text that is not blank or a # comment: the
    one line reader, so a line ends at \\n, \\r\\n or \\r, and at no other character."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    numbered = ((no, ln.strip()) for no, ln in enumerate(text.split("\n"), start=1))
    return [(no, ln) for no, ln in numbered if ln and not ln.startswith("#")]


def _read_text(path: str, what: str) -> str:
    """The text of a UTF-8 file, each CR LF and CR read as LF (text mode); a file that cannot
    be opened, read or decoded is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in path, or not UTF-8
        raise ConfigError(f"cannot read {what}: {exc}", path=path) from exc


def _parse_lines(content: list[tuple[int, str]], path: str) -> dict[str, tuple[str, int]]:
    """{key: (value, line number)} of numbered content lines; a value ends at its first '#'."""
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


def _plain(value: str) -> str:
    """value, if it is spelled in ASCII without '_' (int and float also take any Unicode digit)."""
    if not value.isascii() or "_" in value:
        raise ValueError(value)
    return value


class _Entries:
    """Typed accessors over parsed entries.

    An entry's line is None when a command-line flag supplied it.
    """

    def __init__(self, path: str, entries: dict[str, tuple[str, int | None]]):
        self.path = path
        self.entries = entries

    def fail(self, message: str, key: str | None = None) -> NoReturn:
        """Raise a ConfigError located at key's file line, or at its flag."""
        if key not in self.entries:
            raise ConfigError(message, path=self.path)
        line = self.entries[key][1]
        if line is None:
            raise ConfigError(f"--{key}: {message}")
        raise ConfigError(message, path=self.path, line=line)

    def _raw(self, key: str, required: bool) -> str | None:
        if key in self.entries:
            return self.entries[key][0]
        if required:
            self.fail(f"missing required key {key!r}")
        return None

    def get_str(self, key: str, choices: tuple[str, ...] | None = None,
                default: str | None = None, required: bool = False) -> str | None:
        value = self._raw(key, required)
        if value is None:
            return default
        if choices and value not in choices:
            self.fail(f"{key} must be one of {choices}, got {value!r}", key)
        return value

    def get_int(self, key: str, lo: int, hi: int, required: bool = False) -> int | None:
        value = self._raw(key, required)
        if value is None:
            return None
        try:
            parsed = int(_plain(value))
        except ValueError:
            self.fail(f"{key} must be an integer, got {value!r}", key)
        if not lo <= parsed <= hi:
            self.fail(f"{key} must be in [{lo}, {hi}], got {parsed}", key)
        return parsed

    def get_angle(self, key: str, required: bool = False) -> float | None:
        value = self._raw(key, required)
        if value is None:
            return None
        try:
            parsed = float(_plain(value))
        except ValueError:
            self.fail(f"{key} must be a decimal angle in radians, got {value!r}", key)
        if not math.isfinite(parsed):
            self.fail(f"{key} must be finite", key)
        return parsed

    def reject_unknown(self, kind: str, known: tuple[str, ...]) -> None:
        unknown = set(self.entries).difference(known)
        if unknown:
            key = min(unknown)
            if self.entries[key][1] is None:
                raise ConfigError(f"--{key} does not apply to {kind}")
            self.fail(f"unknown key {key!r} for {kind}", key)


def load_scenario_file(path: str) -> CtcScenario:
    """Scenario file: partition lists, then an inline unitary after a 'unitary:' line."""
    from .ctc import CtcScenario
    from .serialization import parse_unitary

    text = _read_text(path, "scenario file")
    head, unitary_text, start = text, None, 0
    while start < len(text):  # up to the marker; parse_unitary splits the body, once
        end = text.find("\n", start) + 1 or len(text)
        if text[start:end].strip() == "unitary:":
            # the lines up to the marker stay as blank lines, so the body keeps its line numbers
            head, unitary_text = text[:start], "\n" * (text.count("\n", 0, start) + 1) + text[end:]
            break
        start = end

    ent = _Entries(path, _parse_lines(_content_lines(head), path))
    ent.reject_unknown("a scenario file", ("cr_ids", "ctc_ids"))
    cr_raw = ent.get_str("cr_ids", default="")
    ctc_raw = ent.get_str("ctc_ids")
    if ctc_raw is None or unitary_text is None:
        ent.fail("a scenario file needs 'ctc_ids = ...' and a 'unitary:' section")
    try:
        unitary = parse_unitary(unitary_text)
    except (FormatError, LayoutError, InvariantError) as exc:
        raise ConfigError(f"bad inline unitary: {exc}", path=path) from exc
    cr_ids = tuple(t.strip() for t in cr_raw.split(",") if t.strip())
    ctc_ids = tuple(t.strip() for t in ctc_raw.split(",") if t.strip())
    try:
        return CtcScenario(cr_ids, ctc_ids, unitary)
    except LayoutError as exc:
        raise ConfigError(f"inconsistent scenario: {exc}", path=path) from exc


def _resolve_scenario(ent: _Entries) -> tuple[str, CtcScenario]:
    name = ent.get_str("scenario", choices=("qubit_flip", "cr_coupled"))
    file_ref = ent.get_str("scenario_file")
    if (name is None) == (file_ref is None):
        ent.fail("exactly one of 'scenario' or 'scenario_file' is required")
    if name is not None:
        from .ctc import grandfather_scenario

        return name, grandfather_scenario(name)
    path = os.path.join(os.path.dirname(os.path.abspath(ent.path)), file_ref)
    return file_ref, load_scenario_file(path)


def load_config(path: str, kind: str, flags: dict[str, str] | None = None) -> tuple[str, dict]:
    """Load and validate a config file; the report format and the command's keyword arguments.

    Each flag ({key: text}) replaces the file entry of the same key before
    anything is read, so flag and file values pass the same checks.
    """
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}", path=path)
    flag_entries = {key: (text, None) for key, text in (flags or {}).items()}
    entries = _parse_lines(_content_lines(_read_text(path, "config")), path)
    ent = _Entries(path, {**entries, **flag_entries})
    declared = ent.get_str("experiment", choices=EXPERIMENT_KINDS, required=True)
    if declared != kind:
        ent.fail(f"config declares experiment {declared!r}, command expects {kind!r}")
    ent.reject_unknown(kind, ("experiment", "format", *_KIND_KEYS[kind]))
    fmt = ent.get_str("format", choices=FORMATS, default="json")
    if fmt == "csv" and kind != "signal":
        ent.fail("csv output is only defined for signaling sessions", "format")

    if kind == "measure":
        state = ent.get_str("state", choices=tuple(MEASURE_PRESETS), required=True)
        rounds = ent.get_int("rounds", 1, MAX_COUNT)
        seed = ent.get_int("seed", *_SEED_RANGE)
        if rounds is not None and seed is None:
            ent.fail("sampling ('rounds') requires an explicit seed", "rounds")
        if seed is not None and rounds is None:
            ent.fail("a seed without 'rounds' would sample nothing", "seed")
        return fmt, {"state": state, "rounds": rounds, "seed": seed}
    if kind == "signal":
        alice = ent.get_angle("alice_angle", required=True)
        # the audit's settings; as doubles they are distinct iff -2^53 <= alice < 2^53 - 1
        if len({alice, alice + math.pi / 4, alice + math.pi / 2}) < 3:
            ent.fail(f"alice_angle {alice!r} is too far from 0: adding pi/4 or pi/2 rounds to a "
                     "repeated setting, so the no-signaling audit would not have three distinct "
                     "settings", "alice_angle")
        bob = ent.get_angle("bob_angle", required=True)
        rounds = ent.get_int("rounds", 1, MAX_COUNT, required=True)
        seed = ent.get_int("seed", *_SEED_RANGE, required=True)
        return fmt, {"alice_angle": alice, "bob_angle": bob, "rounds": rounds, "seed": seed}
    if kind == "chsh":
        keys = ("angle_a1", "angle_a2", "angle_b1", "angle_b2")
        angles = tuple(ent.get_angle(k) for k in keys)
        resolution = ent.get_angle("grid_resolution")
        have_angles = [a is not None for a in angles]
        if resolution is not None:
            if any(have_angles):
                ent.fail("give either four angles or grid_resolution, not both")
            if resolution <= 0:
                ent.fail("grid_resolution must be positive", "grid_resolution")
            grid = 2.0 * math.pi / resolution  # a float: inf for the smallest subnormals
            if grid > MAX_COUNT:
                ent.fail(f"grid_resolution {resolution} asks for over {MAX_COUNT} angles",
                         "grid_resolution")
            if round(grid) < 4:
                ent.fail(f"grid_resolution {resolution} leaves fewer than 4 grid angles",
                         "grid_resolution")
            return fmt, {"angles": None, "grid_resolution": resolution}
        if not all(have_angles):
            ent.fail("chsh needs angle_a1..angle_b2 or grid_resolution")
        return fmt, {"angles": angles, "grid_resolution": None}
    name, scenario = _resolve_scenario(ent)
    mode = ent.get_str("mode", choices=("strict", "ray"), default="strict")
    if kind == "ctc-solve":
        method = ent.get_str("method", choices=("iterate", "spectral"), default="iterate")
        cr_state = ent.get_str("cr_state", choices=("zero", "one", "mixed"), default="zero")
        return fmt, {"scenario_name": name, "scenario": scenario, "mode": mode,
                     "method": method, "cr_state": cr_state}
    samples = ent.get_int("samples", 1, MAX_COUNT, required=True)
    seed = ent.get_int("seed", *_SEED_RANGE, required=True)
    return fmt, {"scenario_name": name, "scenario": scenario, "mode": mode,
                 "samples": samples, "seed": seed}
