"""Structured-text serialization of states, density matrices, and unitaries.

Format (UTF-8, line-oriented):

    qdesk-object: state            # or: density | unitary
    layout: spin=up,down; meter=ready,saw_up,saw_down
    data:
    1.0000000000000000e+00,0.0000000000000000e+00
    ...

Vectors carry one complex entry per line; matrices carry one row per line
with entries separated by single spaces. Every complex number is written as
``re,im`` with 17 significant digits (format ``.16e``), which round-trips
IEEE-754 doubles exactly and keeps output byte-stable across runs.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .errors import FormatError
from .tensor import DensityMatrix, StateVector, SubsystemLayout, UnitaryOperator, layout_of

_KINDS = ("state", "density", "unitary")


def format_float(x: float) -> str:
    return f"{x:.16e}"


def format_complex(z: complex) -> str:
    return f"{format_float(z.real)},{format_float(z.imag)}"


def _parse_complex(token: str, line_no: int) -> complex:
    parts = token.split(",")
    if len(parts) != 2:
        raise FormatError(f"line {line_no}: expected 're,im', got {token!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise FormatError(f"line {line_no}: bad number in {token!r}") from exc


def _layout_header(layout: SubsystemLayout) -> str:
    parts = [f"{s.name}={','.join(s.label_names())}" for s in layout.subsystems]
    return "; ".join(parts)


def _parse_layout(text: str) -> SubsystemLayout:
    specs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if "=" not in chunk:
            raise FormatError(f"bad layout chunk {chunk!r} (expected id=label,label,...)")
        name, labels = chunk.split("=", 1)
        specs.append((name.strip(), [lbl.strip() for lbl in labels.split(",")]))
    return layout_of(*specs)


def _serialize(kind: str, layout: SubsystemLayout, body_lines: list[str]) -> str:
    lines = [f"qdesk-object: {kind}", f"layout: {_layout_header(layout)}", "data:"]
    lines.extend(body_lines)
    return "\n".join(lines) + "\n"


def serialize_state(s: StateVector) -> str:
    return _serialize("state", s.layout, [format_complex(z) for z in s.amplitudes])


def serialize_density(rho: DensityMatrix) -> str:
    rows = [" ".join(format_complex(z) for z in row) for row in rho.matrix]
    return _serialize("density", rho.layout, rows)


def serialize_unitary(u: UnitaryOperator) -> str:
    rows = [" ".join(format_complex(z) for z in row) for row in u.matrix]
    return _serialize("unitary", u.layout, rows)


def _content_lines(lines: list[str]) -> list[tuple[int, str]]:
    """(line number, stripped line) of every line that is not blank or a # comment."""
    numbered = ((no, ln.strip()) for no, ln in enumerate(lines, start=1))
    return [(no, ln) for no, ln in numbered if ln and not ln.startswith("#")]


def _parse_header(text: str) -> tuple[str, SubsystemLayout, list[str], list[int]]:
    content = _content_lines(text.splitlines())
    if len(content) < 3:
        raise FormatError("serialized object needs at least 3 lines (kind, layout, data)")
    (no0, l0), (no1, l1), (no2, l2) = content[0], content[1], content[2]
    if not l0.startswith("qdesk-object:"):
        raise FormatError(f"line {no0}: expected 'qdesk-object: <kind>'")
    kind = l0.split(":", 1)[1].strip()
    if kind not in _KINDS:
        raise FormatError(f"line {no0}: unknown object kind {kind!r}")
    if not l1.startswith("layout:"):
        raise FormatError(f"line {no1}: expected 'layout: ...'")
    layout = _parse_layout(l1.split(":", 1)[1])
    if l2 != "data:":
        raise FormatError(f"line {no2}: expected 'data:'")
    body = content[3:]
    return kind, layout, [ln for _, ln in body], [no for no, _ in body]


def _parse_rows(rows: list[list[str]], width: int, line_nos: list[int]) -> np.ndarray:
    """Complex (len(rows), width) array from rows of 're,im' tokens; row r is on line_nos[r].

    A whole row is split at its commas and converted by Python's float at
    once; a row that fails is re-read token by token to name the bad token.
    """
    out = np.empty((len(rows), 2 * width), dtype=np.float64)
    for r, (tokens, line_no) in enumerate(zip(rows, line_nos)):
        if len(tokens) != width:
            raise FormatError(f"line {line_no}: expected {width} entries, got {len(tokens)}")
        if set(map(str.count, tokens, repeat(","))) == {1}:
            try:
                out[r] = list(map(float, ",".join(tokens).split(",")))
                continue
            except ValueError:
                pass
        for tok in tokens:  # raises on the first bad token
            _parse_complex(tok, line_no)
    return out.view(np.complex128)


def _parse_matrix(layout: SubsystemLayout, body: list[str], line_nos: list[int]) -> np.ndarray:
    d = layout.total_dimension
    if len(body) != d:
        raise FormatError(f"expected {d} matrix rows, got {len(body)}")
    return _parse_rows([row.split() for row in body], d, line_nos)


def parse_state(text: str) -> StateVector:
    kind, layout, body, line_nos = _parse_header(text)
    if kind != "state":
        raise FormatError(f"expected a state, got {kind!r}")
    d = layout.total_dimension
    if len(body) != d:
        raise FormatError(f"expected {d} amplitudes, got {len(body)}")
    return StateVector(layout, _parse_rows([[ln] for ln in body], 1, line_nos))


def parse_density(text: str) -> DensityMatrix:
    kind, layout, body, line_nos = _parse_header(text)
    if kind != "density":
        raise FormatError(f"expected a density, got {kind!r}")
    return DensityMatrix(layout, _parse_matrix(layout, body, line_nos))


def parse_unitary(text: str) -> UnitaryOperator:
    kind, layout, body, line_nos = _parse_header(text)
    if kind != "unitary":
        raise FormatError(f"expected a unitary, got {kind!r}")
    return UnitaryOperator(layout, _parse_matrix(layout, body, line_nos))
