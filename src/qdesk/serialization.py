"""Structured-text serialization of states, density matrices, and unitaries.

Format (UTF-8; a line ends at LF, CR LF or CR, and nowhere else: the text is split by
``config._content_lines``, the one line reader, which also drops blank and # comment lines):

    qdesk-object: state            # or: density | unitary
    layout: spin=up,down; meter=ready,saw_up,saw_down
    data:
    1.0000000000000000e+00,0.0000000000000000e+00
    ...

Vectors carry one complex entry per line; matrices carry one row per line
with entries separated by single spaces. Every complex number is written as
``re,im`` with 17 significant digits (format ``.16e``), which round-trips
IEEE-754 doubles exactly and keeps output byte-stable across runs.

A body in exactly that spelling is read by one vectorized kernel, bit-identical
to Python's ``float``; any other body, in any spelling ``float`` accepts, is
read row by row, which also names the line of a bad entry.
"""

from __future__ import annotations

import functools

import numpy as np

from .config import _content_lines
from .errors import FormatError
from .reports import format_float
from .tensor import DensityMatrix, StateVector, SubsystemLayout, UnitaryOperator, layout_of

_KINDS = ("state", "density", "unitary")


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
    parts = [f"{s.name}={','.join(s.labels)}" for s in layout.subsystems]
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


def _parse_header(text: str) -> tuple[str, SubsystemLayout, list[str], list[int]]:
    content = _content_lines(text)
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

    The reader of every body that _parse_canonical does not take: any token
    spelling Python's float accepts, each read by _parse_complex, so an error
    names the first bad token and its line.
    """
    for tokens, line_no in zip(rows, line_nos):  # the shape, before its memory is asked for
        if len(tokens) != width:
            raise FormatError(f"line {line_no}: expected {width} entries, got {len(tokens)}")
    out = np.empty((len(rows), width), dtype=np.complex128)
    for r, (tokens, line_no) in enumerate(zip(rows, line_nos)):
        out[r] = [_parse_complex(tok, line_no) for tok in tokens]
    return out


@functools.cache
def _pow10() -> np.ndarray:
    """Rows (hi, lo, hi's Dekker halves) of 10^(E-16) for E = -99 .. 99.

    hi and lo, the power and hi's remainder, are correctly rounded quotients
    of Python ints, so hi + lo is within about 2^-106 of the power.
    """
    rows = []
    for k in range(-115, 84):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den
        a, b = hi.as_integer_ratio()
        upper = hi * 134217729.0 - (hi * 134217729.0 - hi)
        rows.append((hi, (num * b - a * den) / (den * b), upper, hi - upper))
    table = np.array(rows)
    table.flags.writeable = False
    return table


def _digits8(words: np.ndarray) -> np.ndarray | None:
    """Values of little-endian uint64 words of eight ASCII digits; None if a byte is no digit."""
    high = np.uint64(0xF0F0F0F0F0F0F0F0)
    if not ((words & high | (words + np.uint64(0x0606060606060606) & high) >> np.uint64(4))
            == np.uint64(0x3333333333333333)).all():
        return None
    v = words - np.uint64(0x3030303030303030)
    for mul, shift, mask in ((10, 8, 0x00FF00FF00FF00FF), (100, 16, 0x0000FFFF0000FFFF),
                             (10000, 32, 0xFFFFFFFF)):
        v = (v * np.uint64(mul) + (v >> np.uint64(shift))) & np.uint64(mask)
    return v.astype(np.float64)


def _parse_canonical(rows: list[str], width: int) -> np.ndarray | None:
    """Complex (len(rows), width) array of a body spelled as format_complex writes it, else None.

    Each number must be -?D.DDDDDDDDDDDDDDDDe[+-]DD, with ',' inside an entry,
    ' ' between entries and width entries a row. Its value m·10^k (m < 10^17)
    is one double-double product (Dekker, without FMA), rounded once; a token
    whose rounding error lies within 2^-40 of half an ulp, or that rounds to
    a power of two, is re-read by float (Clinger 1990). The bits are float's.
    Rows go in blocks of about 2^14 numbers, so temporaries stay small; the output is made
    only for rows long enough to spell it (23 bytes a number, less a separator a row).
    """
    per_row = 2 * width
    if sum(map(len, rows)) < len(rows) * (23 * per_row - 1):
        return None
    step = max(1, 2**14 // per_row)
    seps = np.frombuffer(((b", " * width)[:-1] + b"\n") * step, np.uint8)
    out = np.empty((len(rows), per_row))
    for r0 in range(0, len(rows), step):
        data = ("\n".join(rows[r0:r0 + step]) + "\n").encode("ascii", "replace")
        b = np.frombuffer(data, np.uint8)
        e = np.flatnonzero(b == ord("e"))  # one per number
        n = min(step, len(rows) - r0) * per_row
        if len(e) != n or e[-1] + 5 != len(b):
            return None
        start = np.concatenate(([0], e[:-1] + 5))
        neg = e - 18 - start == 1  # the number has a sign byte
        if not (neg | (e - 18 == start)).all():
            return None
        minus = b[e + 1] == ord("-")  # negative exponent
        lead, ex1, ex2 = b[e - 18] - 48, b[e + 2] - 48, b[e + 3] - 48
        if not ((b[e + 4] == seps[:n]).all() and (b[e - 17] == ord(".")).all()
                and (minus | (b[e + 1] == ord("+"))).all() and (b[start[neg]] == ord("-")).all()
                and (np.maximum(np.maximum(lead, ex1), ex2) < 10).all()):
            return None
        words = np.ndarray((len(b) - 7,), "<u8", data, 0, (1,))  # a word at every byte offset
        w1, w = _digits8(words[e - 16]), _digits8(words[e - 8])
        if w1 is None or w is None:
            return None
        expo = (ex1 * 10 + ex2).astype(np.intp)
        hi, lo, hi_u, hi_l = _pow10()[np.where(minus, 99 - expo, 99 + expo)].T
        a = (lead * 1e8 + w1) * 1e8  # the first nine digits, times 10^8: exact
        m = a + w  # m + m_lo is the 17-digit integer, exactly
        m_lo = (a - (m - (m - a))) + (w - (m - a))
        m_u = m * 134217729.0 - (m * 134217729.0 - m)
        m_l = m - m_u
        p = m * hi
        low = (((m_u * hi_u - p) + m_u * hi_l + m_l * hi_u) + m_l * hi_l) + (m * lo + m_lo * hi)
        r = p + low
        t = (p - (r - (r - p))) + (low - (r - p))  # r + t = p + low, exactly
        bits = r.view(np.uint64)
        half = ((bits & np.uint64(0x7FF << 52)) - np.uint64(53 << 52)).view(np.float64)
        unsure = (half - np.abs(t) <= half * 2.0**-40) | ((bits & np.uint64(2**52 - 1)) == 0)
        np.negative(r, out=r, where=neg)
        for i in np.flatnonzero(unsure & (m != 0)):
            r[i] = float(data[start[i]:e[i] + 4])
        out[r0:r0 + n // per_row] = r.reshape(-1, per_row)
    return out.view(np.complex128)


def _parse_body(text: str, kind: str) -> tuple[SubsystemLayout, np.ndarray]:
    """Layout and complex (d, width) entries of a serialized kind; width is 1 for a state."""
    got, layout, body, line_nos = _parse_header(text)
    if got != kind:
        raise FormatError(f"expected a {kind}, got {got!r}")
    d = layout.total_dimension
    if len(body) != d:
        raise FormatError(f"expected {d} {'amplitudes' if kind == 'state' else 'matrix rows'}, "
                          f"got {len(body)}")
    width = 1 if kind == "state" else d
    parsed = _parse_canonical(body, width)
    if parsed is None:
        rows = [[ln] for ln in body] if kind == "state" else [ln.split() for ln in body]
        parsed = _parse_rows(rows, width, line_nos)
    return layout, parsed


def parse_state(text: str) -> StateVector:
    return StateVector(*_parse_body(text, "state"))


def parse_density(text: str) -> DensityMatrix:
    return DensityMatrix(*_parse_body(text, "density"))


def parse_unitary(text: str) -> UnitaryOperator:
    return UnitaryOperator(*_parse_body(text, "unitary"))
