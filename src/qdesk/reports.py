"""Deterministic report rendering.

Identical payloads must serialize to identical bytes, so this module owns
its own JSON emitter: dict keys are written in insertion order and every
float uses the fixed ``.16e`` format (17 significant digits, exact IEEE-754
round-trip). The table renderer is for humans but equally deterministic.
The signal CSV is rendered one block of rows at a time, so the CLI writes a
session without ever holding its whole report text. A block is one byte
matrix, a row per round, of the row's variable fields only: decimal digits
come four at a time from a table of uint32 words, padding is NUL, and one
mark byte stands for the thetas, which are the same in every row. A slice at
a time, the matrix loses its NULs, has its marks replaced by the thetas and
is copied out behind the matrix, in a buffer that a session reuses. Only the
CSV renderer and complex_payload load numpy.
"""

from __future__ import annotations

import functools
import json
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:
    import numpy as np

    from .suggestion import SessionRecords

CSV_HEADER = "round,theta_a,theta_b,alice_decision,bob_outcome,seed"
CSV_BLOCK_ROWS = 2**14  # rows per render_signal_csv call


def format_float(x: float) -> str:
    return f"{x:.16e}"


def complex_payload(x) -> list:
    """x (a complex scalar, vector or matrix) as nested lists, each entry [real, imag]."""
    import numpy as np

    return np.stack((np.real(x), np.imag(x)), axis=-1).tolist()


def render_json(value: Any, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {render_json(v, indent + 1)}'
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
            return "[" + ", ".join(_render_number(v) for v in value) + "]"
        items = [f"{pad}  {render_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, float)):
        return _render_number(value)
    return json.dumps(str(value))


def _render_number(v: int | float) -> str:
    if isinstance(v, int):
        return str(v)
    return format_float(float(v))


def render_table(payload: dict, indent: int = 0) -> str:
    """Aligned ``key: value`` lines, recursing into nested structures."""
    lines: list[str] = []
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(render_table(value, indent + 1))
        elif isinstance(value, (list, tuple)):
            if value and all(isinstance(v, dict) for v in value):
                lines.append(f"{pad}{key}:")
                for i, entry in enumerate(value):
                    lines.append(f"{pad}  [{i}]")
                    lines.append(render_table(entry, indent + 2))
            else:
                lines.append(f"{pad}{key}: {_table_scalar_seq(value)}")
        else:
            lines.append(f"{pad}{key}: {_table_scalar(value)}")
    return "\n".join(lines)


def _table_scalar(v: Any) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _table_scalar_seq(seq: Sequence[Any]) -> str:
    return "[" + ", ".join(
        _table_scalar_seq(v) if isinstance(v, (list, tuple)) else _table_scalar(v)
        for v in seq
    ) + "]"


_CHUNK = 10**4  # four decimal digits per uint32 word
_DELETE_BYTES = 2**16  # matrix bytes whose NUL padding is deleted at a time
_THETAS_MARK = b"\x01"  # a row's one matrix byte for the thetas, spliced in as the row is copied


@functools.cache
def _digit_table() -> np.ndarray:
    """uint32 words of four ASCII digits, built on a CSV's first block.

    Entry c (c < 10^4) spells c with its leading zeros; entry 10^4 + c spells c
    with those zeros as NUL (10^4 + 0 keeps the final "0"); entry 2·10^4 is all NUL.
    """
    import numpy as np

    c = np.arange(_CHUNK)[:, None]
    digits = (c // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    leading = np.where(c < np.array([1000, 100, 10, 0]), 0, digits).astype(np.uint8)
    table = np.concatenate([digits, leading, np.zeros((1, 4), np.uint8)]).view(np.uint32).ravel()
    table.flags.writeable = False
    return table


def _write_decimal(values: np.ndarray, out: np.ndarray) -> None:
    """Write each value's decimal digits (uint32 or uint64), NUL-padded on the left, into its
    row of out.

    out is an (n, words) uint32 view whose bytes take the digits, four per
    word, most significant word first; values must be below 10^(4·words).
    """
    import numpy as np

    table = _digit_table()
    step = values.dtype.type(_CHUNK)
    # blank: the value has no digit in this word or above it
    q, blank = values, np.zeros(len(values), bool)
    for col in reversed(range(out.shape[1])):
        above = q // step
        index = (q - above * step).astype(np.intp)
        top = above == 0  # no digit above this word
        np.add(index, _CHUNK, out=index, where=top)
        np.add(index, _CHUNK, out=index, where=blank)
        table.take(index, out=out[:, col], mode="wrap")  # in range; "raise" buffers out
        q, blank = above, top


def render_signal_csv(records: SessionRecords, start: int, buffer: bytearray) -> str:
    """CSV lines of one block of a session, records holding rounds start, start + 1, ...;
    the header comes before round 0.

    The block's byte matrix holds a row's variable fields and a _THETAS_MARK
    where the session's constant ",theta_a,theta_b," goes. Matrix and lines
    are built in `buffer`, grown to fit and left as it is for the next block:
    a session that passes one bytearray for every block allocates that
    storage once.
    """
    import numpy as np

    from .suggestion import INFLUENCE_LABELS

    n = len(records.seeds)
    thetas = f",{format_float(records.alice_theta)},{format_float(records.bob_theta)},".encode()
    # one NUL-padded "decision,outcome," per pair, indexed decision-major
    middles = np.array([f"{d},{o},".encode() for d in INFLUENCE_LABELS for o in INFLUENCE_LABELS])
    middles = middles.view(f"V{middles.itemsize}")
    # a row: round index (words enough for the block's last), the mark, decision and
    # outcome, 20-digit seed, newline
    index_end = 4 * -(-len(str(start + n - 1)) // 4)
    seed_start = index_end + 1 + middles.itemsize
    width = seed_start + 21
    head = f"{CSV_HEADER}\n".encode() if start == 0 else b""
    size = n * width  # the matrix; the lines, under len(thetas) + width bytes a row, follow it
    buffer.extend(bytes(max(0, size + len(head) + n * (len(thetas) + width) - len(buffer))))
    rows = np.frombuffer(buffer, np.uint8, size).reshape(n, width)
    # uint32 arithmetic is the faster, and holds every index up to config.MAX_COUNT
    indices = np.arange(start, start + n, dtype=np.uint32 if start + n <= 2**32 else np.uint64)
    _write_decimal(indices, rows[:, :index_end].view(np.uint32))
    rows[:, index_end] = _THETAS_MARK[0]
    pairs = records.decisions * len(INFLUENCE_LABELS) + records.outcomes
    rows[:, index_end + 1:seed_start].view(middles.dtype)[:, 0] = middles[pairs]
    _write_decimal(records.seeds, rows[:, seed_start:-1].view(np.uint32))
    rows[:, -1] = ord("\n")
    with memoryview(buffer) as view:
        end = size + len(head)
        view[size:end] = head
        for a in range(0, size, _DELETE_BYTES):
            piece = view[a:min(a + _DELETE_BYTES, size)].tobytes().translate(None, b"\0")
            lines = piece.replace(_THETAS_MARK, thetas)
            view[end:end + len(lines)] = lines
            end += len(lines)
        return str(view[size:end], "ascii")


def render_payload(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return render_json(payload) + "\n"
    if fmt == "table":
        return render_table(payload) + "\n"
    raise ValueError(f"unsupported render format {fmt!r}")
