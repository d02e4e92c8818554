import importlib.util
import math
import struct
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qdesk import (
    DensityMatrix,
    FormatError,
    InvariantError,
    StateVector,
    layout_of,
    serialize_density,
    serialize_state,
    serialize_unitary,
    parse_density,
    parse_state,
    parse_unitary,
)
from qdesk.config import load_scenario_file
from qdesk.serialization import _parse_body, _parse_canonical, _parse_header, format_float
from qdesk.tensor import UnitaryOperator

from oracles import SplitMix64, haar_state, haar_unitary, read_serialized_body


def _layout():
    return layout_of(("spin", ("up", "down")), ("meter", ("ready", "saw_up", "saw_down")))


@pytest.mark.kernel_independent
def test_state_round_trip_is_exact():
    lay = _layout()
    s = StateVector(lay, haar_state(6, SplitMix64(1)))
    back = parse_state(serialize_state(s))
    assert back.layout == lay
    assert np.array_equal(back.amplitudes, s.amplitudes)


@pytest.mark.kernel_independent
def test_density_round_trip_is_exact():
    lay = _layout()
    amps = StateVector(lay, haar_state(6, SplitMix64(2))).amplitudes
    rho = DensityMatrix(lay, np.outer(amps, amps.conj()))
    back = parse_density(serialize_density(rho))
    assert np.array_equal(back.matrix, rho.matrix)


@pytest.mark.kernel_independent
def test_unitary_round_trip_is_exact():
    lay = _layout()
    u = UnitaryOperator(lay, haar_unitary(6, SplitMix64(3)))
    back = parse_unitary(serialize_unitary(u))
    assert back.layout == lay
    assert np.array_equal(back.matrix, u.matrix)


def test_serialized_text_is_stable():
    lay = layout_of(("spin", ("up", "down")))
    s = StateVector(lay, [1.0, 1.0])
    text = serialize_state(s)
    assert text == serialize_state(StateVector(lay, [1.0, 1.0]))
    assert text.splitlines()[0] == "qdesk-object: state"
    assert text.splitlines()[1] == "layout: spin=up,down"
    assert "7.0710678118654746e-01" in text


def test_parse_rejects_wrong_kind_and_garbage():
    lay = layout_of(("spin", ("up", "down")))
    s = StateVector(lay, [1.0, 0.0])
    with pytest.raises(FormatError):
        parse_unitary(serialize_state(s))
    with pytest.raises(FormatError):
        parse_state("not a serialized object")
    with pytest.raises(FormatError):
        parse_state("qdesk-object: state\nlayout: spin=up,down\ndata:\n1.0,0.0\n")  # one short


def test_parse_reports_bad_entries_with_line_numbers():
    text = "qdesk-object: state\nlayout: spin=up,down\ndata:\n1.0,0.0\nbogus\n"
    with pytest.raises(FormatError) as err:
        parse_state(text)
    assert "line 5" in str(err.value)


def test_body_line_numbers_count_blank_and_comment_lines():
    text = "qdesk-object: state\nlayout: spin=up,down\ndata:\n# note\n1,0\n\nbogus\n"
    with pytest.raises(FormatError) as err:
        parse_state(text)
    assert str(err.value) == "line 7: expected 're,im', got 'bogus'"


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_parsed_state_whose_norm_overflows_is_rejected():
    with pytest.raises(InvariantError, match="norm overflows"):
        parse_state("qdesk-object: state\nlayout: spin=up,down\ndata:\n1e200,0\n1e200,0\n")


NON_FINITE_BODIES = {
    parse_state: "qdesk-object: state\nlayout: spin=up,down\ndata:\n1,0\nnan,0\n",
    parse_density: "qdesk-object: density\nlayout: spin=up,down\ndata:\n"
                   "0.5,0 0,nan\n0,0 0.5,0\n",
    parse_unitary: "qdesk-object: unitary\nlayout: spin=up,down\ndata:\n"
                   "1,0 0,0\n0,0 inf,0\n",
}


@pytest.mark.parametrize("parse", NON_FINITE_BODIES, ids=lambda f: f.__name__)
def test_non_finite_entries_are_rejected(parse):
    with pytest.raises(InvariantError, match="must be finite"):
        parse(NON_FINITE_BODIES[parse])


def test_parse_reports_a_bad_matrix_entry_with_its_line():
    lay = _layout()
    lines = serialize_unitary(UnitaryOperator(lay, haar_unitary(6, SplitMix64(4)))).splitlines()
    for row in range(6):
        bad = list(lines)
        tokens = bad[3 + row].split()
        tokens[row % 3] = "1.0,oops"
        bad[3 + row] = " ".join(tokens)
        with pytest.raises(FormatError) as err:
            parse_unitary("\n".join(bad) + "\n")
        assert str(err.value) == f"line {4 + row}: bad number in '1.0,oops'"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("sep", ["", "\u2028", "\u2029", "\x85", "\v", "\f", "\x1c", "\x1d", "\x1e"])
def test_body_error_counts_lines_at_newlines_only(newline, sep):
    # sep trails the kind line: it is stripped there, and no line number moves past it
    lines = serialize_unitary(UnitaryOperator(_layout(), np.eye(6))).splitlines()
    lines[0] += sep
    lines[5] = "bogus" + lines[5][lines[5].index(" "):]
    with pytest.raises(FormatError) as err:
        parse_unitary(newline.join(lines) + newline)
    assert str(err.value) == "line 6: expected 're,im', got 'bogus'"


# ---------------------------------------------------------------------------
# canonical reader against the row-by-row oracle

KINDS = ("state", "density", "unitary")


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _load_bench_inputs():
    """bench/inputs.py, which draws the benchmark's scenario files from numpy alone."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def _token17(x: Fraction, up: bool) -> str:
    """x (> 0) rounded down or up to 17 significant digits, spelled as format_float spells it."""
    e10 = math.floor(math.log10(x.numerator) - math.log10(x.denominator))
    while x >= Fraction(10) ** (e10 + 1):
        e10 += 1
    while x < Fraction(10) ** e10:
        e10 -= 1
    scaled = x * Fraction(10) ** (16 - e10)
    m = math.ceil(scaled) if up else math.floor(scaled)
    if m == 10**17:
        m, e10 = 10**16, e10 + 1
    digits = str(m)
    return f"{digits[0]}.{digits[1:]}e{e10:+03d}"


# doubles the canonical reader takes: |x| in about [1e-97, 1e98], any sign and mantissa
TWO_DIGIT = st.one_of(
    st.builds(lambda s, e, f: _from_bits(s << 63 | e << 52 | f),
              st.integers(0, 1), st.integers(700, 1348), st.integers(0, 2**52 - 1)),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0**-30, 0.1]),
    st.floats(-2.0, 2.0),
)
ANY_FINITE = st.one_of(
    TWO_DIGIT,
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(_from_bits).filter(math.isfinite),
)


def _hardest_token(k: int, b: int) -> str | None:
    """A 17-digit m·10^k in [2^b, 2^(b+1)) about as close to a midpoint of doubles as any.

    With x = m·10^k / ulp, midpoints are where x - 1/2 is an integer n. The
    lattice of (m·den, (m·num - n·den)·v), where num/den = 10^k / ulp, is
    Gauss-reduced and rounded towards (centre·den, den·v/2), v weighting
    the two coordinates so that about one lattice point falls in the box.
    """
    scale = Fraction(10) ** k * Fraction(2) ** (52 - b)
    num, den = scale.numerator, scale.denominator
    lo = max(10**16, math.ceil(Fraction(2) ** b / Fraction(10) ** k))
    hi = min(10**17, math.ceil(Fraction(2) ** (b + 1) / Fraction(10) ** k)) - 1
    if lo > hi:
        return None
    half = (hi - lo) // 2 + 1
    v = 4 * half * half
    basis = [(den, num * v), (0, den * v)]
    while True:  # Gauss reduction of a 2-D basis
        basis.sort(key=lambda w: w[0] ** 2 + w[1] ** 2)
        (a0, a1), (b0, b1) = basis
        mu = round(Fraction(a0 * b0 + a1 * b1, a0 * a0 + a1 * a1))
        if mu == 0:
            break
        basis[1] = (b0 - mu * a0, b1 - mu * a1)
    (a0, a1), (b0, b1) = basis
    t0, t1 = (lo + half) * den, den * v // 2
    det = a0 * b1 - a1 * b0
    c, d = round(Fraction(t0 * b1 - t1 * b0, det)), round(Fraction(a0 * t1 - a1 * t0, det))
    best = None
    for i in range(c - 2, c + 3):
        for j in range(d - 2, d + 3):
            m, rest = divmod(i * a0 + j * b0, den)
            if rest == 0 and lo <= m <= hi:
                x = m * scale
                gap = abs(x - math.floor(x) - Fraction(1, 2))
                if best is None or gap < best[0]:
                    best = (gap, m)
    if best is None:
        return None
    digits = str(best[1])
    return f"{digits[0]}.{digits[1:]}e{k + 16:+03d}"


@st.composite
def _midpoint_tokens(draw) -> str:
    """A 17-digit token at, or next to, the midpoint of two adjacent doubles."""
    which = draw(st.sampled_from(["exact", "rounded", "hardest", "hardest"]))
    if which == "exact":
        # j * 2**q, j odd with 54 bits: the midpoints that 17 digits spell exactly,
        # such as 9.0071992547409930e+15 = 2**53 + 1
        q = draw(st.integers(-1, 3))
        j = 2 * draw(st.integers(2**52, 2**53 - 1)) + 1
        mid = Fraction(j) * Fraction(2) ** q
        assume(mid < 10**17)
        token = _token17(mid, draw(st.booleans()))
    elif which == "rounded":
        x = abs(draw(TWO_DIGIT))
        assume(x > 0)
        mid = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
        token = _token17(mid, draw(st.booleans()))
    else:
        k = draw(st.integers(-115, 83))
        token = _hardest_token(k, math.floor((k + 16) * math.log2(10)) + draw(st.integers(0, 3)))
        assume(token is not None)
    return "-" + token if draw(st.booleans()) else token


OTHER_SPELLINGS = ["1e-3", "+0.5", "1E+00", ".5", "1_0", "inf", "nan", "-inf", "1.0,2.0",
                   "0x1p3", "1.0e+100", "bogus"]


# a header line's index and the spellings that replace it; None drops the line
HEADER_FAULTS = {
    "unknown_kind": (0, ["qdesk-object: vector", "qdesk-object:", "qdesk-object: State",
                         "qdesk-object: state unitary", "qdesk-kind: state"]),
    "no_layout": (1, [None, "layouts: s0=l0", "Layout: s0=l0", "s0=l0"]),
    "bad_layout": (1, ["layout: s0", "layout: s0=l0;", "layout:", "layout: =l0; s1"]),
    "no_data": (2, [None, "data", "data: 1", "Data:", "1,0"]),
}


@st.composite
def _serialized_cases(draw) -> tuple[str, str]:
    """(text, kind): a serialized object whose body is canonical, wide, midpoint or mutated,
    under a header that is sound or has one fault."""
    kind = draw(st.sampled_from(KINDS))
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    layout = "; ".join(f"s{i}=" + ",".join(f"l{k}" for k in range(d)) for i, d in enumerate(dims))
    d = math.prod(dims)
    width = 1 if kind == "state" else d
    body = draw(st.sampled_from(["canonical", "wide", "midpoint", "mutated"]))
    if body == "midpoint":
        token = _midpoint_tokens()
    else:
        token = (ANY_FINITE if body == "wide" else TWO_DIGIT).map(format_float)
    grid = draw(st.lists(st.lists(st.tuples(token, token), min_size=width, max_size=width),
                         min_size=d, max_size=d))
    sep, newline = " ", "\n"
    if body == "mutated":
        for _ in range(draw(st.integers(1, 3))):
            r = draw(st.integers(0, d - 1))
            c, part = draw(st.integers(0, len(grid[r]) - 1)), draw(st.integers(0, 1))
            how = draw(st.sampled_from(["token", "sep", "drop", "extra", "newline"]))
            if how == "token":
                entry = list(grid[r][c])
                entry[part] = draw(st.sampled_from(OTHER_SPELLINGS))
                grid[r][c] = tuple(entry)
            elif how == "sep":
                sep = draw(st.sampled_from(["\t", "  ", " \t"]))
            elif how == "drop" and len(grid[r]) > 1:
                del grid[r][c]
            elif how == "extra":
                grid[r].insert(c, grid[r][c])
            elif how == "newline":
                newline = "\r\n"
    lines = [sep.join(f"{re},{im}" for re, im in row) for row in grid]
    if body == "mutated":
        for _ in range(draw(st.integers(0, 2))):
            at = draw(st.integers(0, len(lines)))
            lines.insert(at, draw(st.sampled_from(["# note", "", "   "])))
        if draw(st.booleans()):
            r = draw(st.integers(0, len(lines) - 1))
            lines[r] += " "
        if kind == "state" and sep != " ":  # a state line has no entry separator: put it in the entry
            lines = [ln.replace(",", "," + sep, 1) for ln in lines]
    head = [f"qdesk-object: {kind}", f"layout: {layout}", "data:"]
    fault = draw(st.sampled_from([None] * 5 + ["short", "other_kind", *HEADER_FAULTS]))
    if fault == "short":
        head, lines = head[:draw(st.integers(0, 2))], []
    elif fault == "other_kind":
        head[0] = "qdesk-object: " + draw(st.sampled_from([k for k in KINDS if k != kind]))
    elif fault is not None:
        at, spellings = HEADER_FAULTS[fault]
        spelling = draw(st.sampled_from(spellings))
        head[at:at + 1] = [] if spelling is None else [spelling]
    return newline.join(head + lines) + newline, kind


def _outcome(read, text: str, kind: str):
    try:
        layout, entries = read(text, kind)
    except FormatError as exc:
        return "error", str(exc)
    return "ok", layout, entries.shape, entries.view(np.uint64).tobytes()


ZERO = f"{0.0:.16e}"


@pytest.mark.kernel_independent
@settings(max_examples=400, deadline=None)
@given(_serialized_cases())
# a bad token on line 4 comes before the short row on line 5
@example((f"qdesk-object: density\nlayout: s0=l0,l1\ndata:\n1.0,2.0,{ZERO} {ZERO},{ZERO}\n"
          f"{ZERO},{ZERO}\n", "density"))
def test_body_reading_matches_the_row_by_row_oracle(case):
    text, kind = case
    assert _outcome(_parse_body, text, kind) == _outcome(read_serialized_body, text, kind)


@pytest.mark.kernel_independent
@pytest.mark.parametrize("token", ["9.0071992547409930e+15", "9.0071992547409950e+15",
                                   "4.5035996273704965e+15", "1.8014398509481986e+16",
                                   "-9.0071992547409930e+15", "1.0000000000000000e-99",
                                   "9.9999999999999999e+99", "-0.0000000000000000e+00"])
def test_canonical_reader_rounds_midpoints_and_extremes_as_float_does(token):
    entries = _parse_canonical([f"{token},{token}"], 1)
    assert entries is not None
    assert entries.view(np.uint64).tolist() == [[_bits(float(token))] * 2]


@pytest.mark.kernel_independent
def test_canonical_reader_rounds_the_hardest_tokens_as_float_does():
    # every two-digit exponent, each binade its 17-digit mantissas reach: the token nearest a
    # midpoint, where the double-double product needs its float fallback
    tokens = [_hardest_token(k, math.floor((k + 16) * math.log2(10)) + step)
              for k in range(-115, 84) for step in range(4)]
    tokens = [t for t in tokens if t is not None]
    assert len(tokens) > 700
    entries = _parse_canonical([f"{t},-{t}" for t in tokens], 1)
    assert entries is not None
    expected = [[_bits(float(t)), _bits(-float(t))] for t in tokens]
    assert entries.view(np.uint64).reshape(-1, 2).tolist() == expected


def test_canonical_reader_declines_every_other_spelling():
    canonical = "1.0000000000000000e+00,-2.5000000000000000e-01"
    assert _parse_canonical([canonical], 1) is not None
    wrong_byte = [canonical[:i] + c + canonical[i + 1:] for i in (0, 3, 12, 21) for c in "/:x "]
    for bad in ["1e+00,0.0000000000000000e+00", canonical + " ", canonical.replace("e+00", "e+000"),
                canonical.replace("1.0", "+1.0"), canonical.replace("e", "E"),
                canonical.replace(",", ", "), canonical.replace("-", "−"), "1e0,0", *wrong_byte]:
        assert _parse_canonical([bad], 1) is None, bad


def test_generated_loop_scenarios_parse_bit_for_bit(tmp_path):
    inputs = _load_bench_inputs()
    for seed in (0, 5):
        work = tmp_path / str(seed)
        work.mkdir()
        inputs.generate("loop_solvers", seed, str(work))
        scenarios = sorted(work.glob("*.scenario"))
        assert len(scenarios) == 3
        for path in scenarios:
            parsed = load_scenario_file(str(path)).loop_unitary.matrix
            text = path.read_text(encoding="utf-8")
            text = text[text.index("qdesk-object:"):]
            body = [line for _, line in _parse_header(text)[2]]
            assert _parse_canonical(body, len(body)) is not None, path.name  # the kernel reads it
            _, expected = read_serialized_body(text, "unitary")
            assert parsed.view(np.uint64).tobytes() == expected.view(np.uint64).tobytes(), path.name
