import numpy as np
import pytest

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
from qdesk.rng import SplitMix64, haar_state, haar_unitary
from qdesk.tensor import UnitaryOperator


def _layout():
    return layout_of(("spin", ("up", "down")), ("meter", ("ready", "saw_up", "saw_down")))


def test_state_round_trip_is_exact():
    lay = _layout()
    s = StateVector(lay, haar_state(6, SplitMix64(1)))
    back = parse_state(serialize_state(s))
    assert back.layout == lay
    assert np.array_equal(back.amplitudes, s.amplitudes)


def test_density_round_trip_is_exact():
    lay = _layout()
    amps = StateVector(lay, haar_state(6, SplitMix64(2))).amplitudes
    rho = DensityMatrix(lay, np.outer(amps, amps.conj()))
    back = parse_density(serialize_density(rho))
    assert np.array_equal(back.matrix, rho.matrix)


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
