"""The signal CSV's byte kernel against Python's own integer and CSV formatting."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from qdesk.reports import CSV_BLOCK_ROWS as BLOCK, CSV_HEADER, _write_decimal, render_signal_csv
from qdesk.rng import GAMMA
from qdesk.suggestion import SessionRecords, session_records

from oracles import render_signal_csv as oracle_csv

UINT64_EDGES = sorted({0, 1, 9, 10, 9999, 10**4, 2**63, 2**64 - 1}
                      | {10**k + d for k in range(1, 20) for d in (-1, 0, 1)})


def decimal_rows(values, words, dtype=np.uint64):
    out = np.empty((len(values), words), np.uint32)
    _write_decimal(np.asarray(values, dtype=dtype), out)
    return [row.tobytes().translate(None, b"\0").decode("ascii") for row in out]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
@example(UINT64_EDGES)
def test_digit_kernel_spells_every_uint64(values):
    assert decimal_rows(values, 5) == [str(v) for v in values]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 10**9), min_size=1, max_size=40), st.integers(3, 5))
@example([0, 1, 9999, 10**4, 10**8 - 1, 10**8, 10**9 - 1, 10**9], 3)
def test_digit_kernel_spells_round_indices_in_any_wider_row(values, words):
    # the CSV writes round indices as uint32
    for dtype in (np.uint64, np.uint32):
        assert decimal_rows(values, words, dtype) == [str(v) for v in values]


@settings(max_examples=12, deadline=None)
@given(
    master_seed=st.one_of(st.sampled_from([-2**63, -1, 0, 2**63, 2**64 - 1]),
                          st.integers(-2**63, 2**64 - 1)),
    alice=st.one_of(st.sampled_from([0.0, -0.0, -7.5, 1e300, -1e-300]),
                    st.floats(-1e6, 1e6, allow_nan=False)),
    bob=st.one_of(st.sampled_from([-1.1, 123456.789, -2.5e250]),
                  st.floats(-1e6, 1e6, allow_nan=False)),
    rounds=st.builds(lambda k, d: max(1, k * BLOCK + d),
                     st.integers(0, 2), st.sampled_from([-1, 0, 1])),
)
def test_blocks_join_to_the_oracle_csv(master_seed, alice, bob, rounds):
    # block s .. s + m - 1 is sampled on its own, from the master seed jumped s outputs on
    text, buffer = [], bytearray()
    for start in range(0, rounds, BLOCK):
        block = session_records(min(BLOCK, rounds - start), alice, bob, master_seed + start * GAMMA)
        text.append(render_signal_csv(block, start, buffer))
    assert "".join(text) == oracle_csv(session_records(rounds, alice, bob, master_seed))


def test_small_seeds_and_every_label_pair_match_the_oracle():
    # sampled seeds are almost never short, so short ones are written in by hand
    n = len(UINT64_EDGES)
    records = SessionRecords(-0.5, 3.0, np.arange(n) // 2 % 2, np.arange(n) % 2,
                             np.array(UINT64_EDGES, dtype=np.uint64))
    assert render_signal_csv(records, 0, bytearray()) == oracle_csv(records)


def test_round_indices_up_to_the_count_cap():
    # the last three rounds of a session of 10^9: their indices have nine digits; a
    # library caller may go on past 2^32, where the indices no longer fit uint32
    records = SessionRecords(0.25, -1.0, np.ones(3, np.int64), np.zeros(3, np.int64),
                             np.full(3, 2**64 - 1, np.uint64))
    thetas = "2.5000000000000000e-01,-1.0000000000000000e+00"
    for n in (10**9, 2**32 + 1):
        assert render_signal_csv(records, n - 3, bytearray()) == "".join(
            f"{i},{thetas},down,up,{2**64 - 1}\n" for i in range(n - 3, n))
    first = render_signal_csv(records, 0, bytearray())
    assert first.startswith(f"{CSV_HEADER}\n0,{thetas},down,up,")
