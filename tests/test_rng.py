import numpy as np
from hypothesis import example, given, settings, strategies as st

from qdesk.reports import CSV_BLOCK_ROWS as BLOCK
from qdesk.rng import (GAMMA, _box_muller, _outputs, _unit, born_select, first_uniforms,
                       haar_states, stream_blocks, stream_seeds)

from oracles import (SplitMix64, haar_state, haar_unitary, inverse_cdf_select, random_density,
                     scalar_normals, splitmix64_reference)


def test_matches_reference_transition_function():
    seeds = (0, 1, 42, 0xDEADBEEF, (1 << 64) - 1)
    got = _outputs(np.array(seeds, dtype=np.uint64), 8)
    assert got.tolist() == [splitmix64_reference(seed, 8) for seed in seeds]


def test_stream_seed_equals_sequential_outputs():
    master = 123456789
    gen = SplitMix64(master)
    seq = [gen.next_u64() for _ in range(20)]
    assert stream_seeds(master, 20).tolist() == seq


EDGE_SEEDS = (-2**63, -1, 0, 2**63, 2**64 - 1)
BLOCK_EDGES = (BLOCK - 1, BLOCK, BLOCK + 1)


def _with_edge_examples(test):
    """The test, with every (edge seed, block edge) pair as an explicit example."""
    for master in EDGE_SEEDS:
        for k in BLOCK_EDGES:
            test = example(master=master, k=k, n=3)(test)
    return test


@settings(max_examples=40, deadline=None)
@given(master=st.sampled_from(EDGE_SEEDS) | st.integers(-2**63, 2**64 - 1),
       k=st.sampled_from((0, 1) + BLOCK_EDGES) | st.integers(0, 2 * BLOCK + 1),
       n=st.integers(1, 40))
@_with_edge_examples
def test_jumped_stream_seeds_continue_the_master_stream(master, k, n):
    # a session's block of rounds k .. k + n - 1 draws its seeds this way
    gen = SplitMix64(master)
    for _ in range(k):
        gen.next_u64()
    expected = [gen.next_u64() for _ in range(n)]
    assert stream_seeds((master + k * GAMMA) % 2**64, n).tolist() == expected
    assert stream_seeds(master + k * GAMMA, n).tolist() == expected


@settings(max_examples=60, deadline=None)
@given(master=st.sampled_from(EDGE_SEEDS) | st.integers(-2**63, 2**64 - 1),
       n=st.integers(1, 60), rows=st.integers(1, 70))
def test_stream_blocks_cut_the_master_stream_into_blocks(master, n, rows):
    blocks = list(stream_blocks(master, n, rows))
    assert [start for start, _, _ in blocks] == list(range(0, n, rows))
    assert [m for _, m, _ in blocks] == [min(rows, n - start) for start in range(0, n, rows)]
    gen = SplitMix64(master % 2**64)
    expected = [gen.next_u64() for _ in range(n)]
    assert [int(x) for _, m, seed in blocks for x in stream_seeds(seed, m)] == expected


def test_vectorized_streams_match_scalar():
    master = 777
    seeds = stream_seeds(master, 50)
    assert seeds.dtype == np.uint64
    assert [int(s) for s in seeds] == splitmix64_reference(master, 50)
    us = first_uniforms(seeds)
    for i in range(50):
        assert us[i] == SplitMix64(int(seeds[i])).random()


def test_uniforms_in_unit_interval():
    draws = _unit(_outputs(5, 2000))
    assert ((0.0 <= draws) & (draws < 1.0)).all()
    assert 0.4 < float(np.mean(draws)) < 0.6


def normals(seeds, n: int) -> np.ndarray:
    """The first n (even) normals of each seed's stream, a row per seed: haar_states' draw,
    each complex normal x + iy viewed as its pair x, y."""
    return _box_muller(_unit(_outputs(np.asarray(seeds, dtype=np.uint64), n))).view(np.float64)


def test_normals_deterministic_and_plausible():
    a = normals([9], 4000)[0]
    b = normals([9], 4000)[0]
    assert np.array_equal(a, b)
    assert abs(a.mean()) < 0.1
    assert abs(a.std() - 1.0) < 0.1


def bits(values) -> list[int]:
    """IEEE-754 bit patterns, so -0.0 and 0.0 (and every last ulp) differ."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@settings(max_examples=300, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8), pairs=st.integers(0, 70))
def test_normals_match_scalar_oracle_bit_for_bit(seeds, pairs):
    got = normals(seeds, 2 * pairs)
    assert got.shape == (len(seeds), 2 * pairs)
    for seed, row in zip(seeds, got):
        assert bits(row) == bits(scalar_normals(seed, None, 2 * pairs)[0])


def test_a_million_normals_match_scalar_oracle():
    # 1,000 seeds x 1,000 draws, in one array call
    seeds = splitmix64_reference(2024, 1000)
    got = normals(seeds, 1000)
    for seed, row in zip(seeds, got):
        assert bits(row) == bits(scalar_normals(seed, None, 1000)[0])
    assert got.size >= 10**6


def test_haar_state_normalized():
    for v in haar_states(np.arange(10, dtype=np.uint64), 7):
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12),
       st.sampled_from([1, 2, 3, 8, 64]))
def test_haar_states_rows_equal_haar_state_bit_for_bit(seeds, dim):
    got = haar_states(np.array(seeds, dtype=np.uint64), dim)
    want = np.array([haar_state(dim, SplitMix64(s)) for s in seeds])
    assert got.shape == (len(seeds), dim)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_haar_unitary_is_unitary_and_deterministic():
    for seed in range(5):
        u = haar_unitary(4, SplitMix64(seed))
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12
    assert np.array_equal(haar_unitary(3, SplitMix64(2)), haar_unitary(3, SplitMix64(2)))


def test_random_density_valid():
    rho = random_density(3, SplitMix64(11))
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > 0


def test_inverse_cdf_never_picks_zero_weight():
    weights = np.array([0.5, 0.0, 0.5])
    gen = SplitMix64(3)
    picks = set(born_select(weights, np.array([gen.random() for _ in range(500)])).tolist())
    assert picks == {0, 2}


def test_inverse_cdf_boundary_clamp():
    weights = np.array([1.0, 0.0])
    assert born_select(weights, np.array([0.9999999999999999]))[0] == 0


LAST_UNIFORM = 0.9999999999999999  # the largest double below 1


@given(
    weights=st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e300)),
                     min_size=1, max_size=12).filter(lambda w: any(x > 0 for x in w)),
    uniforms=st.lists(st.floats(min_value=0.0, max_value=LAST_UNIFORM), max_size=8),
)
def test_born_select_matches_scalar_oracle(weights, uniforms):
    us = np.array(uniforms + [0.0, LAST_UNIFORM])
    got = born_select(np.array(weights), us).tolist()
    assert got == [inverse_cdf_select(weights, u) for u in us.tolist()]


def test_born_select_clamps_when_rounding_reaches_the_total():
    # u * total rounds up to total for a subnormal total, so no cumulative
    # weight exceeds the target and the last positive cell is chosen
    weights = np.array([0.0, 5e-324, 0.0])
    assert float(LAST_UNIFORM * 5e-324) == 5e-324
    assert born_select(weights, np.array([LAST_UNIFORM]))[0] == 1
    assert inverse_cdf_select(weights, LAST_UNIFORM) == 1
