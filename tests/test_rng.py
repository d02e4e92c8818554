import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdesk.rng import SplitMix64, born_select, first_uniforms, haar_states, stream_seeds

from oracles import (haar_state, haar_unitary, inverse_cdf_select, random_density,
                     scalar_normals, splitmix64_reference)


def test_matches_reference_transition_function():
    for seed in (0, 1, 42, 0xDEADBEEF, (1 << 64) - 1):
        gen = SplitMix64(seed)
        got = [gen.next_u64() for _ in range(8)]
        assert got == splitmix64_reference(seed, 8)


def test_stream_seed_equals_sequential_outputs():
    master = 123456789
    gen = SplitMix64(master)
    seq = [gen.next_u64() for _ in range(20)]
    assert stream_seeds(master, 20).tolist() == seq


def test_vectorized_streams_match_scalar():
    master = 777
    seeds = stream_seeds(master, 50)
    assert seeds.dtype == np.uint64
    assert [int(s) for s in seeds] == splitmix64_reference(master, 50)
    us = first_uniforms(seeds)
    for i in range(50):
        assert us[i] == SplitMix64(int(seeds[i])).random()


def test_uniforms_in_unit_interval():
    gen = SplitMix64(5)
    draws = [gen.random() for _ in range(2000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert 0.4 < float(np.mean(draws)) < 0.6


def test_normals_deterministic_and_plausible():
    a = SplitMix64(9).normals(4000)
    b = SplitMix64(9).normals(4000)
    assert np.array_equal(a, b)
    assert abs(a.mean()) < 0.1
    assert abs(a.std() - 1.0) < 0.1


def bits(values) -> list[int]:
    """IEEE-754 bit patterns, so -0.0 and 0.0 (and every last ulp) differ."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def assert_same_generator(gen: SplitMix64, state: int, spare: float | None) -> None:
    assert gen._state == state
    assert (gen._spare_normal is None) == (spare is None)
    if spare is not None:
        assert bits([gen._spare_normal]) == bits([spare])


CALLS = st.one_of(st.tuples(st.just("normals"), st.integers(0, 70)),
                  st.just(("random", 0)), st.just(("next_u64", 0)))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), calls=st.lists(CALLS, max_size=12))
def test_normals_match_scalar_oracle_bit_for_bit(seed, calls):
    gen = SplitMix64(seed)
    state, spare = seed, None
    for name, n in calls:
        if name in ("random", "next_u64"):
            (raw,) = splitmix64_reference(state, 1)
            state = (state + 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
            got = getattr(gen, name)()
            assert got == (raw if name == "next_u64" else (raw >> 11) * 2.0**-53)
            continue
        want, state, spare = scalar_normals(state, spare, n)
        got = gen.normals(n)
        assert bits(got) == bits(want)
        assert_same_generator(gen, state, spare)
    assert_same_generator(gen, state, spare)


def test_a_million_normals_match_scalar_oracle():
    # 1,000 seeds x 1,000 draws; odd and even call sizes move the spare around
    sizes = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 391)
    assert sum(sizes) + 1 == 1000
    drawn = 0
    for seed in splitmix64_reference(2024, 1000):
        gen = SplitMix64(seed)
        got = [x for n in (1,) + sizes for x in gen.normals(n).tolist()]
        want, state, spare = scalar_normals(seed, None, 1000)
        assert bits(got) == bits(want)
        assert_same_generator(gen, state, spare)
        drawn += len(got)
    assert drawn >= 10**6


def test_negative_normals_count_is_an_error():
    gen = SplitMix64(1)
    with pytest.raises(ValueError, match="nonnegative"):
        gen.normals(-1)


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
