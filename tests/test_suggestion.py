import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdesk import (
    Direction,
    DecisionScheme,
    SchemeError,
    StateVector,
    apply_unitary,
    build_suggestion_unitary,
    chsh_grid_search,
    chsh_value,
    correlator,
    embed_operator,
    joint_distribution,
    layout_of,
    no_signaling_audit,
    reduced_state,
    run_session,
    sample_rounds,
    session_records,
    tally_from_records,
    TSIRELSON_BOUND,
)
from qdesk.rng import SplitMix64, haar_state, stream_seed
from qdesk.suggestion import (
    AGENT,
    AGENT_LABELS,
    DISTANT,
    INFLUENCE_LABELS,
    PARTICLE,
    PREPARED,
    PREPARED_LABELS,
    bell_pair_state,
    signaling_layout,
)

from qdesk import InvariantError, suggestion
from qdesk.suggestion import signaling_weights

from oracles import (
    correlator_oracle,
    direction_down,
    direction_up,
    grid_scan_reference,
    joint_probabilities,
    single_round_weights,
)

SQ2 = np.sqrt(2.0)


def decision_lay():
    return layout_of(
        (PARTICLE, ("up", "down")), (AGENT, AGENT_LABELS), (PREPARED, PREPARED_LABELS)
    )


def scheme(theta):
    return DecisionScheme(PARTICLE, AGENT, PREPARED, Direction(theta))


def undecided_input(lay, particle_amps):
    amps = np.zeros(lay.total_dimension, dtype=complex)
    amps.reshape(2, 3, 3)[:, 0, 0] = np.asarray(particle_amps, dtype=complex)
    return StateVector(lay, amps)


def expect_basis(lay, assignment):
    return lay.basis_index(assignment)


def replay_round(alice_dir, bob_dir, seed):
    return sample_rounds(alice_dir, bob_dir, np.array([seed], dtype=np.uint64))


def round_row(records, i):
    """Round i as (alice_theta, bob_theta, alice_decision, bob_outcome, seed)."""
    return (records.alice_theta, records.bob_theta,
            INFLUENCE_LABELS[records.decisions[i]], INFLUENCE_LABELS[records.outcomes[i]],
            int(records.seeds[i]))


# ---------------------------------------------------------------------------
# directions


def test_direction_pair_is_orthonormal():
    for theta in (0.0, 0.1, math.pi / 3, math.pi, 5.0, -2.7):
        d = Direction(theta)
        up, down = d.up_state(), d.down_state()
        assert abs(np.vdot(up, up) - 1) < 1e-12
        assert abs(np.vdot(down, down) - 1) < 1e-12
        assert abs(np.vdot(up, down)) < 1e-12


def test_direction_rejects_non_finite():
    with pytest.raises(ValueError):
        Direction(float("nan"))


# ---------------------------------------------------------------------------
# steering unitary


def test_aligned_influence_steers_the_decision():
    lay = decision_lay()
    u = embed_operator(build_suggestion_unitary(scheme(0.0), lay), lay)
    out = apply_unitary(u, undecided_input(lay, [1, 0]))
    dst = expect_basis(lay, {PARTICLE: "up", AGENT: "decides_up", PREPARED: "psi_up"})
    assert abs(out.amplitudes[dst] - 1.0) < 1e-12
    out = apply_unitary(u, undecided_input(lay, [0, 1]))
    dst = expect_basis(lay, {PARTICLE: "down", AGENT: "decides_down", PREPARED: "psi_down"})
    assert abs(out.amplitudes[dst] - 1.0) < 1e-12


def test_rotated_influence_matches_explicit_matrix_application():
    # at theta = pi/2 the primed up state is (|up>+|down>)/sqrt2
    lay = decision_lay()
    dim = lay.total_dimension
    theta = math.pi / 2
    u = embed_operator(build_suggestion_unitary(scheme(theta), lay), lay).matrix

    src = np.zeros(dim, dtype=complex)
    src.reshape(2, 3, 3)[:, 0, 0] = 1 / SQ2
    out = np.zeros(dim, dtype=complex)  # explicit row-by-row application
    for r in range(dim):
        acc = 0.0 + 0.0j
        for c in range(dim):
            acc += u[r, c] * src[c]
        out[r] = acc

    expected = np.zeros(dim, dtype=complex)
    expected.reshape(2, 3, 3)[:, 1, 1] = 1 / SQ2  # decides_up, psi_up
    assert np.abs(out - expected).max() < 1e-12


def test_unitary_matches_sector_oracle_for_random_angles():
    # independent scalar construction: project onto each primed sector and
    # permute (agent, prepared) per the documented completion
    lay = decision_lay()
    perm_up = [4, 0, 1, 2, 3, 5, 6, 7, 8]
    perm_down = [8, 0, 1, 2, 3, 4, 5, 6, 7]
    rng = SplitMix64(4)
    for _ in range(10):
        theta = (rng.random() - 0.5) * 4 * math.pi
        up, down = direction_up(theta), direction_down(theta)
        oracle = np.zeros((18, 18), dtype=complex)
        for i in range(2):
            for j in range(2):
                for src9 in range(9):
                    oracle[i * 9 + perm_up[src9], j * 9 + src9] += up[i] * np.conj(up[j])
                    oracle[i * 9 + perm_down[src9], j * 9 + src9] += down[i] * np.conj(down[j])
        built = embed_operator(build_suggestion_unitary(scheme(theta), lay), lay).matrix
        assert np.abs(built - oracle).max() < 1e-12


def test_full_turn_leaves_decision_probabilities_unchanged():
    for theta in (0.0, 0.7, 2.0):
        p0 = joint_distribution(Direction(theta), Direction(0.3))
        p1 = joint_distribution(Direction(theta + 2 * math.pi), Direction(0.3))
        for key in p0:
            assert abs(p0[key] - p1[key]) < 1e-12


def test_steering_is_local_distant_state_untouched():
    lay = signaling_layout()
    rng = SplitMix64(6)
    for _ in range(10):
        theta = (rng.random() - 0.5) * 4 * math.pi
        amps = np.zeros(lay.total_dimension, dtype=complex)
        amps.reshape(2, 2, 3, 3, 3)[:, :, 0, 0, 0] = haar_state(4, rng).reshape(2, 2)
        s = StateVector(lay, amps)
        u = embed_operator(
            build_suggestion_unitary(DecisionScheme(PARTICLE, AGENT, PREPARED, Direction(theta)), lay),
            lay,
        )
        before = reduced_state(s, [DISTANT]).matrix
        after = reduced_state(apply_unitary(u, s), [DISTANT]).matrix
        assert np.abs(before - after).max() < 1e-10


# ---------------------------------------------------------------------------
# signaling rounds and correlators


def test_aligned_round_never_agrees():
    zero = Direction(0.0)
    for seed in range(200):
        _, _, alice_decision, bob_outcome, _ = round_row(replay_round(zero, zero, seed), 0)
        assert (alice_decision, bob_outcome) in {("up", "down"), ("down", "up")}


def test_aligned_round_outcomes_are_balanced():
    p = joint_distribution(Direction(0.0), Direction(0.0))
    assert abs(p[("up", "down")] - 0.5) < 1e-12
    assert abs(p[("down", "up")] - 0.5) < 1e-12
    assert p[("up", "up")] < 1e-12 and p[("down", "down")] < 1e-12


def test_joint_distribution_matches_projector_oracle():
    rng = SplitMix64(12)
    for _ in range(50):
        a = (rng.random() - 0.5) * 4 * math.pi
        b = (rng.random() - 0.5) * 4 * math.pi
        got = joint_distribution(Direction(a), Direction(b))
        expected = joint_probabilities(a, b)
        for key in expected:
            assert abs(got[key] - expected[key]) < 1e-10


angles = st.floats(-4 * math.pi, 4 * math.pi, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(a=angles, b=angles, seed=st.integers(0, 2**64 - 1))
def test_joint_distribution_of_a_random_pair_matches_projector_oracle(a, b, seed):
    pair = haar_state(4, SplitMix64(seed))
    lay = layout_of((PARTICLE, INFLUENCE_LABELS), (DISTANT, INFLUENCE_LABELS))
    got = joint_distribution(Direction(a), Direction(b), StateVector(lay, pair))
    expected = joint_probabilities(a, b, pair)
    for key in expected:
        assert abs(got[key] - expected[key]) < 1e-12


@pytest.mark.parametrize("pair_layout", [
    layout_of((PARTICLE, ("x", "y")), (DISTANT, ("p", "q"))),  # other labels
    layout_of((PARTICLE, AGENT_LABELS), (DISTANT, INFLUENCE_LABELS)),  # qutrit particle
    layout_of((DISTANT, INFLUENCE_LABELS), (PARTICLE, INFLUENCE_LABELS)),  # swapped
])
def test_pair_state_on_another_layout_is_rejected(pair_layout):
    pair = StateVector(pair_layout, np.ones(pair_layout.total_dimension))
    with pytest.raises(SchemeError):
        joint_distribution(Direction(0.3), Direction(0.1), pair)


def test_two_branches_with_the_forced_pairings():
    # global state after steering the Bell pair, before the distant readout
    lay = layout_of((PARTICLE, ("up", "down")), (DISTANT, ("up", "down")),
                    (AGENT, AGENT_LABELS), (PREPARED, PREPARED_LABELS))
    from qdesk import branch_decomposition

    def evolved(theta):
        amps = np.zeros(lay.total_dimension, dtype=complex)
        amps.reshape(2, 2, 3, 3)[0, 1, 0, 0] = 1.0
        amps.reshape(2, 2, 3, 3)[1, 0, 0, 0] = 1.0
        s = StateVector(lay, amps)
        u = embed_operator(build_suggestion_unitary(
            DecisionScheme(PARTICLE, AGENT, PREPARED, Direction(theta)), lay), lay)
        return apply_unitary(u, s)

    # aligned steering: decisions pair with the opposite distant spin
    branches = {b.pointer_label: b for b in branch_decomposition(evolved(0.0), AGENT)}
    assert set(branches) == {"decides_up", "decides_down"}
    cond = branches["decides_up"].conditional_state
    assert abs(cond.amplitudes[cond.layout.basis_index(
        {PARTICLE: "up", DISTANT: "down", PREPARED: "psi_up"})] - 1.0) < 1e-10
    cond = branches["decides_down"].conditional_state
    assert abs(cond.amplitudes[cond.layout.basis_index(
        {PARTICLE: "down", DISTANT: "up", PREPARED: "psi_down"})] - 1.0) < 1e-10

    # rotated steering: still exactly two branches; the conditionals follow
    # the projected pair state, not the aligned pairing
    theta = math.pi / 2
    branches = {b.pointer_label: b for b in branch_decomposition(evolved(theta), AGENT)}
    assert set(branches) == {"decides_up", "decides_down"}
    pair = np.zeros(4, dtype=complex)
    pair[1] = pair[2] = 1 / SQ2
    for label, vec, prep in (("decides_up", direction_up(theta), "psi_up"),
                             ("decides_down", direction_down(theta), "psi_down")):
        chi = np.kron(vec.conj(), np.eye(2)) @ pair.reshape(2, 2).reshape(4)
        chi = chi / np.linalg.norm(chi)
        cond = branches[label].conditional_state
        expected = np.zeros(cond.layout.total_dimension, dtype=complex)
        t = expected.reshape(2, 2, 3)
        prep_idx = PREPARED_LABELS.index(prep)
        t[:, :, prep_idx] = np.outer(vec, chi)
        fidelity = abs(np.vdot(expected / np.linalg.norm(expected), cond.amplitudes))
        assert fidelity > 1.0 - 1e-10
        assert abs(branches[label].weight - 0.5) < 1e-10


def test_correlator_values_confirmed_by_oracle():
    assert abs(correlator(Direction(0.0), Direction(0.0)) + 1.0) < 1e-12
    for a in (0.0, math.pi / 6, math.pi / 3):
        got = correlator(Direction(a), Direction(a))
        assert abs(got - correlator_oracle(a, a)) < 1e-10
    rng = SplitMix64(3)
    for _ in range(50):
        a = (rng.random() - 0.5) * 4 * math.pi
        b = (rng.random() - 0.5) * 4 * math.pi
        assert abs(correlator(Direction(a), Direction(b)) - correlator_oracle(a, b)) < 1e-10


def test_equal_angle_anticorrelation_holds_only_at_zero():
    # the pair state is not rotation invariant: perfect anticorrelation at
    # equal settings is special to angle zero (mod 2*pi)
    assert abs(correlator(Direction(0.0), Direction(0.0)) + 1.0) < 1e-12
    assert abs(correlator(Direction(math.pi / 3), Direction(math.pi / 3)) - 0.5) < 1e-10


# ---------------------------------------------------------------------------
# sessions


def test_session_records_match_individual_rounds():
    a, b = Direction(0.4), Direction(-1.1)
    master = 2024
    records = session_records(200, a, b, master)
    for i in range(200):
        rec = round_row(records, i)
        solo = round_row(replay_round(a, b, stream_seed(master, i)), 0)
        assert rec == solo


def test_aligned_session_has_no_agreeing_counts():
    tally = run_session(1000, Direction(0.0), Direction(0.0), master_seed=5)
    assert tally.n_uu == 0 and tally.n_dd == 0
    assert tally.n_total == 1000
    assert tally.correlator == -1.0


def test_single_round_session():
    tally = run_session(1, Direction(0.2), Direction(0.9), master_seed=8)
    assert tally.n_total == 1
    assert sorted([tally.n_uu, tally.n_ud, tally.n_du, tally.n_dd]) == [0, 0, 0, 1]


def test_tally_is_order_independent():
    records = session_records(500, Direction(1.0), Direction(0.2), 77)
    reversed_records = replace(records, decisions=records.decisions[::-1],
                               outcomes=records.outcomes[::-1], seeds=records.seeds[::-1])
    assert tally_from_records(records) == tally_from_records(reversed_records)


def test_session_estimate_within_binomial_bounds():
    rng = SplitMix64(15)
    n = 100_000
    for _ in range(5):
        a = (rng.random() - 0.5) * 2 * math.pi
        b = (rng.random() - 0.5) * 2 * math.pi
        exact = correlator(Direction(a), Direction(b))
        tally = run_session(n, Direction(a), Direction(b), master_seed=rng.next_u64())
        sigma = math.sqrt(max(1e-12, (1.0 - exact**2)) / n)
        assert abs(tally.correlator - exact) <= 4 * sigma + 1e-9


# ---------------------------------------------------------------------------
# CHSH


def test_degenerate_chsh_reduces_to_twice_the_correlator():
    zero = Direction(0.0)
    s = chsh_value(zero, zero, zero, zero)
    assert abs(s + 2.0) < 1e-10  # 2 * E(0,0)
    rng = SplitMix64(18)
    for _ in range(5):
        d = Direction((rng.random() - 0.5) * 4 * math.pi)
        s = chsh_value(d, d, d, d)
        assert abs(s - 2.0 * correlator_oracle(d.theta, d.theta)) < 1e-10


def test_grid_search_equals_brute_force_enumeration():
    res = chsh_grid_search(math.pi / 12)
    n, step = res.grid_size, res.resolution
    table = np.array([[correlator_oracle(i * step, j * step) for j in range(n)]
                      for i in range(n)])
    s4 = (table[:, None, :, None] + table[:, None, None, :]
          + table[None, :, :, None] - table[None, :, None, :])
    assert abs(res.abs_value - np.abs(s4).max()) < 1e-9


def test_quantum_bound_is_respected_everywhere():
    res = chsh_grid_search(math.pi / 24)
    assert res.abs_value <= TSIRELSON_BOUND + 1e-9
    rng = SplitMix64(29)
    for _ in range(20):
        dirs = [Direction((rng.random() - 0.5) * 4 * math.pi) for _ in range(4)]
        assert abs(chsh_value(*dirs)) <= TSIRELSON_BOUND + 1e-9


def test_some_grid_angles_violate_the_classical_bound():
    res = chsh_grid_search(math.pi / 24)
    assert res.abs_value > 2.0


# ---------------------------------------------------------------------------
# no-signaling


def test_bob_marginals_ignore_alice_setting():
    audit = no_signaling_audit(
        [Direction(0.0), Direction(math.pi / 4), Direction(math.pi / 2)], Direction(0.0)
    )
    for p_up, p_down in audit.marginals:
        assert abs(p_up - 0.5) < 1e-10
        assert abs(p_down - 0.5) < 1e-10
    assert audit.max_tv_distance <= 1e-10


def test_audit_on_product_pair_is_degenerate_but_setting_independent():
    lay = layout_of((PARTICLE, ("up", "down")), (DISTANT, ("up", "down")))
    product = lay.basis_state({PARTICLE: "up", DISTANT: "down"})
    audit = no_signaling_audit(
        [Direction(0.0), Direction(1.0)], Direction(0.0), pair_state=product
    )
    for p_up, p_down in audit.marginals:
        assert abs(p_up) < 1e-12
        assert abs(p_down - 1.0) < 1e-12
    assert audit.max_tv_distance <= 1e-10


def test_audit_requires_two_distinct_settings():
    with pytest.raises(ValueError):
        no_signaling_audit([Direction(0.0), Direction(0.0)], Direction(0.0))


def test_bell_pair_state_is_the_balanced_updown_superposition():
    s = bell_pair_state()
    assert abs(s.amplitudes[1] - 1 / SQ2) < 1e-12
    assert abs(s.amplitudes[2] - 1 / SQ2) < 1e-12
    assert abs(s.amplitudes[0]) == 0.0 and abs(s.amplitudes[3]) == 0.0


# ---------------------------------------------------------------------------
# batched kernel


def _single_round_weights(alice, bob, pair=None):
    return np.array([single_round_weights(a, b, pair)
                     for a, b in zip(alice, bob)]).reshape(-1, 3, 3)


def _same_bits(x, y):
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


EDGE_ANGLES = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi, 7.0, -7.0,
               1e-300, -5e-324, 0.3, -2.9]
finite = st.floats(allow_nan=False, allow_infinity=False)  # every angle a config accepts


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(st.floats(-7.0, 7.0), st.floats(-7.0, 7.0)), max_size=70))
def test_batched_weights_equal_the_single_round_bit_for_bit(pairs):
    alice = [a for a, _ in pairs]
    bob = [b for _, b in pairs]
    assert _same_bits(signaling_weights(alice, bob), _single_round_weights(alice, bob))


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(finite | st.sampled_from(EDGE_ANGLES),
                                finite | st.sampled_from(EDGE_ANGLES)), max_size=70))
def test_batched_weights_equal_the_single_round_over_the_finite_range(pairs):
    alice = [a for a, _ in pairs]
    bob = [b for _, b in pairs]
    assert _same_bits(signaling_weights(alice, bob), _single_round_weights(alice, bob))


def _oracle_correlator(a, b):
    w = single_round_weights(a, b)
    return (float(w[1, 1]) + float(w[2, 2])) - (float(w[1, 2]) + float(w[2, 1]))


@settings(max_examples=100, deadline=None)
@given(a1=finite, a2=finite, b1=st.sampled_from(EDGE_ANGLES) | finite, b2=finite)
def test_single_pair_quantities_equal_the_single_round_bit_for_bit(a1, a2, b1, b2):
    w = single_round_weights(a1, b1)
    p = joint_distribution(Direction(a1), Direction(b1))
    assert _same_bits([p[(x, y)] for x in INFLUENCE_LABELS for y in INFLUENCE_LABELS],
                      [w[1, 1], w[1, 2], w[2, 1], w[2, 2]])
    assert _same_bits(correlator(Direction(a1), Direction(b1)), _oracle_correlator(a1, b1))
    s = (_oracle_correlator(a1, b1) + _oracle_correlator(a1, b2)
         + _oracle_correlator(a2, b1) - _oracle_correlator(a2, b2))
    assert _same_bits(chsh_value(*(Direction(t) for t in (a1, a2, b1, b2))), s)


def test_batched_weights_equal_the_single_round_on_edge_angles():
    alice = [a for a in EDGE_ANGLES for _ in EDGE_ANGLES]
    bob = [b for _ in EDGE_ANGLES for b in EDGE_ANGLES]
    assert _same_bits(signaling_weights(alice, bob), _single_round_weights(alice, bob))


@pytest.mark.parametrize("k", [0, 1, suggestion._BLOCK - 1, suggestion._BLOCK,
                               suggestion._BLOCK + 1, 4 * suggestion._BLOCK + 1])
def test_batched_weights_at_block_boundaries(k):
    rng = np.random.default_rng(k)
    alice, bob = rng.uniform(-7, 7, k).tolist(), rng.uniform(-7, 7, k).tolist()
    assert _same_bits(signaling_weights(alice, bob), _single_round_weights(alice, bob))


def test_batched_weights_on_a_custom_pair_state():
    pair = StateVector(layout_of((PARTICLE, INFLUENCE_LABELS), (DISTANT, INFLUENCE_LABELS)),
                       haar_state(4, SplitMix64(41)))
    rng = np.random.default_rng(41)
    alice, bob = rng.uniform(-7, 7, 50).tolist(), rng.uniform(-7, 7, 50).tolist()
    assert _same_bits(signaling_weights(alice, bob, pair),
                      _single_round_weights(alice, bob, pair))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_batched_weights_reject_non_finite_angles(bad):
    with pytest.raises(ValueError, match="direction angle must be finite"):
        signaling_weights([0.1, bad], [0.2, 0.3])
    with pytest.raises(ValueError, match="direction angle must be finite"):
        signaling_weights([0.1], [bad])


def test_batched_weights_check_the_steering_stack(monkeypatch):
    broken = suggestion._P_UP.copy()
    broken[:, 0] = 0.0  # no longer a permutation
    monkeypatch.setattr(suggestion, "_P_UP", broken)
    with pytest.raises(InvariantError, match="not unitary"):
        signaling_weights([0.4], [1.0])


@pytest.mark.parametrize("n", [4, 7, 16, 360, 1440])
def test_blocked_grid_scan_equals_the_shift_loop(n):
    step = 2.0 * math.pi / n
    e = np.array([correlator(Direction(0.0), Direction(k * step)) for k in range(n)])
    best, da, i1, i2, sign = grid_scan_reference(e)
    res = chsh_grid_search(2.0 * math.pi / n)
    assert res.grid_size == n and res.resolution == step
    assert res.angles == (0.0, da * step, i1 * step, i2 * step)
    assert abs(res.abs_value - best) < 1e-9 and sign * res.s_value > 0
