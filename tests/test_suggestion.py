import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qdesk import (
    InvariantError,
    SchemeError,
    StateVector,
    apply_unitary,
    chsh_grid_search,
    chsh_value,
    correlator,
    layout_of,
    no_signaling_audit,
    reduced_state,
    sample_rounds,
    session_records,
    tally_from_records,
    TSIRELSON_BOUND,
)
from qdesk.suggestion import (
    AGENT,
    AGENT_LABELS,
    DISTANT,
    INFLUENCE_LABELS,
    PARTICLE,
    PREPARED,
    PREPARED_LABELS,
    SessionRecords,
)

from qdesk import suggestion
from qdesk.reports import CSV_BLOCK_ROWS as BLOCK
from qdesk.rng import GAMMA, born_select, first_uniforms
from qdesk.suggestion import signaling_weights

from oracles import (
    SplitMix64,
    correlator_oracle,
    direction_down,
    direction_up,
    grid_scan_reference,
    haar_state,
    joint_probabilities,
    numpy_signaling_weights,
    pair_layout,
    pair_state_updown,
    signaling_layout,
    single_round_weights,
    splitmix64_reference,
    steering_unitary,
)

SQ2 = np.sqrt(2.0)


def decision_lay():
    return layout_of(
        (PARTICLE, ("up", "down")), (AGENT, AGENT_LABELS), (PREPARED, PREPARED_LABELS)
    )


def undecided_input(lay, particle_amps):
    amps = np.zeros(lay.total_dimension, dtype=complex)
    amps.reshape(2, 3, 3)[:, 0, 0] = np.asarray(particle_amps, dtype=complex)
    return StateVector(lay, amps)


def expect_basis(lay, assignment):
    return lay.basis_index(assignment)


def replay_round(alice_theta, bob_theta, seed):
    return sample_rounds(alice_theta, bob_theta, np.array([seed], dtype=np.uint64))


def joint_distribution(alice_theta, bob_theta, pair=None):
    """{(alice_decision, bob_outcome): p}: the decided cells of one signaling_weights row."""
    w = signaling_weights([alice_theta], [bob_theta], pair)[0]
    return {(x, y): float(w[i + 1, j + 1])
            for i, x in enumerate(INFLUENCE_LABELS) for j, y in enumerate(INFLUENCE_LABELS)}


def round_row(records, i):
    """Round i as (alice_theta, bob_theta, alice_decision, bob_outcome, seed)."""
    return (records.alice_theta, records.bob_theta,
            INFLUENCE_LABELS[records.decisions[i]], INFLUENCE_LABELS[records.outcomes[i]],
            int(records.seeds[i]))


# ---------------------------------------------------------------------------
# angles


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_every_public_function_rejects_a_non_finite_angle(bad):
    calls = [
        lambda: correlator(bad, 0.3),
        lambda: correlator(0.3, bad),
        lambda: chsh_value(0.0, bad, 0.1, 0.2),
        lambda: chsh_value(0.0, 0.1, 0.2, bad),
        lambda: sample_rounds(bad, 0.3, np.array([5], dtype=np.uint64)),
        lambda: sample_rounds(0.3, bad, np.array([5], dtype=np.uint64)),
        lambda: session_records(10, bad, 0.3, 7),
        lambda: session_records(10, 0.3, bad, 7),
        lambda: no_signaling_audit([0.0, bad], 0.3),
        lambda: no_signaling_audit([bad, bad], 0.3),  # one object: a set of one
        lambda: no_signaling_audit([0.0, 1.0], bad),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="direction angle must be finite"):
            call()


# ---------------------------------------------------------------------------
# steering unitary


def test_aligned_influence_steers_the_decision():
    lay = decision_lay()
    u = steering_unitary(0.0)
    assert u.layout == lay
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
    u = steering_unitary(theta).matrix

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
        built = steering_unitary(theta).matrix
        assert np.abs(built - oracle).max() < 1e-12


def test_full_turn_leaves_decision_probabilities_unchanged():
    for theta in (0.0, 0.7, 2.0):
        p0 = joint_distribution(theta, 0.3)
        p1 = joint_distribution(theta + 2 * math.pi, 0.3)
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
        before = reduced_state(s, [DISTANT]).matrix
        after = reduced_state(apply_unitary(steering_unitary(theta), s), [DISTANT]).matrix
        assert np.abs(before - after).max() < 1e-10


# ---------------------------------------------------------------------------
# signaling rounds and correlators


def test_aligned_round_never_agrees():
    for seed in range(200):
        _, _, alice_decision, bob_outcome, _ = round_row(replay_round(0.0, 0.0, seed), 0)
        assert (alice_decision, bob_outcome) in {("up", "down"), ("down", "up")}


def test_aligned_round_outcomes_are_balanced():
    p = joint_distribution(0.0, 0.0)
    assert abs(p[("up", "down")] - 0.5) < 1e-12
    assert abs(p[("down", "up")] - 0.5) < 1e-12
    assert p[("up", "up")] < 1e-12 and p[("down", "down")] < 1e-12


def test_joint_distribution_matches_projector_oracle():
    rng = SplitMix64(12)
    for _ in range(50):
        a = (rng.random() - 0.5) * 4 * math.pi
        b = (rng.random() - 0.5) * 4 * math.pi
        got = joint_distribution(a, b)
        expected = joint_probabilities(a, b)
        for key in expected:
            assert abs(got[key] - expected[key]) < 1e-10


angles = st.floats(-4 * math.pi, 4 * math.pi, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(a=angles, b=angles, seed=st.integers(0, 2**64 - 1))
def test_joint_distribution_of_a_random_pair_matches_projector_oracle(a, b, seed):
    pair = haar_state(4, SplitMix64(seed))
    lay = layout_of((PARTICLE, INFLUENCE_LABELS), (DISTANT, INFLUENCE_LABELS))
    got = joint_distribution(a, b, StateVector(lay, pair))
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
        joint_distribution(0.3, 0.1, pair)


def test_two_branches_with_the_forced_pairings():
    # global state after steering the Bell pair, before the distant readout
    lay = layout_of((PARTICLE, ("up", "down")), (DISTANT, ("up", "down")),
                    (AGENT, AGENT_LABELS), (PREPARED, PREPARED_LABELS))
    from qdesk import branch_decomposition

    def evolved(theta):
        amps = np.zeros(lay.total_dimension, dtype=complex)
        amps.reshape(2, 2, 3, 3)[0, 1, 0, 0] = 1.0
        amps.reshape(2, 2, 3, 3)[1, 0, 0, 0] = 1.0
        return apply_unitary(steering_unitary(theta), StateVector(lay, amps))

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
    assert abs(correlator(0.0, 0.0) + 1.0) < 1e-12
    for a in (0.0, math.pi / 6, math.pi / 3):
        got = correlator(a, a)
        assert abs(got - correlator_oracle(a, a)) < 1e-10
    rng = SplitMix64(3)
    for _ in range(50):
        a = (rng.random() - 0.5) * 4 * math.pi
        b = (rng.random() - 0.5) * 4 * math.pi
        assert abs(correlator(a, b) - correlator_oracle(a, b)) < 1e-10


def test_aligned_angles_anticorrelate_exactly():
    # the Bell pair's weights are (x_u y_d + x_d y_u)^2 / 2: at 0 and pi that is 0.5 and 0 exactly
    assert correlator(0.0, 0.0) == -1.0
    assert correlator(math.pi, math.pi) == -1.0
    w = signaling_weights([0.0], [0.0])[0]
    assert w[1, 1] + w[1, 2] + w[2, 1] + w[2, 2] == 1.0


def test_equal_angle_anticorrelation_holds_only_at_zero():
    # the pair state is not rotation invariant: perfect anticorrelation at
    # equal settings is special to angle zero (mod 2*pi)
    assert abs(correlator(0.0, 0.0) + 1.0) < 1e-12
    assert abs(correlator(math.pi / 3, math.pi / 3) - 0.5) < 1e-10


# ---------------------------------------------------------------------------
# sessions


def test_session_records_match_individual_rounds():
    a, b = 0.4, -1.1
    master = 2024
    records = session_records(200, a, b, master)
    seeds = splitmix64_reference(master, 200)
    for i in range(200):
        rec = round_row(records, i)
        solo = round_row(replay_round(a, b, seeds[i]), 0)
        assert rec == solo


def test_aligned_session_has_no_agreeing_counts():
    tally = tally_from_records(session_records(1000, 0.0, 0.0, 5))
    assert tally.n_uu == 0 and tally.n_dd == 0
    assert tally.n_total == 1000
    assert tally.correlator == -1.0


def test_single_round_session():
    tally = tally_from_records(session_records(1, 0.2, 0.9, 8))
    assert tally.n_total == 1
    assert sorted([tally.n_uu, tally.n_ud, tally.n_du, tally.n_dd]) == [0, 0, 0, 1]


@pytest.mark.parametrize("n, block", [(1, 1), (500, 7), (2 * BLOCK + 3, BLOCK)])
def test_tally_of_jumped_blocks_is_the_session_tally(n, block):
    # block s .. s + m - 1 of a session is the session of m rounds from master + s*GAMMA
    a, b, master = 1.0, 0.2, -77
    blocks = (session_records(min(block, n - s), a, b, master + s * GAMMA)
              for s in range(0, n, block))
    assert tally_from_records(blocks) == tally_from_records(session_records(n, a, b, master))


def test_tally_is_order_independent():
    records = session_records(500, 1.0, 0.2, 77)
    reversed_records = records._replace(decisions=records.decisions[::-1],
                                        outcomes=records.outcomes[::-1],
                                        seeds=records.seeds[::-1])
    assert tally_from_records(records) == tally_from_records(reversed_records)


@pytest.mark.parametrize("blocks", [[], [SessionRecords(0.0, 0.0, *[np.zeros(0, np.int64)] * 3)]],
                         ids=["no-block", "empty-block"])
def test_tally_of_no_round_is_an_error(blocks):
    # a tally of 0 rounds has no correlator (0/0); refuse it, as session_records refuses n < 1
    with pytest.raises(ValueError, match="at least one round"):
        tally_from_records(blocks)


def test_session_estimate_within_binomial_bounds():
    rng = SplitMix64(15)
    n = 100_000
    for _ in range(5):
        a = (rng.random() - 0.5) * 2 * math.pi
        b = (rng.random() - 0.5) * 2 * math.pi
        exact = correlator(a, b)
        tally = tally_from_records(session_records(n, a, b, rng.next_u64()))
        sigma = math.sqrt(max(1e-12, (1.0 - exact**2)) / n)
        assert abs(tally.correlator - exact) <= 4 * sigma + 1e-9


# ---------------------------------------------------------------------------
# CHSH


def test_degenerate_chsh_reduces_to_twice_the_correlator():
    _, s = chsh_value(0.0, 0.0, 0.0, 0.0)
    assert abs(s + 2.0) < 1e-10  # 2 * E(0,0)
    rng = SplitMix64(18)
    for _ in range(5):
        t = (rng.random() - 0.5) * 4 * math.pi
        _, s = chsh_value(t, t, t, t)
        assert abs(s - 2.0 * correlator_oracle(t, t)) < 1e-10


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
        thetas = [(rng.random() - 0.5) * 4 * math.pi for _ in range(4)]
        assert abs(chsh_value(*thetas)[1]) <= TSIRELSON_BOUND + 1e-9


def test_some_grid_angles_violate_the_classical_bound():
    res = chsh_grid_search(math.pi / 24)
    assert res.abs_value > 2.0


@pytest.mark.parametrize("bad", [0.0, -0.0, -0.1, -math.inf, math.nan])
def test_grid_search_rejects_a_resolution_that_is_not_positive(bad):
    with pytest.raises(ValueError, match="resolution must be positive"):
        chsh_grid_search(bad)


# ---------------------------------------------------------------------------
# no-signaling


def test_bob_marginals_ignore_alice_setting():
    audit = no_signaling_audit(
        [0.0, math.pi / 4, math.pi / 2], 0.0
    )
    for p_up, p_down in audit.marginals:
        assert abs(p_up - 0.5) < 1e-10
        assert abs(p_down - 0.5) < 1e-10
    assert audit.max_tv_distance <= 1e-10


def test_audit_on_product_pair_is_degenerate_but_setting_independent():
    lay = layout_of((PARTICLE, ("up", "down")), (DISTANT, ("up", "down")))
    product = lay.basis_state({PARTICLE: "up", DISTANT: "down"})
    audit = no_signaling_audit(
        [0.0, 1.0], 0.0, pair_state=product
    )
    for p_up, p_down in audit.marginals:
        assert abs(p_up) < 1e-12
        assert abs(p_down - 1.0) < 1e-12
    assert audit.max_tv_distance <= 1e-10


def test_audit_requires_two_distinct_settings():
    for thetas in ([0.0, 0.0], [0.3], []):
        with pytest.raises(ValueError, match="need at least two distinct alice settings"):
            no_signaling_audit(thetas, 0.0)


def test_bell_pair_state_is_the_balanced_updown_superposition():
    # the default pair is the Bell pair (|up down> + |down up>)/sqrt2, passed explicitly here
    bell = StateVector(pair_layout(), [0, 1, 1, 0])
    assert np.abs(bell.amplitudes - pair_state_updown()).max() < 1e-12
    alice = [a for a in EDGE_ANGLES for _ in EDGE_ANGLES]
    bob = [b for _ in EDGE_ANGLES for b in EDGE_ANGLES]
    assert _agree(signaling_weights(alice, bob), signaling_weights(alice, bob, bell))


# ---------------------------------------------------------------------------
# batched kernel


def _single_round_weights(alice, bob, pair=None):
    return np.array([single_round_weights(a, b, pair)
                     for a, b in zip(alice, bob)]).reshape(-1, 3, 3)


def _same_bits(x, y):
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


# signaling_weights is a closed form; single_round_weights evolves the round operator by
# operator, so the two differ by rounding only. The tests below that still read "bit for bit"
# in their names compare the two to AGREE_TOL.
AGREE_TOL = 1e-15


def _agree(x, y, tol=AGREE_TOL):
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return x.shape == y.shape and not np.abs(x - y).max(initial=0.0) > tol


EDGE_ANGLES = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi, 7.0, -7.0,
               1e-300, -5e-324, 0.3, -2.9]
finite = st.floats(allow_nan=False, allow_infinity=False)  # every angle a config accepts


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(st.floats(-7.0, 7.0), st.floats(-7.0, 7.0)), max_size=70))
def test_batched_weights_equal_the_single_round_bit_for_bit(pairs):
    alice = [a for a, _ in pairs]
    bob = [b for _, b in pairs]
    assert _agree(signaling_weights(alice, bob), _single_round_weights(alice, bob))


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(finite | st.sampled_from(EDGE_ANGLES),
                                finite | st.sampled_from(EDGE_ANGLES)), max_size=70))
def test_batched_weights_equal_the_single_round_over_the_finite_range(pairs):
    alice = [a for a, _ in pairs]
    bob = [b for _, b in pairs]
    assert _agree(signaling_weights(alice, bob), _single_round_weights(alice, bob))


@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(st.tuples(finite | st.sampled_from(EDGE_ANGLES) | st.floats(-1e6, 1e6),
                                finite | st.sampled_from(EDGE_ANGLES) | st.floats(-1e6, 1e6)),
                      min_size=1, max_size=70))
@example(pairs=[(a, b) for a in EDGE_ANGLES for b in EDGE_ANGLES])
def test_undecided_and_ready_cells_weigh_exactly_zero(pairs):
    # they are 0 by construction, so born_select never picks those cells
    w = signaling_weights([a for a, _ in pairs], [b for _, b in pairs])
    assert not w[:, 0, :].any() and not w[:, :, 0].any()


def _oracle_correlator(a, b):
    w = single_round_weights(a, b)
    return (float(w[1, 1]) + float(w[2, 2])) - (float(w[1, 2]) + float(w[2, 1]))


@settings(max_examples=100, deadline=None)
@given(a1=finite, a2=finite, b1=st.sampled_from(EDGE_ANGLES) | finite, b2=finite)
def test_single_pair_quantities_equal_the_single_round_bit_for_bit(a1, a2, b1, b2):
    w = single_round_weights(a1, b1)
    p = joint_distribution(a1, b1)
    assert _agree([p[(x, y)] for x in INFLUENCE_LABELS for y in INFLUENCE_LABELS],
                  [w[1, 1], w[1, 2], w[2, 1], w[2, 2]])
    assert _agree(correlator(a1, b1), _oracle_correlator(a1, b1))
    s = (_oracle_correlator(a1, b1) + _oracle_correlator(a1, b2)
         + _oracle_correlator(a2, b1) - _oracle_correlator(a2, b2))
    assert _agree(chsh_value(a1, a2, b1, b2)[1], s, 4 * AGREE_TOL)  # a sum of four correlators


@settings(max_examples=60, deadline=None)
@given(a1=finite, a2=finite, b1=finite, b2=st.sampled_from(EDGE_ANGLES) | finite)
def test_chsh_correlators_equal_four_correlator_calls_bit_for_bit(a1, a2, b1, b2):
    e, s = chsh_value(a1, a2, b1, b2)
    assert _same_bits(e, [correlator(a, b) for a, b in ((a1, b1), (a1, b2), (a2, b1), (a2, b2))])
    assert _same_bits(s, e[0] + e[1] + e[2] - e[3])


def test_batched_weights_equal_the_single_round_on_edge_angles():
    alice = [a for a in EDGE_ANGLES for _ in EDGE_ANGLES]
    bob = [b for _ in EDGE_ANGLES for b in EDGE_ANGLES]
    assert _agree(signaling_weights(alice, bob), _single_round_weights(alice, bob))


@pytest.mark.parametrize("k", [0, 1, 31, 32, 33, 129])
def test_batched_weights_at_block_boundaries(k):
    rng = np.random.default_rng(k)
    alice, bob = rng.uniform(-7, 7, k).tolist(), rng.uniform(-7, 7, k).tolist()
    assert _agree(signaling_weights(alice, bob), _single_round_weights(alice, bob))


def test_batched_weights_on_a_custom_pair_state():
    pair = StateVector(layout_of((PARTICLE, INFLUENCE_LABELS), (DISTANT, INFLUENCE_LABELS)),
                       haar_state(4, SplitMix64(41)))
    rng = np.random.default_rng(41)
    alice, bob = rng.uniform(-7, 7, 50).tolist(), rng.uniform(-7, 7, 50).tolist()
    assert _agree(signaling_weights(alice, bob, pair), _single_round_weights(alice, bob, pair))


# signaling_weights reads the plain-Python kernel; numpy_signaling_weights evaluates the same
# closed form with numpy arrays, summing in the same order, so the two agree bit for bit.
@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(st.tuples(finite | st.sampled_from(EDGE_ANGLES) | st.floats(-7.0, 7.0),
                                finite | st.sampled_from(EDGE_ANGLES) | st.floats(-7.0, 7.0)),
                      max_size=70))
def test_python_kernel_equals_the_numpy_evaluation_bit_for_bit(pairs):
    alice, bob = [a for a, _ in pairs], [b for _, b in pairs]
    assert _same_bits(signaling_weights(alice, bob), numpy_signaling_weights(alice, bob))


def test_python_kernel_equals_the_numpy_evaluation_on_the_edge_and_search_grids():
    n = 1440  # chsh_grid_search(pi/720) evaluates exactly these pairs
    grid = [k * (2.0 * math.pi / n) for k in range(n)]
    edge_alice = [a for a in EDGE_ANGLES for _ in EDGE_ANGLES]
    edge_bob = [b for _ in EDGE_ANGLES for b in EDGE_ANGLES]
    for alice, bob in ((edge_alice, edge_bob), ([0.0] * n, grid)):
        w = numpy_signaling_weights(alice, bob)
        assert _same_bits(signaling_weights(alice, bob), w)
        e = (w[:, 1, 1] + w[:, 2, 2]) - (w[:, 1, 2] + w[:, 2, 1])
        assert _same_bits(suggestion._correlators(alice, bob), e)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       pairs=st.lists(st.tuples(finite | st.sampled_from(EDGE_ANGLES) | st.floats(-7.0, 7.0),
                                finite | st.sampled_from(EDGE_ANGLES) | st.floats(-7.0, 7.0)),
                      max_size=50))
def test_python_kernel_equals_the_numpy_evaluation_on_random_pair_states(seed, pairs):
    pair = StateVector(pair_layout(), haar_state(4, SplitMix64(seed)))
    alice, bob = [a for a, _ in pairs], [b for _, b in pairs]
    w = numpy_signaling_weights(alice, bob, pair)
    assert _same_bits(signaling_weights(alice, bob, pair), w)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_batched_weights_reject_non_finite_angles(bad):
    with pytest.raises(ValueError, match="direction angle must be finite"):
        signaling_weights([0.1, bad], [0.2, 0.3])
    with pytest.raises(ValueError, match="direction angle must be finite"):
        signaling_weights([0.1], [bad])


# The reference draw runs over signaling_weights' (3, 3) table, whose undecided and ready cells
# are zero padding; sample_rounds draws over the four decided cells alone, to the same rounds.
ALIGNED = st.sampled_from([0.0, -0.0, math.pi, -math.pi])  # (0, 0) and (-pi, pi): uu = dd = 0


def _padded_draw(alice_theta, bob_theta, uniforms):
    """(decisions, outcomes): inverse CDF over the flattened (3, 3) table, divmod 3, minus 1."""
    w = signaling_weights([alice_theta], [bob_theta])[0]
    agent, pointer = divmod(born_select(w.reshape(-1), uniforms), 3)
    return (agent - 1).tolist(), (pointer - 1).tolist()


@settings(max_examples=100, deadline=None)
@given(a=finite | ALIGNED, b=finite | ALIGNED,
       seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
@example(a=0.0, b=0.0, seeds=list(range(64)))
@example(a=-math.pi, b=math.pi, seeds=list(range(64)))
def test_four_cell_draw_equals_the_padded_table_draw(a, b, seeds):
    seeds = np.array(seeds, dtype=np.uint64)
    records = sample_rounds(a, b, seeds)
    expected = _padded_draw(a, b, first_uniforms(seeds))
    assert (records.decisions.tolist(), records.outcomes.tolist()) == expected


@settings(max_examples=100, deadline=None)
@given(a=finite | ALIGNED, b=finite | ALIGNED)
@example(a=0.0, b=0.0)
@example(a=-math.pi, b=math.pi)
def test_four_cell_draw_equals_the_padded_table_draw_on_each_boundary(a, b):
    # uniforms on each cumulative boundary u*total = c_k, one ulp either side, and 0
    cells = np.array(suggestion._decided_weights([a], [b])[0])
    on = np.cumsum(cells) / np.sum(cells)
    u = np.concatenate(([0.0], on, np.nextafter(on, 0.0), np.nextafter(on, 1.0)))
    u = u[u < 1.0]
    decisions, outcomes = divmod(born_select(cells, u), 2)
    assert (decisions.tolist(), outcomes.tolist()) == _padded_draw(a, b, u)


def _assert_search_equals_the_shift_loop(n):
    step = 2.0 * math.pi / n
    e = np.array([correlator(0.0, k * step) for k in range(n)])
    best, da, i1, i2, sign = grid_scan_reference(e)
    res = chsh_grid_search(2.0 * math.pi / n)
    assert res.grid_size == n and res.resolution == step
    assert res.angles == (0.0, da * step, i1 * step, i2 * step)
    assert abs(res.abs_value - best) < 1e-9 and sign * res.s_value > 0


@pytest.mark.parametrize("n", [*range(4, 257), 360, 720, 1440, 2880])
def test_blocked_grid_scan_equals_the_shift_loop(n):
    _assert_search_equals_the_shift_loop(n)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(4, 3000))
def test_grid_scan_equals_the_shift_loop_at_a_drawn_size(n):
    _assert_search_equals_the_shift_loop(n)


# Any table e, not only the kernel's: the pruning bound holds for the eps it measures, so a
# table far from -cos (eps up to 0.5) or full of ties still gives the full scan's first pick.
@settings(max_examples=200, deadline=None)
@given(n=st.integers(4, 90), wobble=st.sampled_from([0.0, 1e-3, 0.05, 0.5]),
       levels=st.sampled_from([0, 4, 64]), seed=st.integers(0, 2**32 - 1))
def test_pruned_scan_equals_the_shift_loop_on_any_table(n, wobble, levels, seed):
    rng = np.random.default_rng(seed)
    e = -np.cos(2.0 * np.pi * np.arange(n) / n) + rng.uniform(-wobble, wobble, n)
    if levels:  # quantize, so that scores tie across shifts and between hi and -lo
        e = np.round(e * levels) / levels
    best, da, i1, i2, sign = grid_scan_reference(e)
    assert suggestion._best_shift(e.tolist()) == (best, da, i1, i2, sign < 0)


@pytest.mark.parametrize("n,scored", [(1440, 2), (14400, 2)])
def test_grid_search_scores_only_the_shifts_that_can_win(monkeypatch, n, scored):
    calls = []
    score = suggestion._shift_scores
    monkeypatch.setattr(suggestion, "_shift_scores", lambda e, da: calls.append(da) or score(e, da))
    chsh_grid_search(2.0 * math.pi / n)
    assert len(calls) == scored <= 8


def test_grid_search_rejects_a_correlator_that_is_not_a_function_of_the_angle_sum(monkeypatch):
    exact = suggestion._correlators
    # E(a, -b): the same table at a = 0, since cos is even, but a function of a - b
    monkeypatch.setattr(suggestion, "_correlators", lambda a, b: exact(a, [-t for t in b]))
    with pytest.raises(InvariantError, match="correlator is not a function of the angle sum"):
        chsh_grid_search(math.pi / 12)
