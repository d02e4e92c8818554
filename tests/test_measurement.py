import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdesk import (
    PointerScheme,
    ProtocolError,
    SchemeError,
    StateVector,
    branch_decomposition,
    build_premeasurement_unitary,
    layout_of,
    pointer_scheme,
    premeasure,
    reduced_state,
)
from qdesk.measurement import BRANCH_PRUNE_EPS, apparatus_weights, sample_labels

from oracles import SplitMix64, haar_state, inverse_cdf_select

SQ2 = np.sqrt(2.0)

SCHEME = pointer_scheme("spin", "meter", "ready", {"up": "saw_up", "down": "saw_down"})
METER = ("ready", "saw_up", "saw_down")


def spin_meter():
    return layout_of(("spin", ("up", "down")), ("meter", METER))


def pair_meter():
    return layout_of(("spin", ("up", "down")), ("far", ("up", "down")), ("meter", METER))


def ready_state(layout, spin_amps, far_amps=None):
    amps = StateVector(layout.sub_layout(["spin"]), spin_amps).amplitudes
    if far_amps is not None:
        amps = np.kron(amps, StateVector(layout.sub_layout(["far"]), far_amps).amplitudes)
    ready = layout.sub_layout(["meter"]).basis_state({"meter": "ready"})
    return StateVector(layout, np.kron(amps, ready.amplitudes))


def bell_ready():
    lay = pair_meter()
    amps = np.zeros(lay.total_dimension, dtype=complex)
    amps[lay.basis_index({"spin": "up", "far": "down", "meter": "ready"})] = 1.0
    amps[lay.basis_index({"spin": "down", "far": "up", "meter": "ready"})] = 1.0
    return StateVector(lay, amps)


# ---------------------------------------------------------------------------
# unitary construction


def test_definite_inputs_map_to_their_pointer_states():
    lay = spin_meter()
    for spin, saw in (("up", "saw_up"), ("down", "saw_down")):
        src = lay.basis_state({"spin": spin, "meter": "ready"})
        out = premeasure(src, SCHEME)
        dst = lay.basis_index({"spin": spin, "meter": saw})
        assert abs(out.amplitudes[dst] - 1.0) < 1e-12


def test_unitary_is_an_involution_by_explicit_product():
    u = build_premeasurement_unitary(SCHEME, spin_meter()).matrix
    assert np.abs(u @ u - np.eye(6)).max() == 0.0


def test_unitary_entries_are_exactly_zero_or_one():
    lay = layout_of(("sys", ("a", "b", "c")), ("app", ("idle", "pa", "pb", "pc", "spare")))
    scheme = pointer_scheme("sys", "app", "idle", {"a": "pa", "b": "pb", "c": "pc"})
    u = build_premeasurement_unitary(scheme, lay).matrix
    values = set(np.unique(u.real).tolist())
    assert values <= {0.0, 1.0}
    assert np.abs(u.imag).max() == 0.0
    assert np.abs(u.sum(axis=0) - 1.0).max() == 0.0  # permutation columns


def test_scheme_validation_against_layout():
    lay = spin_meter()
    with pytest.raises(SchemeError):
        build_premeasurement_unitary(
            pointer_scheme("spin", "meter", "ready", {"up": "saw_up"}), lay
        )  # down not covered
    small = layout_of(("spin", ("up", "down")), ("meter", ("ready", "saw_up")))
    with pytest.raises(SchemeError):
        build_premeasurement_unitary(SCHEME, small)  # apparatus too small


def test_scheme_rejects_ready_in_outcomes():
    with pytest.raises(SchemeError):
        pointer_scheme("spin", "meter", "ready", {"up": "ready", "down": "saw_down"})


def test_scheme_rejects_a_measured_label_named_twice():
    # a tuple map can name a label twice; which outcome registers it would be a guess
    with pytest.raises(SchemeError, match="twice"):
        PointerScheme("spin", "meter", "ready", (("up", "saw_up"), ("up", "saw_down")))


# ---------------------------------------------------------------------------
# premeasure


def test_superposition_splits_by_linearity():
    out = premeasure(ready_state(spin_meter(), [1, 1]), SCHEME)
    lay = out.layout
    expected = np.zeros(6, dtype=complex)
    expected[lay.basis_index({"spin": "up", "meter": "saw_up"})] = 1 / SQ2
    expected[lay.basis_index({"spin": "down", "meter": "saw_down"})] = 1 / SQ2
    assert np.abs(out.amplitudes - expected).max() < 1e-12


def test_entangled_input_correlates_pointer_with_far_side():
    out = premeasure(bell_ready(), SCHEME)
    lay = out.layout
    expected = np.zeros(lay.total_dimension, dtype=complex)
    expected[lay.basis_index({"spin": "up", "far": "down", "meter": "saw_up"})] = 1 / SQ2
    expected[lay.basis_index({"spin": "down", "far": "up", "meter": "saw_down"})] = 1 / SQ2
    assert np.abs(out.amplitudes - expected).max() < 1e-12


def test_premeasure_rejects_used_apparatus():
    lay = spin_meter()
    used = lay.basis_state({"spin": "up", "meter": "saw_up"})
    with pytest.raises(ProtocolError):
        premeasure(used, SCHEME)


def test_premeasure_preserves_spectator_reduced_state():
    rng = SplitMix64(31)
    lay = pair_meter()
    for _ in range(30):
        pair = haar_state(4, rng)
        amps = np.zeros(lay.total_dimension, dtype=complex)
        amps.reshape(2, 2, 3)[:, :, 0] = pair.reshape(2, 2)
        s = StateVector(lay, amps)
        before = reduced_state(s, ["far"]).matrix
        after = reduced_state(premeasure(s, SCHEME), ["far"]).matrix
        assert np.abs(before - after).max() < 1e-10


# ---------------------------------------------------------------------------
# branches


def test_two_equal_branches_for_balanced_superposition():
    out = premeasure(ready_state(spin_meter(), [1, 1]), SCHEME)
    branches = branch_decomposition(out, "meter")
    assert [b.pointer_label for b in branches] == ["saw_up", "saw_down"]
    assert all(abs(b.weight - 0.5) < 1e-10 for b in branches)
    assert abs(sum(b.weight for b in branches) - 1.0) < 1e-10


def test_single_branch_for_definite_outcome():
    lay = spin_meter()
    out = premeasure(lay.basis_state({"spin": "up", "meter": "ready"}), SCHEME)
    branches = branch_decomposition(out, "meter")
    assert len(branches) == 1
    assert branches[0].pointer_label == "saw_up"
    assert abs(branches[0].weight - 1.0) < 1e-12


def test_entangled_branches_carry_opposite_far_spin():
    out = premeasure(bell_ready(), SCHEME)
    branches = {b.pointer_label: b for b in branch_decomposition(out, "meter")}
    assert set(branches) == {"saw_up", "saw_down"}
    cond_up = branches["saw_up"].conditional_state
    assert cond_up.layout.ids == ("spin", "far")
    assert abs(cond_up.amplitudes[cond_up.layout.basis_index({"spin": "up", "far": "down"})] - 1.0) < 1e-12
    cond_down = branches["saw_down"].conditional_state
    assert abs(cond_down.amplitudes[cond_down.layout.basis_index({"spin": "down", "far": "up"})] - 1.0) < 1e-12
    assert all(abs(b.weight - 0.5) < 1e-10 for b in branches.values())


def test_branch_weights_equal_reduced_apparatus_diagonal():
    rng = SplitMix64(8)
    lay = pair_meter()
    for _ in range(10):
        amps = np.zeros(lay.total_dimension, dtype=complex)
        amps.reshape(2, 2, 3)[:, :, 0] = haar_state(4, rng).reshape(2, 2)
        out = premeasure(StateVector(lay, amps), SCHEME)
        diag = np.diagonal(reduced_state(out, ["meter"]).matrix).real
        weights = apparatus_weights(out, "meter")
        assert np.abs(weights - diag).max() < 1e-10


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=2, max_size=4), st.data(), st.integers(0, 2**32))
def test_branch_weight_is_the_weight_its_label_is_sampled_with(dims, data, seed):
    # the apparatus sits anywhere, and the other subsystems span up to 125 dimensions
    pos = data.draw(st.integers(0, len(dims) - 1))
    lay = layout_of(*((f"s{i}", tuple(f"l{j}" for j in range(d))) for i, d in enumerate(dims)))
    amps = SplitMix64(seed).complex_normals(lay.total_dimension).reshape(dims)
    empty = data.draw(st.sets(st.integers(0, dims[pos] - 1), max_size=dims[pos] - 1))
    np.moveaxis(amps, pos, -1)[..., sorted(empty)] = 0.0  # labels pruned from the branches
    s, app = StateVector(lay, amps), f"s{pos}"
    labels = lay.subsystem_named(app).labels
    want = [(labels[k], w.hex()) for k, w in enumerate(apparatus_weights(s, app).tolist())
            if w > BRANCH_PRUNE_EPS]
    assert [(b.pointer_label, b.weight.hex()) for b in branch_decomposition(s, app)] == want


def test_branches_reconstruct_the_state():
    rng = SplitMix64(17)
    lay = pair_meter()
    for _ in range(10):
        amps = np.zeros(lay.total_dimension, dtype=complex)
        amps.reshape(2, 2, 3)[:, :, 0] = haar_state(4, rng).reshape(2, 2)
        out = premeasure(StateVector(lay, amps), SCHEME)
        rebuilt = np.zeros(lay.total_dimension, dtype=complex)
        view = np.moveaxis(rebuilt.reshape(2, 2, 3), 2, -1)
        meter_sub = lay.subsystem_named("meter")
        for b in branch_decomposition(out, "meter"):
            k = meter_sub.label_index(b.pointer_label)
            view[..., k] += b.amplitude * b.conditional_state.tensor()
        fidelity = abs(np.vdot(rebuilt, out.amplitudes))
        assert fidelity >= 1.0 - 1e-10


def test_conditional_phase_convention_leading_amplitude_real_positive():
    lay = spin_meter()
    amps = np.zeros(6, dtype=complex)
    amps[lay.basis_index({"spin": "up", "meter": "ready"})] = 1j       # phase on up
    amps[lay.basis_index({"spin": "down", "meter": "ready"})] = -1.0
    out = premeasure(StateVector(lay, amps), SCHEME)
    for b in branch_decomposition(out, "meter"):
        lead = b.conditional_state.amplitudes[np.nonzero(
            np.abs(b.conditional_state.amplitudes) > 1e-14)[0][0]]
        assert abs(lead.imag) < 1e-14
        assert lead.real > 0


# ---------------------------------------------------------------------------
# sampling


def test_single_branch_sampled_with_any_seed():
    lay = spin_meter()
    out = premeasure(lay.basis_state({"spin": "down", "meter": "ready"}), SCHEME)
    seeds = np.array([0, 1, 2**63, 12345], dtype=np.uint64)
    assert sample_labels(out, "meter", seeds).tolist() == [METER.index("saw_down")] * 4


def test_sampling_frequency_matches_binomial_statistics():
    out = premeasure(ready_state(spin_meter(), [1, 1]), SCHEME)
    n = 100_000
    labels = sample_labels(out, "meter", np.arange(n, dtype=np.uint64))
    hits = int(np.count_nonzero(labels == METER.index("saw_up")))
    sigma = np.sqrt(0.25 / n)
    assert abs(hits / n - 0.5) <= 3 * sigma
    # a one-seed call picks the label that the scalar inverse CDF picks, seed for seed
    weights = apparatus_weights(out, "meter").tolist()
    for seed in range(0, n, 40):
        one = sample_labels(out, "meter", np.array([seed], dtype=np.uint64))
        assert one[0] == labels[seed] == inverse_cdf_select(weights, SplitMix64(seed).random())


def test_same_seed_same_selection():
    out = premeasure(ready_state(spin_meter(), [1, 1]), SCHEME)
    seeds = np.array([3, 99, 2**40], dtype=np.uint64)
    assert np.array_equal(sample_labels(out, "meter", seeds), sample_labels(out, "meter", seeds))
