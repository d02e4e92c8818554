import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdesk import (
    DensityMatrix,
    DimensionMismatchError,
    InvariantError,
    LayoutError,
    StateVector,
    SubsystemLayout,
    UnitaryOperator,
    apply_unitary,
    layout_of,
    reduced_state,
    subsystem,
)
from qdesk.tensor import _row_norms

from oracles import (SplitMix64, embed_general, embed_single_qubit_gate, haar_state, haar_unitary,
                     partial_trace_loops)

SQ2 = np.sqrt(2.0)


def spin():
    return layout_of(("spin", ("up", "down")))


def meter():
    return layout_of(("meter", ("ready", "saw_up", "saw_down")))


def spin_state(*amps):
    return StateVector(spin(), np.array(amps, dtype=complex))


def projector(s):
    return np.outer(s.amplitudes, s.amplitudes.conj())


# ---------------------------------------------------------------------------
# layouts


def test_layout_index_arithmetic_is_row_major():
    lay = layout_of(("a", ("x", "y")), ("b", ("p", "q", "r")))
    assert lay.total_dimension == 6
    assert lay.basis_index({"a": "x", "b": "p"}) == 0
    assert lay.basis_index({"a": "x", "b": "r"}) == 2
    assert lay.basis_index({"a": "y", "b": "p"}) == 3


def test_layout_rejects_duplicate_ids_and_labels():
    with pytest.raises(LayoutError):
        layout_of(("a", ("x", "y")), ("a", ("p", "q")))
    with pytest.raises(LayoutError):
        subsystem("a", ("x", "x"))


def test_subsystem_rejects_bad_label_names_and_empty_bases():
    with pytest.raises(LayoutError):
        subsystem("a", ("x", "a b"))
    with pytest.raises(LayoutError):
        subsystem("a", ())


def test_label_index_of_an_unknown_label_is_a_layout_error():
    sub = subsystem("a", ("x", "y"))
    assert sub.label_index("y") == 1
    with pytest.raises(LayoutError):
        sub.label_index("z")


def test_sub_layout_preserves_layout_order():
    lay = layout_of(("a", ("x", "y")), ("b", ("p", "q")), ("c", ("u", "v")))
    assert lay.sub_layout(["c", "a"]).ids == ("a", "c")


# ---------------------------------------------------------------------------
# apply_unitary


def test_identity_leaves_state_unchanged():
    s = spin_state(0.3, 0.4 + 0.2j)
    u = UnitaryOperator(spin(), np.eye(2))
    assert np.abs(apply_unitary(u, s).amplitudes - s.amplitudes).max() < 1e-12


def test_flip_fixes_its_eigenvector():
    plus = spin_state(1, 1)
    x = UnitaryOperator(spin(), np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.abs(apply_unitary(x, plus).amplitudes - plus.amplitudes).max() < 1e-12


def test_apply_unitary_rejects_layout_mismatch():
    u = UnitaryOperator(spin(), np.eye(2))
    ready = meter().basis_state({"meter": "ready"})
    with pytest.raises(DimensionMismatchError):
        apply_unitary(u, ready)


def labeled(index, dim):
    return (f"s{index}", tuple(f"l{j}" for j in range(dim)))


@settings(max_examples=80, deadline=None)
@given(dims=st.lists(st.integers(2, 3), min_size=2, max_size=4), data=st.data())
def test_apply_unitary_on_scrambled_sub_layouts_matches_oracle(dims, data):
    # an operator on any subset of the subsystems, declared in any order
    n = len(dims)
    positions = data.draw(st.permutations(range(n)))[:data.draw(st.integers(1, n))]
    rng = SplitMix64(data.draw(st.integers(0, 2**64 - 1)))
    lay = layout_of(*[labeled(i, d) for i, d in enumerate(dims)])
    op_dims = [dims[p] for p in positions]
    op = haar_unitary(int(np.prod(op_dims)), rng)
    u = UnitaryOperator(layout_of(*[labeled(p, dims[p]) for p in positions]), op)
    s = StateVector(lay, haar_state(lay.total_dimension, rng))
    expected = embed_general(op, op_dims, dims, positions) @ s.amplitudes
    assert np.abs(apply_unitary(u, s).amplitudes - expected).max() < 1e-12


@pytest.mark.parametrize("op_layout", [
    layout_of(("zz", ("0", "1"))),  # unknown id
    layout_of(("b", ("0", "1"))),  # known id, other dimension
    layout_of(("a", ("x", "y"))),  # known id, other labels
], ids=["unknown_id", "other_dimension", "other_labels"])
def test_apply_unitary_rejects_foreign_subsystems(op_layout):
    lay = layout_of(("a", ("0", "1")), ("b", ("0", "1", "2")))
    u = UnitaryOperator(op_layout, np.eye(op_layout.total_dimension))
    with pytest.raises(DimensionMismatchError):
        apply_unitary(u, lay.basis_state({"a": "0", "b": "0"}))


def test_random_unitaries_preserve_norm_and_compose():
    rng = SplitMix64(7)
    lay = layout_of(("a", ("x", "y")), ("b", ("p", "q", "r")))
    for _ in range(25):
        u = UnitaryOperator(lay, haar_unitary(6, rng))
        v = UnitaryOperator(lay, haar_unitary(6, rng))
        s = StateVector(lay, haar_state(6, rng))
        us = apply_unitary(u, apply_unitary(v, s))
        uv = UnitaryOperator(lay, u.matrix @ v.matrix)
        assert abs(us.norm() - 1.0) < 1e-10
        assert np.abs(us.amplitudes - apply_unitary(uv, s).amplitudes).max() < 1e-10


# ---------------------------------------------------------------------------
# local unitaries against full-layout matrices


def test_embed_identity_gives_full_identity():
    # the identity on a, applied to each basis state of (a, b), gives the full identity
    lay = layout_of(("a", ("x", "y")), ("b", ("p", "q", "r")))
    u = UnitaryOperator(layout_of(("a", ("x", "y"))), np.eye(2))
    columns = [apply_unitary(u, StateVector(lay, e)).amplitudes for e in np.eye(6)]
    assert np.abs(np.array(columns) - np.eye(6)).max() == 0.0


def test_embed_flip_on_second_subsystem_matches_index_oracle():
    # column by column, the flip on b applied to each basis state is the oracle's matrix
    lay = layout_of(("a", ("0", "1")), ("b", ("0", "1")))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    u = UnitaryOperator(layout_of(("b", ("0", "1"))), x)
    oracle = embed_single_qubit_gate(x, 2, [2, 2], target=1)
    columns = [apply_unitary(u, StateVector(lay, e)).amplitudes for e in np.eye(4)]
    assert np.abs(np.array(columns).T - oracle).max() == 0.0
    out = apply_unitary(u, lay.basis_state({"a": "0", "b": "0"}))
    assert out.amplitudes[lay.basis_index({"a": "0", "b": "1"})] == 1.0


def test_embed_permutes_out_of_order_operands():
    # operator declared on (b, a), applied within (a, m, b)
    lay = layout_of(("a", ("0", "1")), ("m", ("r", "s", "t")), ("b", ("0", "1")))
    swap_ba = layout_of(("b", ("0", "1")), ("a", ("0", "1")))
    cnot = np.zeros((4, 4), dtype=complex)  # control = b, target = a
    for b in range(2):
        for a in range(2):
            cnot[((b << 1) | (a ^ b)), ((b << 1) | a)] = 1.0
    src = lay.basis_state({"a": "0", "m": "s", "b": "1"})
    out = apply_unitary(UnitaryOperator(swap_ba, cnot), src)
    dst = lay.basis_index({"a": "1", "m": "s", "b": "1"})
    assert abs(out.amplitudes[dst] - 1.0) < 1e-12
    expected = embed_general(cnot, [2, 2], [2, 3, 2], [2, 0]) @ src.amplitudes
    assert np.abs(out.amplitudes - expected).max() == 0.0


def test_embedded_disjoint_operators_commute():
    rng = SplitMix64(21)
    lay = layout_of(("a", ("0", "1")), ("b", ("0", "1", "2")), ("c", ("0", "1")))
    for _ in range(10):
        u = UnitaryOperator(lay.sub_layout(["a"]), haar_unitary(2, rng))
        v = UnitaryOperator(lay.sub_layout(["c"]), haar_unitary(2, rng))
        s = StateVector(lay, haar_state(12, rng))
        uv = apply_unitary(u, apply_unitary(v, s)).amplitudes
        vu = apply_unitary(v, apply_unitary(u, s)).amplitudes
        assert np.abs(uv - vu).max() < 1e-10


def test_embed_matches_index_walking_oracle_on_random_subsets():
    # random layouts, random operand subsets in scrambled order
    rng = SplitMix64(555)
    shuffler = np.random.default_rng(555)
    for _ in range(25):
        n = 3 + int(rng.next_u64() % 2)  # 3 or 4 subsystems
        dims = [2 + int(rng.next_u64() % 2) for _ in range(n)]
        lay = layout_of(*[(f"s{i}", tuple(f"l{k}" for k in range(dims[i])))
                          for i in range(n)])
        k = 1 + int(rng.next_u64() % (n - 1))  # act on 1..n-1 subsystems
        positions = [int(p) for p in shuffler.permutation(n)[:k]]
        op_dims = [dims[p] for p in positions]
        op = haar_unitary(int(np.prod(op_dims)), rng)
        op_layout = layout_of(*[(f"s{p}", tuple(f"l{j}" for j in range(dims[p])))
                                for p in positions])
        s = StateVector(lay, haar_state(lay.total_dimension, rng))
        oracle = embed_general(op, op_dims, dims, positions) @ s.amplitudes
        got = apply_unitary(UnitaryOperator(op_layout, op), s).amplitudes
        assert np.abs(got - oracle).max() < 1e-12


# ---------------------------------------------------------------------------
# reduced_state and inner products


def test_bell_pair_reduces_to_maximally_mixed():
    lay = layout_of(("near", ("u", "d")), ("far", ("u", "d")))
    amps = np.zeros(4, dtype=complex)
    amps[1] = amps[2] = 1.0  # |u d> + |d u>
    bell = StateVector(lay, amps)
    reduced = reduced_state(bell, ["near"])
    oracle = partial_trace_loops(projector(bell), [2, 2], keep=[0])
    assert np.abs(reduced.matrix - np.eye(2) / 2).max() < 1e-12
    assert np.abs(reduced.matrix - oracle).max() < 1e-12


def test_partial_trace_of_product_recovers_factor():
    rng = SplitMix64(13)
    a = StateVector(spin(), haar_state(2, rng))
    b = StateVector(meter(), haar_state(3, rng))
    joint = StateVector(SubsystemLayout(spin().subsystems + meter().subsystems),
                        np.kron(a.amplitudes, b.amplitudes))
    assert np.abs(reduced_state(joint, ["spin"]).matrix - projector(a)).max() < 1e-10
    assert abs(reduced_state(joint, ["meter"]).trace() - 1.0) < 1e-10


def test_partial_trace_agrees_with_loop_oracle_on_random_states():
    rng = SplitMix64(99)
    cases = 0
    while cases < 100:
        n_subs = 2 + (rng.next_u64() % 2)  # 2 or 3 subsystems
        dims = [2 + int(rng.next_u64() % 3) for _ in range(n_subs)]
        labels = [tuple(f"l{k}" for k in range(d)) for d in dims]
        lay = layout_of(*[(f"s{i}", labels[i]) for i in range(n_subs)])
        s = StateVector(lay, haar_state(lay.total_dimension, rng))
        n_keep = 1 + int(rng.next_u64() % n_subs)
        keep_positions = sorted(int(x) for x in
                                np.random.default_rng(cases).permutation(n_subs)[:n_keep])
        keep_ids = [lay.ids[p] for p in keep_positions]
        got = reduced_state(s, keep_ids)
        expected = partial_trace_loops(projector(s), dims, keep_positions)
        assert np.abs(got.matrix - expected).max() < 1e-12
        assert abs(got.trace() - 1.0) < 1e-10
        assert np.linalg.eigvalsh(got.matrix).min() > -1e-9
        cases += 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=4), st.data())
def test_reduced_state_matches_the_loop_oracle_for_any_keep_order(dims, data):
    lay = layout_of(*[(f"s{i}", tuple(f"l{k}" for k in range(d))) for i, d in enumerate(dims)])
    seed = data.draw(st.integers(0, 2**64 - 1))
    s = StateVector(lay, haar_state(lay.total_dimension, SplitMix64(seed)))
    keep_positions = sorted(data.draw(st.sets(st.sampled_from(range(len(dims))), min_size=1)))
    in_order = [lay.ids[p] for p in keep_positions]
    got = reduced_state(s, data.draw(st.permutations(in_order)))
    assert got.layout.ids == tuple(in_order)
    assert np.array_equal(got.matrix, reduced_state(s, in_order).matrix)
    assert np.abs(got.matrix - partial_trace_loops(projector(s), dims, keep_positions)).max() < 1e-12
    assert abs(got.trace() - 1.0) < 1e-12
    assert np.linalg.eigvalsh(got.matrix).min() >= -1e-9


def test_partial_trace_argument_errors():
    s = spin_state(1, 0)
    with pytest.raises(ValueError):
        reduced_state(s, [])
    with pytest.raises(ValueError):
        reduced_state(s, ["spin", "spin"])
    with pytest.raises(LayoutError):
        reduced_state(s, ["nope"])


def test_overlap_of_premeasured_superposition_with_target_is_one():
    from qdesk import pointer_scheme, premeasure

    lay = layout_of(("spin", ("up", "down")), ("meter", ("ready", "saw_up", "saw_down")))
    scheme = pointer_scheme("spin", "meter", "ready", {"up": "saw_up", "down": "saw_down"})
    amps = np.zeros(6, dtype=complex)
    amps[lay.basis_index({"spin": "up", "meter": "ready"})] = 1.0
    amps[lay.basis_index({"spin": "down", "meter": "ready"})] = 1.0
    evolved = premeasure(StateVector(lay, amps), scheme)
    target = np.zeros(6, dtype=complex)
    target[lay.basis_index({"spin": "up", "meter": "saw_up"})] = 1.0
    target[lay.basis_index({"spin": "down", "meter": "saw_down"})] = 1.0
    assert abs(np.vdot(evolved.amplitudes, StateVector(lay, target).amplitudes) - 1.0) < 1e-12


def test_reduced_state_shorthand():
    lay = layout_of(("a", ("0", "1")), ("b", ("0", "1")))
    s = lay.basis_state({"a": "0", "b": "1"})
    assert np.abs(reduced_state(s, ["a"]).matrix - np.diag([1.0, 0.0])).max() < 1e-12


# ---------------------------------------------------------------------------
# invariants of the wrappers


def test_state_normalizes_and_records_factor():
    s = spin_state(3, 4)
    assert abs(s.norm() - 1.0) < 1e-15
    assert abs(s.norm_factor - 5.0) < 1e-12
    with pytest.raises(InvariantError):
        spin_state(0, 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(1, 130), st.integers(0, 2**32))
def test_row_norms_equal_linalg_norm_bit_for_bit(rows, d, seed):
    x = SplitMix64(seed).complex_normals(rows * d).reshape(rows, d) * 10.0 ** (seed % 7 - 3)
    want = np.array([np.linalg.norm(row) for row in x])
    assert _row_norms(x).view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_state_whose_norm_overflows_is_rejected():
    with pytest.raises(InvariantError, match="norm overflows"):
        StateVector(spin(), [1e200, 1e200])


def test_density_constructor_rejects_bad_matrices():
    lay = spin()
    with pytest.raises(InvariantError):
        DensityMatrix(lay, np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(InvariantError):
        DensityMatrix(lay, np.eye(2))  # trace 2
    with pytest.raises(InvariantError):
        DensityMatrix(lay, np.diag([1.5, -0.5]))  # negative eigenvalue


def test_unitary_constructor_rejects_non_unitary():
    with pytest.raises(InvariantError):
        UnitaryOperator(spin(), np.array([[1.0, 0.0], [0.0, 0.5]]))


def test_wrapped_arrays_are_immutable():
    s = spin_state(1, 0)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 5.0
