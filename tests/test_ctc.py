import dataclasses
import math
import statistics

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

import qdesk.ctc
from qdesk import (
    CtcScenario,
    DensityMatrix,
    LayoutError,
    StateVector,
    UnitaryOperator,
    admissible_fraction,
    deutsch_fixed_point,
    grandfather_scenario,
    layout_of,
    linear_consistency_basis,
    trace_distance,
)
from qdesk.ctc import (
    CONSISTENCY_TOL,
    FIXED_SPACE_TOL,
    PHASE_TOL,
    _canonical_basis,
    _cr_output,
    _fixed_space,
    _loop_operators,
    _median,
    _residuals,
    _SCAN_BLOCK,
    _scan_residuals,
    _superoperator,
    induced_loop_map,
)
from qdesk.tensor import ATOL, _row_norms

from oracles import (
    SplitMix64,
    amplitude_damping,
    apply_columnstacked,
    columnwise_superoperator,
    conjugation_superoperator,
    eig_fixed_space,
    haar_state,
    haar_unitary,
    induced_map_oracle,
    kraus_dilation,
    per_step_iterate_fixed_point,
    random_density,
    single_residual,
    splitmix64_reference,
    unitary_eigensystem,
)

SQ2 = np.sqrt(2.0)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def qubit_scenario(u: np.ndarray) -> CtcScenario:
    lay = layout_of(("loop", ("b0", "b1")))
    return CtcScenario((), ("loop",), UnitaryOperator(lay, u))


def two_qubit_scenario(u: np.ndarray) -> CtcScenario:
    lay = layout_of(("mem", ("b0", "b1")), ("loop", ("b0", "b1")))
    return CtcScenario(("mem",), ("loop",), UnitaryOperator(lay, u))


def cr_density(scenario: CtcScenario, mat) -> DensityMatrix:
    return DensityMatrix(scenario.cr_layout(), mat)


def residual(scenario: CtcScenario, s: StateVector, mode: str) -> float:
    """Single-valuedness residual of one state: a one-row call of the scan's kernel."""
    return float(_residuals(scenario.loop_unitary.matrix, s.amplitudes[np.newaxis], mode)[0])


# ---------------------------------------------------------------------------
# scenario invariants


def test_scenario_partition_must_cover_layout():
    lay = layout_of(("a", ("0", "1")), ("b", ("0", "1")))
    u = UnitaryOperator(lay, np.eye(4))
    with pytest.raises(LayoutError):
        CtcScenario(("a",), ("a", "b"), u)
    with pytest.raises(LayoutError):
        CtcScenario(("a",), (), u)
    with pytest.raises(LayoutError):
        CtcScenario((), ("a",), u)


def test_scenario_layout_is_its_unitarys():
    sc = grandfather_scenario("cr_coupled")
    assert [f.name for f in dataclasses.fields(sc)] == ["cr_ids", "ctc_ids", "loop_unitary"]
    assert sc.layout is sc.loop_unitary.layout


def test_grandfather_variants_are_valid():
    qf = grandfather_scenario("qubit_flip")
    assert qf.cr_ids == () and qf.ctc_ids == ("loop",)
    cc = grandfather_scenario("cr_coupled")
    assert set(cc.cr_ids) == {"memory"} and set(cc.ctc_ids) == {"loop"}
    with pytest.raises(ValueError):
        grandfather_scenario("nope")


# ---------------------------------------------------------------------------
# linear single-valuedness


def test_identity_loop_accepts_everything():
    sc = qubit_scenario(np.eye(2))
    sub = linear_consistency_basis(sc, "strict")
    assert sub.dimension == 2
    s = StateVector(sc.layout, haar_state(2, SplitMix64(1)))
    assert residual(sc, s, "strict") < 1e-12


def test_flip_loop_admits_only_the_balanced_ray():
    sc = grandfather_scenario("qubit_flip")
    strict = linear_consistency_basis(sc, "strict")
    assert strict.dimension == 1
    v = strict.eigenpairs[0].basis[:, 0]
    plus = np.array([1.0, 1.0]) / SQ2
    assert np.abs(v - plus).max() < 1e-12  # the canonical phase: pivot entry real, positive

    rays = linear_consistency_basis(sc, "ray")
    assert rays.dimension == 2
    assert [e.dimension for e in rays.eigenpairs] == [1, 1]
    phases = sorted(abs(e.phase) for e in rays.eigenpairs)
    assert phases[0] < 1e-10
    assert abs(phases[1] - math.pi) < 1e-10


def test_ray_mode_covers_the_space_with_true_eigenvectors():
    rng = SplitMix64(5)
    for dim in (2, 4, 6):
        lay = layout_of(("loop", tuple(f"b{i}" for i in range(dim))))
        u = haar_unitary(dim, rng)
        sc = CtcScenario((), ("loop",), UnitaryOperator(lay, u))
        sub = linear_consistency_basis(sc, "ray")
        assert sub.dimension == dim
        for pair in sub.eigenpairs:
            for k in range(pair.dimension):
                v = pair.basis[:, k]
                residual = np.linalg.norm(u @ v - np.exp(1j * pair.phase) * v)
                assert residual <= sub.tolerance
        all_vecs = np.hstack([pair.basis for pair in sub.eigenpairs])
        gram = all_vecs.conj().T @ all_vecs
        assert np.abs(gram - np.eye(dim)).max() < 1e-10


def test_generic_unitaries_have_empty_strict_subspace():
    rng = SplitMix64(40)
    lay = layout_of(("loop", ("b0", "b1", "b2", "b3")))
    empty = 0
    for _ in range(100):
        sc = CtcScenario((), ("loop",), UnitaryOperator(lay, haar_unitary(4, rng)))
        if linear_consistency_basis(sc, "strict").dimension == 0:
            empty += 1
    assert empty >= 99


def placed_phase(place: str, d: int, rng: np.random.Generator) -> float:
    """An eigenphase at a named distance from 0.

    'below_guard' and 'above_guard' sit by chord, |e^{i phase} - 1| = g (1 -+ 1e-3), around
    g = PHASE_TOL + d ATOL, the edge of the O(d ATOL) band in which the singular value of
    U - I and the eigenphase can fall on opposite sides of PHASE_TOL.
    """
    half_guard = PHASE_TOL + d * ATOL
    return {"zero": 0.0, "half_tol": PHASE_TOL / 2, "tol": PHASE_TOL,
            "inside_tol": PHASE_TOL * (1.0 - 1e-6),
            "below_guard": 2.0 * math.asin(half_guard * (1.0 - 1e-3)),
            "above_guard": 2.0 * math.asin(half_guard * (1.0 + 1e-3)),
            "clear": rng.uniform(0.01, math.pi)}[place]


def planted_unitary(d: int, rng: np.random.Generator, planted, off_unit: str,
                    strength: float) -> tuple[np.ndarray, float]:
    """U = V diag(e^{i phi}) V† with Haar V, the leading phases planted, the rest uniform.

    'scaled' stretches the first eigenvalue's modulus, and 'perturbed' adds a random
    matrix E, each by as much as UnitaryOperator's ATOL check still accepts. Returns U
    and ||E||_2 (0 unless perturbed).
    """
    v, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    v = v * (np.diagonal(r) / np.abs(np.diagonal(r)))
    eig = np.exp(1j * rng.uniform(-math.pi, math.pi, d))
    eig[:len(planted)] = np.exp(1j * np.asarray(planted, dtype=float))
    if off_unit == "scaled":  # U†U - I = (|eig_0|^2 - 1) v0 v0†, kept inside ATOL
        eig[0] *= math.sqrt(1.0 + 0.99 * strength * ATOL / float(np.max(np.abs(v[:, 0]) ** 2)))
    u = (v * eig) @ v.conj().T
    if off_unit != "perturbed":
        return u, 0.0
    e = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    e *= abs(strength) * ATOL / np.abs(e).max()
    dev = np.abs((u + e).conj().T @ (u + e) - np.eye(d)).max()
    if dev > 0.99 * ATOL:
        e *= 0.99 * ATOL / dev
    return u + e, float(np.linalg.norm(e, 2))


def loop_scenario(u: np.ndarray) -> CtcScenario:
    lay = layout_of(("loop", tuple(f"b{i}" for i in range(u.shape[0]))))
    return CtcScenario((), ("loop",), UnitaryOperator(lay, u))


def projector(basis: np.ndarray) -> np.ndarray:
    return basis @ basis.conj().T


OFF_UNIT = st.sampled_from(["exact", "scaled", "perturbed"])


@settings(max_examples=150, deadline=None)
@given(qubits=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       place=st.sampled_from(["zero", "half_tol", "tol", "inside_tol", "below_guard",
                              "above_guard", "clear"]),
       sign=st.sampled_from([1.0, -1.0]), off_unit=OFF_UNIT, strength=st.floats(-1.0, 1.0))
# Schur keeps the phase, but sigma is just above PHASE_TOL: the rules differ, and the
# strict dimension is 0 where the Schur rule gave 1
@example(qubits=2, seed=0, place="inside_tol", sign=1.0, off_unit="scaled", strength=1.0)
# sigma_min(U - I) is rounding-sized but not 0: a cutoff at sigma == 0 would drop it
@example(qubits=3, seed=1, place="zero", sign=1.0, off_unit="exact", strength=0.0)
def test_strict_certificate_agrees_with_schur(qubits, seed, place, sign, off_unit, strength):
    """Strict mode keeps sigma <= PHASE_TOL, checked against two oracles.

    The dimension is the count of an independent SVD (LAPACK gesvd; numpy calls gesdd).
    Wherever the Schur selection |phase| <= PHASE_TOL keeps as many vectors, both span
    one space: the projectors agree to 1e-12, widened by the Davis-Kahan factor
    (4 ||E|| + 64 d eps) / gap for the perturbation E and the next singular value gap.
    """
    d = 2 ** qubits
    rng = np.random.default_rng(seed)
    u, e_norm = planted_unitary(d, rng, [sign * placed_phase(place, d, rng)], off_unit, strength)
    sub = linear_consistency_basis(loop_scenario(u), "strict")

    sigma = scipy.linalg.svd(u - np.eye(d), compute_uv=False, lapack_driver="gesvd")
    assert sub.dimension == np.count_nonzero(sigma <= PHASE_TOL)
    phases, vecs = unitary_eigensystem(u)
    schur = vecs[:, np.abs(phases) <= PHASE_TOL]
    if sub.dimension and schur.shape[1] == sub.dimension:
        gap = sigma[d - 1 - sub.dimension]
        tol = max(1e-12, (4.0 * e_norm + 64.0 * d * np.finfo(float).eps) / gap)
        assert np.abs(projector(sub.eigenpairs[0].basis) - projector(schur)).max() <= tol


def test_strict_cutoff_departs_from_schur_in_the_off_unit_band():
    """The pinned case where the rules differ: Schur keeps a phase just inside PHASE_TOL,
    but the stretched modulus puts sigma just above it, so no unit state s has
    ||U s - s|| <= PHASE_TOL, and the strict dimension is 0 where the Schur rule gave 1."""
    rng = np.random.default_rng(0)
    u, _ = planted_unitary(4, rng, [placed_phase("inside_tol", 4, rng)], "scaled", 1.0)
    sc = loop_scenario(u)
    phases, vecs = unitary_eigensystem(u)
    assert np.count_nonzero(np.abs(phases) <= PHASE_TOL) == 1
    assert linear_consistency_basis(sc, "strict").dimension == 0
    kept = vecs[:, np.argmin(np.abs(phases))]
    assert residual(sc, StateVector(sc.layout, kept), "strict") > PHASE_TOL


@pytest.mark.kernel_independent
@settings(max_examples=60, deadline=None)
@given(qubits=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       offset=st.sampled_from([0.0, 1.5, 3.0]), sign=st.sampled_from([1.0, -1.0]),
       off_unit=OFF_UNIT, strength=st.floats(-1.0, 1.0))
def test_values_first_strict_basis_equals_fixed_space_alone(qubits, seed, offset, sign,
                                                            off_unit, strength):
    """One eigenphase at 0, 1.5 PHASE_TOL or 3 PHASE_TOL: the strict block is the one that
    _fixed_space(U, PHASE_TOL) alone gives, bit for bit, and the singular vectors are computed
    only where the smallest singular value is within the 2 PHASE_TOL margin."""
    d = 2 ** qubits
    rng = np.random.default_rng(seed)
    u, _ = planted_unitary(d, rng, [sign * offset * PHASE_TOL], off_unit, strength)
    alone = _fixed_space(u, PHASE_TOL)
    calls = []

    def fixed_space(m, tol):
        calls.append(tol)
        return _fixed_space(m, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qdesk.ctc, "_fixed_space", fixed_space)
        sub = linear_consistency_basis(loop_scenario(u), "strict")
    assert calls == ([PHASE_TOL] if offset < 2.0 else [])
    assert sub.dimension == alone.shape[1] == (1 if offset == 0.0 else 0)
    if alone.shape[1]:
        assert sub.eigenpairs[0].phase == 0.0
        assert np.array_equal(sub.eigenpairs[0].basis, _canonical_basis(alone))


@settings(max_examples=100, deadline=None)
@given(d=st.integers(2, 16), data=st.data(), off_unit=OFF_UNIT, strength=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_strict_basis_spans_consistent_states(d, data, off_unit, strength, seed):
    """Every unit combination of a planted eigenvalue-1 space's strict basis is consistent."""
    k = data.draw(st.integers(0, d))
    rng = np.random.default_rng(seed)
    u, _ = planted_unitary(d, rng, np.zeros(k), off_unit, strength)
    sc = loop_scenario(u)
    sub = linear_consistency_basis(sc, "strict")
    assert sub.dimension == k
    if not k:
        return
    basis = sub.eigenpairs[0].basis
    combos = np.hstack([np.eye(k), rng.standard_normal((k, 8)) + 1j * rng.standard_normal((k, 8))])
    for c in combos.T:
        res = residual(sc, StateVector(sc.layout, basis @ c), "strict")
        assert res <= CONSISTENCY_TOL, res


def random_isometry(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@settings(max_examples=200, deadline=None)
@given(d=st.integers(2, 16), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_canonical_basis_depends_on_the_subspace_alone(d, data, seed):
    k = data.draw(st.integers(0, d))
    rng = np.random.default_rng(seed)
    q = random_isometry(rng, d, k)
    basis = _canonical_basis(q)
    rotated = _canonical_basis(q @ random_isometry(rng, k, k))
    assert basis.shape == (d, k)
    assert np.abs(basis - rotated).max(initial=0.0) <= 1e-12
    assert np.abs(basis.conj().T @ basis - np.eye(k)).max(initial=0.0) <= 1e-12
    assert np.abs(projector(basis) - projector(q)).max() <= 1e-12
    for j in range(k):  # the pivot is the column's largest entry; later columns vanish there
        p = int(np.argmax(np.abs(basis[:, j])))
        assert basis[p, j].imag == 0.0 and basis[p, j].real > 0.0
        assert np.abs(basis[p, j + 1:]).max(initial=0.0) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(d=st.integers(2, 16), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_ray_clusters_match_schur_eigenspaces(d, data, seed):
    """U = V diag(phases with repeats) V†: each cluster is the Schur selection of its phase.

    A pair at ±(pi - w) merges across ±pi into one space at pi if 2w <= PHASE_TOL."""
    wrap = data.draw(st.sampled_from([None, PHASE_TOL / 3, PHASE_TOL])) if d > 2 else None
    rest = d - 2 if wrap else d
    m = data.draw(st.integers(1, rest))
    rng = np.random.default_rng(seed)
    distinct = -math.pi + 2.0 * math.pi * (np.arange(m) + rng.uniform(0.1, 0.9, m)) / m
    phases = np.concatenate([distinct, rng.choice(distinct, rest - m)])
    dims = [np.count_nonzero(phases == p) for p in distinct]
    if wrap:
        phases = np.append(phases, [math.pi - wrap, -math.pi + wrap])
        dims += [2] if 2 * wrap <= PHASE_TOL else [1, 1]
    u, _ = planted_unitary(d, rng, phases, "exact", 0.0)
    sub = linear_consistency_basis(loop_scenario(u), "ray")
    assert sorted(e.dimension for e in sub.eigenpairs) == sorted(dims)
    if wrap and 2 * wrap <= PHASE_TOL:
        assert any(e.dimension == 2 and abs(np.angle(-np.exp(1j * e.phase))) <= 1e-12
                   for e in sub.eigenpairs)
    ref_phases, ref_vecs = unitary_eigensystem(u)
    for pair in sub.eigenpairs:
        dist = np.abs(np.angle(np.exp(1j * (ref_phases - pair.phase))))
        sel = dist <= PHASE_TOL
        assert np.count_nonzero(sel) == pair.dimension
        # Davis-Kahan: a space gap from the rest is known to eps / gap (2 PHASE_TOL apart)
        tol = max(1e-12, 16 * d * np.finfo(float).eps / dist[~sel].min(initial=math.pi))
        assert np.abs(projector(pair.basis) - projector(ref_vecs[:, sel])).max() <= tol


def test_consistency_residuals_for_the_flip():
    sc = grandfather_scenario("qubit_flip")
    plus = StateVector(sc.layout, [1.0, 1.0])
    assert residual(sc, plus, "strict") < 1e-12
    zero = StateVector(sc.layout, [1.0, 0.0])
    for mode in ("strict", "ray"):
        assert abs(residual(sc, zero, mode) - SQ2) < 1e-12


def test_strict_states_survive_many_traversals():
    sc = grandfather_scenario("qubit_flip")
    v = linear_consistency_basis(sc, "strict").eigenpairs[0].basis[:, 0]
    u = sc.loop_unitary.matrix
    cur = v.copy()
    for k in range(1, 101):
        cur = u @ cur
        assert np.linalg.norm(cur - v) <= k * 1e-9


def test_strict_subspace_is_linear():
    # two orthogonal strict rays: the flip on each of two loop qubits
    lay = layout_of(("p", ("b0", "b1")), ("q", ("b0", "b1")))
    sc = CtcScenario((), ("p", "q"), UnitaryOperator(lay, np.kron(X, X)))
    strict = linear_consistency_basis(sc, "strict")
    assert strict.dimension == 2
    basis = strict.eigenpairs[0].basis
    rng = SplitMix64(3)
    for _ in range(100):
        c = rng.complex_normals(2)
        combo = basis @ c
        assert residual(sc, StateVector(lay, combo), "strict") <= 1e-8
    # strict states are literally periodic: k traversals drift at most k*1e-9
    u = sc.loop_unitary.matrix
    start = StateVector(lay, basis @ rng.complex_normals(2)).amplitudes
    cur = start.copy()
    for k in range(1, 101):
        cur = u @ cur
        assert np.linalg.norm(cur - start) <= k * 1e-9


# ---------------------------------------------------------------------------
# admissibility scans


def test_scan_of_identity_accepts_all():
    sc = qubit_scenario(np.eye(2))
    scan = admissible_fraction(sc, 200, "strict", seed=1)
    assert scan.fraction == 1.0
    assert scan.residual_max < 1e-12


def test_scan_of_flip_rejects_all():
    sc = grandfather_scenario("qubit_flip")
    scan = admissible_fraction(sc, 1000, "strict", seed=2)
    assert scan.fraction == 0.0
    assert scan.residual_min > 1e-3


def test_scan_of_pure_phase_loop():
    sc = qubit_scenario(np.diag([1.0, np.exp(1j * math.pi / 3)]))
    scan = admissible_fraction(sc, 2000, "strict", seed=3)
    assert scan.fraction == 0.0
    assert scan.residual_min < 0.15  # samples concentrate near the fixed ray
    assert scan.residual_min > 0.0


def test_scan_is_deterministic_under_seed():
    sc = grandfather_scenario("qubit_flip")
    a = admissible_fraction(sc, 100, "ray", seed=9)
    b = admissible_fraction(sc, 100, "ray", seed=9)
    assert a == b


def test_scan_rejects_a_bad_mode_before_drawing_a_sample(monkeypatch):
    drawn = []
    monkeypatch.setattr(qdesk.ctc, "stream_seeds", lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match="mode must be 'strict' or 'ray'"):
        admissible_fraction(grandfather_scenario("qubit_flip"), 10, "bogus", seed=1)
    assert drawn == []


def test_scan_draws_its_seeds_one_block_at_a_time(monkeypatch):
    # a seed is 8 bytes a sample, so seeds drawn up front would cost O(samples) before the
    # first block; each block draws its own, and the residuals keep their bits
    sc = grandfather_scenario("qubit_flip")
    u = sc.loop_unitary.matrix
    rows = _SCAN_BLOCK // (2 * len(u))
    n, seed = 2 * rows + 3, 2**64 - 5
    draw, asked = qdesk.ctc.stream_seeds, []
    whole = qdesk.ctc.haar_states(draw(seed, n), len(u))
    want = _residuals(u, whole / _row_norms(whole)[:, None], "ray")
    monkeypatch.setattr(qdesk.ctc, "stream_seeds",
                        lambda master_seed, count: asked.append(count) or draw(master_seed, count))
    got = _scan_residuals(sc, n, "ray", seed)
    assert asked == [rows, rows, 3]
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**64 - 1), st.sampled_from([1, 2, 3, 6]), st.data())
def test_scan_residuals_equal_single_sample_residuals_bit_for_bit(seed, qubits, data):
    # the scan draws and tests a block of samples as arrays; each residual must be
    # the single-sample computation's, bit for bit, across block boundaries too
    d = 2 ** qubits
    n_cr = data.draw(st.integers(0, qubits - 1), label="cr qubits")
    n = data.draw(st.sampled_from([1, 2, 33, _SCAN_BLOCK // (2 * d) + 1]), label="samples")
    mode = data.draw(st.sampled_from(["strict", "ray"]), label="mode")
    kind = data.draw(st.sampled_from(["haar", "identity"]), label="unitary")
    lay = layout_of(*[(f"q{i}", ("0", "1")) for i in range(qubits)])
    u = haar_unitary(d, SplitMix64(seed ^ 0x5EED)) if kind == "haar" else np.eye(d)
    sc = CtcScenario(lay.ids[:n_cr], lay.ids[n_cr:], UnitaryOperator(lay, u))

    states = [StateVector(lay, haar_state(d, SplitMix64(s))) for s in splitmix64_reference(seed, n)]
    want = np.array([single_residual(sc.loop_unitary.matrix, s.amplitudes, mode) for s in states])
    got = _scan_residuals(sc, n, mode, seed)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    scan = admissible_fraction(sc, n, mode, seed)
    assert scan.admissible_count == np.count_nonzero(want <= CONSISTENCY_TOL)
    assert (scan.residual_min, scan.residual_max) == (want.min(), want.max())
    assert scan.residual_median == statistics.median(want.tolist())


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.floats(0.0, 2.0), min_size=1, max_size=2001),
    st.lists(st.floats(0.0, 2.0), min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from([0.0, *pool]), min_size=1, max_size=2001))))
@example([0.0])
@example([0.5])
@example([0.0, 0.0])
@example([0.0, 2.0])
@example([0.25] * 1000 + [0.0] * 1001)
@example([1.0, 0.0, 1.0, 0.0])
def test_scan_median_equals_statistics_median_bit_for_bit(residuals):
    # admissible_fraction reports _median of residuals in [0, 2]; the standard library's median
    # is the reference for its bytes. The second strategy draws few distinct values, so ties
    # and exact zeros (a strict residual can be 0) are the rule; _median reorders its argument
    # and nothing more
    arr = np.array(residuals)
    assert _median(arr).hex() == float(statistics.median(residuals)).hex()
    assert sorted(arr.tolist()) == sorted(residuals)


# ---------------------------------------------------------------------------
# induced loop channel


def test_induced_map_is_trace_and_positivity_preserving():
    rng = SplitMix64(50)
    for trial in range(100):
        d_ctc = 2 if trial % 2 == 0 else 4
        loop_labels = tuple(f"b{i}" for i in range(d_ctc))
        lay = layout_of(("mem", ("b0", "b1")), ("loop", loop_labels))
        d = lay.total_dimension
        sc = CtcScenario(("mem",), ("loop",),
                    UnitaryOperator(lay, haar_unitary(d, rng)))
        rho_cr = cr_density(sc, random_density(2, rng))
        apply_map = induced_loop_map(sc, rho_cr)
        rho = random_density(d_ctc, rng)
        image = apply_map(rho)
        assert abs(np.trace(image).real - 1.0) <= 1e-10
        assert np.abs(image - image.conj().T).max() <= 1e-10
        assert np.linalg.eigvalsh(image).min() >= -1e-9


CR_INPUT_KINDS = ("pure", "basis", "maximally_mixed", "rank_deficient", "non_diagonal",
                  "negative_eigenvalue")


def cr_input_matrix(kind: str, d: int, rng: SplitMix64) -> np.ndarray:
    """A CR density matrix of the named kind, as the DensityMatrix constructor accepts it."""
    if kind == "pure":
        v = haar_state(d, rng)
        return np.outer(v, v.conj())
    if kind == "basis":
        m = np.zeros((d, d), dtype=complex)
        m[d - 1, d - 1] = 1.0
        return m
    if kind == "maximally_mixed":
        return np.eye(d, dtype=complex) / d
    if kind == "non_diagonal":
        return random_density(d, rng)
    vecs = haar_unitary(d, rng)
    if kind == "rank_deficient":
        weights = np.array([rng.random() + 0.1 for _ in range(d - 1)] + [0.0])
        weights /= weights.sum()
    else:  # one eigenvalue just below zero, within the constructor's floor
        weights = np.array([-1e-11] + [1.0 / (d - 1)] * (d - 1))
        weights[1] += 1e-11
    m = (vecs * weights) @ vecs.conj().T
    return (m + m.conj().T) / 2.0


def random_loop_case(dims, data):
    """Scenario with CR and loop subsystems interleaved in any order (maybe no CR),
    a CR input of any kind, and a random loop density matrix."""
    n = len(dims)
    order = data.draw(st.permutations(range(n)))
    cr_positions = sorted(order[:data.draw(st.integers(0, n - 1))])
    rng = SplitMix64(data.draw(st.integers(0, 2**64 - 1)))
    lay = layout_of(*[(f"s{i}", tuple(f"l{j}" for j in range(d))) for i, d in enumerate(dims)])
    cr_ids = tuple(f"s{p}" for p in cr_positions)
    ctc_ids = tuple(sid for sid in lay.ids if sid not in cr_ids)
    sc = CtcScenario(cr_ids, ctc_ids,
                UnitaryOperator(lay, haar_unitary(lay.total_dimension, rng)))
    rho_cr = None
    if cr_ids:
        kind = data.draw(st.sampled_from(CR_INPUT_KINDS))
        rho_cr = cr_density(sc, cr_input_matrix(kind, sc.cr_layout().total_dimension, rng))
    rho = random_density(sc.ctc_layout().total_dimension, rng)
    return sc, cr_positions, rho_cr, rho


@settings(max_examples=80, deadline=None)
@given(dims=st.lists(st.integers(2, 3), min_size=2, max_size=4), data=st.data())
def test_induced_loop_map_matches_oracle(dims, data):
    sc, cr_positions, rho_cr, rho = random_loop_case(dims, data)
    cr_matrix = np.ones((1, 1)) if rho_cr is None else rho_cr.matrix
    expected = induced_map_oracle(sc.loop_unitary.matrix, dims, cr_positions, cr_matrix, rho)
    assert np.abs(induced_loop_map(sc, rho_cr)(rho) - expected).max() < 1e-12


@settings(max_examples=80, deadline=None)
@given(dims=st.lists(st.integers(2, 3), min_size=2, max_size=4), data=st.data())
def test_superoperator_matches_columnwise_construction(dims, data):
    sc, _, rho_cr, _ = random_loop_case(dims, data)
    d = sc.ctc_layout().total_dimension
    expected = columnwise_superoperator(induced_loop_map(sc, rho_cr), d)
    assert np.abs(_superoperator(*_loop_operators(sc, rho_cr)) - expected).max() < 1e-12


def test_grandfather_fixed_point_is_maximally_mixed():
    sc = grandfather_scenario("qubit_flip")
    for method in ("iterate", "spectral"):
        sol = deutsch_fixed_point(sc, None, method)
        assert np.abs(sol.rho_ctc.matrix - np.eye(2) / 2).max() < 1e-12
        assert sol.residual <= 1e-10
    # superoperator eigenvector oracle: the map is conjugation by the flip
    sup = conjugation_superoperator(X)
    vec = (np.eye(2) / 2).reshape(-1, order="F")
    assert np.abs(sup @ vec - vec).max() < 1e-12
    spectral = deutsch_fixed_point(sc, None, "spectral")
    assert spectral.fixed_space_dim == 2  # identity and the flip itself


def test_identity_loop_returns_canonical_maximally_mixed():
    sc = qubit_scenario(np.eye(2))
    for method in ("iterate", "spectral"):
        sol = deutsch_fixed_point(sc, None, method)
        assert np.abs(sol.rho_ctc.matrix - np.eye(2) / 2).max() < 1e-12
    assert deutsch_fixed_point(sc, None, "spectral").fixed_space_dim == 4


def memory_controlled_flip() -> np.ndarray:
    """CNOT on (mem, loop) with control = mem (CR), target = loop."""
    cnot = np.zeros((4, 4), dtype=complex)
    for m in range(2):
        for l in range(2):
            cnot[(m << 1) | (l ^ m), (m << 1) | l] = 1.0
    return cnot


def test_controlled_flip_with_cr_control_states():
    sc = two_qubit_scenario(memory_controlled_flip())

    off = cr_density(sc, np.diag([1.0, 0.0]))
    apply_off = induced_loop_map(sc, off)
    probe = random_density(2, SplitMix64(61))
    assert np.abs(apply_off(probe) - probe).max() < 1e-12  # identity channel
    sol = deutsch_fixed_point(sc, off, "spectral")
    assert np.abs(sol.rho_ctc.matrix - np.eye(2) / 2).max() < 1e-12
    assert sol.fixed_space_dim == 4

    on = cr_density(sc, np.diag([0.0, 1.0]))
    apply_on = induced_loop_map(sc, on)
    assert np.abs(apply_on(probe) - apply_columnstacked(conjugation_superoperator(X), probe)).max() < 1e-12
    sol = deutsch_fixed_point(sc, on, "spectral")
    assert np.abs(sol.rho_ctc.matrix - np.eye(2) / 2).max() < 1e-12
    assert sol.fixed_space_dim == 2


def test_cr_coupled_grandfather_has_unique_mixed_fixed_point():
    sc = grandfather_scenario("cr_coupled")
    rho_cr = DensityMatrix(sc.cr_layout(), np.diag([1.0, 0.0]))
    for method in ("iterate", "spectral"):
        sol = deutsch_fixed_point(sc, rho_cr, method)
        assert sol.residual <= 1e-10
        assert np.abs(sol.rho_ctc.matrix - np.eye(2) / 2).max() < 1e-10
    assert deutsch_fixed_point(sc, rho_cr, "spectral").fixed_space_dim == 1


def test_fixed_points_exist_for_random_scenarios():
    rng = SplitMix64(70)
    for trial in range(30):
        lay = layout_of(("mem", ("b0", "b1")), ("loop", ("b0", "b1")))
        sc = CtcScenario(("mem",), ("loop",),
                    UnitaryOperator(lay, haar_unitary(4, rng)))
        rho_cr = cr_density(sc, random_density(2, rng))
        it = deutsch_fixed_point(sc, rho_cr, "iterate")
        sp = deutsch_fixed_point(sc, rho_cr, "spectral")
        assert it.residual <= 1e-8
        assert sp.residual <= 1e-8
        if sp.fixed_space_dim == 1:
            assert trace_distance(it.rho_ctc.matrix, sp.rho_ctc.matrix) <= 1e-6


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4 selection rule")
def test_methods_agree_on_nonunique_fixed_point():
    # a permutation loop whose superoperator has a 3-dimensional eigenvalue-1
    # space: iterate lands on diag(1/4, 0, 1/2, 1/4), spectral on
    # diag(1/3, 0, 1/3, 1/3), and at most one of them is Deutsch's choice
    qubit = ("b0", "b1")
    lay = layout_of(("m", qubit), ("l0", qubit), ("l1", qubit))
    u = np.eye(8)[:, [7, 6, 2, 4, 1, 5, 3, 0]]
    sc = CtcScenario(("m",), ("l0", "l1"), UnitaryOperator(lay, u))
    rho_cr = cr_density(sc, np.diag([1.0, 0.0]))
    it = deutsch_fixed_point(sc, rho_cr, "iterate")
    sp = deutsch_fixed_point(sc, rho_cr, "spectral")
    assert sp.fixed_space_dim == 3
    assert trace_distance(it.rho_ctc.matrix, sp.rho_ctc.matrix) <= 1e-8


def assert_fixed_space_matches_eig(sup: np.ndarray) -> int:
    """_fixed_space(sup, FIXED_SPACE_TOL) and the eig selection: one dimension, one projector."""
    basis, ref = _fixed_space(sup, FIXED_SPACE_TOL), eig_fixed_space(sup)
    assert basis.shape == ref.shape
    assert np.abs(basis @ basis.conj().T - ref @ ref.conj().T).max() <= 1e-12
    return basis.shape[1]


def weakly_coupled_unitary(d: int, theta: float, rng: SplitMix64) -> np.ndarray:
    """exp(-i theta H) for a random Hermitian H of spectral norm 1."""
    a = rng.complex_normals(d * d).reshape(d, d)
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2.0)
    return (vecs * np.exp(-1j * theta * vals / np.abs(vals).max())) @ vecs.conj().T


@settings(max_examples=60, deadline=None)
@given(n_cr=st.integers(0, 2), n_loop=st.integers(1, 2), weak=st.booleans(),
       theta=st.floats(0.25, 0.35), pure_cr=st.booleans(), seed=st.integers(0, 2**64 - 1))
def test_fixed_space_equals_eig_selection(n_cr, n_loop, weak, theta, pure_cr, seed):
    """The SVD fixed space of the superoperator is the eig selection's, on Haar loops and on
    weakly coupled exp(-i theta H) loops with 0-2 CR qubits and a pure or mixed CR input.

    Any two solvers' projectors agree to order 1e-16 / gap, with gap the distance from 1 to
    the nearest other eigenvalue of the superoperator: about 1e-1 on Haar loops and 1e-2
    on these weakly coupled ones. A rare weakly coupled draw has a gap near 1e-4, where the
    two projectors differ by about 1.5e-12; draws with a gap below 1e-3 are rejected.
    """
    rng = SplitMix64(seed)
    ids = [f"c{i}" for i in range(n_cr)] + [f"l{i}" for i in range(n_loop)]
    lay = layout_of(*[(q, ("b0", "b1")) for q in ids])
    d = lay.total_dimension
    u = weakly_coupled_unitary(d, theta, rng) if weak else haar_unitary(d, rng)
    sc = CtcScenario(tuple(ids[:n_cr]), tuple(ids[n_cr:]), UnitaryOperator(lay, u))
    rho_cr = None
    if n_cr:
        mixed = random_density(2 ** n_cr, rng)
        rho_cr = cr_density(sc, np.diag(np.eye(2 ** n_cr)[0]) if pure_cr else mixed)
    sup = _superoperator(*_loop_operators(sc, rho_cr))
    distance = np.abs(np.linalg.eigvals(sup) - 1.0)
    assume(distance[distance > 1e-9].min() >= 1e-3)
    assert_fixed_space_matches_eig(sup)


def pinned_permutation_loop(name: str):
    """The permutation and conjugation loops whose fixed_space_dim the tests above pin."""
    if name in ("qubit_flip", "cr_coupled"):
        sc = grandfather_scenario(name)
        return sc, None if name == "qubit_flip" else cr_density(sc, np.diag([1.0, 0.0]))
    if name == "identity":
        return qubit_scenario(np.eye(2)), None
    if name in ("controlled_flip_off", "controlled_flip_on"):
        sc = two_qubit_scenario(memory_controlled_flip())
        return sc, cr_density(sc, np.diag([1.0, 0.0] if name.endswith("off") else [0.0, 1.0]))
    qubit = ("b0", "b1")
    lay = layout_of(("m", qubit), ("l0", qubit), ("l1", qubit))
    sc = CtcScenario(("m",), ("l0", "l1"),
                UnitaryOperator(lay, np.eye(8)[:, [7, 6, 2, 4, 1, 5, 3, 0]]))
    return sc, cr_density(sc, np.diag([1.0, 0.0]))


@pytest.mark.parametrize("name,dim", [("cr_coupled", 1), ("qubit_flip", 2),
                                      ("controlled_flip_on", 2), ("nonunique_permutation", 3),
                                      ("identity", 4), ("controlled_flip_off", 4)])
def test_fixed_space_of_permutation_loops_equals_eig_selection(name, dim):
    sc, rho_cr = pinned_permutation_loop(name)
    assert assert_fixed_space_matches_eig(_superoperator(*_loop_operators(sc, rho_cr))) == dim


def test_oscillating_channel_exercises_the_spectral_hand_off():
    # loop qutrit: |2> feeds into |1>, and {|0>, |1>} are swapped each pass;
    # plain iteration from the maximally mixed state cycles with period two
    b1 = np.zeros((3, 3), dtype=complex)
    b1[1, 2] = 1.0
    b2 = np.zeros((3, 3), dtype=complex)
    b2[0, 1] = b2[1, 0] = 1.0
    u = kraus_dilation([b1, b2])
    lay = layout_of(("env", ("e0", "e1")), ("loop", ("b0", "b1", "b2")))
    sc = CtcScenario(("env",), ("loop",), UnitaryOperator(lay, u))
    rho_cr = cr_density(sc, np.diag([1.0, 0.0]))

    expected = np.diag([0.5, 0.5, 0.0])
    it = deutsch_fixed_point(sc, rho_cr, "iterate")
    assert it.iterations > 100  # the plain phase plateaued and handed off
    assert it.residual <= 1e-10
    assert np.abs(it.rho_ctc.matrix - expected).max() < 1e-9
    sp = deutsch_fixed_point(sc, rho_cr, "spectral")
    assert np.abs(sp.rho_ctc.matrix - expected).max() < 1e-9


# Plain-phase outcomes of exp(-i theta H) loops, each with the theta range, CR input and
# MAX_ITERATIONS that reach it
PLAIN_PHASE_CASES = {
    # a maximally mixed CR input makes the map unital: I/d is fixed at iteration 1
    "first_iteration": (st.floats(0.01, 1.0), "mixed", 300),
    # a strong coupling: the distance falls to ITERATE_TOL after tens to hundreds of
    # iterations, inside a block of several
    "converges": (st.floats(2.0, 3.0), "pure", 10_000),
    # a coupling so weak that the distance falls by under 0.1% a window: the spectral hand-off
    "plateau": (st.floats(5e-4, 2e-3), "pure", 300),
    # the distance falls, but not to ITERATE_TOL within MAX_ITERATIONS
    "budget": (st.floats(0.1, 0.3), "pure", 300),
}


@pytest.mark.kernel_independent
@pytest.mark.parametrize("case", sorted(PLAIN_PHASE_CASES))
@settings(max_examples=25, deadline=None)
@given(n_cr=st.integers(1, 2), n_loop=st.integers(1, 2), seed=st.integers(0, 2**64 - 1),
       data=st.data())
def test_blocked_plain_phase_equals_the_per_step_oracle(case, n_cr, n_loop, seed, data):
    """The blocked plain phase gives the per-step oracle's iterations, residual bits and rho
    bits, and applies the map fewer than _ITERATE_BLOCK times more; a plateaued or exhausted
    plain phase hands off to the spectral solve at the oracle's iteration."""
    theta_range, cr_input, max_iterations = PLAIN_PHASE_CASES[case]
    rng = SplitMix64(seed)
    ids = [f"c{i}" for i in range(n_cr)] + [f"l{i}" for i in range(n_loop)]
    lay = layout_of(*[(q, ("b0", "b1")) for q in ids])
    u = weakly_coupled_unitary(lay.total_dimension, data.draw(theta_range), rng)
    sc = CtcScenario(tuple(ids[:n_cr]), tuple(ids[n_cr:]), UnitaryOperator(lay, u))
    d_cr = 2 ** n_cr
    rho_cr = cr_density(sc, np.eye(d_cr) / d_cr if cr_input == "mixed" else np.diag(np.eye(d_cr)[0]))
    apply_map = induced_loop_map(sc, rho_cr)
    spectral = qdesk.ctc._spectral_fixed_point
    outcomes, applications, steps = [], [], []

    def spectral_steps(f, sup, d):
        solved = spectral(f, sup, d)
        steps.append(solved[2])
        return solved

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qdesk.ctc, "MAX_ITERATIONS", max_iterations)
        mp.setattr(qdesk.ctc, "_spectral_fixed_point", spectral_steps)
        for solve in (qdesk.ctc._iterate_fixed_point, per_step_iterate_fixed_point):
            count = [0]

            def counted(rho):
                count[0] += 1
                return apply_map(rho)

            rho, res, iterations = solve(counted, 2 ** n_loop,
                                         lambda: _superoperator(*_loop_operators(sc, rho_cr)))
            outcomes.append((rho.tobytes(), res.hex(), iterations))
            applications.append(count[0])
    assert outcomes[0] == outcomes[1]
    assert 0 <= applications[0] - applications[1] < qdesk.ctc._ITERATE_BLOCK
    # the plain-phase iterations at which each solve handed off
    hand_offs = [outcome[2] - k for outcome, k in zip(outcomes, steps)]
    if case == "first_iteration":
        assert (steps, outcomes[0][2]) == ([], 1)
    elif case == "converges":
        assert steps == [] and outcomes[0][2] > 1
    elif case == "plateau":
        assert hand_offs == [hand_offs[0]] * 2 and hand_offs[0] < max_iterations
    else:
        assert hand_offs == [max_iterations] * 2


def test_tiny_gap_channel_hands_off_to_the_spectral_solve(monkeypatch):
    # amplitude damping at gamma = 1e-6: the distance falls by a factor 1 - gamma a step, so the
    # plain phase plateaus, and iterate returns spectral's rho and residual bit for bit
    u = kraus_dilation(amplitude_damping(1e-6))
    lay = layout_of(("env", ("e0", "e1")), ("loop", ("b0", "b1")))
    sc = CtcScenario(("env",), ("loop",), UnitaryOperator(lay, u))
    rho_cr = cr_density(sc, np.diag([1.0, 0.0]))
    sp = deutsch_fixed_point(sc, rho_cr, "spectral")
    assert sp.residual <= 1e-8
    assert np.abs(sp.rho_ctc.matrix - np.diag([1.0, 0.0])).max() < 1e-8

    spectral, steps = qdesk.ctc._spectral_fixed_point, []

    def spectral_steps(*args):
        solved = spectral(*args)
        steps.append(solved[2])
        return solved

    monkeypatch.setattr(qdesk.ctc, "_spectral_fixed_point", spectral_steps)
    it = deutsch_fixed_point(sc, rho_cr, "iterate")
    assert steps == [sp.iterations]
    plain = it.iterations - sp.iterations
    assert qdesk.ctc.PLATEAU_WINDOW < plain < qdesk.ctc.MAX_ITERATIONS
    assert (it.rho_ctc.matrix.tobytes(), it.residual) == (sp.rho_ctc.matrix.tobytes(), sp.residual)
    assert it.fixed_space_dim is None


@pytest.mark.parametrize("theta,seed", [(1e-2, 1000), (1e-4, 1001)],
                         ids=["exits_3", "far_off_state"])
def test_iterate_finds_the_unique_fixed_point_of_a_weakly_coupled_loop(theta, seed):
    # 1 CR qubit in |0> and 2 loop qubits under exp(-i theta H); spectral finds a unique fixed
    # point with a residual below 1e-15. The plain phase plateaus on both and hands off to
    # that spectral solve
    lay = layout_of(*[(q, ("b0", "b1")) for q in ("c0", "l0", "l1")])
    u = weakly_coupled_unitary(8, theta, SplitMix64(seed))
    sc = CtcScenario(("c0",), ("l0", "l1"), UnitaryOperator(lay, u))
    rho_cr = cr_density(sc, np.diag([1.0, 0.0]))
    sp = deutsch_fixed_point(sc, rho_cr, "spectral")
    assert sp.fixed_space_dim == 1
    it = deutsch_fixed_point(sc, rho_cr, "iterate")
    assert np.abs(it.rho_ctc.matrix - sp.rho_ctc.matrix).max() <= 1e-9


@pytest.mark.kernel_independent
@settings(max_examples=30, deadline=None)
@given(n_cr=st.integers(1, 2), n_loop=st.integers(1, 2),
       log_theta=st.floats(math.log(1e-4), math.log(0.3)), pure_cr=st.booleans(),
       seed=st.integers(0, 2**64 - 1))
@example(n_cr=1, n_loop=2, log_theta=math.log(1e-2), pure_cr=True, seed=1000)
def test_stalled_iterate_returns_the_spectral_solve(n_cr, n_loop, log_theta, pure_cr, seed):
    """On weakly coupled exp(-i theta H) loops, theta log-uniform in [1e-4, 0.3], iterate never
    raises, and where its plain phase hands off, its rho_ctc, residual and CR output are
    spectral's bit for bit. A solve that stops at ITERATE_TOL is held to the residual
    contract only: its rho can be several 1e-8 from spectral's (ROADMAP item 21)."""
    rng = SplitMix64(seed)
    ids = [f"c{i}" for i in range(n_cr)] + [f"l{i}" for i in range(n_loop)]
    lay = layout_of(*[(q, ("b0", "b1")) for q in ids])
    u = weakly_coupled_unitary(lay.total_dimension, math.exp(log_theta), rng)
    sc = CtcScenario(tuple(ids[:n_cr]), tuple(ids[n_cr:]), UnitaryOperator(lay, u))
    d_cr = 2 ** n_cr
    rho_cr = cr_density(sc, np.diag(np.eye(d_cr)[0]) if pure_cr else random_density(d_cr, rng))
    sp = deutsch_fixed_point(sc, rho_cr, "spectral")
    spectral, hand_offs = qdesk.ctc._spectral_fixed_point, []

    def spectral_hand_off(*args):
        hand_offs.append(args)
        return spectral(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qdesk.ctc, "_spectral_fixed_point", spectral_hand_off)
        it = deutsch_fixed_point(sc, rho_cr, "iterate")
    assert it.residual <= qdesk.ctc.FIXED_POINT_TOL and it.fixed_space_dim is None
    if hand_offs:
        assert len(hand_offs) == 1 and it.iterations > sp.iterations
        assert ((it.rho_ctc.matrix.tobytes(), it.residual, it.cr_output.matrix.tobytes())
                == (sp.rho_ctc.matrix.tobytes(), sp.residual, sp.cr_output.matrix.tobytes()))


def test_spectral_verification_applies_the_map_once_per_step():
    # a stale superoperator (the identity's: every operator fixed) hands the verification
    # I/2, which amplitude damping at gamma = 0.5 moves to |0><0| one step at a time
    kraus = amplitude_damping(0.5)

    def damp(rho):
        return sum(k @ rho @ k.conj().T for k in kraus)

    applications = []
    rho, residual, iterations, dim = qdesk.ctc._spectral_fixed_point(
        lambda r: applications.append(1) or damp(r), np.eye(4, dtype=complex), 2)
    want, steps = np.eye(2, dtype=complex) / 2, 0
    while trace_distance(want, damp(want)) > qdesk.ctc.FIXED_POINT_TOL:
        want, steps = damp(want), steps + 1
    assert (iterations, steps, dim) == (25, 25, 4)
    assert len(applications) == iterations + 1
    assert residual == trace_distance(want, damp(want))
    assert np.array_equal(rho, want)


def test_a_solve_checks_its_cr_input_once(monkeypatch):
    checks = []
    check = qdesk.ctc._resolve_cr_input
    monkeypatch.setattr(qdesk.ctc, "_resolve_cr_input",
                        lambda *args: checks.append(args) or check(*args))
    sc = grandfather_scenario("cr_coupled")
    for method in ("iterate", "spectral"):
        checks.clear()
        deutsch_fixed_point(sc, cr_density(sc, np.diag([1.0, 0.0])), method)
        assert len(checks) == 1, method


def test_empty_cr_requires_none_input():
    sc = grandfather_scenario("qubit_flip")
    with pytest.raises(LayoutError):
        deutsch_fixed_point(sc, DensityMatrix(sc.ctc_layout(), np.eye(2) / 2), "iterate")
    coupled = grandfather_scenario("cr_coupled")
    with pytest.raises(LayoutError):
        deutsch_fixed_point(coupled, None, "iterate")


# ---------------------------------------------------------------------------
# loop output state


def test_identity_loop_passes_cr_through():
    lay = layout_of(("mem", ("b0", "b1")), ("loop", ("b0", "b1")))
    sc = CtcScenario(("mem",), ("loop",), UnitaryOperator(lay, np.eye(4)))
    rho_cr = cr_density(sc, random_density(2, SplitMix64(81)))
    out = deutsch_fixed_point(sc, rho_cr, "spectral").cr_output
    assert np.abs(out.matrix - rho_cr.matrix).max() < 1e-10


def test_cr_coupled_output_is_maximally_mixed():
    sc = grandfather_scenario("cr_coupled")
    rho_cr = DensityMatrix(sc.cr_layout(), np.diag([1.0, 0.0]))
    out = deutsch_fixed_point(sc, rho_cr, "iterate").cr_output
    assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-10
    assert abs(out.trace() - 1.0) <= 1e-10


def test_trivial_output_for_scenario_without_cr():
    sc = grandfather_scenario("qubit_flip")
    out = deutsch_fixed_point(sc, None, "iterate").cr_output
    assert out.layout == sc.cr_layout() and out.matrix.shape == (1, 1)
    assert abs(out.matrix[0, 0] - 1.0) < 1e-12


@settings(max_examples=80, deadline=None)
@given(dims=st.lists(st.integers(2, 3), min_size=2, max_size=4), data=st.data())
def test_output_state_matches_oracle(dims, data):
    sc, cr_positions, rho_cr, rho = random_loop_case(dims, data)
    # any loop density matrix, not only a fixed point, exercises the contraction; with no
    # CR it is tr(U rho U†), which a solve replaces by an exact [[1]]
    cr_matrix = np.ones((1, 1)) if rho_cr is None else rho_cr.matrix
    out = _cr_output(*_loop_operators(sc, rho_cr), rho, len(cr_matrix))
    expected = induced_map_oracle(sc.loop_unitary.matrix, dims, cr_positions, cr_matrix, rho,
                                  keep="cr")
    assert np.abs(out - expected).max() < 1e-12
    assert abs(np.trace(out) - 1.0) < 1e-12
    assert np.abs(out - out.conj().T).max() < 1e-12


def test_trace_distance_basics():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert abs(trace_distance(a, b) - 1.0) < 1e-12
    assert trace_distance(a, a) == 0.0
