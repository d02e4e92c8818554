"""Consistency conditions for quantum evolution around a closed loop.

A scenario is a layout split into chronology-respecting (CR) and loop (CTC)
subsystems plus one unitary describing a single traversal. Two rival
notions of a consistent history are implemented side by side:

* the linear single-valuedness constraint on the global pure state: it
  must return to itself after one traversal, exactly (strict mode) or up
  to a global phase (ray mode), each eigenspace in a canonical basis;
* the nonlinear fixed-point condition on the loop subsystem's density
  matrix, rho = Tr_CR[ U (rho_in ox rho) U† ], solved by iteration or via
  the induced superoperator's eigenvalue-1 space.

The loop channel is kept in two-sided operator-sum form,
rho -> sum_k L_k rho R_k†, where R_k are the d_ctc x d_ctc blocks of U
between CR basis states and L_k the same blocks with rho_in folded in. One
application is a batched product at loop size, and the superoperator is
sum_k conj(R_k) ox L_k. The CR state leaving the loop region is read off
the same pairs, traced over the loop instead of over CR, so no full-layout
density matrix or partial trace is formed anywhere here.

Solvers are pure and deterministic; Haar sampling for admissibility scans
draws from explicitly derived per-sample seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import DimensionMismatchError, LayoutError, SolverError
from .rng import SplitMix64, haar_state, stream_seed
from .tensor import (
    DensityMatrix,
    StateVector,
    SubsystemLayout,
    UnitaryOperator,
    _permute_operator_axes,
    layout_of,
)

PHASE_TOL = 1e-8          # eigenphase merge width (rad) and strict-mode sigma cutoff
CONSISTENCY_TOL = 1e-8    # residual below which a state counts as consistent
FIXED_POINT_TOL = 1e-8    # solver contract on the fixed-point residual
ITERATE_TOL = 1e-10       # successive-iterate trace distance target
MAX_ITERATIONS = 10_000
CESARO_WINDOW = 100


@dataclass(frozen=True)
class CtcScenario:
    """Layout partitioned into CR and loop subsystems, plus the loop unitary."""

    layout: SubsystemLayout
    cr_ids: tuple[str, ...]
    ctc_ids: tuple[str, ...]
    loop_unitary: UnitaryOperator

    def __post_init__(self):
        if set(self.cr_ids) & set(self.ctc_ids):
            raise LayoutError("cr and ctc id sets overlap")
        if set(self.cr_ids) | set(self.ctc_ids) != set(self.layout.ids):
            raise LayoutError("cr + ctc ids must cover the layout exactly")
        if not self.ctc_ids:
            raise LayoutError("scenario needs at least one loop subsystem")
        if self.loop_unitary.layout != self.layout:
            raise DimensionMismatchError("loop unitary layout differs from scenario layout")

    def cr_layout(self) -> SubsystemLayout:
        return self.layout.sub_layout(self.cr_ids)

    def ctc_layout(self) -> SubsystemLayout:
        return self.layout.sub_layout(self.ctc_ids)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) * sum of absolute eigenvalues of the (Hermitian) difference."""
    diff = a - b
    return 0.5 * float(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)).sum())


# ---------------------------------------------------------------------------
# Linear single-valuedness


@dataclass(frozen=True)
class EigenSpace:
    """One merged eigenphase and an orthonormal basis of its eigenspace."""

    phase: float
    basis: np.ndarray  # d x k, columns orthonormal

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class ConsistencySubspace:
    """Eigenrays of the loop unitary that pass the single-valuedness test."""

    mode: str
    eigenpairs: tuple[EigenSpace, ...]
    tolerance: float

    @property
    def dimension(self) -> int:
        return sum(e.dimension for e in self.eigenpairs)

    @property
    def phases(self) -> tuple[float, ...]:
        return tuple(e.phase for e in self.eigenpairs)


def _canonical_basis(q: np.ndarray) -> np.ndarray:
    """Basis of span(q), for orthonormal q, that depends on the projector P = q q† alone.

    Pivoted Cholesky of P: pivot on the largest remaining diagonal entry (the first
    index wins a tie within a relative 1e-9), take res[:, p] / sqrt(res[p, p])
    as the column. As P is a projector the columns are orthonormal and each pivot entry
    is real and positive, so solvers that find one subspace give one basis, up to P's rounding.
    """
    res = q @ q.conj().T
    basis = np.empty(q.shape, dtype=np.complex128)
    for j in range(q.shape[1]):
        diag = res.diagonal().real
        p = int(np.argmax(diag >= diag.max() * (1.0 - 1e-9)))
        basis[:, j] = res[:, p] / np.sqrt(diag[p])
        basis[p, j] = np.sqrt(diag[p])  # exactly real: res[p, p] has a rounding-level imag
        res = res - np.outer(basis[:, j], basis[:, j].conj())
    return basis


def _circular_clusters(phases: np.ndarray, tol: float) -> list[list[int]]:
    """Group indices whose phases chain within tol on the circle."""
    order = np.argsort(phases)
    clusters: list[list[int]] = []
    for idx in order:
        if clusters and phases[idx] - phases[clusters[-1][-1]] <= tol:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    if len(clusters) > 1:
        wrap_gap = (phases[clusters[0][0]] + 2.0 * np.pi) - phases[clusters[-1][-1]]
        if wrap_gap <= tol:
            clusters[0] = clusters.pop() + clusters[0]
    return clusters


def linear_consistency_basis(scenario: CtcScenario, mode: str = "strict") -> ConsistencySubspace:
    """Eigenspaces of the loop unitary U, filtered by mode, each in its _canonical_basis.

    strict: right singular vectors of U - I with sigma <= PHASE_TOL (one SVD), so each
            unit s in their span has ||U s - s|| <= PHASE_TOL, the residual that
            is_consistent_initial_state measures. It may be empty.
    ray:    every eigenspace from np.linalg.eig, eigenphases within PHASE_TOL merged,
            each cluster's eigenvectors orthonormalized by QR first.
    For an exact unitary sigma = |e^{i phi} - 1| = 2 |sin(phi / 2)| <= |phi|, so strict
    keeps all that |phi| <= PHASE_TOL keeps. _check_unitary admits ||U†U - I||_2 <=
    d ATOL, which moves sigma against |lambda - 1| by O(d ATOL): within that band of
    PHASE_TOL, sigma and the eigenphase can fall on opposite sides of the cutoff.
    """
    if mode not in ("strict", "ray"):
        raise ValueError(f"mode must be 'strict' or 'ray', got {mode!r}")
    u = scenario.loop_unitary.matrix
    if mode == "strict":
        _, sigma, vh = np.linalg.svd(u - np.eye(u.shape[0]))
        null = vh[sigma <= PHASE_TOL].conj().T
        pairs = [EigenSpace(0.0, _canonical_basis(null))] if null.shape[1] else []
    else:
        pairs = []
        vals, vecs = np.linalg.eig(u)
        phases = np.angle(vals)
        phases[phases <= -np.pi] = np.pi  # np.angle gives -pi for negative reals, -0 imag
        for cluster in _circular_clusters(phases, PHASE_TOL):
            lam = np.exp(1j * phases[cluster]).mean()
            phase = float(np.angle(lam))
            if phase <= -np.pi:
                phase += 2.0 * np.pi
            pairs.append(EigenSpace(phase, _canonical_basis(np.linalg.qr(vecs[:, cluster])[0])))
        pairs.sort(key=lambda e: e.phase)
    return ConsistencySubspace(mode, tuple(pairs), PHASE_TOL)


def is_consistent_initial_state(scenario: CtcScenario, s: StateVector,
                                mode: str = "strict") -> tuple[bool, float]:
    """Single-valuedness residual of s under one loop traversal.

    strict: ||U s - s||; ray: ||U s - e^{i phi} s|| at phi = arg<s|U s>,
    which minimizes the residual over all global phases.
    """
    if mode not in ("strict", "ray"):
        raise ValueError(f"mode must be 'strict' or 'ray', got {mode!r}")
    if s.layout != scenario.layout:
        raise DimensionMismatchError("state layout differs from scenario layout")
    image = scenario.loop_unitary.matrix @ s.amplitudes
    if mode == "strict":
        residual = float(np.linalg.norm(image - s.amplitudes))
    else:
        phi = np.angle(np.vdot(s.amplitudes, image))
        residual = float(np.linalg.norm(image - np.exp(1j * phi) * s.amplitudes))
    return residual <= CONSISTENCY_TOL, residual


@dataclass(frozen=True)
class AdmissibilityScan:
    """Haar-sampled fraction of states passing the single-valuedness test."""

    mode: str
    n_samples: int
    seed: int
    admissible_count: int
    fraction: float
    residual_min: float
    residual_median: float
    residual_max: float
    tolerance: float


def admissible_fraction(scenario: CtcScenario, n_samples: int, mode: str,
                        seed: int) -> AdmissibilityScan:
    """Sample Haar-random pure states and test each; deterministic under seed.

    Sample i draws from SplitMix64(stream_seed(seed, i)), so the scan can be
    partitioned across workers in any order without changing the result.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    d = scenario.layout.total_dimension
    residuals = np.empty(n_samples)
    admissible = 0
    for i in range(n_samples):
        rng = SplitMix64(stream_seed(seed, i))
        state = StateVector(scenario.layout, haar_state(d, rng))
        ok, res = is_consistent_initial_state(scenario, state, mode)
        residuals[i] = res
        admissible += int(ok)
    return AdmissibilityScan(
        mode, n_samples, seed, admissible, admissible / n_samples,
        float(residuals.min()), float(np.median(residuals)), float(residuals.max()),
        CONSISTENCY_TOL,
    )


# ---------------------------------------------------------------------------
# Density-matrix fixed point on the loop


@dataclass(frozen=True)
class DeutschSolution:
    """Fixed point of the induced loop channel, with convergence metadata.

    residual is the trace distance between rho_ctc and its image under the
    map. fixed_space_dim reports the superoperator's eigenvalue-1 dimension
    (spectral method only); when it exceeds one, the returned operator is the
    canonical maximum-entropy representative.
    """

    rho_ctc: DensityMatrix
    residual: float
    iterations: int
    method: str
    fixed_space_dim: int | None
    scenario: CtcScenario
    rho_cr: DensityMatrix | None


def _resolve_cr_input(scenario: CtcScenario, rho_cr_in: DensityMatrix | None) -> DensityMatrix | None:
    if not scenario.cr_ids:
        if rho_cr_in is not None:
            raise LayoutError("scenario has no CR subsystems; pass rho_cr_in=None")
        return None
    if rho_cr_in is None:
        raise LayoutError("scenario has CR subsystems; rho_cr_in is required")
    if rho_cr_in.layout != scenario.cr_layout():
        raise DimensionMismatchError("rho_cr_in layout differs from the CR sub-layout")
    return rho_cr_in


def _cr_then_loop(scenario: CtcScenario) -> list[int]:
    """Layout positions of the CR subsystems, then of the loop subsystems."""
    lay = scenario.layout
    return (sorted(lay.position(sid) for sid in scenario.cr_ids)
            + sorted(lay.position(sid) for sid in scenario.ctc_ids))


def _loop_operators(scenario: CtcScenario,
                    rho_cr: DensityMatrix | None) -> tuple[np.ndarray, np.ndarray]:
    """Operator pairs (L_k, R_k) with Tr_CR[ U (rho_cr ox rho) U† ] = sum_k L_k rho R_k†.

    With U permuted into (CR, loop) order, T[a, b] = (<a| ox I) U (|b> ox I)
    is a d_ctc x d_ctc block, and the channel is
    sum_{a, b, b'} rho_cr[b, b'] T[a, b] rho T[a, b']†. Folding rho_cr into the
    left factor gives L[a, b'] = sum_b rho_cr[b, b'] T[a, b] and
    R[a, b'] = T[a, b']; columns b' where rho_cr vanishes drop out. Both are
    returned as (k, d_ctc, d_ctc) stacks. No square root or eigendecomposition
    of rho_cr is taken, so this is the same linear map for any accepted rho_cr.
    """
    u = scenario.loop_unitary.matrix
    if rho_cr is None:
        return u[np.newaxis], u[np.newaxis]
    d_cr = rho_cr.matrix.shape[0]
    d = u.shape[0] // d_cr
    ordered = _permute_operator_axes(u, scenario.layout.dims, _cr_then_loop(scenario))
    blocks = ordered.reshape(d_cr, d, d_cr, d).transpose(0, 2, 1, 3)  # blocks[a, b] = T[a, b]
    kept = np.flatnonzero(np.any(rho_cr.matrix != 0, axis=0))
    left = np.einsum("bc,abij->acij", rho_cr.matrix[:, kept], blocks)
    right = blocks[:, kept]
    return left.reshape(-1, d, d), right.reshape(-1, d, d)


def induced_loop_map(scenario: CtcScenario, rho_cr_in: DensityMatrix | None):
    """The channel rho -> Tr_CR[ U (rho_in ox rho) U† ] as an array function.

    It is evaluated in operator-sum form, sum_k L_k rho R_k† (see
    _loop_operators), by one batched product at loop size; neither the full
    layout's density matrix nor a partial trace is formed.
    """
    left, right = _loop_operators(scenario, _resolve_cr_input(scenario, rho_cr_in))
    right_dag = right.conj().transpose(0, 2, 1)

    def apply(rho_ctc: np.ndarray) -> np.ndarray:
        return (left @ rho_ctc @ right_dag).sum(axis=0)

    return apply


def _superoperator(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Column-stacked matrix of rho -> sum_k L_k rho R_k†, i.e. sum_k conj(R_k) ox L_k."""
    d = left.shape[1]
    return np.einsum("kpq,kij->piqj", right.conj(), left).reshape(d * d, d * d)


def _ctc_dimension(scenario: CtcScenario) -> int:
    return scenario.ctc_layout().total_dimension


def _clip_to_density(mat: np.ndarray) -> np.ndarray:
    """Hermitize, clip tiny negative eigenvalues, renormalize the trace."""
    herm = (mat + mat.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(herm)
    vals = np.clip(vals, 0.0, None)
    total = vals.sum()
    if total <= 0:
        raise SolverError("candidate fixed operator has no positive part", residual=float("inf"))
    return (vecs * (vals / total)) @ vecs.conj().T


def _iterate_fixed_point(apply_map, d: int):
    """Plain iteration from the maximally mixed state, with windowed averaging.

    Falls back to a trailing Cesaro average when the successive-iterate
    distance plateaus (the standard cure for peripheral-spectrum
    oscillation); returns (rho, residual, iterations) of the best candidate.
    """
    rho = np.eye(d, dtype=np.complex128) / d
    history: list[float] = []
    best: tuple[float, np.ndarray, int] | None = None

    for it in range(1, MAX_ITERATIONS + 1):
        nxt = apply_map(rho)
        dist = trace_distance(nxt, rho)
        rho = nxt
        history.append(dist)
        if dist <= ITERATE_TOL:
            return rho, trace_distance(rho, apply_map(rho)), it
        plateaued = (len(history) > CESARO_WINDOW
                     and dist >= history[-CESARO_WINDOW - 1] * (1.0 - 1e-3))
        if plateaued:
            break

    start_it = len(history)
    window: list[np.ndarray] = [rho]
    running = rho.copy()
    for it in range(start_it + 1, start_it + MAX_ITERATIONS + 1):
        rho = apply_map(rho)
        window.append(rho)
        running += rho
        if len(window) > CESARO_WINDOW:
            running -= window.pop(0)
        avg = _clip_to_density(running / len(window))
        residual = trace_distance(avg, apply_map(avg))
        if best is None or residual < best[0]:
            best = (residual, avg, it)
        if residual <= ITERATE_TOL:
            return avg, residual, it

    assert best is not None
    residual, avg, it = best
    if residual <= FIXED_POINT_TOL:
        return avg, residual, it
    raise SolverError("fixed-point iteration did not converge", residual=residual)


def _spectral_fixed_point(apply_map, sup: np.ndarray, d: int):
    """Fixed operator from the superoperator's eigenvalue-1 eigenspace.

    The maximally mixed state is projected orthogonally onto the eigenspace
    (adjoint-closed for these maps), Hermitized, clipped, and renormalized;
    the residual is re-verified against the map itself.
    """
    vals, vecs = np.linalg.eig(sup)
    sel = np.abs(vals - 1.0) <= 1e-9
    dim_fixed = int(np.count_nonzero(sel))
    if dim_fixed == 0:
        raise SolverError("superoperator has no eigenvalue-1 eigenspace", residual=float("inf"))
    basis, _ = np.linalg.qr(vecs[:, sel])
    target = (np.eye(d, dtype=np.complex128) / d).reshape(-1, order="F")
    projected = basis @ (basis.conj().T @ target)
    candidate = _clip_to_density(projected.reshape(d, d, order="F"))
    residual = trace_distance(candidate, apply_map(candidate))
    iterations = 0
    while residual > FIXED_POINT_TOL and iterations < 1000:
        candidate = apply_map(candidate)
        iterations += 1
        residual = trace_distance(candidate, apply_map(candidate))
    if residual > FIXED_POINT_TOL:
        raise SolverError("spectral fixed point failed verification", residual=residual)
    return candidate, residual, iterations, dim_fixed


def deutsch_fixed_point(scenario: CtcScenario, rho_cr_in: DensityMatrix | None = None,
                        method: str = "iterate") -> DeutschSolution:
    """Solve rho = Tr_CR[ U (rho_in ox rho) U† ] on the loop subsystems.

    method 'iterate' starts from the maximally mixed state; 'spectral' reads
    the fixed space off the induced superoperator. Both return the canonical
    maximum-entropy representative when the fixed point is not unique.
    """
    if method not in ("iterate", "spectral"):
        raise ValueError(f"method must be 'iterate' or 'spectral', got {method!r}")
    rho_cr = _resolve_cr_input(scenario, rho_cr_in)
    apply_map = induced_loop_map(scenario, rho_cr)
    d = _ctc_dimension(scenario)
    if method == "iterate":
        rho, residual, iterations = _iterate_fixed_point(apply_map, d)
        dim_fixed = None
    else:
        sup = _superoperator(*_loop_operators(scenario, rho_cr))
        rho, residual, iterations, dim_fixed = _spectral_fixed_point(apply_map, sup, d)
    return DeutschSolution(
        DensityMatrix(scenario.ctc_layout(), rho), residual, iterations, method,
        dim_fixed, scenario, rho_cr,
    )


def ctc_output_state(solution: DeutschSolution) -> DensityMatrix:
    """CR state leaving the loop region: Tr_CTC[ U (rho_in ox rho_ctc) U† ].

    The scenario and the CR input rho_in are the ones the solution was
    solved for, which it carries. The output is read off the loop operators
    (see _loop_operators), whose stacks are indexed by (a, b') with a the CR
    output state: out[a, a'] = sum_{b'} tr(L[a, b'] rho_ctc R[a', b']†), one
    contraction at loop size. With no CR subsystems the output is the 1 x 1
    matrix [[1]].
    """
    scenario, rho_cr = solution.scenario, solution.rho_cr
    if rho_cr is None:
        return DensityMatrix(scenario.cr_layout(), np.array([[1.0 + 0.0j]]))
    left, right = _loop_operators(scenario, rho_cr)
    d_cr, d = rho_cr.matrix.shape[0], left.shape[1]
    evolved = (left @ solution.rho_ctc.matrix).reshape(d_cr, -1, d * d)
    reduced = np.einsum("acx,bcx->ab", evolved, right.reshape(d_cr, -1, d * d).conj())
    return DensityMatrix(scenario.cr_layout(), reduced)


# ---------------------------------------------------------------------------
# Canonical scenarios


def grandfather_scenario(variant: str = "qubit_flip") -> CtcScenario:
    """Self-undermining loops: a flipped loop qubit, optionally CR-coupled.

    qubit_flip: one loop qubit whose traversal applies the flip X, so no
    classical bit history is consistent, only the balanced superposition.
    cr_coupled: one CR qubit plus one loop qubit; the traversal copies the
    loop bit onto the CR qubit (CNOT) and then flips the loop bit.
    """
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    if variant == "qubit_flip":
        lay = layout_of(("loop", ("b0", "b1")))
        return CtcScenario(lay, (), ("loop",), UnitaryOperator(lay, x))
    if variant == "cr_coupled":
        lay = layout_of(("memory", ("b0", "b1")), ("loop", ("b0", "b1")))
        cnot = np.zeros((4, 4), dtype=np.complex128)  # control = loop, target = memory
        for mem in range(2):
            for loop in range(2):
                cnot[((mem ^ loop) << 1) | loop, (mem << 1) | loop] = 1.0
        x_on_loop = np.kron(np.eye(2, dtype=np.complex128), x)
        return CtcScenario(lay, ("memory",), ("loop",), UnitaryOperator(lay, x_on_loop @ cnot))
    raise ValueError(f"unknown grandfather variant {variant!r}")
