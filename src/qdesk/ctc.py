"""Consistency conditions for quantum evolution around a closed loop.

A scenario is a layout split into chronology-respecting (CR) and loop (CTC)
subsystems plus one unitary describing a single traversal. Two rival
notions of a consistent history are implemented side by side:

* the linear single-valuedness constraint on the global pure state: it
  must return to itself after one traversal, either exactly (strict
  mode, eigenphase 0) or up to a global phase (ray mode, any eigenray);
* the nonlinear fixed-point condition on the loop subsystem's density
  matrix, rho = Tr_CR[ U (rho_in ox rho) U† ], solved by iteration or via
  the induced superoperator's eigenvalue-1 space.

Solvers are pure and deterministic; Haar sampling for admissibility scans
draws from explicitly derived per-sample seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
import numpy as np
import scipy.linalg

from .errors import DimensionMismatchError, LayoutError, SolverError
from .rng import SplitMix64, haar_state, stream_seed
from .tensor import (
    DensityMatrix,
    StateVector,
    SubsystemLayout,
    UnitaryOperator,
    _partial_trace_array,
    _permute_operator_axes,
    layout_of,
)

PHASE_TOL = 1e-8          # eigenphase merge width and strict-mode cutoff (rad)
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

    def same_as(self, other: "CtcScenario") -> bool:
        return (self.layout == other.layout
                and set(self.cr_ids) == set(other.cr_ids)
                and np.array_equal(self.loop_unitary.matrix, other.loop_unitary.matrix))


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


def _unitary_eigensystem(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases in (-pi, pi] and orthonormal eigenvectors (Schur columns)."""
    t, z = scipy.linalg.schur(u, output="complex")
    phases = np.angle(np.diagonal(t))
    # np.angle yields exactly -pi for negative reals with signed-zero imag
    phases = np.where(phases <= -np.pi, phases + 2.0 * np.pi, phases)
    return phases, z


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
    """Eigendecomposition of the loop unitary, filtered by mode.

    strict: only the eigenvalue-1 eigenspace (|phase| <= PHASE_TOL);
    ray:    every eigenspace, with eigenphases within PHASE_TOL merged.
    An empty strict subspace is a legitimate result.
    """
    if mode not in ("strict", "ray"):
        raise ValueError(f"mode must be 'strict' or 'ray', got {mode!r}")
    phases, vecs = _unitary_eigensystem(scenario.loop_unitary.matrix)
    pairs: list[EigenSpace] = []
    if mode == "strict":
        sel = np.abs(phases) <= PHASE_TOL
        if np.any(sel):
            pairs.append(EigenSpace(0.0, np.ascontiguousarray(vecs[:, sel])))
    else:
        for cluster in _circular_clusters(phases, PHASE_TOL):
            lam = np.exp(1j * phases[cluster]).mean()
            phase = float(np.angle(lam))
            if phase <= -np.pi:
                phase += 2.0 * np.pi
            pairs.append(EigenSpace(phase, np.ascontiguousarray(vecs[:, cluster])))
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
        float(residuals.min()), float(median(residuals)), float(residuals.max()),
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


def _compose_full(scenario: CtcScenario, rho_cr: DensityMatrix | None,
                  rho_ctc: np.ndarray) -> np.ndarray:
    """rho_cr ox rho_ctc assembled in layout order (subsystems may interleave)."""
    lay = scenario.layout
    n = len(lay.ids)
    cr_positions = sorted(lay.position(sid) for sid in scenario.cr_ids)
    ctc_positions = sorted(lay.position(sid) for sid in scenario.ctc_ids)
    cr_dims = [lay.dims[p] for p in cr_positions]
    ctc_dims = [lay.dims[p] for p in ctc_positions]

    if rho_cr is None:
        block = rho_ctc
        current = ctc_positions
        current_dims = ctc_dims
    else:
        block = np.kron(rho_cr.matrix, rho_ctc)
        current = cr_positions + ctc_positions
        current_dims = cr_dims + ctc_dims
    # axis new_i must take the current axis holding layout position i
    return _permute_operator_axes(block, current_dims, [current.index(p) for p in range(n)])


def induced_loop_map(scenario: CtcScenario, rho_cr_in: DensityMatrix | None):
    """The channel rho -> Tr_CR[ U (rho_in ox rho) U† ] as an array function."""
    rho_cr = _resolve_cr_input(scenario, rho_cr_in)
    u = scenario.loop_unitary.matrix
    dims = scenario.layout.dims
    ctc_positions = sorted(scenario.layout.position(sid) for sid in scenario.ctc_ids)

    def apply(rho_ctc: np.ndarray) -> np.ndarray:
        full = _compose_full(scenario, rho_cr, rho_ctc)
        evolved = u @ full @ u.conj().T
        return _partial_trace_array(evolved, dims, ctc_positions)

    return apply


def _superoperator(apply_map, d: int) -> np.ndarray:
    """Column-stacked matrix of a linear map on d x d operators."""
    s = np.zeros((d * d, d * d), dtype=np.complex128)
    for col in range(d * d):
        basis = np.zeros((d, d), dtype=np.complex128)
        basis[col % d, col // d] = 1.0  # column-stacking convention
        s[:, col] = apply_map(basis).reshape(-1, order="F")
    return s


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


def _spectral_fixed_point(apply_map, d: int):
    """Fixed operator from the superoperator's eigenvalue-1 eigenspace.

    The maximally mixed state is projected orthogonally onto the eigenspace
    (adjoint-closed for these maps), Hermitized, clipped, and renormalized;
    the residual is re-verified against the map itself.
    """
    sup = _superoperator(apply_map, d)
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
        rho, residual, iterations, dim_fixed = _spectral_fixed_point(apply_map, d)
    return DeutschSolution(
        DensityMatrix(scenario.ctc_layout(), rho), residual, iterations, method,
        dim_fixed, scenario, rho_cr,
    )


def ctc_output_state(scenario: CtcScenario, rho_cr_in: DensityMatrix | None,
                     solution: DeutschSolution) -> DensityMatrix:
    """CR state leaving the loop region: Tr_CTC[ U (rho_in ox rho_ctc) U† ]."""
    rho_cr = _resolve_cr_input(scenario, rho_cr_in)
    if not solution.scenario.same_as(scenario):
        raise ValueError("solution was produced for a different scenario")
    if (solution.rho_cr is None) != (rho_cr is None):
        raise ValueError("solution was produced for a different CR input")
    if rho_cr is not None and float(np.abs(solution.rho_cr.matrix - rho_cr.matrix).max()) > 1e-12:
        raise ValueError("solution was produced for a different CR input")
    full = _compose_full(scenario, rho_cr, solution.rho_ctc.matrix)
    u = scenario.loop_unitary.matrix
    evolved = u @ full @ u.conj().T
    if not scenario.cr_ids:
        return DensityMatrix(scenario.cr_layout(), np.array([[1.0 + 0.0j]]))
    cr_positions = sorted(scenario.layout.position(sid) for sid in scenario.cr_ids)
    reduced = _partial_trace_array(evolved, scenario.layout.dims, cr_positions)
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
