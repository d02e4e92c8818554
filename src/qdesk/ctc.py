"""Consistency conditions for quantum evolution around a closed loop.

A scenario is one unitary describing a single traversal, the subsystems of
its layout split into chronology-respecting (CR) and loop (CTC) ones. Two rival
notions of a consistent history are implemented side by side:

* the linear single-valuedness constraint on the global pure state: it
  must return to itself after one traversal, exactly (strict mode) or up
  to a global phase (ray mode), each eigenspace in a canonical basis;
* the nonlinear fixed-point condition on the loop subsystem's density
  matrix, rho = Tr_CR[ U (rho_in ox rho) U† ], solved via the induced
  superoperator's eigenvalue-1 space, or by iteration that hands a stalled
  solve to that spectral solve.

The loop channel is kept in two-sided operator-sum form,
rho -> sum_k L_k rho R_k†, where R_k are the d_ctc x d_ctc blocks of U
between CR basis states and L_k the same blocks with rho_in folded in (no CR
is the one-dimensional rho_in [[1]]). A solve builds the pairs once, with the
one check of its CR input: one application is a batched product at loop size,
the superoperator is sum_k conj(R_k) ox L_k, and the CR state leaving the loop
region is read off the same pairs, traced over the loop instead of over CR: no
full-layout density matrix or partial trace is formed here.

Solvers are pure and deterministic; Haar sampling for admissibility scans
draws from explicitly derived per-sample seeds, a block of samples at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import DimensionMismatchError, LayoutError, SolverError
from .rng import haar_states, stream_blocks, stream_seeds
from .tensor import (
    DensityMatrix,
    SubsystemLayout,
    UnitaryOperator,
    _row_norms,
    layout_of,
)

PHASE_TOL = 1e-8          # eigenphase merge width (rad) and strict-mode sigma cutoff
CONSISTENCY_TOL = 1e-8    # residual below which a state counts as consistent
FIXED_POINT_TOL = 1e-8    # solver contract on the fixed-point residual
FIXED_SPACE_TOL = 1e-9    # singular-value cutoff of the superoperator's fixed space
ITERATE_TOL = 1e-10       # successive-iterate trace distance target
MAX_ITERATIONS = 10_000
PLATEAU_WINDOW = 100      # iterations over which a distance that falls under 0.1% has stalled
_SCAN_BLOCK = 1 << 14     # normals drawn per block of scan samples
_ITERATE_BLOCK = 64       # most plain-phase iterates whose distances share one eigvalsh


@dataclass(frozen=True)
class CtcScenario:
    """A loop unitary, the subsystems of its layout (the scenario's) split into CR and loop."""

    cr_ids: tuple[str, ...]
    ctc_ids: tuple[str, ...]
    loop_unitary: UnitaryOperator

    def __post_init__(self):
        if sorted([*self.cr_ids, *self.ctc_ids]) != sorted(self.layout.ids):
            raise LayoutError("cr + ctc ids must name every layout subsystem exactly once")
        if not self.ctc_ids:
            raise LayoutError("scenario needs at least one loop subsystem")

    @property
    def layout(self) -> SubsystemLayout:
        return self.loop_unitary.layout

    def cr_layout(self) -> SubsystemLayout:
        return self.layout.sub_layout(self.cr_ids)

    def ctc_layout(self) -> SubsystemLayout:
        return self.layout.sub_layout(self.ctc_ids)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """(1/2) * sum of absolute eigenvalues of the Hermitized difference a - b.

    For two (k, d, d) stacks, the k distances of their pairs from one eigvalsh call; numpy
    decomposes a stack a matrix at a time, so each is bit for bit its pair's alone.
    """
    diff = a - b
    herm = (diff + np.swapaxes(diff.conj(), -1, -2)) / 2.0
    dist = 0.5 * np.abs(np.linalg.eigvalsh(herm)).sum(axis=-1)
    return float(dist) if dist.ndim == 0 else dist


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


def _fixed_space(m: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal columns spanning ker(M - I): the right singular vectors of M - I with
    sigma <= tol, from one SVD. Up to its backward error, every unit v in their span has
    ||(M - I) v|| <= tol and every unit v orthogonal to it ||(M - I) v|| > tol.

    Against the rule |lambda - 1| <= tol for a non-normal M: let K = ker(M - I), k = dim K,
    eigenvalue 1 semisimple (a channel's is, being trace-norm contractive) and Q the spectral
    projector onto M's other eigenvalues. A unit v orthogonal to K has ||Q v|| >= 1, so
    sigma_{k+1} >= min |lambda - 1| / kappa with kappa the condition number of M's
    eigenvectors in range Q; an eigenvector at angle theta to K gives sigma_{k+1} <=
    |lambda - 1| / sin(theta). The rules keep different spaces only if some lambda != 1
    has tol sin(theta) < |lambda - 1| <= kappa tol: for normal M, only rounding.
    """
    _, sigma, vh = np.linalg.svd(m - np.eye(len(m)))
    return vh[sigma <= tol].conj().T


def _circular_clusters(phases: np.ndarray, tol: float) -> list[list[int]]:
    """Group indices whose phases chain within tol on the circle, each group in ascending phase
    but one merged across the wrap gap, whose first phase is then above its last."""
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

    strict: _fixed_space(U, PHASE_TOL), so each unit s in it has ||U s - s|| <= PHASE_TOL,
            the strict residual that _residuals measures. It may be empty; it is, with no
            singular vector computed, when a values-only SVD puts sigma_min(U - I) above
            2 PHASE_TOL, a margin far wider than the rounding between two SVDs' values.
    ray:    every eigenspace from np.linalg.eig, eigenphases within PHASE_TOL merged,
            each cluster's eigenvectors orthonormalized by QR first. A cluster's phase is the
            angle of its mean eigenvalue, but a cluster merged across the wrap gap is at pi,
            so it sorts last whichever side of -1 its mean falls on.
    For an exact unitary sigma = |e^{i phi} - 1| = 2 |sin(phi / 2)| <= |phi|, so strict
    keeps all that |phi| <= PHASE_TOL keeps. _check_unitary admits ||U†U - I||_2 <=
    d ATOL, which moves sigma against |lambda - 1| by O(d ATOL): within that band of
    PHASE_TOL, sigma and the eigenphase can fall on opposite sides of the cutoff.
    """
    if mode not in ("strict", "ray"):
        raise ValueError(f"mode must be 'strict' or 'ray', got {mode!r}")
    u = scenario.loop_unitary.matrix
    pairs = []
    if mode == "strict":
        if np.linalg.svd(u - np.eye(len(u)), compute_uv=False)[-1] <= 2.0 * PHASE_TOL:
            null = _fixed_space(u, PHASE_TOL)
            pairs = [EigenSpace(0.0, _canonical_basis(null))] if null.shape[1] else []
    else:
        vals, vecs = np.linalg.eig(u)
        phases = np.angle(vals)
        phases[phases <= -np.pi] = np.pi  # np.angle gives -pi for negative reals, -0 imag
        for cluster in _circular_clusters(phases, PHASE_TOL):
            if phases[cluster[0]] > phases[cluster[-1]]:  # merged across the wrap gap
                phase = np.pi
            else:
                phase = float(np.angle(np.exp(1j * phases[cluster]).mean()))
            pairs.append(EigenSpace(phase, _canonical_basis(np.linalg.qr(vecs[:, cluster])[0])))
        pairs.sort(key=lambda e: e.phase)
    return ConsistencySubspace(mode, tuple(pairs), PHASE_TOL)


def _residuals(u: np.ndarray, states: np.ndarray, mode: str) -> np.ndarray:
    """Single-valuedness residual of each unit row s of states under one traversal U.

    strict: ||U s - s||; ray: ||U s - e^{i phi} s|| at phi = arg<s|U s>, which minimizes the
    residual over all global phases. Row by row, the stacked products give the bits of a
    one-state computation: U @ s, np.vdot, and StateVector's norm, whose kernel _row_norms is.
    """
    image = (u @ states[:, :, None])[:, :, 0]
    if mode == "ray":
        overlap = (states.conj()[:, None, :] @ image[:, :, None])[:, 0, 0]
        states = np.exp(1j * np.angle(overlap))[:, None] * states
    return _row_norms(image - states)


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


def _median(values: np.ndarray) -> float:
    """statistics.median's formula on the elements of ranks (n - 1) // 2 and n // 2, a sort's,
    selected by partitioning values in place (no copy); np.median would import numpy.ma."""
    lo, hi = (len(values) - 1) // 2, len(values) // 2
    values.partition([lo, hi])
    return float(values[hi] if lo == hi else (values[lo] + values[hi]) / 2)


def _scan_residuals(scenario: CtcScenario, n_samples: int, mode: str, seed: int) -> np.ndarray:
    """Residual of each scan sample, computed a block of samples at a time."""
    u, residuals = scenario.loop_unitary.matrix, np.empty(n_samples)
    rows = max(1, _SCAN_BLOCK // (2 * len(u)))
    for i, m, block_seed in stream_blocks(seed, n_samples, rows):
        s = haar_states(stream_seeds(block_seed, m), len(u))
        # dividing a Haar sample by its norm again is StateVector's normalization
        residuals[i:i + m] = _residuals(u, s / _row_norms(s)[:, None], mode)
    return residuals


def admissible_fraction(scenario: CtcScenario, n_samples: int, mode: str,
                        seed: int) -> AdmissibilityScan:
    """Sample Haar-random pure states and test each; deterministic under seed.

    Sample i is row i of haar_states(stream_seeds(seed, n_samples), d), normalized once
    more by _row_norms, the kernel of StateVector's normalization, so the scan can be
    partitioned across workers in any order without changing the result. Samples are
    drawn, their seeds included, and tested in rng.stream_blocks of about _SCAN_BLOCK
    normals (memory O(block) besides the residuals, 8 bytes a sample), each residual bit
    for bit the one-state computation of _residuals. The second normalization matters: that norm is 1 only to an ulp, and
    skipping it moves last bits.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if mode not in ("strict", "ray"):
        raise ValueError(f"mode must be 'strict' or 'ray', got {mode!r}")
    residuals = _scan_residuals(scenario, n_samples, mode, seed)
    admissible = int(np.count_nonzero(residuals <= CONSISTENCY_TOL))
    return AdmissibilityScan(
        mode, n_samples, seed, admissible, admissible / n_samples,
        float(residuals.min()), _median(residuals), float(residuals.max()),
        CONSISTENCY_TOL,
    )


# ---------------------------------------------------------------------------
# Density-matrix fixed point on the loop


@dataclass(frozen=True)
class DeutschSolution:
    """Fixed point of the induced loop channel, with convergence metadata and the CR output.

    residual is the trace distance between rho_ctc and its image under the
    map. fixed_space_dim is dim ker(Phi - I) of the induced superoperator Phi,
    the count of singular values of Phi - I at or below FIXED_SPACE_TOL
    (spectral method only); when it exceeds one, the returned operator is the
    canonical maximum-entropy representative. cr_output is the CR state leaving
    the loop region (see _cr_output), or [[1]] on the empty layout if there is no CR.
    """

    rho_ctc: DensityMatrix
    residual: float
    iterations: int
    method: str
    fixed_space_dim: int | None
    cr_output: DensityMatrix


def loop_operators(scenario: CtcScenario,
                   rho_cr_in: DensityMatrix | None) -> tuple[np.ndarray, np.ndarray]:
    """Operator pairs (L_k, R_k) with Tr_CR[ U (rho_in ox rho) U† ] = sum_k L_k rho R_k†.

    The one check of a solve's CR input: None exactly when the scenario has no CR, which is
    the one-dimensional input [[1]], else on the CR sub-layout. With U permuted into (CR,
    loop) order, T[a, b] = (<a| ox I) U (|b> ox I) is a d_ctc x d_ctc block, and the channel
    is sum_{a, b, b'} rho_cr[b, b'] T[a, b] rho T[a, b']†. Folding rho_cr into the left
    factor gives L[a, b'] = sum_b rho_cr[b, b'] T[a, b] and R[a, b'] = T[a, b']; columns b'
    where rho_cr vanishes drop out. Both are (k, d_ctc, d_ctc) stacks. No square root or
    eigendecomposition of rho_cr is taken, so this is the same linear map for any accepted rho_cr.
    """
    if not scenario.cr_ids:
        if rho_cr_in is not None:
            raise LayoutError("scenario has no CR subsystems; pass rho_cr_in=None")
        rho_cr = np.ones((1, 1), np.complex128)
    elif rho_cr_in is None:
        raise LayoutError("scenario has CR subsystems; rho_cr_in is required")
    elif rho_cr_in.layout != scenario.cr_layout():
        raise DimensionMismatchError("rho_cr_in layout differs from the CR sub-layout")
    else:
        rho_cr = rho_cr_in.matrix
    u = scenario.loop_unitary.matrix
    d_cr = len(rho_cr)
    d = u.shape[0] // d_cr
    lay = scenario.layout
    perm = sorted(map(lay.position, scenario.cr_ids)) + sorted(map(lay.position, scenario.ctc_ids))
    ordered = u.reshape(lay.dims * 2).transpose(perm + [p + len(perm) for p in perm])
    blocks = ordered.reshape(d_cr, d, d_cr, d).transpose(0, 2, 1, 3)  # blocks[a, b] = T[a, b]
    kept = np.flatnonzero(np.any(rho_cr != 0, axis=0))
    left = np.einsum("bc,abij->acij", rho_cr[:, kept], blocks)
    right = blocks[:, kept]
    return left.reshape(-1, d, d), right.reshape(-1, d, d)


def induced_loop_map(left: np.ndarray, right: np.ndarray):
    """The channel rho -> sum_k L_k rho R_k† of loop_operators' pairs as an array function.

    It is evaluated by one batched product at loop size; neither the full layout's density
    matrix nor a partial trace is formed.
    """
    right_dag = right.conj().transpose(0, 2, 1)

    def apply(rho_ctc: np.ndarray) -> np.ndarray:
        return (left @ rho_ctc @ right_dag).sum(axis=0)

    return apply


def _superoperator(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Column-stacked matrix of rho -> sum_k L_k rho R_k†, i.e. sum_k conj(R_k) ox L_k."""
    d = left.shape[1]
    return np.einsum("kpq,kij->piqj", right.conj(), left).reshape(d * d, d * d)


def _clip_to_density(mat: np.ndarray) -> np.ndarray:
    """Hermitize, clip tiny negative eigenvalues, renormalize the trace."""
    herm = (mat + mat.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(herm)
    vals = np.clip(vals, 0.0, None)
    total = vals.sum()
    if total <= 0:
        raise SolverError("candidate fixed operator has no positive part", residual=float("inf"))
    return (vecs * (vals / total)) @ vecs.conj().T


def _plain_iterates(apply_map, rho: np.ndarray):
    """The iterates apply_map(rho), apply_map(apply_map(rho)), ..., each with its trace
    distance from the one before, the map applied a block ahead: a block's distances come
    from one trace_distance call on the stack. Blocks double from 1 up to _ITERATE_BLOCK
    iterates (and 2^16 entries, 1 MiB), so a consumer that stops leaves fewer than
    _ITERATE_BLOCK applications unused, and none at iteration 1.
    """
    d = len(rho)
    most = max(1, min(_ITERATE_BLOCK, (1 << 16) // (d * d)))
    rows = 1
    while True:
        block = [rho]
        for _ in range(rows):
            block.append(apply_map(block[-1]))
        stacked = np.stack(block)
        yield from zip(block[1:], trace_distance(stacked[1:], stacked[:-1]).tolist())
        rho, rows = block[-1], min(2 * rows, most)


def _iterate_fixed_point(apply_map, d: int):
    """Plain iteration from the maximally mixed state; (rho, residual, iterations).

    The phase decides on each of _plain_iterates' distances in order, so its iterations and
    bits are those of one application and one trace_distance per step. When the distance
    stalls (falls by under 0.1% over PLATEAU_WINDOW iterations: slow convergence, or a
    peripheral eigenvalue that makes the iterates oscillate) or MAX_ITERATIONS run out, it
    returns no rho and no residual, with the iterations it ran.
    """
    rho = np.eye(d, dtype=np.complex128) / d
    history: list[float] = []
    for it, (rho, dist) in zip(range(1, MAX_ITERATIONS + 1), _plain_iterates(apply_map, rho)):
        history.append(dist)
        if dist <= ITERATE_TOL:
            return rho, trace_distance(rho, apply_map(rho)), it
        plateaued = (len(history) > PLATEAU_WINDOW
                     and dist >= history[-PLATEAU_WINDOW - 1] * (1.0 - 1e-3))
        if plateaued:
            break
    return None, None, len(history)


def _spectral_fixed_point(apply_map, sup: np.ndarray, d: int):
    """Fixed operator from the superoperator's fixed space, _fixed_space(sup, FIXED_SPACE_TOL).

    The maximally mixed state is projected orthogonally onto that space
    (adjoint-closed for these maps), Hermitized, clipped, and renormalized;
    the residual is re-verified against the map itself. A verification step
    moves the candidate to its image, so k steps apply the map k + 1 times.
    """
    basis = _fixed_space(sup, FIXED_SPACE_TOL)  # if empty, _clip_to_density raises
    target = (np.eye(d, dtype=np.complex128) / d).reshape(-1, order="F")
    projected = basis @ (basis.conj().T @ target)
    candidate = _clip_to_density(projected.reshape(d, d, order="F"))
    image = apply_map(candidate)
    residual = trace_distance(candidate, image)
    iterations = 0
    while residual > FIXED_POINT_TOL and iterations < 1000:
        candidate, image = image, apply_map(image)
        iterations += 1
        residual = trace_distance(candidate, image)
    if residual > FIXED_POINT_TOL:
        raise SolverError("spectral fixed point failed verification", residual=residual)
    return candidate, residual, iterations, basis.shape[1]


def deutsch_fixed_point(scenario: CtcScenario, rho_cr_in: DensityMatrix | None = None,
                        method: str = "iterate") -> DeutschSolution:
    """Solve rho = Tr_CR[ U (rho_in ox rho) U† ] on the loop subsystems.

    method 'iterate' starts from the maximally mixed state; 'spectral' reads
    the fixed space off the induced superoperator, and so does an iterate solve
    whose plain phase stalls, whose rho and residual are then spectral's bit for
    bit. Both return the canonical maximum-entropy representative when the
    fixed point is not unique, and the CR output. The map, the superoperator and
    the CR output read the one loop_operators pair.
    """
    if method not in ("iterate", "spectral"):
        raise ValueError(f"method must be 'iterate' or 'spectral', got {method!r}")
    left, right = loop_operators(scenario, rho_cr_in)
    apply_map = induced_loop_map(left, right)
    d = left.shape[1]
    rho, residual, iterations = (_iterate_fixed_point(apply_map, d) if method == "iterate"
                                 else (None, None, 0))
    dim_fixed = None
    if rho is None:  # spectral, or an iterate solve whose plain phase stalled
        rho, residual, steps, dim_fixed = _spectral_fixed_point(
            apply_map, _superoperator(left, right), d)
        iterations += steps
    rho_ctc = DensityMatrix(scenario.ctc_layout(), rho)
    out = (np.ones((1, 1), np.complex128) if rho_cr_in is None
           else _cr_output(left, right, rho_ctc.matrix, len(rho_cr_in.matrix)))
    return DeutschSolution(rho_ctc, residual, iterations, method,
                           dim_fixed if method == "spectral" else None,
                           DensityMatrix(scenario.cr_layout(), out))


def _cr_output(left: np.ndarray, right: np.ndarray, rho: np.ndarray, d_cr: int) -> np.ndarray:
    """Tr_CTC[ U (rho_in ox rho) U† ] from the loop operators of rho_in, whose stacks are
    indexed by (a, b') with a the CR output state (see loop_operators): out[a, a'] =
    sum_{b'} tr(L[a, b'] rho R[a', b']†), one contraction at loop size."""
    d = left.shape[1]
    evolved = (left @ rho).reshape(d_cr, -1, d * d)
    return np.einsum("acx,bcx->ab", evolved, right.reshape(d_cr, -1, d * d).conj())


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
        return CtcScenario((), ("loop",), UnitaryOperator(lay, x))
    if variant == "cr_coupled":
        lay = layout_of(("memory", ("b0", "b1")), ("loop", ("b0", "b1")))
        cnot = np.zeros((4, 4), dtype=np.complex128)  # control = loop, target = memory
        for mem in range(2):
            for loop in range(2):
                cnot[((mem ^ loop) << 1) | loop, (mem << 1) | loop] = 1.0
        x_on_loop = np.kron(np.eye(2, dtype=np.complex128), x)
        return CtcScenario(("memory",), ("loop",), UnitaryOperator(lay, x_on_loop @ cnot))
    raise ValueError(f"unknown grandfather variant {variant!r}")
