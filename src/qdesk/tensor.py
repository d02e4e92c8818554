"""Exact linear algebra over labeled tensor-product spaces.

States, density matrices, and unitaries are immutable wrappers around numpy
arrays, each tagged with the SubsystemLayout it lives on. The layout fixes
the index arithmetic once and for all: amplitudes and matrix entries are
stored row-major in layout order, leftmost subsystem most significant.

Structural invariants are validated at construction with absolute tolerance
``ATOL`` (1e-10) unless an operation documents otherwise; state constructors
normalize their input and record the factor they divided out.

A unitary lives on the subsystems it acts on and is validated once, at that
size: ``apply_unitary`` contracts only their axes, wherever they sit in the
state's layout, and ``embed_operator`` builds a full-layout matrix by the
same contraction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatchError, InvariantError, LayoutError

ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-9

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")


def _check_name(kind: str, name: str) -> None:
    if not _NAME_RE.match(name):
        raise LayoutError(f"{kind} name {name!r} must match [A-Za-z0-9_]+")


@dataclass(frozen=True)
class BasisLabel:
    """A named basis vector of one subsystem."""

    name: str
    index: int

    def __post_init__(self):
        _check_name("basis label", self.name)
        if self.index < 0:
            raise LayoutError(f"basis index must be nonnegative, got {self.index}")


@dataclass(frozen=True)
class Subsystem:
    """One labeled tensor factor: an id plus an ordered basis."""

    name: str
    basis: tuple[BasisLabel, ...]

    def __post_init__(self):
        _check_name("subsystem", self.name)
        if len(self.basis) < 1:
            raise LayoutError(f"subsystem {self.name!r} needs dimension >= 1")
        names = [b.name for b in self.basis]
        if len(set(names)) != len(names):
            raise LayoutError(f"subsystem {self.name!r} has duplicate basis labels")
        for i, b in enumerate(self.basis):
            if b.index != i:
                raise LayoutError(
                    f"subsystem {self.name!r}: label {b.name!r} has index {b.index}, expected {i}"
                )

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def label_index(self, label_name: str) -> int:
        for b in self.basis:
            if b.name == label_name:
                return b.index
        raise LayoutError(f"subsystem {self.name!r} has no basis label {label_name!r}")

    def label_names(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.basis)


def subsystem(name: str, labels: Sequence[str]) -> Subsystem:
    """Build a Subsystem from an ordered list of label names."""
    return Subsystem(name, tuple(BasisLabel(lbl, i) for i, lbl in enumerate(labels)))


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered registry of subsystems defining a tensor-product space.

    The flat index of a product basis state is computed row-major: the first
    subsystem in the tuple is the most significant digit.
    """

    subsystems: tuple[Subsystem, ...]

    def __post_init__(self):
        ids = [s.name for s in self.subsystems]
        if len(set(ids)) != len(ids):
            raise LayoutError(f"duplicate subsystem ids in layout: {ids}")

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.subsystems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dimension for s in self.subsystems)

    @property
    def total_dimension(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    def position(self, subsystem_id: str) -> int:
        for i, s in enumerate(self.subsystems):
            if s.name == subsystem_id:
                return i
        raise LayoutError(f"layout has no subsystem {subsystem_id!r}")

    def subsystem_named(self, subsystem_id: str) -> Subsystem:
        return self.subsystems[self.position(subsystem_id)]

    def sub_layout(self, keep_ids: Iterable[str]) -> "SubsystemLayout":
        """Layout restricted to `keep_ids`, preserving this layout's order."""
        keep = set(keep_ids)
        for sid in keep:
            self.position(sid)  # raises LayoutError on unknown ids
        return SubsystemLayout(tuple(s for s in self.subsystems if s.name in keep))

    def basis_index(self, assignment: Mapping[str, str]) -> int:
        """Flat index of the product basis state given by id -> label name."""
        if set(assignment) != set(self.ids):
            raise LayoutError(
                f"assignment keys {sorted(assignment)} must equal layout ids {sorted(self.ids)}"
            )
        idx = 0
        for s in self.subsystems:
            idx = idx * s.dimension + s.label_index(assignment[s.name])
        return idx

    def basis_state(self, assignment: Mapping[str, str]) -> "StateVector":
        amps = np.zeros(self.total_dimension, dtype=np.complex128)
        amps[self.basis_index(assignment)] = 1.0
        return StateVector(self, amps)


def layout_of(*specs: tuple[str, Sequence[str]]) -> SubsystemLayout:
    """Shorthand: layout_of(("spin", ["up", "down"]), ("meter", [...]))."""
    return SubsystemLayout(tuple(subsystem(name, labels) for name, labels in specs))


def _frozen_complex(data, shape) -> np.ndarray:
    arr = np.array(data, dtype=np.complex128).reshape(shape)
    arr.setflags(write=False)
    return arr


class StateVector:
    """Normalized pure state over a layout.

    The constructor rescales to unit L2 norm and records the factor it
    divided out in ``norm_factor`` (so callers may pass unnormalized
    superpositions and still recover the original scale).
    """

    __slots__ = ("layout", "amplitudes", "norm_factor")

    def __init__(self, layout: SubsystemLayout, amplitudes):
        arr = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        if arr.size != layout.total_dimension:
            raise DimensionMismatchError(
                f"amplitude length {arr.size} != layout dimension {layout.total_dimension}"
            )
        norm = float(np.linalg.norm(arr))
        if norm < 1e-12:
            raise InvariantError("cannot normalize a (near-)zero state vector")
        self.layout = layout
        self.amplitudes = _frozen_complex(arr / norm, (arr.size,))
        self.norm_factor = norm

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem (read-only view)."""
        return self.amplitudes.reshape(self.layout.dims)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def __repr__(self):
        return f"StateVector(ids={self.layout.ids}, dim={self.layout.total_dimension})"


class DensityMatrix:
    """Hermitian, positive, unit-trace operator over a layout."""

    __slots__ = ("layout", "matrix")

    def __init__(self, layout: SubsystemLayout, matrix):
        d = layout.total_dimension
        arr = np.asarray(matrix, dtype=np.complex128)
        if arr.shape != (d, d):
            raise DimensionMismatchError(f"matrix shape {arr.shape} != {(d, d)}")
        herm_dev = float(np.abs(arr - arr.conj().T).max())
        if herm_dev > ATOL:
            raise InvariantError(f"density matrix not Hermitian (deviation {herm_dev:.3e})")
        tr_dev = abs(complex(np.trace(arr)) - 1.0)
        if tr_dev > ATOL:
            raise InvariantError(f"density matrix trace differs from 1 by {tr_dev:.3e}")
        min_eig = float(np.linalg.eigvalsh((arr + arr.conj().T) / 2.0).min())
        if min_eig < EIGENVALUE_FLOOR:
            raise InvariantError(f"density matrix has eigenvalue {min_eig:.3e} < {EIGENVALUE_FLOOR}")
        self.layout = layout
        self.matrix = _frozen_complex(arr, (d, d))

    @classmethod
    def maximally_mixed(cls, layout: SubsystemLayout) -> "DensityMatrix":
        d = layout.total_dimension
        return cls(layout, np.eye(d, dtype=np.complex128) / d)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def __repr__(self):
        return f"DensityMatrix(ids={self.layout.ids}, dim={self.layout.total_dimension})"


class UnitaryOperator:
    """Square complex matrix with verified unitarity, tagged with its layout."""

    __slots__ = ("layout", "matrix")

    def __init__(self, layout: SubsystemLayout, matrix):
        d = layout.total_dimension
        arr = np.asarray(matrix, dtype=np.complex128)
        if arr.shape != (d, d):
            raise DimensionMismatchError(f"matrix shape {arr.shape} != {(d, d)}")
        dev = float(np.abs(arr.conj().T @ arr - np.eye(d)).max())
        if dev > ATOL:
            raise InvariantError(f"matrix is not unitary (U†U deviates by {dev:.3e})")
        self.layout = layout
        self.matrix = _frozen_complex(arr, (d, d))

    def dagger(self) -> "UnitaryOperator":
        return UnitaryOperator(self.layout, self.matrix.conj().T)

    def __repr__(self):
        return f"UnitaryOperator(ids={self.layout.ids}, dim={self.layout.total_dimension})"


# ---------------------------------------------------------------------------
# Operations


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product of two states over the concatenated layout."""
    shared = set(a.layout.ids) & set(b.layout.ids)
    if shared:
        raise LayoutError(f"cannot tensor states sharing subsystem ids {sorted(shared)}")
    combined = SubsystemLayout(a.layout.subsystems + b.layout.subsystems)
    return StateVector(combined, np.kron(a.amplitudes, b.amplitudes))


def _apply_local(u: UnitaryOperator, t: np.ndarray, layout: SubsystemLayout) -> np.ndarray:
    """u applied to the leading axes of t, which follow `layout`; later axes ride along.

    One einsum over integer labels contracts u's column axes with the axes of
    its subsystems, which must be in `layout` with the same labels, and puts
    u's row axes in their place.
    """
    try:
        axes = [layout.subsystems.index(sub) for sub in u.layout.subsystems]
    except ValueError:
        raise DimensionMismatchError(
            f"unitary layout {u.layout.ids} is not a sub-layout of {layout.ids}"
        ) from None
    n = t.ndim
    rows = [n + j for j in range(len(axes))]
    out = [rows[axes.index(i)] if i in axes else i for i in range(n)]
    return np.einsum(u.matrix.reshape(u.layout.dims * 2), rows + axes, t, list(range(n)), out)


def apply_unitary(u: UnitaryOperator, s: StateVector) -> StateVector:
    """Evolve s by u, which acts on any of s's subsystems, in any order.

    Only u's own axes are contracted; the other subsystems are untouched.
    Each of u's subsystems must appear in s.layout with the same labels.
    """
    out = StateVector(s.layout, _apply_local(u, s.tensor(), s.layout))
    if abs(out.norm_factor - 1.0) > ATOL:
        raise InvariantError(f"unitary application changed the norm by {out.norm_factor - 1.0:.3e}")
    return out


def to_density(s: StateVector) -> DensityMatrix:
    """Rank-one projector |s><s|."""
    return DensityMatrix(s.layout, np.outer(s.amplitudes, s.amplitudes.conj()))


def overlap(a: StateVector, b: StateVector) -> complex:
    """Inner product <a|b> (conjugate-linear in a)."""
    if a.layout != b.layout:
        raise DimensionMismatchError(
            f"overlap needs equal layouts, got {a.layout.ids} vs {b.layout.ids}"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def _permute_operator_axes(mat: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder an operator's subsystems: new axis i takes old axis perm[i]."""
    n = len(dims)
    total = int(np.prod(dims))
    t = mat.reshape(tuple(dims) + tuple(dims))
    t = t.transpose(tuple(perm) + tuple(p + n for p in perm))
    return np.ascontiguousarray(t).reshape(total, total)


def embed_operator(u: UnitaryOperator, target: SubsystemLayout) -> UnitaryOperator:
    """Extend u by the identity onto `target`, permuting as needed.

    u's subsystems may sit anywhere in the target layout, in any order;
    the result acts as u on them and as the identity on the rest. It is u
    applied to every column of the target's identity.
    """
    for sid in u.layout.ids:
        target.position(sid)  # raises LayoutError on unknown ids
    d = target.total_dimension
    identity = np.eye(d, dtype=np.complex128).reshape(target.dims + (d,))
    return UnitaryOperator(target, _apply_local(u, identity, target).reshape(d, d))


def _partial_trace_array(mat: np.ndarray, dims: Sequence[int], keep_positions: Sequence[int]) -> np.ndarray:
    """Array kernel: trace out all axes not listed in keep_positions."""
    n = len(dims)
    keep = list(keep_positions)
    t = mat.reshape(tuple(dims) + tuple(dims))
    row_labels = list(range(n))
    col_labels = [n + i if i in keep else i for i in range(n)]
    out_labels = [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(t, row_labels + col_labels, out_labels)
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return reduced.reshape(d_keep, d_keep)


def partial_trace(rho: DensityMatrix, keep: Sequence[str]) -> DensityMatrix:
    """Reduced density matrix over `keep` (order taken from the layout)."""
    keep_list = list(keep)
    if not keep_list:
        raise ValueError("keep must name at least one subsystem")
    if len(set(keep_list)) != len(keep_list):
        raise ValueError(f"keep contains duplicates: {keep_list}")
    keep_positions = sorted(rho.layout.position(sid) for sid in keep_list)
    reduced = _partial_trace_array(rho.matrix, rho.layout.dims, keep_positions)
    kept_ids = [rho.layout.subsystems[p].name for p in keep_positions]
    return DensityMatrix(rho.layout.sub_layout(kept_ids), reduced)


def reduced_state(s: StateVector, keep: Sequence[str]) -> DensityMatrix:
    """Shorthand for partial_trace(to_density(s), keep)."""
    return partial_trace(to_density(s), keep)
