"""Exact linear algebra over labeled tensor-product spaces.

States, density matrices, and unitaries are immutable wrappers around numpy
arrays, each tagged with the SubsystemLayout it lives on. The layout fixes
the index arithmetic once and for all: amplitudes and matrix entries are
stored row-major in layout order, leftmost subsystem most significant.
A ``Subsystem`` is an id plus its basis labels as plain strings; a label's
index is its position in that tuple.

Structural invariants are validated at construction with absolute tolerance
``ATOL`` (1e-10) unless an operation documents otherwise, and every entry
must be finite; state constructors normalize their input and record the
factor they divided out.

A unitary lives on the subsystems it acts on and is validated once, at that
size: ``apply_unitary`` contracts only their axes, wherever they sit in the
state's layout. No full-layout matrix of a local unitary is built.
"""

from __future__ import annotations

import math
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
class Subsystem:
    """One labeled tensor factor: an id plus its ordered basis label names."""

    name: str
    labels: tuple[str, ...]

    def __post_init__(self):
        for label in self.labels:
            _check_name("basis label", label)
        _check_name("subsystem", self.name)
        if len(self.labels) < 1:
            raise LayoutError(f"subsystem {self.name!r} needs dimension >= 1")
        if len(set(self.labels)) != len(self.labels):
            raise LayoutError(f"subsystem {self.name!r} has duplicate basis labels")

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def label_index(self, label_name: str) -> int:
        try:
            return self.labels.index(label_name)
        except ValueError:
            raise LayoutError(
                f"subsystem {self.name!r} has no basis label {label_name!r}"
            ) from None


def subsystem(name: str, labels: Sequence[str]) -> Subsystem:
    """Build a Subsystem from an ordered list of label names."""
    return Subsystem(name, tuple(labels))


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
        return math.prod(self.dims)

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
    if not np.isfinite(arr).all():
        raise InvariantError("entries must be finite (found NaN or inf)")
    arr.setflags(write=False)
    return arr


def _frozen_square(matrix, d: int) -> np.ndarray:
    """matrix as a read-only, finite, complex (d, d) array; any other shape is a mismatch."""
    arr = np.asarray(matrix, dtype=np.complex128)
    if arr.shape != (d, d):
        raise DimensionMismatchError(f"matrix shape {arr.shape} != {(d, d)}")
    return _frozen_complex(arr, (d, d))


def _row_norms(x: np.ndarray) -> np.ndarray:
    """The L2 norm of each row of a complex (n, d) x, and the one norm kernel: every
    StateVector, Haar sample and scan residual is normed here. Bit for bit np.linalg.norm(x[i]):
    it too takes re.re + im.im by one dot product of each stride-2 view, as these stacked
    products do."""
    re, im = x.real, x.imag
    return np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0])


class StateVector:
    """Normalized pure state over a layout.

    The constructor rescales to unit L2 norm and records the factor it
    divided out in ``norm_factor`` (so callers may pass unnormalized
    superpositions and still recover the original scale).
    """

    __slots__ = ("layout", "amplitudes", "norm_factor")

    def __init__(self, layout: SubsystemLayout, amplitudes):
        arr = _frozen_complex(amplitudes, (-1,))
        if arr.size != layout.total_dimension:
            raise DimensionMismatchError(
                f"amplitude length {arr.size} != layout dimension {layout.total_dimension}"
            )
        norm = float(_row_norms(arr[None])[0])
        if norm < 1e-12:
            raise InvariantError("cannot normalize a (near-)zero state vector")
        if norm == np.inf:
            raise InvariantError("state vector norm overflows a double")
        self.layout = layout
        self.amplitudes = arr / norm
        self.amplitudes.setflags(write=False)
        self.norm_factor = norm

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem (read-only view)."""
        return self.amplitudes.reshape(self.layout.dims)

    def norm(self) -> float:
        return float(_row_norms(self.amplitudes[None])[0])

    def __repr__(self):
        return f"StateVector(ids={self.layout.ids}, dim={self.layout.total_dimension})"


class DensityMatrix:
    """Hermitian, positive, unit-trace operator over a layout."""

    __slots__ = ("layout", "matrix")

    def __init__(self, layout: SubsystemLayout, matrix):
        arr = _frozen_square(matrix, layout.total_dimension)
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
        self.matrix = arr

    @classmethod
    def maximally_mixed(cls, layout: SubsystemLayout) -> "DensityMatrix":
        d = layout.total_dimension
        return cls(layout, np.eye(d, dtype=np.complex128) / d)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def __repr__(self):
        return f"DensityMatrix(ids={self.layout.ids}, dim={self.layout.total_dimension})"


class UnitaryOperator:
    """Square complex matrix with verified unitarity, tagged with its layout."""

    __slots__ = ("layout", "matrix")

    def __init__(self, layout: SubsystemLayout, matrix):
        self.matrix = _frozen_square(matrix, layout.total_dimension)
        _check_unitary(self.matrix)
        self.layout = layout

    def __repr__(self):
        return f"UnitaryOperator(ids={self.layout.ids}, dim={self.layout.total_dimension})"


# ---------------------------------------------------------------------------
# Operations


def _check_unitary(mat: np.ndarray) -> None:
    """Raise unless the matrix is unitary to ATOL."""
    gram = mat.conj().T @ mat
    gram -= np.eye(len(mat))
    dev = float(np.abs(gram).max())
    if not dev <= ATOL:  # a NaN deviation fails too
        raise InvariantError(f"matrix is not unitary (U†U deviates by {dev:.3e})")


def _apply_local(u_layout: SubsystemLayout, mat: np.ndarray, t: np.ndarray,
                 layout: SubsystemLayout) -> np.ndarray:
    """A (d, d) unitary on u_layout applied to the axes of t that follow `layout`.

    One einsum over integer labels contracts the column axes with the axes
    of u_layout's subsystems, which must be in `layout` with the same
    labels, and puts the row axes in their place.
    """
    try:
        axes = [layout.subsystems.index(sub) for sub in u_layout.subsystems]
    except ValueError:
        raise DimensionMismatchError(
            f"unitary layout {u_layout.ids} is not a sub-layout of {layout.ids}"
        ) from None
    n = t.ndim
    rows = [n + j for j in range(len(axes))]
    out = [rows[axes.index(i)] if i in axes else i for i in range(n)]
    return np.einsum(mat.reshape(u_layout.dims * 2), [*rows, *axes], t, range(n), out)


def apply_unitary(u: UnitaryOperator, s: StateVector) -> StateVector:
    """Evolve s by u, which acts on any of s's subsystems, in any order.

    Only u's own axes are contracted; the other subsystems are untouched.
    Each of u's subsystems must appear in s.layout with the same labels.
    """
    out = StateVector(s.layout, _apply_local(u.layout, u.matrix, s.tensor(), s.layout))
    if abs(out.norm_factor - 1.0) > ATOL:
        raise InvariantError(f"unitary application changed the norm by {out.norm_factor - 1.0:.3e}")
    return out


def _partial_trace_array(t: np.ndarray, keep_positions: Sequence[int]) -> np.ndarray:
    """Array kernel: M M† for a pure state tensor t, with M its kept axes first, as rows."""
    kept = np.moveaxis(t, keep_positions, range(len(keep_positions)))
    m = kept.reshape(int(np.prod([t.shape[i] for i in keep_positions])), -1)
    return m @ m.conj().T


def reduced_state(s: StateVector, keep: Sequence[str]) -> DensityMatrix:
    """Reduced density matrix of s over `keep` (order taken from the layout)."""
    keep_list = list(keep)
    if not keep_list:
        raise ValueError("keep must name at least one subsystem")
    if len(set(keep_list)) != len(keep_list):
        raise ValueError(f"keep contains duplicates: {keep_list}")
    keep_positions = sorted(s.layout.position(sid) for sid in keep_list)
    return DensityMatrix(s.layout.sub_layout(keep_list),
                         _partial_trace_array(s.tensor(), keep_positions))
