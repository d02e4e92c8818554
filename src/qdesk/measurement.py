"""Pointer-basis pre-measurement.

A pre-measurement unitary copies the measured subsystem's basis into a
"pointer" register without collapsing anything: |k>|ready> -> |k>|saw_k>.
Applied to superposed or entangled inputs it produces macroscopically
distinguishable branches; this module builds those unitaries, decomposes the
result into branches, and samples one branch by the Born rule with an
explicit seed.

Completion rule: the defining map only fixes what happens to the ready
state. On each control sector k the apparatus action is completed as the
two-level transposition ready <-> outcome_k (identity on all other apparatus
levels), which is involutive and keeps the matrix an exact 0/1 permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import LayoutError, SchemeError, ProtocolError
from .rng import MASK64, born_select, first_uniforms
from .tensor import (
    StateVector,
    SubsystemLayout,
    UnitaryOperator,
    apply_unitary,
)

BRANCH_PRUNE_EPS = 1e-12
READY_WEIGHT_TOL = 1e-10


@dataclass(frozen=True)
class PointerScheme:
    """Wiring of one measurement: what is measured, where it is recorded.

    outcome_map sends each measured basis label to the apparatus label that
    registers it; the ready label must stay out of its image.
    """

    measured: str
    apparatus: str
    ready_label: str
    outcome_map: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if self.measured == self.apparatus:
            raise SchemeError("measured and apparatus subsystems must differ")
        outcomes = [dst for _, dst in self.outcome_map]
        if len(set(outcomes)) != len(outcomes):
            raise SchemeError(f"outcome map is not injective: {self.outcome_map}")
        if self.ready_label in outcomes:
            raise SchemeError(f"ready label {self.ready_label!r} collides with an outcome")

    def outcome_for(self, measured_label: str) -> str:
        for src, dst in self.outcome_map:
            if src == measured_label:
                return dst
        raise SchemeError(f"outcome map does not cover measured label {measured_label!r}")


def pointer_scheme(measured: str, apparatus: str, ready_label: str,
                   outcome_map: Mapping[str, str]) -> PointerScheme:
    """Build a PointerScheme from a plain dict."""
    return PointerScheme(measured, apparatus, ready_label, tuple(outcome_map.items()))


def _validated_indices(scheme: PointerScheme, layout: SubsystemLayout):
    meas = layout.subsystem_named(scheme.measured)
    app = layout.subsystem_named(scheme.apparatus)
    covered = {src for src, _ in scheme.outcome_map}
    missing = set(meas.label_names()) - covered
    if missing:
        raise SchemeError(f"outcome map misses measured labels {sorted(missing)}")
    extra = covered - set(meas.label_names())
    if extra:
        raise SchemeError(f"outcome map references unknown measured labels {sorted(extra)}")
    if app.dimension < meas.dimension + 1:
        raise SchemeError(
            f"apparatus dimension {app.dimension} < outcomes+1 = {meas.dimension + 1}"
        )
    ready_idx = app.label_index(scheme.ready_label)
    outcome_idx = [app.label_index(scheme.outcome_for(lbl)) for lbl in meas.label_names()]
    return meas, app, ready_idx, outcome_idx


def build_premeasurement_unitary(scheme: PointerScheme, layout: SubsystemLayout) -> UnitaryOperator:
    """Unitary over (measured, apparatus) of `layout`, in that order.

    Exact 0/1 permutation: block-diagonal over measured labels, each block a
    ready <-> outcome_k transposition of the apparatus.
    """
    meas, app, ready_idx, outcome_idx = _validated_indices(scheme, layout)
    dm, da = meas.dimension, app.dimension
    mat = np.zeros((dm * da, dm * da), dtype=np.complex128)
    for k in range(dm):
        perm = list(range(da))
        perm[ready_idx], perm[outcome_idx[k]] = perm[outcome_idx[k]], perm[ready_idx]
        for a in range(da):
            mat[k * da + perm[a], k * da + a] = 1.0
    return UnitaryOperator(SubsystemLayout((meas, app)), mat)


def premeasure(s: StateVector, scheme: PointerScheme) -> StateVector:
    """Apply the pre-measurement unitary to s (spectators untouched).

    Requires the apparatus to be in its ready state; a re-used apparatus is a
    protocol error, not a silently wrong answer.
    """
    ready_idx = s.layout.subsystem_named(scheme.apparatus).label_index(scheme.ready_label)
    ready_weight = float(apparatus_weights(s, scheme.apparatus)[ready_idx])
    if abs(ready_weight - 1.0) > READY_WEIGHT_TOL:
        raise ProtocolError(
            f"apparatus {scheme.apparatus!r} not in ready state "
            f"(ready weight {ready_weight:.6f})"
        )
    return apply_unitary(build_premeasurement_unitary(scheme, s.layout), s)


@dataclass(frozen=True)
class Branch:
    """One macroscopically distinguishable component of a post-measurement state.

    ``amplitude`` retains the complex factor removed when the conditional
    state was phase-normalized (first nonzero amplitude real positive), so
    sum_k amplitude_k * |pointer_k> ox conditional_k rebuilds the input
    exactly; weight == |amplitude|^2.
    """

    pointer_label: str
    weight: float
    conditional_state: StateVector
    amplitude: complex


def apparatus_weights(s: StateVector, apparatus: str) -> np.ndarray:
    """Born weights of every apparatus label, in label index order (unpruned)."""
    pos = s.layout.position(apparatus)
    t = np.moveaxis(s.tensor(), pos, -1)
    flat = t.reshape(-1, s.layout.dims[pos])
    return np.sum(np.abs(flat) ** 2, axis=0)


def _branch_for_label(flat: np.ndarray, rest_layout: SubsystemLayout,
                      label: str, k: int) -> Branch | None:
    component = flat[:, k]
    weight = float(np.sum(np.abs(component) ** 2))
    if weight <= BRANCH_PRUNE_EPS:
        return None
    nonzero = np.nonzero(np.abs(component) > 1e-14)[0]
    lead = component[nonzero[0]]
    phase = lead / abs(lead)
    amplitude = complex(np.sqrt(weight) * phase)
    conditional = StateVector(rest_layout, component / amplitude)
    return Branch(label, weight, conditional, amplitude)


def _apparatus_columns(s: StateVector, apparatus: str) -> tuple[np.ndarray, SubsystemLayout]:
    pos = s.layout.position(apparatus)
    app = s.layout.subsystems[pos]
    rest_ids = [sid for sid in s.layout.ids if sid != apparatus]
    if not rest_ids:
        raise LayoutError("cannot decompose: layout has only the apparatus subsystem")
    rest_layout = s.layout.sub_layout(rest_ids)
    t = np.moveaxis(s.tensor(), pos, -1)
    return t.reshape(-1, app.dimension), rest_layout  # rows follow rest_layout order


def branch_decomposition(s: StateVector, apparatus: str) -> list[Branch]:
    """Split s into branches labeled by the apparatus basis.

    One Branch per apparatus label of weight > BRANCH_PRUNE_EPS, in label
    index order; conditional states live on the remaining sub-layout.
    """
    flat, rest_layout = _apparatus_columns(s, apparatus)
    app = s.layout.subsystem_named(apparatus)
    branches = []
    for k, label in enumerate(app.label_names()):
        branch = _branch_for_label(flat, rest_layout, label, k)
        if branch is not None:
            branches.append(branch)
    return branches


def _collapsed_state(s: StateVector, apparatus: str, branch: Branch) -> StateVector:
    pos = s.layout.position(apparatus)
    app = s.layout.subsystems[pos]
    k = app.label_index(branch.pointer_label)
    t = np.zeros(s.layout.dims, dtype=np.complex128)
    view = np.moveaxis(t, pos, -1)
    view[..., k] = branch.conditional_state.tensor()
    return StateVector(s.layout, t.reshape(-1))


def sample_labels(s: StateVector, apparatus: str, seeds: np.ndarray) -> np.ndarray:
    """Born-rule apparatus label index for each seed (uint64 array).

    Selection is inverse-CDF over the apparatus-label weights in label index
    order, driven by the first uniform draw of SplitMix64(seed); entry i
    depends only on seeds[i].
    """
    return born_select(apparatus_weights(s, apparatus), first_uniforms(seeds))


def sample_branch(s: StateVector, apparatus: str, rng_seed: int) -> tuple[Branch, StateVector]:
    """Pick one branch by the Born rule, deterministically from rng_seed.

    The label is ``sample_labels`` for the single seed, so with
    ``rng_seed = stream_seed(seed, i)`` it is the label of round i of a
    ``measure`` run sampled with ``seed``. Returns the branch and the collapsed full state (apparatus pinned to the
    pointer label, remainder equal to the conditional state). Raises
    ProtocolError if the picked label's weight is at most BRANCH_PRUNE_EPS.
    """
    flat, rest_layout = _apparatus_columns(s, apparatus)
    idx = int(sample_labels(s, apparatus, np.array([rng_seed & MASK64], dtype=np.uint64))[0])
    label = s.layout.subsystem_named(apparatus).basis[idx].name
    branch = _branch_for_label(flat, rest_layout, label, idx)
    if branch is None:
        raise ProtocolError(f"selected an apparatus label of negligible weight: {label!r}")
    return branch, _collapsed_state(s, apparatus, branch)
