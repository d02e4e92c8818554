"""Pointer-basis pre-measurement.

A pre-measurement unitary copies the measured subsystem's basis into a
"pointer" register without collapsing anything: |k>|ready> -> |k>|saw_k>.
Applied to superposed or entangled inputs it produces macroscopically
distinguishable branches; this module builds those unitaries, decomposes the
result into branches, and samples the apparatus label by the Born rule, one
label per explicit seed.

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
from .rng import born_select, first_uniforms
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

    outcome_map sends each measured basis label, named once, to the apparatus
    label that registers it; the ready label must stay out of its image.
    """

    measured: str
    apparatus: str
    ready_label: str
    outcome_map: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if self.measured == self.apparatus:
            raise SchemeError("measured and apparatus subsystems must differ")
        if len(dict(self.outcome_map)) != len(self.outcome_map):
            raise SchemeError(f"outcome map names a measured label twice: {self.outcome_map}")
        outcomes = [dst for _, dst in self.outcome_map]
        if len(set(outcomes)) != len(outcomes):
            raise SchemeError(f"outcome map is not injective: {self.outcome_map}")
        if self.ready_label in outcomes:
            raise SchemeError(f"ready label {self.ready_label!r} collides with an outcome")


def pointer_scheme(measured: str, apparatus: str, ready_label: str,
                   outcome_map: Mapping[str, str]) -> PointerScheme:
    """Build a PointerScheme from a plain dict."""
    return PointerScheme(measured, apparatus, ready_label, tuple(outcome_map.items()))


def _validated_indices(scheme: PointerScheme, layout: SubsystemLayout):
    meas = layout.subsystem_named(scheme.measured)
    app = layout.subsystem_named(scheme.apparatus)
    outcome = dict(scheme.outcome_map)
    missing = set(meas.labels) - outcome.keys()
    if missing:
        raise SchemeError(f"outcome map misses measured labels {sorted(missing)}")
    extra = outcome.keys() - set(meas.labels)
    if extra:
        raise SchemeError(f"outcome map references unknown measured labels {sorted(extra)}")
    if app.dimension < meas.dimension + 1:
        raise SchemeError(
            f"apparatus dimension {app.dimension} < outcomes+1 = {meas.dimension + 1}"
        )
    ready_idx = app.label_index(scheme.ready_label)
    outcome_idx = [app.label_index(outcome[lbl]) for lbl in meas.labels]
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
    return np.sum(np.abs(_apparatus_columns(s, apparatus)) ** 2, axis=0)


def _apparatus_columns(s: StateVector, apparatus: str) -> np.ndarray:
    """s as a (rest, apparatus) matrix; its rows follow the other subsystems' layout order."""
    pos = s.layout.position(apparatus)
    return np.moveaxis(s.tensor(), pos, -1).reshape(-1, s.layout.dims[pos])


def branch_decomposition(s: StateVector, apparatus: str) -> list[Branch]:
    """Split s into branches labeled by the apparatus basis.

    One Branch per apparatus label whose apparatus_weights entry, the weight
    sample_labels draws that label with, exceeds BRANCH_PRUNE_EPS, in label
    index order; that entry is the branch's weight, bit for bit. Conditional
    states live on the remaining sub-layout.
    """
    weights = apparatus_weights(s, apparatus)
    flat = _apparatus_columns(s, apparatus)
    rest_ids = [sid for sid in s.layout.ids if sid != apparatus]
    if not rest_ids:
        raise LayoutError("cannot decompose: layout has only the apparatus subsystem")
    rest_layout = s.layout.sub_layout(rest_ids)
    branches = []
    for k, label in enumerate(s.layout.subsystem_named(apparatus).labels):
        weight = float(weights[k])
        if weight <= BRANCH_PRUNE_EPS:
            continue
        component = flat[:, k]
        lead = component[np.nonzero(np.abs(component) > 1e-14)[0][0]]
        amplitude = complex(np.sqrt(weight) * (lead / abs(lead)))
        branches.append(Branch(label, weight, StateVector(rest_layout, component / amplitude),
                               amplitude))
    return branches


def sample_labels(s: StateVector, apparatus: str, seeds: np.ndarray) -> np.ndarray:
    """Born-rule apparatus label index for each seed (uint64 array).

    Selection is inverse-CDF over the apparatus-label weights in label index
    order, driven by the first uniform draw of SplitMix64(seed); entry i
    depends only on seeds[i].
    """
    return born_select(apparatus_weights(s, apparatus), first_uniforms(seeds))
