"""Steered decisions over an entangled pair, and the correlations they create.

A two-level "influence" controlled by an external manipulator steers a
three-level agent register from ``undecided`` into ``decides_up`` or
``decides_down``; the decision in turn prepares a three-level target system
(``psi0 -> psi_up/psi_down``). Running the steering on one half of the pair
state (|up down> + |down up>)/sqrt2 while the distant half is
pointer-measured along an arbitrary direction produces correlations that the
two parties would read as signaling. This module computes those correlations
exactly from branch weights, samples them reproducibly, evaluates the CHSH
combination, and audits the distant marginals for actual signaling (there is
none).

Conventions fixed here, once:

* Decision directions are real-plane rotations. ``Direction(theta)`` defines
  up' = cos(t/2)|up> + sin(t/2)|down>, down' = -sin(t/2)|up> + cos(t/2)|down>.
* Correlator sign: (decides_up, up) and (decides_down, down) count as "same",
  E = p_same - p_diff.
* Completion of the steering unitary outside its defining input: in the
  primed influence basis, each influence sector acts on (agent ox prepared)
  as the lexicographically smallest permutation extending
  (undecided, psi0) -> (decides_x, psi_x), with the joint index agent-major.
  The same rule (with the intermediate targets) fixes the two stage maps.

Built once, at import: the signaling layout, the round input (Bell pair ox
|undecided, psi0, ready>), the z-basis meter on (distant, pointer) and the
four sector/stage permutations. Per direction pair a round builds and checks
only what depends on the angles: the 18x18 steering unitary and the 6x6
rotated meter.

Everything is a pure function; sessions draw all randomness from explicitly
derived per-round seeds, so any execution order gives identical tallies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvariantError, ProtocolError, SchemeError
from .measurement import (
    apparatus_weights,
    build_premeasurement_unitary,
    pointer_scheme,
)
from .rng import SplitMix64, born_select, first_uniforms, stream_seed, stream_seeds
from .tensor import (
    StateVector,
    SubsystemLayout,
    UnitaryOperator,
    apply_unitary,
    layout_of,
)

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

INFLUENCE_LABELS = ("up", "down")
AGENT_LABELS = ("undecided", "decides_up", "decides_down")
PREPARED_LABELS = ("psi0", "psi_up", "psi_down")
POINTER_LABELS = ("ready", "observes_up", "observes_down")

PARTICLE, DISTANT, AGENT, PREPARED, POINTER = (
    "particle", "distant", "agent", "prepared", "pointer",
)


@dataclass(frozen=True)
class Direction:
    """A real-plane measurement/steering direction, parametrized by theta."""

    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError(f"direction angle must be finite, got {self.theta}")
        r = self.rotation()
        dev = float(np.abs(r.T @ r - np.eye(2)).max())
        if dev > 1e-12:
            raise InvariantError(f"direction basis not orthonormal (deviation {dev:.3e})")

    def up_state(self) -> np.ndarray:
        h = self.theta / 2.0
        return np.array([math.cos(h), math.sin(h)], dtype=np.complex128)

    def down_state(self) -> np.ndarray:
        h = self.theta / 2.0
        return np.array([-math.sin(h), math.cos(h)], dtype=np.complex128)

    def rotation(self) -> np.ndarray:
        """2x2 rotation whose columns are (up', down')."""
        h = self.theta / 2.0
        c, s = math.cos(h), math.sin(h)
        return np.array([[c, -s], [s, c]], dtype=np.float64)


@dataclass(frozen=True)
class DecisionScheme:
    """Wiring of one steered decision: influence, agent, prepared system."""

    influence: str
    agent: str
    prepared: str
    direction: Direction

    def __post_init__(self):
        ids = (self.influence, self.agent, self.prepared)
        if len(set(ids)) != 3:
            raise SchemeError(f"influence/agent/prepared ids must be distinct, got {ids}")


_SIGNALING_LAYOUT = layout_of(
    (PARTICLE, INFLUENCE_LABELS),
    (DISTANT, INFLUENCE_LABELS),
    (AGENT, AGENT_LABELS),
    (PREPARED, PREPARED_LABELS),
    (POINTER, POINTER_LABELS),
)
_PAIR_LAYOUT = _SIGNALING_LAYOUT.sub_layout((PARTICLE, DISTANT))


def signaling_layout() -> SubsystemLayout:
    """Full layout of one signaling round: pair + agent + prepared + pointer."""
    return _SIGNALING_LAYOUT


def _lex_completion(fixed: dict[int, int], n: int) -> list[int]:
    """Smallest permutation (as the sequence pi(0..n-1)) extending `fixed`."""
    used = set(fixed.values())
    free = iter(v for v in range(n) if v not in used)
    return [fixed[j] if j in fixed else next(free) for j in range(n)]


def _permutation_matrix(pi: Sequence[int]) -> np.ndarray:
    n = len(pi)
    mat = np.zeros((n, n), dtype=np.complex128)
    for j, i in enumerate(pi):
        mat[i, j] = 1.0
    mat.setflags(write=False)  # shared module constants
    return mat


# joint (agent, prepared) indices, agent-major
_IDX_UNDECIDED_PSI0 = 0
_IDX_UP_PSI0 = 1 * len(PREPARED_LABELS) + 0
_IDX_UP_PSIUP = 1 * len(PREPARED_LABELS) + 1
_IDX_DOWN_PSI0 = 2 * len(PREPARED_LABELS) + 0
_IDX_DOWN_PSIDOWN = 2 * len(PREPARED_LABELS) + 2


# steering sectors (undecided, psi0) -> (decides_x, psi_x); stages stop at psi0
_P_UP = _permutation_matrix(_lex_completion({_IDX_UNDECIDED_PSI0: _IDX_UP_PSIUP}, 9))
_P_DOWN = _permutation_matrix(_lex_completion({_IDX_UNDECIDED_PSI0: _IDX_DOWN_PSIDOWN}, 9))
_Q_UP = _permutation_matrix(_lex_completion({_IDX_UNDECIDED_PSI0: _IDX_UP_PSI0}, 9))
_Q_DOWN = _permutation_matrix(_lex_completion({_IDX_UNDECIDED_PSI0: _IDX_DOWN_PSI0}, 9))


def _validated_subsystems(scheme: DecisionScheme, layout: SubsystemLayout):
    infl = layout.subsystem_named(scheme.influence)
    agent = layout.subsystem_named(scheme.agent)
    prep = layout.subsystem_named(scheme.prepared)
    if infl.dimension != 2:
        raise SchemeError(f"influence subsystem {infl.name!r} must have dimension 2")
    if agent.label_names() != AGENT_LABELS:
        raise SchemeError(f"agent subsystem needs labels {AGENT_LABELS}, got {agent.label_names()}")
    if prep.label_names() != PREPARED_LABELS:
        raise SchemeError(
            f"prepared subsystem needs labels {PREPARED_LABELS}, got {prep.label_names()}"
        )
    return infl, agent, prep


def _assemble(scheme: DecisionScheme, layout: SubsystemLayout,
              p_up: np.ndarray, p_down: np.ndarray) -> UnitaryOperator:
    infl, agent, prep = _validated_subsystems(scheme, layout)
    up = scheme.direction.up_state()
    down = scheme.direction.down_state()
    mat = np.kron(np.outer(up, up.conj()), p_up) + np.kron(np.outer(down, down.conj()), p_down)
    return UnitaryOperator(SubsystemLayout((infl, agent, prep)), mat)


def build_suggestion_unitary(scheme: DecisionScheme, layout: SubsystemLayout) -> UnitaryOperator:
    """One-step steering unitary over (influence, agent, prepared), in that order.

    Maps |up'>|undecided>|psi0> -> |up'>|decides_up>|psi_up> and
    |down'>|undecided>|psi0> -> |down'>|decides_down>|psi_down>, completed per
    the module convention. Since only the primed projectors enter, the matrix
    is exactly 2*pi-periodic in theta.
    """
    return _assemble(scheme, layout, _P_UP, _P_DOWN)


def build_stage_unitaries(scheme: DecisionScheme,
                          layout: SubsystemLayout) -> tuple[UnitaryOperator, UnitaryOperator]:
    """(decision stage, preparation stage); their product is the one-step map."""
    stage1 = _assemble(scheme, layout, _Q_UP, _Q_DOWN)
    onestep = build_suggestion_unitary(scheme, layout)
    stage2 = UnitaryOperator(stage1.layout, onestep.matrix @ stage1.matrix.conj().T)
    return stage1, stage2


def staged_decision(s: StateVector, scheme: DecisionScheme) -> tuple[StateVector, StateVector]:
    """Run the two-step process: (decision made, then preparation performed).

    Requires the agent undecided and the prepared system in psi0. Returns the
    intermediate and final states; the composition of the two stages equals
    the one-step unitary by construction.
    """
    agent_w = apparatus_weights(s, scheme.agent)
    prep_w = apparatus_weights(s, scheme.prepared)
    if abs(agent_w[0] - 1.0) > 1e-10 or abs(prep_w[0] - 1.0) > 1e-10:
        raise ProtocolError(
            f"staged decision needs agent undecided (weight {agent_w[0]:.6f}) "
            f"and prepared in psi0 (weight {prep_w[0]:.6f})"
        )
    stage1, stage2 = build_stage_unitaries(scheme, s.layout)
    intermediate = apply_unitary(stage1, s)
    final = apply_unitary(stage2, intermediate)
    return intermediate, final


# ---------------------------------------------------------------------------
# Signaling rounds


def bell_pair_state() -> StateVector:
    """(|up down> + |down up>)/sqrt2 over (particle, distant)."""
    amps = np.zeros(4, dtype=np.complex128)
    amps[1] = amps[2] = 1.0  # |up down>, |down up>
    return StateVector(_PAIR_LAYOUT, amps)


_REST = np.zeros(27, dtype=np.complex128)
_REST[0] = 1.0  # undecided, psi0, ready
_REST.setflags(write=False)
_ROUND_INPUT = StateVector(_SIGNALING_LAYOUT, np.kron(bell_pair_state().amplitudes, _REST))
# z-basis pointer measurement of the distant particle, over (distant, pointer)
_METER_Z = build_premeasurement_unitary(
    pointer_scheme(DISTANT, POINTER, "ready", {"up": "observes_up", "down": "observes_down"}),
    _SIGNALING_LAYOUT,
)


def signaling_state(alice_dir: Direction, bob_dir: Direction,
                    pair_state: StateVector | None = None) -> StateVector:
    """Global state after steering Alice's side and pre-measuring Bob's.

    The whole round is one unitary evolution; nothing collapses here.
    `pair_state` (over (particle, distant), each with labels up, down)
    defaults to the Bell pair. Bob's meter is the z-basis meter conjugated
    by his direction's rotation, so |x'>|ready> -> |x'>|observes_x>.
    """
    if pair_state is None:
        s = _ROUND_INPUT
    elif pair_state.layout != _PAIR_LAYOUT:
        raise SchemeError(
            f"pair state must live on {_PAIR_LAYOUT.ids} with labels {INFLUENCE_LABELS}, "
            f"got {[(sub.name, sub.labels) for sub in pair_state.layout.subsystems]}"
        )
    else:
        s = StateVector(_SIGNALING_LAYOUT, np.kron(pair_state.amplitudes, _REST))

    u_steer = build_suggestion_unitary(
        DecisionScheme(PARTICLE, AGENT, PREPARED, alice_dir), _SIGNALING_LAYOUT
    )
    r = np.kron(bob_dir.rotation(), np.eye(len(POINTER_LABELS)))
    u_meter = UnitaryOperator(_METER_Z.layout, r @ _METER_Z.matrix @ r.conj().T)
    return apply_unitary(u_meter, apply_unitary(u_steer, s))


def _joint_weights(alice_dir: Direction, bob_dir: Direction,
                   pair_state: StateVector | None = None) -> np.ndarray:
    """3x3 Born weights over (agent label, pointer label), index order."""
    s = signaling_state(alice_dir, bob_dir, pair_state)
    t = np.abs(s.tensor()) ** 2  # axes: particle, distant, agent, prepared, pointer
    return t.sum(axis=(0, 1, 3))


def joint_distribution(alice_dir: Direction, bob_dir: Direction,
                       pair_state: StateVector | None = None) -> dict[tuple[str, str], float]:
    """Exact joint probabilities {(alice_decision, bob_outcome): p}."""
    w = _joint_weights(alice_dir, bob_dir, pair_state)
    leak = float(w[0, :].sum() + w[:, 0].sum())
    if leak > 1e-10:
        raise InvariantError(f"undecided/ready weight {leak:.3e} survived the round")
    return {
        (INFLUENCE_LABELS[i], INFLUENCE_LABELS[j]): float(w[i + 1, j + 1])
        for i in (0, 1)
        for j in (0, 1)
    }


@dataclass(frozen=True)
class SessionRecords:
    """Sampled signaling rounds as columns; row i is one round.

    decisions and outcomes index INFLUENCE_LABELS (0 = up, 1 = down) for
    Alice's decision and Bob's pointer outcome; seeds holds each round's
    uint64 seed, from which the round is reproducible.
    """

    alice_theta: float
    bob_theta: float
    decisions: np.ndarray
    outcomes: np.ndarray
    seeds: np.ndarray


def sample_rounds(alice_dir: Direction, bob_dir: Direction, seeds: np.ndarray) -> SessionRecords:
    """One round per seed: joint inverse-CDF over the (agent, pointer) weights.

    The flattened weight table is traversed in (agent index, pointer index)
    row-major order, driven by the first uniform of SplitMix64(seed). The
    evolved state is the same in every round, so its weights are computed
    once; round i depends only on seeds[i], so a one-element uint64 array
    replays a single round.
    """
    w = _joint_weights(alice_dir, bob_dir)
    agent, pointer = np.divmod(born_select(w.reshape(-1), first_uniforms(seeds)), w.shape[1])
    if not (agent.all() and pointer.all()):
        raise InvariantError("sampled a zero-weight undecided/ready cell")
    return SessionRecords(alice_dir.theta, bob_dir.theta, agent - 1, pointer - 1, seeds)


def session_records(n_rounds: int, alice_dir: Direction, bob_dir: Direction,
                    master_seed: int) -> SessionRecords:
    """All rounds of a session; round i uses seed stream_seed(master_seed, i)."""
    if n_rounds < 1:
        raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
    return sample_rounds(alice_dir, bob_dir, stream_seeds(master_seed, n_rounds))


@dataclass(frozen=True)
class CorrelationTally:
    """Outcome counts of a session and the correlator they define."""

    n_uu: int
    n_ud: int
    n_du: int
    n_dd: int

    @property
    def n_total(self) -> int:
        return self.n_uu + self.n_ud + self.n_du + self.n_dd

    @property
    def correlator(self) -> float:
        return (self.n_uu + self.n_dd - self.n_ud - self.n_du) / self.n_total


def tally_from_records(records: SessionRecords) -> CorrelationTally:
    counts = np.bincount(2 * records.decisions + records.outcomes, minlength=4)
    return CorrelationTally(*counts.tolist())


def run_session(n_rounds: int, alice_dir: Direction, bob_dir: Direction,
                master_seed: int) -> CorrelationTally:
    """Seeded session; order-independent by construction of the round seeds."""
    return tally_from_records(session_records(n_rounds, alice_dir, bob_dir, master_seed))


def round_seed(master_seed: int, index: int) -> int:
    """Seed used for round `index` of a session (exposed for replay)."""
    return stream_seed(master_seed, index)


# ---------------------------------------------------------------------------
# Correlators, CHSH, no-signaling


def correlator(alice_dir: Direction, bob_dir: Direction) -> float:
    """Exact E(a, b) = p_same - p_diff from the round's branch weights."""
    p = joint_distribution(alice_dir, bob_dir)
    e = (p[("up", "up")] + p[("down", "down")]) - (p[("up", "down")] + p[("down", "up")])
    if abs(e) > 1.0 + 1e-12:
        raise InvariantError(f"correlator {e} out of range")
    return e


def chsh_value(a1: Direction, a2: Direction, b1: Direction, b2: Direction) -> float:
    """S = E(a1,b1) + E(a1,b2) + E(a2,b1) - E(a2,b2), from exact correlators."""
    s = (correlator(a1, b1) + correlator(a1, b2)
         + correlator(a2, b1) - correlator(a2, b2))
    if abs(s) > TSIRELSON_BOUND + 1e-9:
        raise InvariantError(f"CHSH value {s} exceeds the quantum bound")
    return s


@dataclass(frozen=True)
class ChshSearchResult:
    s_value: float
    abs_value: float
    angles: tuple[float, float, float, float]  # a1, a2, b1, b2
    grid_size: int
    resolution: float


def _grid_correlators(n: int, step: float) -> np.ndarray:
    zero = Direction(0.0)
    return np.array([correlator(zero, Direction(k * step)) for k in range(n)])


def chsh_grid_search(resolution: float) -> ChshSearchResult:
    """Maximize |S| over all four angles drawn from a uniform grid.

    The grid is k*(2*pi/n) for n = round(2*pi/resolution), which makes it
    closed under angle sums. Because the exact correlator of this protocol
    depends only on the angle sum (a consequence of the real-plane direction
    convention, spot-checked at runtime below), the four-angle grid maximum
    equals a reduced maximum over (a2, b1, b2) with a1 = 0, which is what is
    enumerated. Every reported value is re-evaluated through chsh_value.
    """
    if resolution <= 0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    n = int(round(2.0 * math.pi / resolution))
    if n < 4:
        raise ValueError(f"resolution {resolution} leaves fewer than 4 grid angles")
    step = 2.0 * math.pi / n
    e = _grid_correlators(n, step)

    # guard the sum-dependence the reduction relies on
    probe = SplitMix64(0xC0FFEE)
    for _ in range(4):
        i = probe.next_u64() % n
        j = probe.next_u64() % n
        direct = correlator(Direction(i * step), Direction(j * step))
        if abs(direct - e[(i + j) % n]) > 1e-9:
            raise InvariantError("correlator is not a function of the angle sum")

    best = (-1.0, 0, 0, 0)  # |S|, da, b1, b2
    best_sign = 1.0
    for da in range(n):
        shifted = np.roll(e, -da)
        v1 = e + shifted
        v2 = e - shifted
        hi = float(v1.max() + v2.max())
        lo = float(v1.min() + v2.min())
        if hi > best[0]:
            best = (hi, da, int(v1.argmax()), int(v2.argmax()))
            best_sign = 1.0
        if -lo > best[0]:
            best = (-lo, da, int(v1.argmin()), int(v2.argmin()))
            best_sign = -1.0
    _, da, i1, i2 = best
    angles = (0.0, da * step, i1 * step, i2 * step)
    s = chsh_value(*(Direction(t) for t in angles))
    if not math.isclose(abs(s), best[0], rel_tol=0, abs_tol=1e-9):
        raise InvariantError("grid-search reduction disagrees with direct evaluation")
    if best_sign * s < 0:
        raise InvariantError("grid-search sign bookkeeping failed")
    return ChshSearchResult(s, abs(s), angles, n, step)


def chsh_search(angles: Sequence[float]) -> ChshSearchResult:
    """Maximize |S| over a supplied (arbitrary, finite) angle grid.

    Builds the full correlator table, so the cost is quadratic in the grid
    size plus a vectorized cubic scan; intended for modest grids.
    """
    thetas = [float(t) for t in angles]
    n = len(thetas)
    if n < 1:
        raise ValueError("angle grid must not be empty")
    dirs = [Direction(t) for t in thetas]
    table = np.array([[correlator(a, b) for b in dirs] for a in dirs])

    best_abs = -1.0
    best_idx = (0, 0, 0, 0)
    best_s = 0.0
    for i1 in range(n):
        row1 = table[i1]
        m1 = row1[None, :] + table  # (a2, b1)
        m2 = row1[None, :] - table  # (a2, b2)
        hi = m1.max(axis=1) + m2.max(axis=1)
        lo = m1.min(axis=1) + m2.min(axis=1)
        for i2 in range(n):
            for s_val, pick in ((hi[i2], "hi"), (lo[i2], "lo")):
                if abs(s_val) > best_abs:
                    if pick == "hi":
                        j1 = int(m1[i2].argmax())
                        j2 = int(m2[i2].argmax())
                    else:
                        j1 = int(m1[i2].argmin())
                        j2 = int(m2[i2].argmin())
                    best_abs = abs(s_val)
                    best_s = float(s_val)
                    best_idx = (i1, i2, j1, j2)
    i1, i2, j1, j2 = best_idx
    picked = (thetas[i1], thetas[i2], thetas[j1], thetas[j2])
    s = chsh_value(*(Direction(t) for t in picked))
    if not math.isclose(s, best_s, rel_tol=0, abs_tol=1e-9):
        raise InvariantError("supplied-grid search disagrees with direct evaluation")
    return ChshSearchResult(s, abs(s), picked, n, float("nan"))


@dataclass(frozen=True)
class NoSignalingAudit:
    """Bob's exact marginals across Alice's settings, and their spread."""

    alice_thetas: tuple[float, ...]
    bob_theta: float
    marginals: tuple[tuple[float, float], ...]  # (p_up, p_down) per setting
    max_tv_distance: float


def no_signaling_audit(alice_dirs: Sequence[Direction], bob_dir: Direction,
                       pair_state: StateVector | None = None) -> NoSignalingAudit:
    """Check that Bob's marginal ignores Alice's steering direction.

    Computes the exact marginal distribution of the pointer outcome for each
    Alice setting and reports the maximum pairwise total-variation distance;
    for any pair state it is zero to rounding, because steering is local.
    """
    thetas = [d.theta for d in alice_dirs]
    if len(set(thetas)) < 2:
        raise ValueError("need at least two distinct alice settings to audit")
    marginals = []
    for d in alice_dirs:
        w = _joint_weights(d, bob_dir, pair_state)
        bob = w.sum(axis=0)
        marginals.append((float(bob[1]), float(bob[2])))
    max_tv = 0.0
    for i in range(len(marginals)):
        for j in range(i + 1, len(marginals)):
            tv = 0.5 * (abs(marginals[i][0] - marginals[j][0])
                        + abs(marginals[i][1] - marginals[j][1]))
            max_tv = max(max_tv, tv)
    return NoSignalingAudit(tuple(thetas), bob_dir.theta, tuple(marginals), max_tv)
