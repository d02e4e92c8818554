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

Built once, at import: the signaling layout, the round input (Bell pair ox
|undecided, psi0, ready>), the z-basis meter on (distant, pointer) and the
two sector permutations. Every round is evolved by one kernel,
``signaling_weights``: per block of direction pairs it builds the 18x18
steering and 6x6 rotated-meter stacks from cos/sin, checks each stack once
and applies it with the batch axis first. A single pair is a one-row call:
``correlator``, ``joint_distribution`` and ``sample_rounds`` read one row,
``chsh_value`` four, and the CHSH grid and the no-signaling audit many.
The exact quantities share one undecided/ready leak check and one
correlator range check, each made on the whole row stack.

Everything is a pure function; sessions draw all randomness from explicitly
derived per-round seeds, so any execution order gives identical tallies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvariantError, SchemeError
from .measurement import build_premeasurement_unitary, pointer_scheme
from .rng import SplitMix64, born_select, first_uniforms, stream_seeds
from .tensor import (
    StateVector,
    SubsystemLayout,
    UnitaryOperator,
    apply_unitary_stack,
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
_STEER_LAYOUT = _SIGNALING_LAYOUT.sub_layout((PARTICLE, AGENT, PREPARED))


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
_IDX_UP_PSIUP = 1 * len(PREPARED_LABELS) + 1
_IDX_DOWN_PSIDOWN = 2 * len(PREPARED_LABELS) + 2


# steering sectors (undecided, psi0) -> (decides_x, psi_x)
_P_UP = _permutation_matrix(_lex_completion({_IDX_UNDECIDED_PSI0: _IDX_UP_PSIUP}, 9))
_P_DOWN = _permutation_matrix(_lex_completion({_IDX_UNDECIDED_PSI0: _IDX_DOWN_PSIDOWN}, 9))


def build_suggestion_unitary(scheme: DecisionScheme, layout: SubsystemLayout) -> UnitaryOperator:
    """One-step steering unitary over (influence, agent, prepared), in that order.

    Maps |up'>|undecided>|psi0> -> |up'>|decides_up>|psi_up> and
    |down'>|undecided>|psi0> -> |down'>|decides_down>|psi_down>, completed per
    the module convention. Since only the primed projectors enter, the matrix
    is exactly 2*pi-periodic in theta.
    """
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
    up = scheme.direction.up_state()
    down = scheme.direction.down_state()
    mat = np.kron(np.outer(up, up.conj()), _P_UP) + np.kron(np.outer(down, down.conj()), _P_DOWN)
    return UnitaryOperator(SubsystemLayout((infl, agent, prep)), mat)


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


def _round_input(pair_state: StateVector | None) -> StateVector:
    if pair_state is None:
        return _ROUND_INPUT
    if pair_state.layout != _PAIR_LAYOUT:
        raise SchemeError(
            f"pair state must live on {_PAIR_LAYOUT.ids} with labels {INFLUENCE_LABELS}, "
            f"got {[(sub.name, sub.labels) for sub in pair_state.layout.subsystems]}"
        )
    return StateVector(_SIGNALING_LAYOUT, np.kron(pair_state.amplitudes, _REST))


_BLOCK = 32  # pairs (or scan shifts) per block: a working set under 1 MB


def signaling_weights(alice_thetas: Sequence[float], bob_thetas: Sequence[float],
                      pair_state: StateVector | None = None) -> np.ndarray:
    """(k, 3, 3) Born weights over (agent label, pointer label), one per angle pair.

    Row i is the round in which Alice is steered along
    Direction(alice_thetas[i]) and Bob's meter reads along
    Direction(bob_thetas[i]); `pair_state` (over (particle, distant), each
    with labels up, down) defaults to the Bell pair. The round is one unitary
    evolution; nothing collapses here. Per block of _BLOCK pairs, the
    steering and rotated-meter stacks come from the same cos/sin and np.kron
    products as build_suggestion_unitary and r M_z r^dagger built pair by
    pair, and apply_unitary_stack checks and applies each stack once, so a
    row equals that pair's evolution through apply_unitary bit for bit.
    """
    a = [float(t) for t in alice_thetas]
    b = [float(t) for t in bob_thetas]
    if len(a) != len(b):
        raise ValueError(f"need as many alice as bob angles, got {len(a)} and {len(b)}")
    for t in a + b:
        if not math.isfinite(t):
            raise ValueError(f"direction angle must be finite, got {t}")
    start = _round_input(pair_state).tensor()
    out = np.empty((len(a), len(AGENT_LABELS), len(POINTER_LABELS)))
    for i in range(0, len(a), _BLOCK):
        ca, sa, cb, sb = (np.array([f(t / 2.0) for t in x[i:i + _BLOCK]])  # as in Direction
                          for x in (a, b) for f in (math.cos, math.sin))
        up = np.stack([ca, sa], axis=1).astype(np.complex128)
        down = np.stack([-sa, ca], axis=1).astype(np.complex128)
        # np.kron of (k, m, m) with (1, n, n) is the (k, mn, mn) stack of per-row products
        steer = np.kron(up[:, :, None] * up.conj()[:, None, :], _P_UP[None])
        steer += np.kron(down[:, :, None] * down.conj()[:, None, :], _P_DOWN[None])
        r = np.kron(np.stack([np.stack([cb, -sb], 1), np.stack([sb, cb], 1)], 1), np.eye(3)[None])
        meter = r @ _METER_Z.matrix @ r.conj().swapaxes(1, 2)
        t = np.broadcast_to(start, (len(ca),) + start.shape)
        t = apply_unitary_stack(_STEER_LAYOUT, steer, t, _SIGNALING_LAYOUT)
        t = apply_unitary_stack(_METER_Z.layout, meter, t, _SIGNALING_LAYOUT)
        out[i:i + _BLOCK] = (np.abs(t) ** 2).sum(axis=(1, 2, 4))
    return out


def _checked_weights(alice_thetas: Sequence[float], bob_thetas: Sequence[float],
                     pair_state: StateVector | None = None) -> np.ndarray:
    """signaling_weights, after checking that no undecided/ready weight survived."""
    w = signaling_weights(alice_thetas, bob_thetas, pair_state)
    leak = float((w[:, 0, :].sum(axis=1) + w[:, :, 0].sum(axis=1)).max())
    if leak > 1e-10:
        raise InvariantError(f"undecided/ready weight {leak:.3e} survived the round")
    return w


def joint_distribution(alice_dir: Direction, bob_dir: Direction,
                       pair_state: StateVector | None = None) -> dict[tuple[str, str], float]:
    """Exact joint probabilities {(alice_decision, bob_outcome): p}."""
    w = _checked_weights([alice_dir.theta], [bob_dir.theta], pair_state)[0]
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
    w = signaling_weights([alice_dir.theta], [bob_dir.theta])[0]
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


# ---------------------------------------------------------------------------
# Correlators, CHSH, no-signaling


def _correlators(alice_thetas: Sequence[float], bob_thetas: Sequence[float]) -> np.ndarray:
    """Exact E(a, b) = p_same - p_diff per angle pair, from the checked weights."""
    w = _checked_weights(alice_thetas, bob_thetas)
    e = (w[:, 1, 1] + w[:, 2, 2]) - (w[:, 1, 2] + w[:, 2, 1])
    worst = float(np.abs(e).max())
    if worst > 1.0 + 1e-12:
        raise InvariantError(f"correlator {worst} out of range")
    return e


def correlator(alice_dir: Direction, bob_dir: Direction) -> float:
    """Exact E(a, b) = p_same - p_diff from the round's branch weights."""
    return float(_correlators([alice_dir.theta], [bob_dir.theta])[0])


def _chsh(a1: Direction, a2: Direction, b1: Direction, b2: Direction) -> tuple[np.ndarray, float]:
    """Correlators of (a1,b1), (a1,b2), (a2,b1), (a2,b2) from one kernel call, and S."""
    e = _correlators([a1.theta, a1.theta, a2.theta, a2.theta],
                     [b1.theta, b2.theta, b1.theta, b2.theta])
    s = float(e[0] + e[1] + e[2] - e[3])
    if abs(s) > TSIRELSON_BOUND + 1e-9:
        raise InvariantError(f"CHSH value {s} exceeds the quantum bound")
    return e, s


def chsh_value(a1: Direction, a2: Direction, b1: Direction, b2: Direction) -> float:
    """S = E(a1,b1) + E(a1,b2) + E(a2,b1) - E(a2,b2), from exact correlators."""
    return _chsh(a1, a2, b1, b2)[1]


@dataclass(frozen=True)
class ChshSearchResult:
    s_value: float
    abs_value: float
    angles: tuple[float, float, float, float]  # a1, a2, b1, b2
    grid_size: int
    resolution: float


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
    e = _correlators([0.0] * n, [k * step for k in range(n)])

    # guard the sum-dependence the reduction relies on
    probe = SplitMix64(0xC0FFEE)
    ij = np.array([probe.next_u64() % n for _ in range(8)]).reshape(4, 2)
    direct = _correlators(ij[:, 0] * step, ij[:, 1] * step)
    if np.abs(direct - e[ij.sum(axis=1) % n]).max() > 1e-9:
        raise InvariantError("correlator is not a function of the angle sum")

    # windows[da][i] = e[(i + da) % n]; per shift da the best S with a1 = 0
    # is hi = max(e + shifted) + max(e - shifted), or -lo from the minima.
    # The first maximum of (hi_0, -lo_0, hi_1, ...) is the first-found best.
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([e, e[:-1]]), n)
    best, pick = -1.0, 0
    for start in range(0, n, _BLOCK):
        v = e + windows[start:start + _BLOCK]
        hi, lo = v.max(axis=1), v.min(axis=1)
        np.subtract(e, windows[start:start + _BLOCK], out=v)
        hi += v.max(axis=1)
        lo += v.min(axis=1)
        vals = np.stack([hi, -lo], axis=1).ravel()
        k = int(vals.argmax())
        if vals[k] > best:
            best, pick = float(vals[k]), 2 * start + k
    da, low = divmod(pick, 2)
    arg = np.argmin if low else np.argmax
    i1, i2 = int(arg(e + windows[da])), int(arg(e - windows[da]))
    angles = (0.0, da * step, i1 * step, i2 * step)
    s = chsh_value(*(Direction(t) for t in angles))
    if not math.isclose(abs(s), best, rel_tol=0, abs_tol=1e-9):
        raise InvariantError("grid-search reduction disagrees with direct evaluation")
    if (-s if low else s) < 0:
        raise InvariantError("grid-search sign bookkeeping failed")
    return ChshSearchResult(s, abs(s), angles, n, step)


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
    bob = signaling_weights(thetas, [bob_dir.theta] * len(thetas), pair_state).sum(axis=1)
    marginals = [(float(p[1]), float(p[2])) for p in bob]
    max_tv = float(0.5 * np.abs(bob[:, None, 1:] - bob[None, :, 1:]).sum(axis=2).max())
    return NoSignalingAudit(tuple(thetas), bob_dir.theta, tuple(marginals), max_tv)
