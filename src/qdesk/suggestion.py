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

* A direction is one angle t (a float, in radians) in the real plane:
  up' = cos(t/2)|up> + sin(t/2)|down>, down' = -sin(t/2)|up> + cos(t/2)|down>.
  ``signaling_weights`` alone checks that t is finite and builds its rotation.
* Correlator sign: (decides_up, up) and (decides_down, down) count as "same",
  E = p_same - p_diff.

The round in closed form. A round starts in |Psi> (x) |undecided, psi0,
ready>, with Psi[p, q] the pair's amplitudes over (particle, distant). The
steering acts in Alice's primed basis, |x'>|undecided, psi0> ->
|x'>|decides_x, psi_x> for x = up, down; how the steering unitary is
completed outside that input never matters here. Bob's meter is the z-basis
pointer measurement turned into his primed basis, |y'>|ready> ->
|y'>|observes_y>. So the evolved round is

  sum_xy A[x, y] |x'>|y'>|decides_x, psi_x, observes_y>,
  A[x, y] = <x' (x) y'|Psi> = sum_pq x'[p] Psi[p, q] y'[q]

(x' and y' are real), a sum of orthonormal terms. The cell (decides_x,
observes_y) weighs |A[x, y]|^2, and every undecided or ready cell weighs
exactly 0. ``signaling_weights`` evaluates this from ``math.cos`` and
``math.sin`` of the half angles, with elementwise products summed in one
fixed order and no BLAS call, so its bits depend on neither the BLAS kernel
nor its thread count. The Bell pair is Psi = [[0, 1], [1, 0]] with the
factor 1/2 taken out, so aligned angles weigh exactly 0.5 and 0. The
operator-by-operator round (the 18x18 steering and 6x6 meter unitaries) is
``tests/oracles.py``'s reference for this kernel.

A single pair is a one-row call of the kernel: ``correlator`` and
``sample_rounds`` read one row, ``chsh_value`` four, and the CHSH grid and
the no-signaling audit many; the joint probabilities of a pair are the four
decided cells of its row. The exact correlators share one range check, made
on the whole row stack.

Everything is a pure function; sessions draw all randomness from explicitly
derived per-round seeds, so any execution order gives identical tallies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvariantError, SchemeError
from .rng import born_select, first_uniforms, stream_seeds
from .tensor import StateVector, layout_of

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
TSIRELSON_GUARD = 1e-9      # slack on |S| <= TSIRELSON_BOUND
NO_SIGNALING_TOL = 1e-10    # spread of Bob's marginals across Alice's settings

INFLUENCE_LABELS = ("up", "down")
AGENT_LABELS = ("undecided", "decides_up", "decides_down")
PREPARED_LABELS = ("psi0", "psi_up", "psi_down")
POINTER_LABELS = ("ready", "observes_up", "observes_down")

PARTICLE, DISTANT, AGENT, PREPARED, POINTER = (
    "particle", "distant", "agent", "prepared", "pointer",
)


_SIGNALING_LAYOUT = layout_of(
    (PARTICLE, INFLUENCE_LABELS),
    (DISTANT, INFLUENCE_LABELS),
    (AGENT, AGENT_LABELS),
    (PREPARED, PREPARED_LABELS),
    (POINTER, POINTER_LABELS),
)
_PAIR_LAYOUT = _SIGNALING_LAYOUT.sub_layout((PARTICLE, DISTANT))
_BELL_PAIR = np.array([[0, 1], [1, 0]], dtype=np.complex128)  # sqrt2 times the Bell pair


# ---------------------------------------------------------------------------
# Signaling rounds


def signaling_weights(alice_thetas: Sequence[float], bob_thetas: Sequence[float],
                      pair_state: StateVector | None = None) -> np.ndarray:
    """(k, 3, 3) Born weights over (agent label, pointer label), one per angle pair.

    Row i is the round in which Alice is steered along alice_thetas[i] and
    Bob's meter reads along bob_thetas[i]; `pair_state` (over (particle,
    distant), each with labels up, down) defaults to the Bell pair. The round
    is one unitary evolution; nothing collapses here. Each angle is checked
    here, and only here: a non-finite one is a ValueError. Cell (x, y) of
    the decided block is |A[x, y]|^2, A[x, y] = sum_pq x'[p] Psi[p, q] y'[q]
    with its four terms summed in (p, q) row-major order (see the module
    docstring); the undecided and ready cells are 0 and never written.
    """
    a = [float(t) for t in alice_thetas]
    b = [float(t) for t in bob_thetas]
    if len(a) != len(b):
        raise ValueError(f"need as many alice as bob angles, got {len(a)} and {len(b)}")
    for t in a + b:
        if not math.isfinite(t):
            raise ValueError(f"direction angle must be finite, got {t}")
    if pair_state is None:
        psi, factor = _BELL_PAIR, 0.5
    elif pair_state.layout != _PAIR_LAYOUT:
        raise SchemeError(
            f"pair state must live on {_PAIR_LAYOUT.ids} with labels {INFLUENCE_LABELS}, "
            f"got {[(sub.name, sub.labels) for sub in pair_state.layout.subsystems]}"
        )
    else:
        psi, factor = pair_state.amplitudes.reshape(2, 2), 1.0
    ca, sa, cb, sb = (np.array([f(t / 2.0) for t in x]) for x in (a, b)
                      for f in (math.cos, math.sin))
    xa = np.array([[ca, sa], [-sa, ca]])  # xa[x, p, i]: entry p of Alice's up', down' in pair i
    yb = np.array([[cb, sb], [-sb, cb]])  # yb[y, q, i]: the same for Bob
    amp = sum(xa[:, None, p] * yb[None, :, q] * psi[p, q] for p in (0, 1) for q in (0, 1))
    out = np.zeros((len(a), len(AGENT_LABELS), len(POINTER_LABELS)))
    out[:, 1:, 1:] = np.moveaxis(factor * (amp.real * amp.real + amp.imag * amp.imag), -1, 0)
    return out


@dataclass(frozen=True)
class SessionRecords:
    """Sampled signaling rounds as columns, of a whole session or of one block of it.

    decisions and outcomes index INFLUENCE_LABELS (0 = up, 1 = down) for
    Alice's decision and Bob's pointer outcome; seeds holds each round's
    uint64 seed, from which the round is reproducible.
    """

    alice_theta: float
    bob_theta: float
    decisions: np.ndarray
    outcomes: np.ndarray
    seeds: np.ndarray


def sample_rounds(alice_theta: float, bob_theta: float, seeds: np.ndarray) -> SessionRecords:
    """One round per seed: joint inverse-CDF over the (agent, pointer) weights.

    The flattened weight table is traversed in (agent index, pointer index)
    row-major order, driven by the first uniform of SplitMix64(seed). The
    evolved state is the same in every round, so its weights are computed
    once; its undecided and ready cells weigh exactly 0, so born_select,
    which never picks a zero cell, decides every round. Round i depends only
    on seeds[i], so a one-element uint64 array replays a single round.
    """
    w = signaling_weights([alice_theta], [bob_theta])[0]
    agent, pointer = np.divmod(born_select(w.reshape(-1), first_uniforms(seeds)), w.shape[1])
    return SessionRecords(alice_theta, bob_theta, agent - 1, pointer - 1, seeds)


def session_records(n_rounds: int, alice_theta: float, bob_theta: float,
                    master_seed: int) -> SessionRecords:
    """All rounds of a session; round i uses seed stream_seeds(master_seed, n_rounds)[i].

    Rounds s .. s + m - 1 of a session are session_records(m, alice_theta,
    bob_theta, master_seed + s*GAMMA), bit for bit (see rng.stream_seeds).
    """
    if n_rounds < 1:
        raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
    return sample_rounds(alice_theta, bob_theta, stream_seeds(master_seed, n_rounds))


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


def tally_from_records(records: SessionRecords | Iterable[SessionRecords]) -> CorrelationTally:
    """The counts of a session's records, whole or as an iterable of its blocks."""
    counts = np.zeros(4, np.int64)
    for block in [records] if isinstance(records, SessionRecords) else records:
        counts += np.bincount(2 * block.decisions + block.outcomes, minlength=4)
    return CorrelationTally(*counts.tolist())


# ---------------------------------------------------------------------------
# Correlators, CHSH, no-signaling


def _correlators(alice_thetas: Sequence[float], bob_thetas: Sequence[float]) -> np.ndarray:
    """Exact E(a, b) = p_same - p_diff per angle pair."""
    w = signaling_weights(alice_thetas, bob_thetas)
    e = (w[:, 1, 1] + w[:, 2, 2]) - (w[:, 1, 2] + w[:, 2, 1])
    worst = float(np.abs(e).max())
    if worst > 1.0 + 1e-12:
        raise InvariantError(f"correlator {worst} out of range")
    return e


def correlator(alice_theta: float, bob_theta: float) -> float:
    """Exact E(a, b) = p_same - p_diff from the round's branch weights."""
    return float(_correlators([alice_theta], [bob_theta])[0])


def chsh_value(a1: float, a2: float, b1: float, b2: float) -> tuple[np.ndarray, float]:
    """Exact correlators of (a1,b1), (a1,b2), (a2,b1), (a2,b2) from one kernel call, and S.

    S = E(a1,b1) + E(a1,b2) + E(a2,b1) - E(a2,b2).
    """
    e = _correlators([a1, a1, a2, a2], [b1, b2, b1, b2])
    s = float(e[0] + e[1] + e[2] - e[3])
    if abs(s) > TSIRELSON_BOUND + TSIRELSON_GUARD:
        raise InvariantError(f"CHSH value {s} exceeds the quantum bound")
    return e, s


@dataclass(frozen=True)
class ChshSearchResult:
    s_value: float
    abs_value: float
    angles: tuple[float, float, float, float]  # a1, a2, b1, b2
    grid_size: int
    resolution: float


_BLOCK = 32  # scan shifts per block


def chsh_grid_search(resolution: float) -> ChshSearchResult:
    """Maximize |S| over all four angles drawn from a uniform grid.

    The grid is k*(2*pi/n) for n = round(2*pi/resolution), which makes it
    closed under angle sums. Because the exact correlator of this protocol
    depends only on the angle sum (a consequence of the real-plane direction
    convention, spot-checked at runtime below), the four-angle grid maximum
    equals a reduced maximum over (a2, b1, b2) with a1 = 0, which is what is
    enumerated. Every reported value is re-evaluated through chsh_value.
    """
    if not resolution > 0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    n = int(round(2.0 * math.pi / resolution))
    if n < 4:
        raise ValueError(f"resolution {resolution} leaves fewer than 4 grid angles")
    step = 2.0 * math.pi / n
    e = _correlators([0.0] * n, [k * step for k in range(n)])

    # guard the sum-dependence the reduction relies on
    ij = (stream_seeds(0xC0FFEE, 8) % np.uint64(n)).reshape(4, 2)
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
    s = chsh_value(*angles)[1]
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


def no_signaling_audit(alice_thetas: Sequence[float], bob_theta: float,
                       pair_state: StateVector | None = None) -> NoSignalingAudit:
    """Check that Bob's marginal ignores Alice's steering direction.

    Computes the exact marginal distribution of the pointer outcome for each
    Alice setting and reports the maximum pairwise total-variation distance;
    for any pair state it is zero to rounding, because steering is local,
    and above NO_SIGNALING_TOL it raises.
    """
    thetas = tuple(alice_thetas)
    bob = signaling_weights(thetas, [bob_theta] * len(thetas), pair_state).sum(axis=1)
    # after the angle checks: a set holds one NaN object once
    if len(set(thetas)) < 2:
        raise ValueError("need at least two distinct alice settings to audit")
    marginals = [(float(p[1]), float(p[2])) for p in bob]
    max_tv = float(0.5 * np.abs(bob[:, None, 1:] - bob[None, :, 1:]).sum(axis=2).max())
    if max_tv > NO_SIGNALING_TOL:
        raise InvariantError(f"distant marginals differ by {max_tv:.3e} across alice settings")
    return NoSignalingAudit(thetas, bob_theta, tuple(marginals), max_tv)
