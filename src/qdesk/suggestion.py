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
  ``_decided_weights`` alone checks that t is finite and builds its rotation.
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
exactly 0. One kernel, ``_decided_weights``, evaluates this from
``math.cos`` and ``math.sin`` of the half angles, as Python float products
summed in one fixed order, so its bits depend on no BLAS kernel, thread
count or SIMD path. The Bell pair is Psi = [[0, 1], [1, 0]]
with the factor 1/2 taken out, so aligned angles weigh exactly 0.5 and 0.
The operator-by-operator round (the 18x18 steering and 6x6 meter unitaries)
is ``tests/oracles.py``'s reference for this kernel.

A single pair is a one-row call of the kernel: ``correlator`` and
``sample_rounds`` read one row, ``chsh_value`` four, and the CHSH grid and
the no-signaling audit many; the joint probabilities of a pair are the four
decided cells of its row, and ``signaling_weights`` the rows as a (k, 3, 3)
array. The exact correlators share one range check, made on the whole row
stack; only the sessions and ``signaling_weights`` load numpy.

Everything is a pure function; sessions draw all randomness from explicitly
derived per-round seeds, so any execution order gives identical tallies. The
records are typing.NamedTuples, so a chsh process imports no dataclasses (nor
inspect, ast, dis, tokenize): each is also a tuple, equal to a plain tuple of
its fields and rendered as a list, so a report takes its ``_asdict()``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import InvariantError, SchemeError

if TYPE_CHECKING:
    import numpy as np

    from .tensor import StateVector

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


_PAIR_SUBSYSTEMS = [(PARTICLE, INFLUENCE_LABELS), (DISTANT, INFLUENCE_LABELS)]
_BELL_PAIR = (0j, 1 + 0j, 1 + 0j, 0j)  # sqrt2 times the Bell pair, Psi[p][q] at 2*p + q


# ---------------------------------------------------------------------------
# Signaling rounds


def _decided_weights(alice_thetas: Sequence[float], bob_thetas: Sequence[float],
                     pair_state: StateVector | None = None) -> list[tuple[float, ...]]:
    """Row i of signaling_weights' decided block: the weights of (decides_x, observes_y) for
    x, y = (up, up), (up, down), (down, up), (down, down). Each angle is checked here, and
    only here: a non-finite one is a ValueError.

    A cell is factor*(re*re + im*im), each part of A summed left to right
    from f_pq = x'[p]*y'[q] times that part of Psi[p][q]. These are the bits
    of the complex sum 0 + t00 + t01 + t10 + t11, t_pq = f_pq * Psi[p][q]:
    its terms differ only in the sign of a zero, which the squares drop.
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
    else:
        got = [(sub.name, sub.labels) for sub in pair_state.layout.subsystems]
        if got != _PAIR_SUBSYSTEMS:
            raise SchemeError(f"pair state must live on {(PARTICLE, DISTANT)} with labels "
                              f"{INFLUENCE_LABELS}, got {got}")
        psi, factor = pair_state.amplitudes.tolist(), 1.0
    (r00, i00), (r01, i01), (r10, i10), (r11, i11) = ((z.real, z.imag) for z in psi)

    def cell(x0: float, x1: float, y0: float, y1: float) -> float:  # x' = (x0, x1), y' = (y0, y1)
        f00, f01, f10, f11 = x0 * y0, x0 * y1, x1 * y0, x1 * y1
        re = f00 * r00 + f01 * r01 + f10 * r10 + f11 * r11
        im = f00 * i00 + f01 * i01 + f10 * i10 + f11 * i11
        return factor * (re * re + im * im)

    rows = []
    for ta, tb in zip(a, b):
        ca, sa = math.cos(ta / 2.0), math.sin(ta / 2.0)  # up' = (ca, sa), down' = (-sa, ca)
        cb, sb = math.cos(tb / 2.0), math.sin(tb / 2.0)
        rows.append((cell(ca, sa, cb, sb), cell(ca, sa, -sb, cb),
                     cell(-sa, ca, cb, sb), cell(-sa, ca, -sb, cb)))
    return rows


def signaling_weights(alice_thetas: Sequence[float], bob_thetas: Sequence[float],
                      pair_state: StateVector | None = None) -> np.ndarray:
    """(k, 3, 3) Born weights over (agent label, pointer label), one per angle pair.

    Row i is the round in which Alice is steered along alice_thetas[i] and
    Bob's meter reads along bob_thetas[i]; `pair_state` (over (particle,
    distant), each with labels up, down) defaults to the Bell pair. The round
    is one unitary evolution; nothing collapses here. A non-finite angle is a
    ValueError. The undecided and ready cells are exactly 0.
    """
    import numpy as np

    rows = _decided_weights(alice_thetas, bob_thetas, pair_state)
    out = np.zeros((len(rows), len(AGENT_LABELS), len(POINTER_LABELS)))
    out[:, 1:, 1:] = np.array(rows).reshape(-1, 2, 2)
    return out


class SessionRecords(NamedTuple):
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
    """One round per seed: inverse CDF over the four decided cells (uu, ud, du, dd).

    The cells are traversed in (decision, outcome) row-major order, driven by
    the first uniform of SplitMix64(seed). The evolved state is the same in
    every round, so its weights are computed once. Round i depends only on
    seeds[i], so a one-element uint64 array replays a single round.
    """
    from .rng import born_select, first_uniforms

    w = _decided_weights([alice_theta], [bob_theta])[0]
    decisions, outcomes = divmod(born_select(w, first_uniforms(seeds)), 2)
    return SessionRecords(alice_theta, bob_theta, decisions, outcomes, seeds)


def session_records(n_rounds: int, alice_theta: float, bob_theta: float,
                    master_seed: int) -> SessionRecords:
    """All rounds of a session; round i uses seed stream_seeds(master_seed, n_rounds)[i].

    A block of rounds from rng.stream_blocks is session_records(m, alice_theta,
    bob_theta, block seed), bit for bit.
    """
    from .rng import stream_seeds

    if n_rounds < 1:
        raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
    return sample_rounds(alice_theta, bob_theta, stream_seeds(master_seed, n_rounds))


class CorrelationTally(NamedTuple):
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
    """The counts of a session's records, whole or as blocks; a ValueError for 0 rounds."""
    import numpy as np

    counts = np.zeros(4, np.int64)
    for block in [records] if isinstance(records, SessionRecords) else records:
        counts += np.bincount(2 * block.decisions + block.outcomes, minlength=4)
    if not counts.any():
        raise ValueError("a tally needs at least one round, got 0")
    return CorrelationTally(*counts.tolist())


# ---------------------------------------------------------------------------
# Correlators, CHSH, no-signaling


def _correlators(alice_thetas: Sequence[float], bob_thetas: Sequence[float]) -> list[float]:
    """Exact E(a, b) = p_same - p_diff per angle pair."""
    e = [(uu + dd) - (ud + du) for uu, ud, du, dd in _decided_weights(alice_thetas, bob_thetas)]
    worst = max(map(abs, e))
    if worst > 1.0 + 1e-12:
        raise InvariantError(f"correlator {worst} out of range")
    return e


def correlator(alice_theta: float, bob_theta: float) -> float:
    """Exact E(a, b) = p_same - p_diff from the round's branch weights."""
    return _correlators([alice_theta], [bob_theta])[0]


def chsh_value(a1: float, a2: float, b1: float,
               b2: float) -> tuple[tuple[float, float, float, float], float]:
    """Exact correlators of (a1,b1), (a1,b2), (a2,b1), (a2,b2) from one kernel call, and S.

    S = E(a1,b1) + E(a1,b2) + E(a2,b1) - E(a2,b2).
    """
    e = tuple(_correlators([a1, a1, a2, a2], [b1, b2, b1, b2]))
    s = e[0] + e[1] + e[2] - e[3]
    if abs(s) > TSIRELSON_BOUND + TSIRELSON_GUARD:
        raise InvariantError(f"CHSH value {s} exceeds the quantum bound")
    return e, s


class ChshSearchResult(NamedTuple):
    s_value: float
    abs_value: float
    angles: tuple[float, float, float, float]  # a1, a2, b1, b2
    grid_size: int
    resolution: float


def _shift_scores(e: list[float], da: int) -> tuple[float, float, list[float], list[float]]:
    """(hi, -lo, e + shifted, e - shifted) of shift da, shifted[i] = e[(i + da) % n]."""
    shifted = e[da:] + e[:da]
    v1, v2 = [x + y for x, y in zip(e, shifted)], [x - y for x, y in zip(e, shifted)]
    return max(v1) + max(v2), -(min(v1) + min(v2)), v1, v2


def _best_shift(e: list[float]) -> tuple[float, int, int, int, bool]:
    """The first-found best |S| over the shifts of e = E(0, k*step): (|S|, da, i1, i2, low).

    The first maximum of (hi_0, -lo_0, hi_1, -lo_1, ...) wins. As e[k] is -cos(k*step)
    to within eps, measured here, hi and -lo are at most 2(|cos(pi*da/n)| + |sin(pi*da/n)|)
    + 4*eps (+ 1e-12 for rounding). A shift bounded below a score already found cannot
    hold that maximum, so only the shifts that reach the better of round(n/4) and
    round(3n/4) are scored, in ascending order with the full scan's strict updates.
    """
    n = len(e)
    step = 2.0 * math.pi / n
    eps = max(abs(x + math.cos(k * step)) for k, x in enumerate(e))
    scored = {da: _shift_scores(e, da) for da in (round(n / 4), round(3 * n / 4))}
    floor = max(max(s[:2]) for s in scored.values())
    best, da, low = -1.0, 0, False
    for shift in range(n):
        x = math.pi * shift / n
        if 2.0 * (abs(math.cos(x)) + abs(math.sin(x))) + 4.0 * eps + 1e-12 < floor:
            continue
        if shift not in scored:
            scored[shift] = _shift_scores(e, shift)
        hi, neg_lo, _, _ = scored[shift]
        if hi > best:
            best, da, low = hi, shift, False
        if neg_lo > best:
            best, da, low = neg_lo, shift, True
    _, _, v1, v2 = scored[da]
    arg = min if low else max
    return best, da, v1.index(arg(v1)), v2.index(arg(v2)), low


def chsh_grid_search(resolution: float) -> ChshSearchResult:
    """Maximize |S| over all four angles drawn from a uniform grid.

    The grid is k*(2*pi/n) for n = round(2*pi/resolution), which makes it
    closed under angle sums. Because the exact correlator of this protocol
    depends only on the angle sum (a consequence of the real-plane direction
    convention, spot-checked at runtime below), the four-angle grid maximum
    equals a reduced maximum over (a2, b1, b2) with a1 = 0, which is what
    ``_best_shift`` searches. Every reported value is re-evaluated through chsh_value.
    """
    if not resolution > 0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    n = int(round(2.0 * math.pi / resolution))
    if n < 4:
        raise ValueError(f"resolution {resolution} leaves fewer than 4 grid angles")
    step = 2.0 * math.pi / n
    e = _correlators([0.0] * n, [k * step for k in range(n)])

    # guard the sum-dependence the reduction relies on, at four fixed-stride pairs
    ij = [(7919 * k % n, 104729 * k % n) for k in range(1, 5)]
    direct = _correlators([i * step for i, _ in ij], [j * step for _, j in ij])
    if max(abs(d - e[(i + j) % n]) for d, (i, j) in zip(direct, ij)) > 1e-9:
        raise InvariantError("correlator is not a function of the angle sum")

    best, da, i1, i2, low = _best_shift(e)
    angles = (0.0, da * step, i1 * step, i2 * step)
    s = chsh_value(*angles)[1]
    if not math.isclose(abs(s), best, rel_tol=0, abs_tol=1e-9):
        raise InvariantError("grid-search reduction disagrees with direct evaluation")
    if (-s if low else s) < 0:
        raise InvariantError("grid-search sign bookkeeping failed")
    return ChshSearchResult(s, abs(s), angles, n, step)


class NoSignalingAudit(NamedTuple):
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
    rows = _decided_weights(thetas, [bob_theta] * len(thetas), pair_state)
    # after the angle checks: a set holds one NaN object once
    if len(set(thetas)) < 2:
        raise ValueError("need at least two distinct alice settings to audit")
    marginals = [(uu + du, ud + dd) for uu, ud, du, dd in rows]
    max_tv = 0.5 * max(abs(p[0] - q[0]) + abs(p[1] - q[1]) for p in marginals for q in marginals)
    if max_tv > NO_SIGNALING_TOL:
        raise InvariantError(f"distant marginals differ by {max_tv:.3e} across alice settings")
    return NoSignalingAudit(thetas, bob_theta, tuple(marginals), max_tv)
