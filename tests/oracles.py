"""Independent brute-force oracles for the test suite.

Expected values come from explicit index loops and textbook-style projector
arithmetic, so agreement with the production code is meaningful. The one
exception is ``single_round_weights``: it pins the batched signaling kernel
to the same round evolved one operator at a time, so it composes the
package's single-operator API, imported inside the function.
"""

from __future__ import annotations

import math

import numpy as np


def partial_trace_loops(mat: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """Partial trace by explicit nested index loops over multi-indices."""
    n = len(dims)
    traced = [i for i in range(n) if i not in keep]
    keep_dims = [dims[i] for i in keep]
    d_keep = int(np.prod(keep_dims)) if keep else 1

    def flat(multi):
        idx = 0
        for i in range(n):
            idx = idx * dims[i] + multi[i]
        return idx

    def keep_flat(multi):
        idx = 0
        for i in keep:
            idx = idx * dims[i] + multi[i]
        return idx

    out = np.zeros((d_keep, d_keep), dtype=complex)
    multis = [()]
    for d in dims:
        multis = [m + (k,) for m in multis for k in range(d)]
    for row in multis:
        for col in multis:
            if all(row[i] == col[i] for i in traced):
                out[keep_flat(row), keep_flat(col)] += mat[flat(row), flat(col)]
    return out


def embed_single_qubit_gate(gate: np.ndarray, n_subsystems: int, dims: list[int],
                            target: int) -> np.ndarray:
    """Operator acting as `gate` on one subsystem, built by index arithmetic."""
    total = int(np.prod(dims))
    out = np.zeros((total, total), dtype=complex)

    def digits(idx):
        out_digits = []
        for d in reversed(dims):
            out_digits.append(idx % d)
            idx //= d
        return list(reversed(out_digits))

    def flat(ds):
        idx = 0
        for i, d in enumerate(dims):
            idx = idx * d + ds[i]
        return idx

    for col in range(total):
        ds = digits(col)
        for r in range(dims[target]):
            amp = gate[r, ds[target]]
            if amp != 0:
                new = list(ds)
                new[target] = r
                out[flat(new), col] += amp
    return out


def embed_general(op: np.ndarray, op_dims: list[int], dims: list[int],
                  positions: list[int]) -> np.ndarray:
    """Embed an operator on an ordered subsystem subset, by index walking.

    positions[k] is the axis of the full space carrying the operator's k-th
    subsystem (in the operator's own ordering, not sorted).
    """
    n = len(dims)
    total = int(np.prod(dims))

    def digits(idx):
        ds = []
        for d in reversed(dims):
            ds.append(idx % d)
            idx //= d
        return list(reversed(ds))

    def flat(ds):
        idx = 0
        for i, d in enumerate(dims):
            idx = idx * d + ds[i]
        return idx

    def sub_flat(ds):
        idx = 0
        for k, d in enumerate(op_dims):
            idx = idx * d + ds[positions[k]]
        return idx

    def sub_digits(idx):
        ds = []
        for d in reversed(op_dims):
            ds.append(idx % d)
            idx //= d
        return list(reversed(ds))

    out = np.zeros((total, total), dtype=complex)
    for col in range(total):
        col_digits = digits(col)
        col_sub = sub_flat(col_digits)
        for row_sub in range(int(np.prod(op_dims))):
            amp = op[row_sub, col_sub]
            if amp == 0:
                continue
            row_digits = list(col_digits)
            for k, v in enumerate(sub_digits(row_sub)):
                row_digits[positions[k]] = v
            out[flat(row_digits), col] += amp
    return out


def induced_map_oracle(u: np.ndarray, dims: list[int], cr_positions: list[int],
                       rho_cr: np.ndarray, rho: np.ndarray, keep: str = "loop") -> np.ndarray:
    """Tr_CR[ u (rho_cr ox rho) u† ] with the factors placed by index walking.

    cr_positions are the layout axes of the CR subsystems; rho_cr lives on
    them and rho on the remaining axes, each in layout order. With no CR
    subsystems rho_cr is the 1 x 1 matrix [[1]]. keep="cr" traces out the
    loop instead, giving the CR output Tr_CTC[ u (rho_cr ox rho) u† ].
    """
    if keep not in ("loop", "cr"):
        raise ValueError(f"keep must be 'loop' or 'cr', got {keep!r}")
    cr = sorted(cr_positions)
    loop = [i for i in range(len(dims)) if i not in cr]
    multis = [()]
    for d in dims:
        multis = [m + (k,) for m in multis for k in range(d)]

    def sub_flat(multi, axes):
        idx = 0
        for i in axes:
            idx = idx * dims[i] + multi[i]
        return idx

    full = np.zeros((len(multis), len(multis)), dtype=complex)
    for r, row in enumerate(multis):
        for c, col in enumerate(multis):
            full[r, c] = (rho_cr[sub_flat(row, cr), sub_flat(col, cr)]
                          * rho[sub_flat(row, loop), sub_flat(col, loop)])
    return partial_trace_loops(u @ full @ u.conj().T, dims, loop if keep == "loop" else cr)


def columnwise_superoperator(apply, d: int) -> np.ndarray:
    """Column-stacked matrix of a linear map on d x d operators, one basis matrix per column."""
    s = np.zeros((d * d, d * d), dtype=np.complex128)
    for col in range(d * d):
        basis = np.zeros((d, d), dtype=np.complex128)
        basis[col % d, col // d] = 1.0  # column-stacking convention
        s[:, col] = apply(basis).reshape(-1, order="F")
    return s


def direction_up(theta: float) -> np.ndarray:
    return np.array([np.cos(theta / 2.0), np.sin(theta / 2.0)], dtype=complex)


def direction_down(theta: float) -> np.ndarray:
    return np.array([-np.sin(theta / 2.0), np.cos(theta / 2.0)], dtype=complex)


def pair_state_updown() -> np.ndarray:
    """(|up down> + |down up>)/sqrt2 as a 4-vector, first factor significant."""
    v = np.zeros(4, dtype=complex)
    v[1] = v[2] = 1.0 / np.sqrt(2.0)
    return v


def joint_probabilities(theta_a: float, theta_b: float,
                        pair: np.ndarray | None = None) -> dict[tuple[str, str], float]:
    """Exact P(x, y) from rotated projectors on the explicit two-qubit state."""
    if pair is None:
        pair = pair_state_updown()
    result = {}
    for xa, va in (("up", direction_up(theta_a)), ("down", direction_down(theta_a))):
        for xb, vb in (("up", direction_up(theta_b)), ("down", direction_down(theta_b))):
            amp = np.kron(va, vb).conj() @ pair
            result[(xa, xb)] = float(abs(amp) ** 2)
    return result


def correlator_oracle(theta_a: float, theta_b: float) -> float:
    p = joint_probabilities(theta_a, theta_b)
    return (p[("up", "up")] + p[("down", "down")]
            - p[("up", "down")] - p[("down", "up")])


def single_round_weights(theta_a: float, theta_b: float, pair=None) -> np.ndarray:
    """3x3 Born weights over (agent, pointer) of one signaling round, pair by pair.

    Builds and checks the 18x18 steering unitary and Bob's 6x6 meter (the
    z-basis meter conjugated by his rotation) for this one pair, and applies
    each with apply_unitary. `pair` is a StateVector over (particle,
    distant) and defaults to the Bell pair.
    """
    from qdesk import (DecisionScheme, Direction, StateVector, UnitaryOperator, apply_unitary,
                       build_premeasurement_unitary, build_suggestion_unitary, pointer_scheme)
    from qdesk.suggestion import (AGENT, DISTANT, PARTICLE, POINTER, PREPARED,
                                  bell_pair_state, signaling_layout)

    lay = signaling_layout()
    rest = np.zeros(27, dtype=np.complex128)
    rest[0] = 1.0  # undecided, psi0, ready
    pair = bell_pair_state() if pair is None else pair
    s = StateVector(lay, np.kron(pair.amplitudes, rest))
    steer = build_suggestion_unitary(
        DecisionScheme(PARTICLE, AGENT, PREPARED, Direction(theta_a)), lay)
    meter_z = build_premeasurement_unitary(
        pointer_scheme(DISTANT, POINTER, "ready", {"up": "observes_up", "down": "observes_down"}),
        lay)
    r = np.kron(Direction(theta_b).rotation(), np.eye(3))
    meter = UnitaryOperator(meter_z.layout, r @ meter_z.matrix @ r.conj().T)
    t = np.abs(apply_unitary(meter, apply_unitary(steer, s)).tensor()) ** 2
    return t.sum(axis=(0, 1, 3))  # axes: particle, distant, agent, prepared, pointer


def grid_scan_reference(e: np.ndarray) -> tuple[float, int, int, int, float]:
    """Best |S| over a sum-dependent grid with a1 = 0, one shift at a time.

    e[k] is the correlator at angle sum k*step. For each shift da, S is
    maximized over b1, b2 by e + roll(e, -da) and e - roll(e, -da); the first
    strict improvement wins, hi before -lo. Returns (|S|, da, i1, i2, sign).
    """
    best = (-1.0, 0, 0, 0)
    best_sign = 1.0
    for da in range(len(e)):
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
    return (*best, best_sign)


def conjugation_superoperator(u: np.ndarray) -> np.ndarray:
    """Column-stacked matrix of rho -> u rho u†."""
    return np.kron(u.conj(), u)


def apply_columnstacked(sup: np.ndarray, rho: np.ndarray) -> np.ndarray:
    d = rho.shape[0]
    return (sup @ rho.reshape(-1, order="F")).reshape(d, d, order="F")


def splitmix64_reference(seed: int, count: int) -> list[int]:
    """Straight transcription of the published SplitMix64 state transition."""
    mask = (1 << 64) - 1
    state = seed & mask
    outputs = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        outputs.append((z ^ (z >> 31)) & mask)
    return outputs


def scalar_normals(state: int, spare: float | None, n: int):
    """n Box-Muller normals drawn one at a time: the definition ``SplitMix64.normals`` meets.

    Starts from a generator at `state` with a pending `spare` (or None) and
    returns (draws, state, spare) after the n draws. Each fresh pair takes two
    uniforms u = (raw >> 11) * 2**-53 and yields r cos(2 pi u2), keeping
    r sin(2 pi u2) as the spare, with r = sqrt(-2 log1p(-u1)) from libm.
    """
    draws = []
    for _ in range(n):
        if spare is not None:
            draws.append(spare)
            spare = None
            continue
        raw1, raw2 = splitmix64_reference(state, 2)
        state = (state + 2 * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
        u1 = (raw1 >> 11) * 2.0**-53
        u2 = (raw2 >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log1p(-u1))
        spare = r * math.sin(2.0 * math.pi * u2)
        draws.append(r * math.cos(2.0 * math.pi * u2))
    return draws, state, spare


def inverse_cdf_select(weights, u: float) -> int:
    """Scalar inverse-CDF selection by an explicit running sum.

    Picks the first index whose cumulative weight exceeds u * total; when
    rounding leaves no such index, the last index of positive weight.
    """
    cumulative = []
    total = 0.0
    for w in weights:
        total += float(w)
        cumulative.append(total)
    target = u * total
    for k, c in enumerate(cumulative):
        if c > target:
            return k
    return max(k for k, w in enumerate(weights) if w > 0)


def unitary_eigensystem(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases in (-pi, pi] and orthonormal eigenvectors from a complex Schur form.

    The Schur reference for the eigenspaces of a loop unitary: scipy's Schur
    vectors are orthonormal by construction, and a (near-)normal matrix's
    triangular factor is diagonal up to rounding.
    """
    import scipy.linalg

    t, z = scipy.linalg.schur(u, output="complex")
    phases = np.angle(np.diagonal(t))
    # np.angle yields exactly -pi for negative reals with signed-zero imag
    phases = np.where(phases <= -np.pi, phases + 2.0 * np.pi, phases)
    return phases, z


def kraus_dilation(kraus: list[np.ndarray]) -> np.ndarray:
    """Unitary on (env ox sys) acting as the channel for env input |0>.

    Columns for the env=|0> sector are fixed by the Kraus operators; the
    remaining columns are completed to an orthonormal basis.
    """
    n_k = len(kraus)
    d = kraus[0].shape[0]
    fixed = np.zeros((n_k * d, d), dtype=complex)
    for k, a in enumerate(kraus):
        fixed[k * d:(k + 1) * d, :] = a
    import scipy.linalg

    complement = scipy.linalg.null_space(fixed.conj().T)
    u = np.hstack([fixed, complement])
    # reorder columns so column (e*d + j) is the image of |e>|j>: env 0 first
    assert u.shape == (n_k * d, n_k * d)
    return u
