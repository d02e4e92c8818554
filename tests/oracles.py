"""Independent brute-force oracles for the test suite.

Expected values come from explicit index loops and textbook-style projector
arithmetic, so agreement with the production code is meaningful. The few
oracles that compose package code import it inside the function:
``single_round_weights`` is the reference for the closed-form signaling
kernel: it evolves the round one operator at a time (``steering_unitary``
builds and checks the 18x18 steering unitary of one angle from the sector
permutations of ``_sector_permutation``, Bob's rotation is built from
``math.cos``/``math.sin`` of his half angle, and the package's
single-operator API applies both), ``numpy_signaling_weights`` is the numpy
evaluation of the closed form that the plain-Python kernel must equal bit
for bit, and ``read_serialized_body`` shares only ``layout_of`` with the
package's reader.
The five-subsystem round lives on ``signaling_layout()``.

Test fixtures draw from ``SplitMix64`` below, a sequential generator built on
``splitmix64_reference`` and ``scalar_normals``, so no fixture depends on
package code. The fixture builders ``haar_state``, ``haar_unitary`` and
``random_density`` take one; ``haar_state`` is also the one-sample reference
that each row of ``rng.haar_states`` must equal bit for bit.
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


def signaling_layout():
    """The round's layout: (particle, distant, agent, prepared, pointer)."""
    from qdesk import layout_of
    from qdesk.suggestion import (AGENT, AGENT_LABELS, DISTANT, INFLUENCE_LABELS, PARTICLE,
                                  POINTER, POINTER_LABELS, PREPARED, PREPARED_LABELS)

    return layout_of((PARTICLE, INFLUENCE_LABELS), (DISTANT, INFLUENCE_LABELS),
                     (AGENT, AGENT_LABELS), (PREPARED, PREPARED_LABELS),
                     (POINTER, POINTER_LABELS))


def pair_layout():
    """The pair's layout: (particle, distant), each with labels up, down."""
    from qdesk.suggestion import DISTANT, PARTICLE

    return signaling_layout().sub_layout((PARTICLE, DISTANT))


def numpy_signaling_weights(alice_thetas, bob_thetas, pair=None) -> np.ndarray:
    """(k, 3, 3) weights of the closed-form round, evaluated with numpy arrays.

    The four products x'[p]*y'[q]*Psi[p, q] are elementwise arrays summed in
    (p, q) row-major order, starting from 0; `pair` is a StateVector over
    (particle, distant), the Bell pair [[0, 1], [1, 0]] with factor 1/2 by
    default. The plain-Python kernel keeps this order, so it must equal this
    bit for bit.
    """
    a = [float(t) for t in alice_thetas]
    b = [float(t) for t in bob_thetas]
    if pair is None:
        psi, factor = np.array([[0, 1], [1, 0]], dtype=np.complex128), 0.5
    else:
        psi, factor = pair.amplitudes.reshape(2, 2), 1.0
    ca, sa, cb, sb = (np.array([f(t / 2.0) for t in x]) for x in (a, b)
                      for f in (math.cos, math.sin))
    xa = np.array([[ca, sa], [-sa, ca]])  # xa[x, p, i]: entry p of Alice's up', down' in pair i
    yb = np.array([[cb, sb], [-sb, cb]])  # yb[y, q, i]: the same for Bob
    amp = sum(xa[:, None, p] * yb[None, :, q] * psi[p, q] for p in (0, 1) for q in (0, 1))
    out = np.zeros((len(a), 3, 3))
    out[:, 1:, 1:] = np.moveaxis(factor * (amp.real * amp.real + amp.imag * amp.imag), -1, 0)
    return out


def _sector_permutation(target: int) -> np.ndarray:
    """9x9 permutation of the joint (agent, prepared) index, agent-major.

    The lexicographically smallest permutation (as the sequence pi(0..8))
    with pi(0) = target, so (undecided, psi0) goes to `target` and every
    other index to the free values in increasing order.
    """
    pi = [target] + [v for v in range(9) if v != target]
    mat = np.zeros((9, 9), dtype=np.complex128)
    mat[pi, range(9)] = 1.0
    return mat


def steering_unitary(theta: float):
    """The steering UnitaryOperator over (particle, agent, prepared) for Alice's angle theta.

    Maps |up'>|undecided>|psi0> -> |up'>|decides_up>|psi_up> and
    |down'>|undecided>|psi0> -> |down'>|decides_down>|psi_down>, each sector
    completed by _sector_permutation, so it is exactly 2*pi-periodic in
    theta. Its constructor checks unitarity.
    """
    from qdesk import UnitaryOperator
    from qdesk.suggestion import AGENT, PARTICLE, PREPARED

    h = theta / 2.0
    up = np.array([math.cos(h), math.sin(h)], dtype=np.complex128)
    down = np.array([-math.sin(h), math.cos(h)], dtype=np.complex128)
    mat = (np.kron(np.outer(up, up.conj()), _sector_permutation(1 * 3 + 1))  # decides_up, psi_up
           + np.kron(np.outer(down, down.conj()), _sector_permutation(2 * 3 + 2)))  # down, psi_down
    return UnitaryOperator(signaling_layout().sub_layout((PARTICLE, AGENT, PREPARED)), mat)


def single_round_weights(theta_a: float, theta_b: float, pair=None) -> np.ndarray:
    """3x3 Born weights over (agent, pointer) of one signaling round, pair by pair.

    Builds and checks the 18x18 steering unitary and Bob's 6x6 meter (the
    z-basis meter conjugated by his rotation) for this one pair, and applies
    each with apply_unitary. `pair` is a StateVector over (particle,
    distant) and defaults to the Bell pair.
    """
    from qdesk import (StateVector, UnitaryOperator, apply_unitary, build_premeasurement_unitary,
                       pointer_scheme)
    from qdesk.suggestion import DISTANT, POINTER

    lay = signaling_layout()
    rest = np.zeros(27, dtype=np.complex128)
    rest[0] = 1.0  # undecided, psi0, ready
    pair = StateVector(pair_layout(), [0, 1, 1, 0]) if pair is None else pair
    s = StateVector(lay, np.kron(pair.amplitudes, rest))
    meter_z = build_premeasurement_unitary(
        pointer_scheme(DISTANT, POINTER, "ready", {"up": "observes_up", "down": "observes_down"}),
        lay)
    c, sn = math.cos(theta_b / 2.0), math.sin(theta_b / 2.0)
    r = np.kron(np.array([[c, -sn], [sn, c]]), np.eye(3))  # its columns: Bob's (up', down')
    meter = UnitaryOperator(meter_z.layout, r @ meter_z.matrix @ r.conj().T)
    t = np.abs(apply_unitary(meter, apply_unitary(steering_unitary(theta_a), s)).tensor()) ** 2
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
    """n Box-Muller normals drawn one at a time: the definition ``rng._box_muller``'s pairs meet.

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


class SplitMix64:
    """Sequential SplitMix64 for test fixtures: raw outputs, uniforms and normals of one stream.

    Normals come from scalar_normals, a pending spare first; raw and uniform
    draws advance the state and leave the spare pending.
    """

    def __init__(self, seed: int):
        self.state, self.spare = seed & ((1 << 64) - 1), None

    def next_u64(self) -> int:
        (raw,) = splitmix64_reference(self.state, 1)
        self.state = (self.state + 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
        return raw

    def random(self) -> float:
        """Uniform float in [0, 1) from the top 53 bits of the next output."""
        return (self.next_u64() >> 11) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        draws, self.state, self.spare = scalar_normals(self.state, self.spare, n)
        return np.array(draws, dtype=np.float64)

    def complex_normals(self, n: int) -> np.ndarray:
        """n entries x + iy with x, y consecutive standard normals."""
        xs = self.normals(2 * n)
        return xs[0::2] + 1j * xs[1::2]


def haar_state(dim: int, rng: SplitMix64) -> np.ndarray:
    """Haar-random unit vector: complex Gaussian entries, normalized."""
    v = rng.complex_normals(dim)
    return v / np.linalg.norm(v)


def haar_unitary(dim: int, rng: SplitMix64) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian matrix.

    The Q factor is rephased column-wise so the R diagonal is real positive,
    which makes the distribution exactly Haar and the output deterministic.
    """
    g = rng.complex_normals(dim * dim).reshape(dim, dim)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[np.newaxis, :]


def random_density(dim: int, rng: SplitMix64) -> np.ndarray:
    """Random full-rank density matrix G G† / tr(G G†)."""
    g = rng.complex_normals(dim * dim).reshape(dim, dim)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def single_residual(u: np.ndarray, s: np.ndarray, mode: str) -> float:
    """Single-valuedness residual of one unit vector s by per-call numpy functions.

    strict: ||U s - s||; ray: ||U s - e^{i phi} s|| at phi = arg<s|U s>, with
    one matvec, np.vdot and np.linalg.norm, the calls the stacked kernel must match.
    """
    image = u @ s
    if mode == "strict":
        return float(np.linalg.norm(image - s))
    phi = np.angle(np.vdot(s, image))
    return float(np.linalg.norm(image - np.exp(1j * phi) * s))


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


def eig_fixed_space(sup: np.ndarray) -> np.ndarray:
    """Orthonormal basis of a superoperator's eigenvalue-1 eigenspace from np.linalg.eig.

    The eigendecomposition reference for ctc._fixed_space: the eigenvectors with
    |lambda - 1| <= 1e-9, orthonormalized by QR.
    """
    vals, vecs = np.linalg.eig(sup)
    return np.linalg.qr(vecs[:, np.abs(vals - 1.0) <= 1e-9])[0]


def per_step_trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance of one pair by one eigvalsh of the Hermitized difference."""
    diff = a - b
    return 0.5 * float(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)).sum())


def per_step_iterate_fixed_point(apply_map, d: int):
    """ctc._iterate_fixed_point a step at a time: one map application and one
    per_step_trace_distance per iteration, each decided before the next is computed.

    The reference the blocked plain phase must equal in iterations and bits. It reads the
    iteration constants from qdesk.ctc when called, and a plateaued or exhausted phase
    returns no rho and no residual, with the iterations it ran.
    """
    from qdesk import ctc

    rho = np.eye(d, dtype=np.complex128) / d
    history: list[float] = []
    for it in range(1, ctc.MAX_ITERATIONS + 1):
        nxt = apply_map(rho)
        dist = per_step_trace_distance(nxt, rho)
        rho = nxt
        history.append(dist)
        if dist <= ctc.ITERATE_TOL:
            return rho, per_step_trace_distance(rho, apply_map(rho)), it
        if (len(history) > ctc.PLATEAU_WINDOW
                and dist >= history[-ctc.PLATEAU_WINDOW - 1] * (1.0 - 1e-3)):
            break
    return None, None, len(history)


def amplitude_damping(gamma: float) -> list[np.ndarray]:
    """Kraus operators of qubit amplitude damping: |1> decays to |0> with probability gamma."""
    return [np.diag([1.0, math.sqrt(1.0 - gamma)]).astype(complex),
            np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)]


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


def render_signal_csv(records) -> str:
    """A signal session's whole CSV report as one string: the byte reference for the
    CLI, which renders and writes it in row blocks.

    Columns round,theta_a,theta_b,alice_decision,bob_outcome,seed; angles in
    ``.16e``, decisions and outcomes as the labels up/down (index 0/1).
    """
    labels = ("up", "down")
    thetas = f"{records.alice_theta:.16e},{records.bob_theta:.16e}"
    rows = zip(records.decisions.tolist(), records.outcomes.tolist(), records.seeds.tolist())
    lines = ["round,theta_a,theta_b,alice_decision,bob_outcome,seed"] + [
        f"{i},{thetas},{labels[d]},{labels[o]},{seed}" for i, (d, o, seed) in enumerate(rows)
    ]
    return "\n".join(lines) + "\n"


def read_serialized_body(text: str, kind: str):
    """(layout, complex (d, width) entries) of a serialized kind, every token read by float.

    The line-by-line reading of a serialized object that predates the
    vectorized canonical reader: the reference for its value bits and for the
    FormatError (message and line) of a bad header or body. It splits the
    lines and reads the header itself; only ``layout_of``'s subsystem checks
    are the package's, imported inside the function.
    """
    import re

    from qdesk.errors import FormatError
    from qdesk.tensor import layout_of

    lines = [(no, line.strip()) for no, line in enumerate(re.split(r"\r\n|\r|\n", text), 1)]
    lines = [(no, line) for no, line in lines if line and line[0] != "#"]
    if len(lines) < 3:
        raise FormatError("serialized object needs at least 3 lines (kind, layout, data)")
    (kind_no, kind_line), (layout_no, layout_line), (data_no, data_line) = lines[:3]
    if kind_line[:13] != "qdesk-object:":
        raise FormatError(f"line {kind_no}: expected 'qdesk-object: <kind>'")
    got = kind_line[13:].strip()
    if got not in ("state", "density", "unitary"):
        raise FormatError(f"line {kind_no}: unknown object kind {got!r}")
    if layout_line[:7] != "layout:":
        raise FormatError(f"line {layout_no}: expected 'layout: ...'")
    specs = []
    for chunk in layout_line[7:].split(";"):
        name, eq, labels = chunk.strip().partition("=")
        if not eq:
            raise FormatError(f"bad layout chunk {chunk.strip()!r} (expected id=label,label,...)")
        specs.append((name.strip(), [label.strip() for label in labels.split(",")]))
    layout = layout_of(*specs)
    if data_line != "data:":
        raise FormatError(f"line {data_no}: expected 'data:'")
    if got != kind:
        raise FormatError(f"expected a {kind}, got {got!r}")
    body = lines[3:]
    d = layout.total_dimension
    if len(body) != d:
        raise FormatError(f"expected {d} {'amplitudes' if kind == 'state' else 'matrix rows'}, "
                          f"got {len(body)}")
    width = 1 if kind == "state" else d
    out = np.empty((d, width), dtype=complex)
    for r, (no, line) in enumerate(body):
        tokens = [line] if kind == "state" else line.split()
        if len(tokens) != width:
            raise FormatError(f"line {no}: expected {width} entries, got {len(tokens)}")
        for c, tok in enumerate(tokens):
            parts = tok.split(",")
            if len(parts) != 2:
                raise FormatError(f"line {no}: expected 're,im', got {tok!r}")
            try:
                out[r, c] = complex(float(parts[0]), float(parts[1]))
            except ValueError:
                raise FormatError(f"line {no}: bad number in {tok!r}") from None
    return layout, out
