"""Seeded input generator for the benchmark workloads.

Every config and scenario file is drawn from ``numpy.random.Generator`` seeded
by the workload seed, never from ``qdesk.rng``, so the inputs do not depend on
the code under test. The program only ever sees the files written here.

Each workload runs its own heavy commands plus one startup-sized *companion*
of every subcommand it would otherwise not run. That keeps every per-command
metric defined (and non-zero) on every workload; on a workload where a
command is only a companion, a kernel optimisation should leave its metric
unchanged.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("chsh_grid", "sampled_sessions", "loop_solvers")

# Problem sizes. The self-test passes a tiny copy of this table.
FULL_SIZES = {
    "chsh_resolution": math.pi / 720,
    "signal_csv_rounds": 400_000,
    "signal_json_rounds": 100_000,
    "measure_rounds": 10_000,
    "spectral_qubits": (4, 4),
    "iterate_qubits": (3, 3),
    "iterate_theta": 0.2,
    "scan_qubits": (3, 3),
    "scan_samples": 2000,
    "companion_rounds": 1000,
    "companion_scan_samples": 100,
}


@dataclass
class Command:
    """One CLI invocation: ``python -m qdesk <kind> --config <config>``."""

    cid: str
    kind: str
    config: str
    spec: dict = field(default_factory=dict)  # what the output check needs

    def argv(self) -> list[str]:
        return [self.kind, "--config", self.config]


def _write(path: str, lines: list[str]) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _angle(rng: np.random.Generator) -> float:
    return float(rng.uniform(-math.pi, math.pi))


def _master_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[np.newaxis, :]


def _weakly_coupled_unitary(rng: np.random.Generator, dim: int, theta: float) -> np.ndarray:
    """exp(-i theta H) for a GUE-like H rescaled to spectral norm 1."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (a + a.conj().T) / 2
    vals, vecs = np.linalg.eigh(h)
    vals = vals / np.abs(vals).max()
    return (vecs * np.exp(-1j * theta * vals)) @ vecs.conj().T


def _scenario_file(path: str, n_cr: int, n_loop: int, u: np.ndarray) -> str:
    cr = [f"c{i}" for i in range(n_cr)]
    loop = [f"l{i}" for i in range(n_loop)]
    layout = "; ".join(f"{q}=b0,b1" for q in cr + loop)
    rows = [" ".join(f"{z.real:.16e},{z.imag:.16e}" for z in row) for row in u]
    head = [f"cr_ids = {','.join(cr)}", f"ctc_ids = {','.join(loop)}", "unitary:",
            "qdesk-object: unitary", f"layout: {layout}", "data:"]
    return _write(path, head + rows)


def cr_coupled_unitary() -> np.ndarray:
    """The canonical cr_coupled loop, built independently: |m,l> -> |m^l, 1-l>."""
    u = np.zeros((4, 4), dtype=np.complex128)
    for m in range(2):
        for bit in range(2):
            u[(m ^ bit) * 2 + (1 - bit), m * 2 + bit] = 1.0
    return u


class _Builder:
    def __init__(self, workload: str, seed: int, outdir: str, sizes: dict):
        self.rng = np.random.default_rng([seed % 2**64, WORKLOADS.index(workload)])
        self.outdir = outdir
        self.sizes = sizes
        self.commands: list[Command] = []

    def _config(self, cid: str, kind: str, lines: list[str], spec: dict) -> None:
        path = _write(os.path.join(self.outdir, f"{cid}.cfg"), [f"experiment = {kind}"] + lines)
        self.commands.append(Command(cid, kind, path, spec))

    def chsh_grid(self, cid: str) -> None:
        res = self.sizes["chsh_resolution"]
        self._config(cid, "chsh", [f"grid_resolution = {res!r}"], {"grid_resolution": res})

    def chsh_angles(self, cid: str) -> None:
        angles = [_angle(self.rng) for _ in range(4)]
        keys = ("angle_a1", "angle_a2", "angle_b1", "angle_b2")
        self._config(cid, "chsh", [f"{k} = {a!r}" for k, a in zip(keys, angles)],
                     {"angles": angles})

    def signal(self, cid: str, rounds: int, fmt: str) -> None:
        a, b, seed = _angle(self.rng), _angle(self.rng), _master_seed(self.rng)
        self._config(cid, "signal", [f"alice_angle = {a!r}", f"bob_angle = {b!r}",
                                     f"rounds = {rounds}", f"seed = {seed}", f"format = {fmt}"],
                     {"alice": a, "bob": b, "rounds": rounds, "seed": seed, "format": fmt})

    def measure(self, cid: str, rounds: int) -> None:
        seed = _master_seed(self.rng)
        self._config(cid, "measure", ["state = bell", f"rounds = {rounds}", f"seed = {seed}"],
                     {"rounds": rounds})

    def ctc_solve(self, cid: str, method: str, qubits: tuple[int, int] | None = None,
                  unitary: np.ndarray | None = None) -> None:
        if unitary is None:
            scenario_line = "scenario = cr_coupled"
            u, n_cr = cr_coupled_unitary(), 1
        else:
            n_cr, n_loop = qubits
            name = f"{cid}.scenario"
            _scenario_file(os.path.join(self.outdir, name), n_cr, n_loop, unitary)
            scenario_line = f"scenario_file = {name}"
            u = unitary
        self._config(cid, "ctc-solve", [scenario_line, f"method = {method}", "mode = strict",
                                        "cr_state = zero"],
                     {"unitary": u, "cr_dim": 2**n_cr})

    def ctc_scan(self, cid: str, samples: int, qubits: tuple[int, int] | None = None) -> None:
        if qubits is None:
            scenario_line = "scenario = qubit_flip"
        else:
            n_cr, n_loop = qubits
            name = f"{cid}.scenario"
            u = _haar_unitary(self.rng, 2 ** (n_cr + n_loop))
            _scenario_file(os.path.join(self.outdir, name), n_cr, n_loop, u)
            scenario_line = f"scenario_file = {name}"
        seed = _master_seed(self.rng)
        self._config(cid, "ctc-scan", [scenario_line, "mode = ray", f"samples = {samples}",
                                       f"seed = {seed}"], {"samples": samples})

    def companions(self, skip: set[str]) -> None:
        s = self.sizes
        if "chsh" not in skip:
            self.chsh_angles("companion_chsh")
        if "signal" not in skip:
            self.signal("companion_signal", s["companion_rounds"], "json")
        if "measure" not in skip:
            self.measure("companion_measure", s["companion_rounds"])
        if "ctc-solve" not in skip:
            self.ctc_solve("companion_ctc_solve", "iterate")
        if "ctc-scan" not in skip:
            self.ctc_scan("companion_ctc_scan", s["companion_scan_samples"])


def generate(workload: str, seed: int, outdir: str, sizes: dict | None = None) -> list[Command]:
    """Write the workload's configs and scenarios into outdir; return its commands."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    s = FULL_SIZES if sizes is None else sizes
    b = _Builder(workload, seed, outdir, s)
    if workload == "chsh_grid":
        b.chsh_grid("chsh_grid")
        for k in range(4):
            b.chsh_angles(f"chsh_angles_{k}")
        b.companions({"chsh"})
    elif workload == "sampled_sessions":
        b.signal("signal_csv", s["signal_csv_rounds"], "csv")
        b.signal("signal_json", s["signal_json_rounds"], "json")
        b.measure("measure_bell", s["measure_rounds"])
        b.companions({"signal", "measure"})
    else:
        n_cr, n_loop = s["spectral_qubits"]
        b.ctc_solve("ctc_spectral", "spectral", (n_cr, n_loop),
                    _haar_unitary(b.rng, 2 ** (n_cr + n_loop)))
        n_cr, n_loop = s["iterate_qubits"]
        b.ctc_solve("ctc_iterate", "iterate", (n_cr, n_loop),
                    _weakly_coupled_unitary(b.rng, 2 ** (n_cr + n_loop), s["iterate_theta"]))
        b.ctc_solve("ctc_cr_coupled", "iterate")
        b.ctc_scan("ctc_scan", s["scan_samples"], s["scan_qubits"])
        b.companions({"ctc-solve", "ctc-scan"})
    return b.commands
