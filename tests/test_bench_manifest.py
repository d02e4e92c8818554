"""The benchmark's commands keep their report bytes: a committed manifest of digests.

bench/inputs.py writes the configs and scenario files of three workloads; for seeds 0-7
that is 176 commands. tests/bench_manifest.json holds, for each (workload, seed, command
id), the sha256 of every file the command reads, its exit code and the sha256 of its
stdout, with the numpy version and the BLAS kernel it was recorded under. The test
regenerates the inputs, checks each command's own inputs first (a moved input is an
input change, not a report change) and then runs the command in process through
cli.main. A change that moves report bytes on purpose re-records the manifest in the
same diff, at one BLAS thread as the benchmark and the tests run (the Haar inputs' LAPACK
QR gives other bits at other thread counts):

    PYTHONPATH=src python tests/test_bench_manifest.py

Run as a script, the file pins that thread count itself: it imports conftest first, which
sets it before numpy loads (unless the environment names a count).
"""

import conftest  # noqa: F401  (first: one BLAS thread, before numpy loads)

import contextlib
import ctypes
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

import qdesk.cli
from qdesk.config import EXPERIMENT_KINDS

from test_bench_tracer import _load_bench

MANIFEST = Path(__file__).with_name("bench_manifest.json")
INPUTS = _load_bench("inputs")
SEEDS = range(8)


def _blas_kernel() -> str:
    """The OpenBLAS core that numpy's wheel runs on (SkylakeX, Haswell, ...), or 'unknown'."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            corename = getattr(ctypes.CDLL(str(lib)), name, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return "unknown"


class _Digest(io.TextIOBase):
    """A text stdout that keeps only the sha256 of its UTF-8 bytes."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha.update(text.encode("utf-8"))
        return len(text)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _generate(workload: str, outdir: Path) -> list:
    """(key, command, {input file name: sha256}) of each of the workload's commands."""
    found = []
    for seed in SEEDS:
        work = outdir / f"{workload}_{seed}"
        work.mkdir()
        for command in INPUTS.generate(workload, seed, str(work)):
            files = {p.name: _sha256(p) for p in sorted(work.glob(f"{command.cid}.*"))}
            found.append((f"{workload}/{seed}/{command.cid}", command, files))
    return found


def _run(command) -> tuple[int, str]:
    """The command's exit code and stdout sha256, run in process."""
    out = _Digest()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = qdesk.cli.main(command.argv())
    return code, out.sha.hexdigest()


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """Each workload's commands, generated once for the module."""
    cache: dict = {}

    def commands(workload: str) -> list:
        if workload not in cache:
            cache[workload] = _generate(workload, tmp_path_factory.mktemp(workload))
        return cache[workload]

    return commands


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
@pytest.mark.parametrize("workload", INPUTS.WORKLOADS)
def test_benchmark_commands_match_the_manifest(generated, workload, kind):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    expected = {key: e for key, e in manifest["entries"].items()
                if key.startswith(f"{workload}/") and e["kind"] == kind}
    found = [(key, c, files) for key, c, files in generated(workload) if c.kind == kind]
    assert sorted(key for key, _, _ in found) == sorted(expected)
    moved = []
    for key, command, files in found:
        entry = expected[key]
        if files != entry["inputs"]:
            moved.append(f"{key}: input change, {files} != {entry['inputs']}")
            continue
        code, digest = _run(command)
        if (code, digest) != (entry["exit"], entry["stdout"]):
            moved.append(f"{key}: report change, exit {code} stdout {digest}, "
                         f"recorded exit {entry['exit']} stdout {entry['stdout']}")
    assert not moved, (
        f"recorded under numpy {manifest['numpy']} on {manifest['blas_kernel']}, run under "
        f"numpy {np.__version__} on {_blas_kernel()}:\n" + "\n".join(moved))


def _record(outdir: Path) -> str:
    """The manifest of the current code, one entry per line."""
    lines = []
    for workload in INPUTS.WORKLOADS:
        (outdir / workload).mkdir()
        for key, command, files in _generate(workload, outdir / workload):
            code, digest = _run(command)
            entry = {"kind": command.kind, "inputs": files, "exit": code, "stdout": digest}
            lines.append(f"  {json.dumps(key)}: {json.dumps(entry)}")
    return (f'{{\n "numpy": {json.dumps(np.__version__)},\n'
            f' "blas_kernel": {json.dumps(_blas_kernel())},\n'
            ' "entries": {\n' + ",\n".join(lines) + "\n }\n}\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        MANIFEST.write_text(_record(Path(tmp)), encoding="utf-8")
