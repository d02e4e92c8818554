"""Every pinned report keeps its bytes: a committed manifest of digests.

bench/inputs.py writes the 176 commands of three workloads at seeds 0-7, and
tests/pinned_inputs.py the 57 of the pinned one. tests/bench_manifest.json holds, for each
command's key, the sha256 of every file the command reads, its exit code and the sha256 of
its stdout, with the numpy version and the BLAS kernel it was recorded under. The tests
regenerate the inputs, and one checker, `mismatch`, checks a command's own inputs first (a
moved input is an input change, not a report change) and then runs it in process through
cli.main: here each benchmark command, and in test_cli's *_reports_match_pinned_digests
tests each pinned/<test>/<id> key, as test id <id>-<recorded stdout sha256> (chsh: <id>).
A change that moves report bytes on purpose re-records the whole manifest in the same diff,
at one BLAS thread as the benchmark and the tests run (the Haar inputs' LAPACK QR gives
other bits at other thread counts):

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

import pinned_inputs
from test_bench_tracer import _load_bench

MANIFEST = Path(__file__).with_name("bench_manifest.json")
INPUTS = _load_bench("inputs")
WORKLOADS = INPUTS.WORKLOADS + ("pinned",)
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


def _sha256s(paths) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(paths)}


def generate(workload: str, outdir: Path) -> list:
    """(key, command, {input file name: sha256}) of each of the workload's commands."""
    if workload == "pinned":
        return [(f"pinned/{c.cid}", c, _sha256s(Path(c.config).parent.iterdir()))
                for c in pinned_inputs.generate(outdir)]
    found = []
    for seed in SEEDS:
        work = outdir / f"{workload}_{seed}"
        work.mkdir()
        for command in INPUTS.generate(workload, seed, str(work)):
            found.append((f"{workload}/{seed}/{command.cid}", command,
                          _sha256s(work.glob(f"{command.cid}.*"))))
    return found


def _run(command) -> tuple[int, str]:
    """The command's exit code and stdout sha256, run in process."""
    out = _Digest()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = qdesk.cli.main(command.argv())
    return code, out.sha.hexdigest()


def manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def mismatch(manifest: dict, key: str, command, files: dict) -> str:
    """Why the command no longer matches the manifest's entry `key`, or '' if it does."""
    entry = manifest["entries"][key]
    if files != entry["inputs"]:
        return f"{key}: input change, {files} != {entry['inputs']}"
    code, digest = _run(command)
    if (code, digest) != (entry["exit"], entry["stdout"]):
        return (f"{key}: report change, exit {code} stdout {digest}, "
                f"recorded exit {entry['exit']} stdout {entry['stdout']}")
    return ""


def recorded_under(manifest: dict) -> str:
    return (f"recorded under numpy {manifest['numpy']} on {manifest['blas_kernel']}, run under "
            f"numpy {np.__version__} on {_blas_kernel()}")


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """Each workload's commands, generated once for the module."""
    cache: dict = {}

    def commands(workload: str) -> list:
        if workload not in cache:
            cache[workload] = generate(workload, tmp_path_factory.mktemp(workload))
        return cache[workload]

    return commands


# no BLAS call makes chsh, signal and measure reports but the norm kernel, which test_tensor pins
@pytest.mark.parametrize("kind", [
    pytest.param(k, marks=pytest.mark.kernel_independent) if k in ("chsh", "signal", "measure")
    else k for k in EXPERIMENT_KINDS])
@pytest.mark.parametrize("workload", INPUTS.WORKLOADS)
def test_benchmark_commands_match_the_manifest(generated, workload, kind):
    recorded = manifest()
    expected = [key for key, e in recorded["entries"].items()
                if key.startswith(f"{workload}/") and e["kind"] == kind]
    found = [(key, c, files) for key, c, files in generated(workload) if c.kind == kind]
    assert sorted(key for key, _, _ in found) == sorted(expected)
    moved = [m for m in (mismatch(recorded, *case) for case in found) if m]
    assert not moved, recorded_under(recorded) + ":\n" + "\n".join(moved)


def test_each_pinned_case_has_one_entry(generated):
    # test_cli checks each pinned/ key the manifest holds: a lost entry would lose its test
    assert (sorted(key for key, _, _ in generated("pinned"))
            == sorted(key for key in manifest()["entries"] if key.startswith("pinned/")))


def _record(outdir: Path) -> str:
    """The manifest of the current code, one entry per line."""
    lines = []
    for workload in WORKLOADS:
        (outdir / workload).mkdir()
        for key, command, files in generate(workload, outdir / workload):
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
