"""Cost budgets: exact counts of the numpy kernels that each loop_solvers command calls.

Timings on a shared host vary by 15-45%, so a kernel change's gain or loss can hide in
them; a call count cannot. The benchmark's loop_solvers commands (bench/inputs.py, at the
tracer test's tiny sizes, seed 0) run in process through cli.main with numpy's SVD and
eigensolvers wrapped, and with them np.einsum (the loop-operator, superoperator and
output contractions) and np.fromiter (the scan's per-element libm calls). A change that
lowers a count lowers its budget here, in the same diff.
"""

import contextlib
import io
import json
from collections import Counter

import numpy as np

import qdesk.cli

from test_bench_tracer import TINY_SIZES, _load_bench

COUNTED = [(np.linalg, "svd"), (np.linalg, "eigh"), (np.linalg, "eigvalsh"),
           (np.linalg, "eig"), (np, "einsum"), (np, "fromiter")]

# Per command: its counted calls, and the fixed-point iterations its report states. Every
# ctc-solve run makes three DensityMatrix checks, one eigvalsh each (the CR input, rho_ctc and
# the CR output), and one trace distance, an eigvalsh, per fixed-point test. Its einsum calls
# are the loop operators, built once for the map and once for the CR output, and the output
# contraction; the strict linear basis is one SVD of U - I.
BUDGETS = {
    # SVD of Phi - I, one clip to a density matrix (eigh), and iterations + 1 = 1 verification;
    # the superoperator builds its loop operators again and contracts them (2 einsum)
    "ctc_spectral": ({"svd": 2, "eigh": 1, "eigvalsh": 4, "einsum": 5}, 0),
    # eigvalsh 4610 follows the iteration count: 4606 successive-iterate distances, the final
    # residual and the 3 checks. The loop is weakly coupled, so it converges slowly, and the
    # step at which the distance falls below ITERATE_TOL could move under another BLAS kernel
    "ctc_iterate": ({"svd": 1, "eigvalsh": 4610, "einsum": 3}, 4606),
    # eigvalsh 5 = 1 iterate distance + the final residual + the 3 checks
    "ctc_cr_coupled": ({"svd": 1, "eigvalsh": 5, "einsum": 3}, 1),
    # 20 Haar samples in one block: libm log1p, cos and sin over the block
    "ctc_scan": ({"fromiter": 3}, None),
    "companion_chsh": ({}, None),
    "companion_signal": ({}, None),
    # the premeasurement unitary, applied once
    "companion_measure": ({"einsum": 1}, None),
}


def _counting(counts: Counter, name: str, function):
    def counted(*args, **kwargs):
        counts[name] += 1
        return function(*args, **kwargs)
    return counted


def test_loop_solver_commands_keep_their_kernel_budgets(tmp_path, monkeypatch):
    inputs = _load_bench("inputs")
    commands = inputs.generate("loop_solvers", 0, str(tmp_path),
                               dict(inputs.FULL_SIZES, **TINY_SIZES))
    counts: Counter = Counter()
    for owner, name in COUNTED:
        monkeypatch.setattr(owner, name, _counting(counts, name, getattr(owner, name)))
    spent = {}
    for command in commands:
        counts.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert qdesk.cli.main(command.argv()) == 0, command.cid
        iterations = json.loads(out.getvalue()).get("fixed_point", {}).get("iterations")
        spent[command.cid] = (dict(counts), iterations)
    assert spent == BUDGETS
