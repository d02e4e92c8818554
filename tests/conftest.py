"""Child ``python -m qdesk`` processes import the same package as the tests, at one BLAS thread.

``pythonpath`` in pyproject.toml reaches this process only, so the source
directory of the imported package is exported for the children as well.

The benchmark (bench/run.py) runs every command at one BLAS thread, and the
LAPACK QR behind its Haar inputs gives other bits at other thread counts, so
the tests run at one thread too unless the environment names a count. The
setting only takes effect if numpy is not loaded yet; ``import qdesk`` loads
no submodule.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
assert "numpy" not in sys.modules, "numpy was loaded before the BLAS thread count was set"

import qdesk  # noqa: E402

_SRC = str(Path(qdesk.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
