"""Child ``python -m qdesk`` processes import the same package as the tests.

``pythonpath`` in pyproject.toml reaches this process only, so the source
directory of the imported package is exported for the children as well.
"""

import os
from pathlib import Path

import qdesk

_SRC = str(Path(qdesk.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
