"""Set-up probe: import the CLI and load each config, computing nothing.

    python3 setup_probe.py KIND CONFIG [KIND CONFIG ...]

Prints one JSON object with the import time of ``qdesk.cli`` and the time
spent in ``load_config`` (which includes scenario-file parsing).
"""

import json
import sys
import time

start = time.perf_counter()
import qdesk.cli  # noqa: E402,F401  (the import is what is timed)
from qdesk.config import load_config  # noqa: E402

imported = time.perf_counter()
pairs = sys.argv[1:]
for kind, path in zip(pairs[0::2], pairs[1::2]):
    load_config(path, kind)
print(json.dumps({"import_s": imported - start, "config_s": time.perf_counter() - imported}))
