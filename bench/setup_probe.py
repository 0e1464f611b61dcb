"""One fresh interpreter's set-up: import photonamp, then build the workload's inputs.

Usage: ``python3 bench/setup_probe.py WORKLOAD SEED DIR``. Prints one JSON
line, ``{"import_s": ..., "inputs_s": ...}``, as soon as the interpreter is
ready for its first unit; ``run.py`` times the whole interpreter up to that
line.
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
import photonamp.cli  # noqa: E402,F401

imported = time.perf_counter()
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

workloads.build_round(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
ready = time.perf_counter()
print(json.dumps({"import_s": imported - start, "inputs_s": ready - imported}), flush=True)
