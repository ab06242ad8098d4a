"""Path set-up for ``python -m pytest bench -q`` (not part of the tier-1 suite)."""

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent

for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"
for entry in (BENCH.parent / "src", BENCH):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
