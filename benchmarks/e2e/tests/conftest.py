"""Put the benchmark's own modules on the path (they are scripts, not a package).

Run from the repository root: ``python -m pytest benchmarks/e2e/tests -q``.
Not part of tier-1 (``testpaths = tests``).
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))
