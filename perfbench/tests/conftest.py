"""Make the benchmark's modules and the repro sources importable.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]
