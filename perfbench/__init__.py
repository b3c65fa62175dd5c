"""perfbench: the repository's benchmark.

Measures the simulator's own host time from outside, through the public
functions of each layer, and reports it in calibration units (CU) so the
numbers repeat on a shared machine.  ``README.md`` in this directory has
the metric and workload tables; ``BENCHMARK.json`` at the repository
root is the machine-readable contract.

    python3 -m perfbench run --workload randwrite_gc --seed 11 --seconds 10 --trace 0
    python3 -m perfbench suite            # every workload, traced and untraced
    python3 -m perfbench compare A.json B.json
    python3 -m perfbench selfcheck
"""

import sys
from pathlib import Path

#: the checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent

#: where runs leave their trace files, BENCH_<rev>.json and the ledger.
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def add_simulator_to_path() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``.

    The benchmark is started as a plain command with no environment, so
    it cannot rely on ``PYTHONPATH=src``; a checkout without ``src/repro``
    has nothing to measure and must fail before any result is printed.
    """
    package = ROOT / "src" / "repro"
    if not package.is_dir():
        raise SystemExit(f"perfbench: {package} not found; run from a full "
                         f"checkout of the repository")
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
