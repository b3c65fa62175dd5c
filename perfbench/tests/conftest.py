"""Run with ``python -m pytest perfbench/tests`` from the repository
root (tier-1's ``testpaths = ["tests"]`` does not collect this
directory)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import add_simulator_to_path  # noqa: E402

add_simulator_to_path()
