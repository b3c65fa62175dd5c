"""Parallel experiment runner with content-addressed result caching.

Every figure in this reproduction is a grid of fully independent
simulation cells; this package is the layer that exploits that.  It
provides:

* :class:`Cell` — a picklable (pure function, config, seed) work unit
  (:mod:`repro.exp.cell`);
* :class:`Runner` — fans cells over a ``ProcessPoolExecutor`` (worker
  count from ``REPRO_JOBS`` / ``--jobs`` / CPU count), merges results
  in deterministic submission order, and attaches the failing cell's
  identity to propagated worker exceptions
  (:mod:`repro.exp.runner`);
* :class:`ResultCache` — a content-addressed on-disk store
  (``~/.cache/repro-ssd`` or ``REPRO_CACHE_DIR``) keyed by the stable
  hash of config + function qualname + seed + code salt, so unchanged
  cells are free on re-run (:mod:`repro.exp.cache`);
* :func:`stable_digest` — the cross-process canonical content hash the
  keys are built from (:mod:`repro.exp.hashing`);
* ready-made cell functions for churn/latency/sweep measurements
  (:mod:`repro.exp.cells`).

Parallel output is byte-identical to serial output: cells are
self-seeded and share nothing, so the runner only changes where — not
what — they compute (enforced by the serial-vs-parallel equivalence
tests under ``tests/regression``).
"""

from repro.exp.cache import CacheStats, ResultCache, code_salt, default_cache_dir
from repro.exp.cell import Cell, CellError, execute_cell
from repro.exp.cells import (
    ChurnCell,
    ChurnResult,
    NandPageSweepCell,
    PslcBurstCell,
    TimedJobCell,
    run_churn_cell,
    run_nand_page_sweep_cell,
    run_pslc_burst_cell,
    run_timed_job_cell,
)
from repro.exp.hashing import stable_digest
from repro.exp.runner import (
    CellTimeout,
    Runner,
    RunnerStats,
    resolve_jobs,
)

__all__ = [
    "CacheStats",
    "Cell",
    "CellError",
    "CellTimeout",
    "ChurnCell",
    "ChurnResult",
    "NandPageSweepCell",
    "PslcBurstCell",
    "ResultCache",
    "Runner",
    "RunnerStats",
    "TimedJobCell",
    "code_salt",
    "default_cache_dir",
    "execute_cell",
    "resolve_jobs",
    "run_churn_cell",
    "run_nand_page_sweep_cell",
    "run_pslc_burst_cell",
    "run_timed_job_cell",
    "stable_digest",
]
