"""Fan experiment cells out over worker processes.

The :class:`Runner` is the one place concurrency lives in the
experiment layer: studies build a flat list of :class:`~repro.exp.cell.Cell`
objects and get back results **in submission order**, whatever order
workers finished in — which is why a parallel study is byte-identical
to its serial counterpart (each cell is already deterministic and
self-seeded; the runner only changes *where* it executes).

Worker count resolution (first match wins):

1. the ``jobs`` constructor argument,
2. the ``REPRO_JOBS`` environment variable,
3. ``os.cpu_count()``.

``jobs=1`` (or a single pending cell) runs everything in-process with
no executor, so the serial path has zero multiprocessing overhead and
is always available as the reference behavior.  It is also what a
study function called without a runner uses: ``Runner(jobs=1)`` is the
one serial executor, so a serial study and a parallel one differ only
in the worker count.

A worker exception is re-raised in the parent as
:class:`~repro.exp.cell.CellError` carrying the failing cell's identity
(label, function, seed, index) with the original exception chained.

Transient worker death is retried, not fatal: when a worker process
dies abruptly (OOM kill, signal — surfacing as ``BrokenProcessPool``),
the affected cells are resubmitted to a fresh pool up to
``max_pool_retries`` times with jittered backoff, and if the pool keeps
dying (or cannot be created at all, e.g. in a sandbox that forbids
``fork``) the runner degrades to in-process serial execution.  Only
*deterministic* cell exceptions fail fast as :class:`CellError` —
retrying those would just fail again.

Two hardening layers on top (PR 9):

* **watchdog** — with ``timeout_s`` set, a window in which *no* future
  settles trips the per-cell wall-clock watchdog: the workers are
  killed, the cells that were occupying them (the first ``jobs``
  pending in submission order — the pool executes FIFO) are retried
  once on a fresh pool, and a cell that trips the watchdog
  ``max_cell_timeouts`` times is quarantined with a named
  :class:`CellTimeout`;
* **keep-going** — with ``keep_going=True``, a failing or quarantined
  cell no longer aborts the run: its slot resolves to ``None``, the
  :class:`CellError` is appended to ``runner.errors``, and the caller
  decides how to fold the hole into its report.  Failed cells are
  never written to the result cache.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Sequence

from repro.exp.cache import CODE_SALT, ResultCache
from repro.exp.cell import Cell, CellError, execute_cell


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count from argument, ``REPRO_JOBS``, or the CPU count.

    An explicit worker count below 1 — from either source — is a user
    error and raises :class:`ValueError` naming the offending value,
    instead of surfacing later as an opaque ``ProcessPoolExecutor``
    complaint (or silently running serial when parallelism was asked
    for).  An *unparsable* ``REPRO_JOBS`` is still ignored: a stray env
    var must not crash every study that merely constructs a Runner.
    """
    if jobs is not None:
        jobs = int(jobs)
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        return jobs
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            pass  # an unparsable env var must not crash every study
        else:
            if value < 1:
                raise ValueError(f"REPRO_JOBS must be >= 1, got {env!r}")
            return value
    return os.cpu_count() or 1


class CellTimeout(RuntimeError):
    """A cell exceeded the runner's wall-clock watchdog repeatedly."""


@dataclass
class RunnerStats:
    """What the last ``run`` did (cumulative across runs)."""

    cells: int = 0
    executed: int = 0
    cache_hits: int = 0
    wall_s: float = 0.0
    #: pool incidents survived: worker-death retries + serial degrades.
    pool_retries: int = 0
    serial_degrades: int = 0
    #: watchdog trips (cells suspected of hanging and retried).
    timeouts: int = 0
    #: cells isolated instead of aborting the run: keep-going failures
    #: plus watchdog quarantines.
    quarantined: int = 0


class Runner:
    """Executes cells over a process pool with optional result caching.

    ``cache=None`` (the default) disables caching; pass a
    :class:`~repro.exp.cache.ResultCache` to make unchanged cells free
    on re-run.  ``salt`` defaults to the package code-version salt so
    cached results die with the code that produced them.
    """

    #: resubmissions of broken-pool cells before degrading to serial.
    max_pool_retries = 2
    #: base backoff before a pool retry (scaled by attempt + jitter);
    #: tests set this to ~0.
    retry_backoff_s = 0.5
    #: watchdog trips a cell may cause before being quarantined.
    max_cell_timeouts = 2

    def __init__(self, jobs: int | None = None,
                 cache: ResultCache | None = None,
                 salt: str = CODE_SALT,
                 timeout_s: float | None = None,
                 keep_going: bool = False) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self.salt = salt
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        self.timeout_s = timeout_s
        self.keep_going = keep_going
        self.stats = RunnerStats()
        #: isolated failures (keep-going / quarantine), cumulative.
        self.errors: list[CellError] = []

    def run(self, cells: Sequence[Cell]) -> list[Any]:
        """Execute *cells*, returning results in submission order.

        With ``keep_going`` set, cells that failed or were quarantined
        resolve to ``None`` and their :class:`CellError` is appended to
        :attr:`errors`; they are never written to the result cache.
        """
        started = time.perf_counter()
        results: list[Any] = [None] * len(cells)
        pending: list[int] = []
        for index, cell in enumerate(cells):
            if self.cache is not None and cell.cacheable:
                hit, value = self.cache.get(cell.key(self.salt))
                if hit:
                    results[index] = value
                    self.stats.cache_hits += 1
                    continue
            pending.append(index)

        failed_before = len(self.errors)
        if self.jobs <= 1 or len(pending) <= 1:
            for index in pending:
                results[index] = self._execute_serial(cells[index], index)
        else:
            self._execute_parallel(cells, pending, results)

        if self.cache is not None:
            failed_indexes = {e.index for e in self.errors[failed_before:]}
            for index in pending:
                if cells[index].cacheable and index not in failed_indexes:
                    self.cache.put(cells[index].key(self.salt), results[index])

        self.stats.cells += len(cells)
        self.stats.executed += len(pending)
        self.stats.wall_s += time.perf_counter() - started
        return results

    def describe(self) -> str:
        """One status line for CLIs: worker and cache accounting."""
        text = (f"exp: {self.stats.cells} cells, {self.stats.executed} "
                f"executed, {self.stats.cache_hits} cache hits, "
                f"jobs={self.jobs}, wall {self.stats.wall_s:.2f}s")
        incidents = []
        if self.stats.pool_retries:
            incidents.append(f"{self.stats.pool_retries} pool retries")
        if self.stats.serial_degrades:
            incidents.append(f"{self.stats.serial_degrades} serial degrades")
        if self.stats.timeouts:
            incidents.append(f"{self.stats.timeouts} watchdog timeouts")
        if self.stats.quarantined:
            incidents.append(f"{self.stats.quarantined} cells quarantined")
        if incidents:
            text += "; incidents: " + ", ".join(incidents)
        if self.cache is not None:
            text += f"; cache [{self.cache.stats.describe()}] at {self.cache.root}"
        else:
            text += "; cache disabled"
        return text

    # ------------------------------------------------------------------

    def _execute_serial(self, cell: Cell, index: int) -> Any:
        try:
            return execute_cell(cell)
        except Exception as exc:
            if self.keep_going:
                self._record_failure(cell, index, exc)
                return None
            raise CellError(cell, index, exc, salt=self.salt) from exc

    def _record_failure(self, cell: Cell, index: int,
                        exc: BaseException) -> None:
        self.stats.quarantined += 1
        self.errors.append(CellError(cell, index, exc, salt=self.salt))

    def _quarantine(self, cell: Cell, index: int) -> None:
        """A cell hung past the watchdog ``max_cell_timeouts`` times."""
        cause = CellTimeout(
            f"no progress within {self.timeout_s:g}s on "
            f"{self.max_cell_timeouts} attempts (watchdog)")
        error = CellError(cell, index, cause, salt=self.salt)
        self.stats.quarantined += 1
        self.errors.append(error)
        if not self.keep_going:
            raise error from cause

    def _execute_parallel(self, cells: Sequence[Cell], pending: list[int],
                          results: list[Any]) -> None:
        remaining = list(pending)
        attempt = 0
        strikes: dict[int, int] = {}
        while remaining:
            try:
                pool = ProcessPoolExecutor(
                    max_workers=min(self.jobs, len(remaining)))
            except Exception:
                # The pool cannot even be created (fork forbidden, fd or
                # pid exhaustion): parallelism is a performance feature,
                # not a correctness one, so finish in-process.
                self._degrade_serial(cells, remaining, results)
                return
            broken, timed = self._drain_pool(pool, cells, remaining, results)
            if not broken and not timed:
                return
            if timed:
                # Watchdog trip, not worker death: the suspects get one
                # retry on a fresh pool (a loaded machine can stall an
                # innocent cell) without burning the pool-retry budget;
                # repeat offenders are quarantined.
                retry: list[int] = []
                for index in timed:
                    strikes[index] = strikes.get(index, 0) + 1
                    if strikes[index] >= self.max_cell_timeouts:
                        self._quarantine(cells[index], index)
                    else:
                        retry.append(index)
                remaining = sorted(broken + retry)
                continue
            attempt += 1
            if attempt > self.max_pool_retries:
                # Workers keep dying: stop betting on the pool.  If the
                # cell itself kills its process deterministically this
                # will crash the parent too — but at that point there is
                # no outcome that both completes the study and hides it.
                self._degrade_serial(cells, broken, results)
                return
            self.stats.pool_retries += 1
            if self.retry_backoff_s > 0:
                time.sleep(self.retry_backoff_s * attempt
                           * (1.0 + random.random()))
            remaining = broken

    def _degrade_serial(self, cells: Sequence[Cell], indexes: list[int],
                        results: list[Any]) -> None:
        self.stats.serial_degrades += 1
        for index in indexes:
            results[index] = self._execute_serial(cells[index], index)

    def _drain_pool(
        self, pool: ProcessPoolExecutor, cells: Sequence[Cell],
        remaining: list[int], results: list[Any],
    ) -> tuple[list[int], list[int]]:
        """Run *remaining* cells on *pool*, storing results as they
        settle; returns ``(broken, timed)`` — indexes to resubmit after
        transient worker death, and indexes suspected of hanging.

        Deterministic cell exceptions raise :class:`CellError` for the
        lowest-indexed failure (or are recorded, under ``keep_going``);
        abrupt worker death (``BrokenProcessPool`` on the future) and
        cells cancelled by fail-fast come back in ``broken``.  With a
        watchdog (``timeout_s``), a wait window in which *nothing*
        settles kills the workers; the cells occupying them — the first
        ``jobs`` pending in submission order, since the pool executes
        FIFO — come back in ``timed`` and the rest in ``broken``.
        """
        broken: list[int] = []
        timed: list[int] = []
        failed: tuple[int, BaseException] | None = None

        def settle(future, index, fail_fast=True) -> None:
            nonlocal failed
            if future.cancelled():
                broken.append(index)
                return
            exc = future.exception()
            if exc is None:
                results[index] = future.result()
            elif isinstance(exc, BrokenProcessPool):
                broken.append(index)
            elif self.keep_going:
                self._record_failure(cells[index], index, exc)
            elif failed is None or index < failed[0]:
                failed = (index, exc)

        with pool:
            pending = {
                pool.submit(execute_cell, cells[index]): index
                for index in remaining
            }
            while pending:
                done, not_done = wait(list(pending), timeout=self.timeout_s,
                                      return_when=FIRST_EXCEPTION)
                if not done:
                    # Watchdog: nothing settled for a full window.  The
                    # hung cells are whatever occupies the workers.
                    suspects = sorted(pending.values())
                    suspects = suspects[:min(self.jobs, len(suspects))]
                    suspect_set = set(suspects)
                    self.stats.timeouts += len(suspects)
                    timed.extend(suspects)
                    broken.extend(i for i in pending.values()
                                  if i not in suspect_set)
                    processes = getattr(pool, "_processes", None) or {}
                    for process in list(processes.values()):
                        process.kill()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pending.clear()
                    break
                for future in done:
                    settle(future, pending.pop(future))
                if failed is not None and pending:
                    # Fail fast: drop cells not yet started, but let the
                    # ones already running settle so the failure we
                    # report is the lowest-indexed one among all that ran.
                    for future in pending:
                        future.cancel()
                    done, _ = wait(list(pending))
                    for future in done:
                        settle(future, pending.pop(future))
                    break
        if failed is not None:
            index, exc = failed
            raise CellError(cells[index], index, exc, salt=self.salt) from exc
        return sorted(broken), sorted(timed)
