"""Runner hardening: the wall-clock watchdog and keep-going isolation.

A hung cell (infinite loop, deadlocked native call) never raises and
never returns — without a watchdog it wedges the whole study.  With
``timeout_s`` set, a wait window in which *no* future settles kills the
workers, retries the suspects once on a fresh pool, and quarantines a
repeat offender with a named :class:`CellTimeout`.  ``keep_going``
turns cell failures (and quarantines) into ``None`` results plus
recorded :class:`CellError` entries instead of aborting the run.
"""

import time
from dataclasses import dataclass

import pytest

from repro.exp import Cell, CellError, CellTimeout, ResultCache, Runner


@dataclass(frozen=True)
class Work:
    value: int


def identity_cell(config: Work, seed: int):
    return (config.value, seed)


def failing_cell(config: Work, seed: int):
    raise ValueError(f"bad value {config.value}")


def hang_cell(config: Work, seed: int):
    # A hang, not a slow cell: longer than any test's patience.  The
    # watchdog kills the host process, so the sleep never finishes.
    time.sleep(300)
    return (config.value, seed)


def _watchdog_runner(jobs: int, timeout_s: float = 0.8,
                     keep_going: bool = False, cache=None) -> Runner:
    runner = Runner(jobs=jobs, cache=cache, timeout_s=timeout_s,
                    keep_going=keep_going)
    runner.retry_backoff_s = 0.0
    return runner


class TestWatchdog:
    def test_hung_cell_is_quarantined_keep_going(self):
        cells = [Cell(identity_cell, Work(1), seed=1),
                 Cell(hang_cell, Work(2), label="wedge"),
                 Cell(identity_cell, Work(3), seed=3)]
        runner = _watchdog_runner(jobs=2, keep_going=True)
        results = runner.run(cells)
        assert results[0] == (1, 1) and results[2] == (3, 3)
        assert results[1] is None
        assert runner.stats.timeouts >= Runner.max_cell_timeouts
        assert runner.stats.quarantined == 1
        [error] = runner.errors
        assert error.index == 1
        assert isinstance(error.__cause__, CellTimeout) or \
            "watchdog" in str(error)

    def test_hung_cell_raises_without_keep_going(self):
        cells = [Cell(hang_cell, Work(0), label="wedge"),
                 Cell(identity_cell, Work(1))]
        runner = _watchdog_runner(jobs=2)
        with pytest.raises(CellError, match="wedge"):
            runner.run(cells)
        assert runner.stats.timeouts >= 1

    def test_quick_cells_never_trip_the_watchdog(self):
        cells = [Cell(identity_cell, Work(i), seed=i) for i in range(6)]
        runner = _watchdog_runner(jobs=2, timeout_s=30.0)
        assert runner.run(cells) == [(i, i) for i in range(6)]
        assert runner.stats.timeouts == 0
        assert runner.errors == []

    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            Runner(jobs=1, timeout_s=0)
        with pytest.raises(ValueError):
            Runner(jobs=1, timeout_s=-1.5)
        with pytest.raises(ValueError, match="timeout_s"):
            Runner(jobs=1, timeout_s=float("nan"))


class TestKeepGoing:
    def test_serial_failure_isolated(self):
        cells = [Cell(identity_cell, Work(0)),
                 Cell(failing_cell, Work(-5), label="boom",
                      repro="repro-ssd latency --seed 5"),
                 Cell(identity_cell, Work(2))]
        runner = Runner(jobs=1, keep_going=True)
        results = runner.run(cells)
        assert results == [(0, 0), None, (2, 0)]
        [error] = runner.errors
        assert error.index == 1
        assert "boom" in str(error)
        assert "cell key" in str(error)
        assert "rerun standalone: repro-ssd latency --seed 5" in str(error)

    def test_parallel_failure_isolated(self):
        cells = [Cell(identity_cell, Work(i)) for i in range(4)] + \
            [Cell(failing_cell, Work(9), label="boom")]
        runner = Runner(jobs=2, keep_going=True)
        runner.retry_backoff_s = 0.0
        results = runner.run(cells)
        assert results[:4] == [(i, 0) for i in range(4)]
        assert results[4] is None
        assert [e.index for e in runner.errors] == [4]

    def test_failed_cells_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = [Cell(identity_cell, Work(1)),
                 Cell(failing_cell, Work(2), label="boom")]
        runner = Runner(jobs=1, cache=cache, keep_going=True)
        runner.run(cells)
        assert cache.get(cells[0].key(runner.salt)) == (True, (1, 0))
        hit, _ = cache.get(cells[1].key(runner.salt))
        assert not hit

    def test_without_keep_going_still_fails_fast(self):
        cells = [Cell(failing_cell, Work(1), label="boom")]
        with pytest.raises(CellError, match="boom"):
            Runner(jobs=1).run(cells)


class TestDescribe:
    def test_incidents_surface(self):
        runner = _watchdog_runner(jobs=2, keep_going=True)
        runner.run([Cell(hang_cell, Work(0), label="wedge"),
                    Cell(identity_cell, Work(1))])
        text = runner.describe()
        assert "watchdog timeouts" in text
        assert "quarantined" in text
        assert "cache hits" in text
