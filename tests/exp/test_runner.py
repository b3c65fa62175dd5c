"""Runner semantics: ordering, worker failures, jobs resolution, cache."""

from dataclasses import dataclass

import pytest

from repro.exp import Cell, CellError, ResultCache, Runner, resolve_jobs
from repro.exp.cache import code_salt


@dataclass(frozen=True)
class Work:
    value: int


def identity_cell(config: Work, seed: int):
    return (config.value, seed)


def failing_cell(config: Work, seed: int):
    if config.value < 0:
        raise ValueError(f"bad value {config.value}")
    return config.value


class TestResolveJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_bad_env_var_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        assert resolve_jobs() >= 1

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_explicit_subunit_count_is_an_error(self, jobs):
        # A clear ValueError, not a clamp and not a pool traceback.
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            resolve_jobs(jobs)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            Runner(jobs=jobs)

    @pytest.mark.parametrize("env", ["0", "-2"])
    def test_subunit_env_var_is_an_error(self, env, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", env)
        with pytest.raises(ValueError, match="REPRO_JOBS must be >= 1"):
            resolve_jobs()


class TestOrdering:
    def test_serial_results_in_submission_order(self):
        cells = [Cell(identity_cell, Work(i), seed=i) for i in range(6)]
        assert Runner(jobs=1).run(cells) == [(i, i) for i in range(6)]

    def test_parallel_results_in_submission_order(self):
        cells = [Cell(identity_cell, Work(i), seed=i) for i in range(6)]
        assert Runner(jobs=2).run(cells) == [(i, i) for i in range(6)]

    def test_parallel_equals_serial(self):
        cells = [Cell(identity_cell, Work(i)) for i in range(8)]
        assert Runner(jobs=3).run(cells) == Runner(jobs=1).run(cells)


class TestFailures:
    def test_serial_failure_names_the_cell(self):
        cells = [Cell(failing_cell, Work(1)),
                 Cell(failing_cell, Work(-2), label="the broken one")]
        with pytest.raises(CellError) as err:
            Runner(jobs=1).run(cells)
        assert err.value.index == 1
        assert "the broken one" in str(err.value)
        assert isinstance(err.value.__cause__, ValueError)

    def test_parallel_failure_names_the_cell(self):
        cells = [Cell(failing_cell, Work(i)) for i in range(4)]
        cells[2] = Cell(failing_cell, Work(-9), label="boom")
        with pytest.raises(CellError) as err:
            Runner(jobs=2).run(cells)
        assert err.value.index == 2
        assert "boom" in str(err.value)

    def test_lowest_failing_index_reported(self):
        cells = [Cell(failing_cell, Work(-1), label="first"),
                 Cell(failing_cell, Work(-2), label="second")]
        with pytest.raises(CellError) as err:
            Runner(jobs=2).run(cells)
        assert err.value.index == 0


class TestCaching:
    def test_second_run_is_all_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = [Cell(identity_cell, Work(i)) for i in range(4)]
        runner = Runner(jobs=1, cache=cache)
        first = runner.run(cells)
        assert runner.stats.executed == 4

        rerun = Runner(jobs=1, cache=ResultCache(tmp_path))
        assert rerun.run(cells) == first
        assert rerun.stats.executed == 0
        assert rerun.cache.stats.hits == 4

    def test_partial_warm_run_executes_only_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        Runner(jobs=1, cache=cache).run([Cell(identity_cell, Work(0))])
        runner = Runner(jobs=1, cache=ResultCache(tmp_path))
        out = runner.run([Cell(identity_cell, Work(0)),
                          Cell(identity_cell, Work(1))])
        assert out == [(0, 0), (1, 0)]
        assert runner.stats.executed == 1
        assert runner.cache.stats.hits == 1

    def test_cells_are_keyed_with_the_cache_salt(self, tmp_path):
        cells = [Cell(identity_cell, Work(i)) for i in range(2)]
        Runner(jobs=1, cache=ResultCache(tmp_path, salt="other")).run(cells)
        rerun = Runner(jobs=1, cache=ResultCache(tmp_path, salt="other"))
        assert rerun.run(cells) == [(0, 0), (1, 0)]
        assert rerun.stats.executed == 0
        assert rerun.cache.get(cells[0].key("other")) == (True, (0, 0))
        fresh = Runner(jobs=1, cache=ResultCache(tmp_path))
        fresh.run(cells)
        assert fresh.stats.executed == 2
        assert Runner(jobs=1).salt == fresh.salt == code_salt()

    def test_describe_mentions_cache(self, tmp_path):
        runner = Runner(jobs=1, cache=ResultCache(tmp_path))
        runner.run([Cell(identity_cell, Work(1))])
        text = runner.describe()
        assert "1 cells" in text and "cache" in text

    def test_describe_without_cache(self):
        assert "cache disabled" in Runner(jobs=1).describe()


class TestRealCells:
    """End-to-end: simulator cells through the parallel pool."""

    def test_churn_cell_parallel_equals_serial(self, tmp_path):
        from repro.exp import ChurnCell, run_churn_cell
        from repro.ssd.presets import tiny

        cells = [
            Cell(run_churn_cell,
                 ChurnCell(config=tiny().with_changes(gc_policy=policy),
                           writes=1500),
                 seed=3, label=f"gc:{policy}")
            for policy in ("greedy", "random")
        ]
        serial = Runner(jobs=1).run(cells)
        parallel = Runner(jobs=2, cache=ResultCache(tmp_path)).run(cells)
        assert serial == parallel
