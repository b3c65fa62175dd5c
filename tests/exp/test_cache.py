"""Result-cache behavior: hits, misses, and corruption recovery."""

from dataclasses import dataclass
from pathlib import Path

import pytest

import repro
from repro.exp import Cell, ResultCache, Runner, code_salt, default_cache_dir
from repro.exp.cache import source_salt


@dataclass(frozen=True)
class Payload:
    value: int
    writes: int = 100


def compute(config: Payload, seed: int) -> int:
    return config.value * 1000 + seed


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestStore:
    def test_get_on_empty_misses(self, cache):
        hit, value = cache.get("ab" + "0" * 62)
        assert not hit and value is None
        assert cache.stats.misses == 1

    def test_put_then_get_hits(self, cache):
        key = Cell(compute, Payload(3)).key(code_salt())
        cache.put(key, 42)
        hit, value = cache.get(key)
        assert hit and value == 42
        assert cache.stats.hits == 1 and cache.stats.stored == 1

    def test_none_is_a_cacheable_value(self, cache):
        key = Cell(compute, Payload(4)).key(code_salt())
        cache.put(key, None)
        hit, value = cache.get(key)
        assert hit and value is None

    def test_corrupted_entry_discarded_and_recomputed(self, cache):
        cell = Cell(compute, Payload(5), seed=2)
        key = cell.key(code_salt())
        cache.put(key, 5002)
        path = cache.path_for(key)
        path.write_bytes(b"not a pickle at all")

        hit, _ = cache.get(key)
        assert not hit
        assert cache.stats.discarded == 1
        assert not path.exists()  # junk entry removed

        # A runner over the same cell recomputes and restores the entry.
        runner = Runner(jobs=1, cache=cache)
        assert runner.run([cell]) == [5002]
        hit, value = cache.get(key)
        assert hit and value == 5002

    def test_truncated_entry_discarded(self, cache):
        key = Cell(compute, Payload(6)).key(code_salt())
        cache.put(key, list(range(1000)))
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[:10])
        hit, _ = cache.get(key)
        assert not hit and cache.stats.discarded == 1

    def test_foreign_salt_entry_is_a_miss(self, cache):
        # An entry physically present at this key's path but written by
        # a different code generation must not be served.
        key = Cell(compute, Payload(13)).key(code_salt())
        cache.put(key, 13000)
        import pickle
        path = cache.path_for(key)
        path.write_bytes(pickle.dumps({"salt": "someone-elses", "value": 13000}))
        hit, _ = cache.get(key)
        assert not hit
        assert cache.stats.discarded == 1
        assert not path.exists()

    def test_discard_warns_exactly_once(self, cache, capsys):
        keys = [Cell(compute, Payload(v)).key(code_salt()) for v in (20, 21)]
        for key in keys:
            cache.put(key, 0)
            cache.path_for(key).write_bytes(b"junk")
        for key in keys:
            assert cache.get(key) == (False, None)
        err = capsys.readouterr().err
        assert err.count("discarding cache entry") == 1
        assert cache.stats.discarded == 2

    def test_clear_drops_only_this_salt(self, cache):
        other = ResultCache(cache.root, salt="other-salt")
        cache.put(Cell(compute, Payload(1)).key(code_salt()), 1)
        other.put(Cell(compute, Payload(1)).key("other-salt"), 2)
        assert cache.clear() == 1
        assert other.get(Cell(compute, Payload(1)).key("other-salt"))[0]


class TestKeying:
    def test_hit_on_identical_cell(self, cache):
        a = Cell(compute, Payload(7), seed=1)
        b = Cell(compute, Payload(7), seed=1, label="different label")
        cache.put(a.key(code_salt()), 7001)
        assert cache.get(b.key(code_salt())) == (True, 7001)  # label not keyed

    def test_miss_on_config_change(self, cache):
        cache.put(Cell(compute, Payload(8)).key(code_salt()), 8000)
        changed = Cell(compute, Payload(8, writes=200))
        hit, _ = cache.get(changed.key(code_salt()))
        assert not hit

    def test_miss_on_seed_change(self, cache):
        cache.put(Cell(compute, Payload(9), seed=0).key(code_salt()), 9000)
        hit, _ = cache.get(Cell(compute, Payload(9), seed=1).key(code_salt()))
        assert not hit

    def test_miss_on_salt_change(self, cache):
        cell = Cell(compute, Payload(10))
        cache.put(cell.key(code_salt()), 10000)
        hit, _ = cache.get(cell.key(code_salt() + "-bumped"))
        assert not hit

    def test_miss_on_function_change(self, cache):
        cache.put(Cell(compute, Payload(11)).key(code_salt()), 11000)
        hit, _ = cache.get(Cell(print, Payload(11)).key(code_salt()))
        assert not hit

    def test_salt_follows_the_source_bytes(self, tmp_path):
        """Any edit to a hashed file, or a new module, is a new salt;
        a file that is not Python source is not hashed."""
        (tmp_path / "pkg").mkdir()
        (tmp_path / "a.py").write_text("X = 1\n")
        (tmp_path / "pkg" / "b.py").write_text("Y = 2\n")
        salt = source_salt(tmp_path)
        assert source_salt(tmp_path) == salt
        (tmp_path / "notes.txt").write_text("not source")
        assert source_salt(tmp_path) == salt
        (tmp_path / "pkg" / "b.py").write_text("Y = 3\n")
        edited = source_salt(tmp_path)
        assert edited != salt
        (tmp_path / "pkg" / "c.py").write_text("")
        assert source_salt(tmp_path) not in (salt, edited)

    def test_code_salt_hashes_the_package_source(self):
        root = Path(repro.__file__).resolve().parent
        assert code_salt() == source_salt(root)

    def test_a_cacheless_runner_never_hashes_the_source(self):
        code_salt.cache_clear()
        try:
            runner = Runner(jobs=1, cache=None)
            assert runner.run([Cell(compute, Payload(14))]) == [14000]
            assert code_salt.cache_info().misses == 0
        finally:
            code_salt.cache_clear()


class TestLocation:
    def test_env_var_overrides_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"

    def test_default_under_home(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir().name == "repro-ssd"

    def test_layout_salted_and_sharded(self, cache):
        key = Cell(compute, Payload(12)).key(code_salt())
        path = cache.path_for(key)
        assert path.parent.name == key[:2]
        assert path.parent.parent.name == code_salt()
