"""Black-box inference: each probe against configurations it must and
must not distinguish."""

from repro.infer import PolicyPoint, infer_base
from repro.infer.blackbox import BlackboxInference, run_blackbox
from repro.infer.toolloop import ToolLoop

BASE = infer_base()


def bench(point):
    return BlackboxInference(point.apply(BASE), ToolLoop("blackbox"))


class TestCacheProbes:
    def test_designation_data_vs_mapping(self):
        assert bench(PolicyPoint()).infer_cache_designation()[0] == "data"
        assert bench(PolicyPoint(cache_designation="mapping")) \
            .infer_cache_designation()[0] == "mapping"

    def test_admission_always_vs_bypass(self):
        assert bench(PolicyPoint()).infer_cache_admission()[0] == "always"
        assert bench(PolicyPoint(cache_admission="bypass")) \
            .infer_cache_admission()[0] == "bypass"

    def test_eviction_lru_vs_fifo(self):
        lab = bench(PolicyPoint())
        assert lab.infer_cache_eviction("data", "always", 256) == "lru"
        lab = bench(PolicyPoint(cache_eviction="fifo"))
        assert lab.infer_cache_eviction("data", "always", 256) == "fifo"

    def test_eviction_unobservable_behind_bypass(self):
        lab = bench(PolicyPoint(cache_admission="bypass"))
        assert lab.infer_cache_eviction("data", "bypass", 256) is None


class TestAllocationProbe:
    def test_single_stream_reads_as_representative(self):
        assert bench(PolicyPoint()).infer_allocation() == "CWDP"
        # A different static permutation is tap-ambiguous by design.
        assert bench(PolicyPoint(allocation="DWCP")) \
            .infer_allocation() == "CWDP"

    def test_hotcold_ping_pong_is_detected(self):
        assert bench(PolicyPoint(allocation="hotcold")) \
            .infer_allocation() == "hotcold"


class TestFullRun:
    def test_wear_is_reported_unrecovered(self):
        point = PolicyPoint(wear_policy="sampled_cold")
        recovered = run_blackbox(point.apply(BASE), ToolLoop("blackbox"))
        assert recovered["wear_policy"] is None

    def test_gc_policy_recovered_on_default_point(self):
        recovered = run_blackbox(PolicyPoint().apply(BASE),
                                 ToolLoop("blackbox"))
        assert recovered["gc_policy"] == "greedy"
        assert recovered["cache_designation"] == "data"
        assert recovered["cache_admission"] == "always"
        assert recovered["cache_eviction"] == "lru"
