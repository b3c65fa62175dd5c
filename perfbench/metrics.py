"""Every metric the benchmark emits: name, unit, direction, bound.

``BENCHMARK.json`` lists exactly these (``perfbench/tests`` checks it),
so a later issue names its claim as one metric here on one workload.

Host time is in CU (see :mod:`perfbench.calibrate`) unless the name says
otherwise; names under ``sim.`` and the ``*_per_kop`` / ``*_per_op``
counts are simulated statistics that repeat exactly for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    what: str
    #: share of the parent's median by which an end-to-end metric may
    #: worsen before a change is rejected (``None`` for per-layer).
    bound: float | None = None
    #: a simulated statistic or count that repeats exactly for a seed:
    #: two runs of code that simulates the same thing must agree on it.
    exact: bool = False


END_TO_END = (
    Metric("cu_per_op", "cu/op", "lower",
           "total slice wall time / CU / requests completed; the headline",
           bound=0.25),
    Metric("cu_per_op_p50", "cu/op", "lower",
           "median over slices of slice wall / the slice's own calibration, "
           "per request", bound=0.25),
    Metric("cpu_cu_per_op", "cu/op", "lower",
           "user+sys CPU of the process and its reaped children over the "
           "timed slices / CU on the CPU clock / requests; shows pool spawn "
           "and pickling cost that wall time hides", bound=0.25),
    Metric("peak_rss_mb", "MiB", "lower",
           "max resident set size of the process or of its children",
           bound=0.10),
    Metric("setup_s", "s", "lower",
           "imports plus the median of three device constructions and "
           "preconditionings, in reference seconds (measured seconds x "
           "reference CU / this run's CU)", bound=0.25),
)

#: layer names, as spans are labelled.
SOURCE = "workloads.source"
ENGINE = "workloads.engine"
TIMED = "ssd.timed"
DEVICE = "ssd.device"
FTL = "ssd.ftl"
MAPPING = "ssd.mapping"
ALLOCATION = "ssd.allocation"
GC = "ssd.gc"
NAND = "flash.nand"
KERNEL = "sim.kernel"
OBS = "obs"
FLEET_LOWER = "fleet.spec.lower"
FLEET_CONSTRUCT = "fleet.shard.construct"
FLEET_SIMULATE = "fleet.shard.simulate"
FLEET_STEPWISE = "fleet.shard.stepwise"
FLEET_SKETCH = "fleet.sketch.build"
FLEET_AGGREGATE = "fleet.aggregate"
RUNNER_PICKLE = "exp.runner.pickle"


def _self(layer: str, suffix: str = "self_cu_per_op") -> Metric:
    return Metric(f"{layer}.{suffix}", "cu/op", "lower",
                  f"self time of {layer} spans / CU / requests")


def _calls(layer: str) -> Metric:
    return Metric(f"{layer}.calls_per_op", "1/op", "lower",
                  f"{layer} spans per request", exact=True)


def _exact(name: str, unit: str, what: str, better: str = "lower") -> Metric:
    return Metric(name, unit, better, what + " (exact)", exact=True)


def _timing(name: str, unit: str, what: str, better: str = "lower") -> Metric:
    return Metric(name, unit, better, what)


def _per_device(name: str, what: str) -> Metric:
    return Metric(name, "cu/device", "lower", what + " / CU / devices")


PER_LAYER = (
    _self(SOURCE),
    _self(ENGINE),
    _self(TIMED),
    _self(DEVICE),
    _self(KERNEL),
    _calls(KERNEL),
    _self(FTL),
    _exact("ssd.ftl.flash_ops_per_op", "1/op",
           "flash reads + programs + erases per request"),
    _timing("ssd.ftl.cu_per_flash_op", "cu",
           "whole-stack CU per simulated flash op: separates 'simulator got "
           "faster' from 'model does less work'"),
    _exact("ssd.cache.absorbed_share", "ratio",
           "host sector writes absorbed by the write cache", "higher"),
    _self(MAPPING),
    _calls(MAPPING),
    _exact("ssd.mapping.chunk_loads_per_kop", "1/kop",
           "mapping chunk loads per 1000 requests"),
    _exact("ssd.mapping.tp_flushes_per_kop", "1/kop",
           "translation-page flushes per 1000 requests"),
    _self(ALLOCATION),
    _calls(ALLOCATION),
    _self(GC, "select_self_cu_per_op"),
    _exact("ssd.gc.erases_per_kop", "1/kop",
           "block erases per 1000 requests"),
    _exact("ssd.gc.migrated_pages_per_kop", "1/kop",
           "GC-programmed pages per 1000 requests"),
    _self(NAND),
    _calls(NAND),
    _self(OBS, "emit_self_cu_per_op"),
    _exact("obs.events_per_op", "1/op",
           "trace events emitted to the sink per request"),
    _timing("obs.null_overhead_ratio", "ratio",
           "randwrite_gc replayed with a CounterSink / without; 0 where not "
           "measured"),
    _exact("sim.waf", "ratio", "FTL pages per host page over the replayed "
           "slices (simulated)"),
    _exact("sim.iops", "1/s", "requests per simulated second",
           "higher"),
    _exact("sim.p50_us", "us", "median simulated request latency"),
    _exact("sim.p99_us", "us", "p99 simulated request latency"),
    _exact("sim.fingerprint_ok", "bool",
           "1 when every replayed slice's simulated fingerprint is identical "
           "with and without tracing", "higher"),
    _per_device("fleet.spec.lower_cu_per_device",
                "spec.device_config() + spec.device_sources()"),
    _per_device("fleet.shard.construct_cu_per_device", "TimedSSD(config)"),
    _per_device("fleet.shard.simulate_cu_per_device",
                "whole simulate_device()"),
    _per_device("fleet.sketch.build_cu_per_device",
                "QuantileSketch.extend + compact for every tenant"),
    _exact("fleet.sketch.bytes_per_device", "B",
           "pickled size of one device's tenant sketches"),
    _per_device("fleet.aggregate.cu_per_device", "aggregate_fleet()"),
    _timing("fleet.shard.device_cu_p50", "cu",
           "median CU of one simulate_device() call"),
    _timing("fleet.shard.device_cu_p90", "cu",
           "p90 CU of one simulate_device() call"),
    _per_device("exp.runner.pickle_cu_per_device",
                "pickle.dumps + loads of the DeviceResult"),
    _timing("exp.runner.pool_speedup", "ratio",
           "serial in-process CU per device / pool CU per device", "higher"),
    _timing("exp.runner.pool_overhead_share", "ratio",
           "1 - serial CU / jobs / pool CU: what the pool loses to spawn, "
           "pickling and imbalance"),
    _timing("bench.cu_ns", "ns",
           "ns per calibration iteration: the machine-speed index"),
    _timing("bench.ops_per_s_raw", "1/s",
           "requests per raw host second, untraced replay (diagnostic)",
           "higher"),
    _timing("bench.us_per_op_raw", "us",
           "raw host microseconds per request, untraced replay (diagnostic)"),
    _timing("bench.trace_overhead_ratio", "ratio",
           "traced / untraced cu_per_op on the replayed slices"),
    _timing("bench.span_coverage", "ratio",
           "sum of span self time / traced slice wall time", "higher"),
    _exact("bench.slices", "count", "slices replayed under the tracer",
           "higher"),
    _exact("bench.ops", "count", "requests replayed under the tracer",
           "higher"),
)

END_TO_END_BY_NAME = {m.name: m for m in END_TO_END}
PER_LAYER_BY_NAME = {m.name: m for m in PER_LAYER}


def emit(table: dict[str, Metric], values: dict[str, float]) -> dict:
    """The ``metrics`` object of a result line: every metric of *table*,
    0 for the ones a workload does not exercise."""
    unknown = set(values) - set(table)
    if unknown:
        raise KeyError(f"metrics not declared in perfbench.metrics: "
                       f"{sorted(unknown)}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": metric.unit}
        for name, metric in table.items()
    }
