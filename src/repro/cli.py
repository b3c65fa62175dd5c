"""Command-line interface: run the paper's studies from a shell.

Installed as ``repro-ssd``.  Every subcommand is a thin veneer over the
library — useful for demos, quick sweeps, and as executable
documentation of the public API::

    repro-ssd simulate --preset mx500 --writes 20000
    repro-ssd trace --preset tiny --writes 4000 --out trace.jsonl
    repro-ssd waf-study --io-count 12000
    repro-ssd policy-grid --io-count 1000 --jobs 4
    repro-ssd infer --seed 7
    repro-ssd fleet --devices 256 --campaign default --afr 0.5 --keep-going

One table, :data:`COMMANDS`, maps each subcommand to its help, its
options and its handler, and :func:`build_parser` loops over it.  An
option several subcommands offer is declared once, in
:data:`SHARED_OPTIONS`; a row names it and overrides only what differs
there, most often the default.  The subcommands that run one study and
print it (the seven figures, ``simulate``, ``trace``, ``presets``,
``infer`` and ``probe-features``) share one handler, :func:`_study`: it
builds the device config from the preset and ``--scale``, checks
``--bs`` against it, calls the study's entry point (with a runner built
from ``--jobs``/``--no-cache`` when the subcommand offers them), prints
the tables and summary lines the study yields, and then the runner's
account.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from repro.analysis.report import format_table
from repro.analysis.stats import summarize_latencies
from repro.engines import (
    ENGINES,
    YCSB_MIXES,
    EngineRunCell,
    run_engine_cell,
    ycsb_spec_for_device,
)
from repro.fleet.spec import TENANT_MIXES
from repro.ssd.policy import REGISTRIES
from repro.ssd.presets import PRESETS


def _checked(convert, ok, want: str, name: str):
    """An ``argparse`` type: ``convert(text)``, a usage error unless
    ``ok(value)``; argparse calls it *name* ("invalid <name> value")."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {want}, got {value}")
        return value
    parse.__name__ = name
    return parse


#: every count, size, depth and scale option: a job of zero requests
#: (or zero sectors, depth 0, scale 0) is a usage error, not a
#: ``JobSpec`` traceback or a preset's silent ``max(1, scale)``.
_positive_int = _checked(int, lambda v: v >= 1, ">= 1", "int >= 1")
#: every ``--seed`` (numpy's generators refuse a negative one with a
#: traceback of their own), and counts where 0 means "size it for me".
_non_negative_int = _checked(int, lambda v: v >= 0, ">= 0", "int >= 0")
#: multipliers (a time or rate scale); NaN and infinities fail.
_positive_float = _checked(float, lambda v: 0 < v < math.inf,
                           "a finite number > 0", "float > 0")
#: rates where 0 means "not given", and failure rates (0: no faults).
_non_negative_float = _checked(float, lambda v: 0 <= v < math.inf,
                               "a finite number >= 0", "float >= 0")
#: a program/erase fail probability; NaN fails too.
_probability = _checked(float, lambda v: 0 <= v <= 1,
                        "a probability in [0, 1]", "probability")


def _names(known):
    """An ``argparse`` type: a comma-separated list of names from
    *known*, a usage error naming the known ones otherwise."""
    def parse(text: str) -> tuple[str, ...]:
        picked = tuple(s.strip() for s in text.split(",") if s.strip())
        for name in picked:
            if name not in known:
                raise argparse.ArgumentTypeError(
                    f"unknown {name!r}; known: {', '.join(sorted(known))}")
        return picked
    return parse


def _positive_ints(text: str) -> list[int]:
    """An ``argparse`` type: a comma-separated list of ints >= 1,
    sorted and deduplicated."""
    values = sorted({_positive_int(s) for s in text.split(",") if s.strip()})
    if not values:
        raise argparse.ArgumentTypeError("needs at least one value")
    return values


_positive_ints.__name__ = "comma-separated int >= 1 list"


def _device_range(text: str) -> tuple[int, int]:
    """An ``argparse`` type: ``N`` or ``LO:HI``, a non-empty half-open
    range ``[lo, hi)`` of device indexes."""
    lo_text, colon, hi_text = text.partition(":")
    lo = int(lo_text)
    hi = int(hi_text) if colon else lo + 1
    if not 0 <= lo < hi:
        raise argparse.ArgumentTypeError(
            f"want N or LO:HI with 0 <= LO < HI, got {text!r}")
    return lo, hi


_device_range.__name__ = "N|LO:HI"


def _device_and_run(args, config):
    """The device ``--mode`` names and the loop that runs it: counter
    mode is a zero-latency device, flushed at the end of the run."""
    from repro.ssd.timed import TimedSSD
    from repro.workloads.engine import run_counter, run_timed

    counter = args.mode == "counter"
    return (TimedSSD(config, zero_latency=counter),
            run_counter if counter else run_timed)


def _check_bs_fits(args, config) -> None:
    """A request larger than the device is a usage error (exit 2), not
    the address pattern's ``region smaller than one request``."""
    if args.bs > config.logical_sectors:
        args.parser.error(f"--bs {args.bs} is larger than the device "
                          f"({config.logical_sectors} sectors)")


def _make_runner(args):
    """Build a Runner from the shared --jobs / --no-cache flags (plus
    the hardening flags --timeout / --keep-going where a subcommand
    offers them)."""
    from repro.exp import ResultCache, Runner

    cache = None if args.no_cache else ResultCache()
    try:
        return Runner(jobs=args.jobs, cache=cache,
                      timeout_s=getattr(args, "timeout", None),
                      keep_going=getattr(args, "keep_going", False))
    except ValueError as exc:
        # e.g. REPRO_JOBS=-2: exit with the message, not a traceback.
        raise SystemExit(f"repro-ssd: {exc}")


def _write_job(args, config, name: str, rw: str = "randwrite", **fields):
    """A job of ``--writes`` ``--bs``-sector writes over the whole
    device, seeded by ``--seed``."""
    from repro.workloads.patterns import Region
    from repro.workloads.spec import JobSpec

    return JobSpec(name, rw, Region(0, config.logical_sectors),
                   bs_sectors=args.bs, io_count=args.writes, seed=args.seed,
                   **fields)


def _latency_table(args, job, title: str, open_loop: str, *, head=(),
                   tail=(), p999: bool = True) -> str:
    """The metric table ``latency`` and ``replay`` print: *job*'s IOPS
    and latency summary between the *head* and *tail* rows."""
    summary = summarize_latencies(job.latencies_us)
    rows = [*head, ["IOPS", round(job.iops)],
            ["mean (us)", summary.mean], ["p50 (us)", summary.p50],
            ["p99 (us)", summary.p99]]
    if p999:
        rows.append(["p99.9 (us)", summary.p999])
    rows += [["max (us)", summary.max], *tail]
    loop = (open_loop if args.submission == "open"
            else f"closed loop qd={args.iodepth}")
    return format_table(["metric", "value"], rows,
                        title=f"{title} on {args.preset} ({loop})")


# ----------------------------------------------------------------------
# Studies: one handler prints what each one yields
# ----------------------------------------------------------------------


def _study(run, preset: str | None = None):
    """The handler of a subcommand that runs one study and prints it.

    It builds the device config from ``--preset`` (or the fixed
    *preset*) at ``--scale``, checks ``--bs`` against it, and builds a
    runner when the subcommand offers ``--jobs``.  ``run(args, config,
    runner)`` calls the study's entry point and yields what to print, a
    blank line apart: a table as ``(headers, rows, title)``, or text.
    The runner's one-line account comes last.
    """
    def handle(args) -> int:
        name = getattr(args, "preset", preset)
        config = PRESETS[name](scale=args.scale) if name else None
        if "bs" in args:
            _check_bs_fits(args, config)
        runner = _make_runner(args) if "jobs" in args else None
        for index, block in enumerate(run(args, config, runner)):
            if index:
                print()
            print(block if isinstance(block, str) else format_table(*block))
        if runner is not None:
            print(runner.describe())
        return 0
    return handle


def _presets(args, config, runner):
    rows = []
    for name, factory in sorted(PRESETS.items()):
        preset = factory(scale=args.scale)
        geometry = preset.geometry
        rows.append([
            name,
            f"{preset.logical_bytes / 2**20:.0f} MiB",
            geometry.channels,
            geometry.page_size,
            preset.gc_policy,
            preset.cache_designation,
            preset.rain_stripe or "-",
            preset.pslc_blocks or "-",
        ])
    yield (["preset", "logical", "ch", "page B", "gc", "cache", "rain",
            "pslc"], rows, "device presets")


def _simulate(args, config, runner):
    from repro.ssd.device import SimulatedSSD
    from repro.workloads.engine import run_counter

    job = _write_job(
        args, config, "cli",
        rw="randwrite" if args.pattern != "sequential" else "write",
        pattern=None if args.pattern in ("uniform", "sequential") else args.pattern,
    )
    device = SimulatedSSD(config)
    result = run_counter(device, [job])
    yield device.smart_render()
    yield (f"WAF (FTL pages / host pages): {result.waf:.3f}\n"
           f"GC invocations: {device.ftl.stats.gc_invocations}")


def _trace(args, config, runner):
    """Run a workload with the observability layer attached: write a
    JSONL event trace and print per-event summaries (and, in timed
    mode, the tail's stall attribution)."""
    from repro.obs import (
        CounterSink,
        HistogramSink,
        JsonlSink,
        TeeSink,
        attribute_tail,
        load_trace,
    )

    job = _write_job(args, config, "trace", iodepth=args.iodepth)
    counter = CounterSink()
    histogram = HistogramSink()
    jsonl = JsonlSink(args.out)
    sink = TeeSink(jsonl, counter, histogram)

    device, run = _device_and_run(args, config)
    run(device, [job], sink=sink)
    sink.close()

    yield (["event", "count", "metric sum"], counter.summarize(),
           f"trace event counts ({args.mode} mode, {args.writes} requests)")
    yield (["event", "count", "mean", "p50", "p99", "max"],
           histogram.summarize(), "per-event metric distributions")
    if args.mode == "timed":
        buckets = attribute_tail(load_trace(args.out))
        if buckets:
            yield (["bucket", "requests", "latency (ms)", "stall (ms)",
                    "stall share"], [b.row() for b in buckets],
                   "write-tail attribution (cache-admission stall)")
    yield f"trace: {jsonl.events_written} events -> {args.out}"


def _nand_page(args, config, runner):
    from repro.core.blackbox.nand_page import sequential_write_sweep
    from repro.ssd.device import SimulatedSSD

    estimate = sequential_write_sweep(SimulatedSSD(config))
    yield estimate.HEADERS, estimate.rows(), "Fig 4a — sequential write sweep"
    yield (f"converged: {estimate.converged_bytes_per_page / 1024:.1f} "
           f"KiB/page")


def _waf_study(args, config, runner):
    from repro.core.blackbox.waf import run_waf_study

    study = run_waf_study(config=config, io_count=args.io_count,
                          runner=runner)
    yield study.HEADERS, study.rows(), "Fig 4b — WAF extrapolation study"
    yield f"extrapolation error: {study.extrapolation_error:.2f}x"


def _fidelity(args, config, runner):
    from repro.core.modeling.fidelity import run_fidelity_study

    study = run_fidelity_study(config, block_sizes_sectors=(1, 4),
                               io_count=args.io_count, runner=runner)
    yield study.HEADERS, study.rows(), "Fig 3 — FTL variants"
    for bs in study.block_sizes():
        yield f"p99 spread at {bs * 4}K: {study.p99_spread(bs):.2f}x"


def _policy_grid(args, config, runner):
    """Sweep the GC × cache-designation × allocation cross product."""
    from repro.core.modeling.policy_grid import (
        GRID_ALLOCATION_POLICIES,
        GRID_CACHE_DESIGNATIONS,
        GRID_GC_POLICIES,
        GRID_HEADERS,
        grid_rows,
        run_policy_grid,
    )

    study = run_policy_grid(
        config,
        block_sizes_sectors=(args.bs,),
        io_count=args.io_count,
        gc_policies=args.gc or GRID_GC_POLICIES,
        designations=args.cache or GRID_CACHE_DESIGNATIONS,
        allocations=args.alloc or GRID_ALLOCATION_POLICIES,
        runner=runner,
    )
    p99 = GRID_HEADERS.index("p99_us")
    rows = sorted(grid_rows(study), key=lambda row: row[p99])
    yield GRID_HEADERS, rows, (f"policy design grid ({len(rows)} points, "
                               f"{args.bs * 4}K random writes)")
    yield f"p99 spread across the grid: {study.p99_spread(args.bs):.2f}x"


def _infer(args, config, runner):
    """One policy-inference round trip on a seeded random grid point."""
    from repro.infer import (
        KNOBS,
        random_points,
        run_blackbox_trip,
        run_graybox_trip,
    )

    point = random_points(1, seed=args.seed)[0]
    results = []
    if args.mode in ("both", "blackbox"):
        results.append(run_blackbox_trip(point))
    if args.mode in ("both", "graybox"):
        results.append(run_graybox_trip(point))
    rows = []
    for knob in KNOBS:
        row = [knob, getattr(point, knob)]
        for result in results:
            r = result.recovery(knob)
            verdict = r.recovered if r.recovered is not None else "-"
            if r.correct:
                verdict += " ok"
            if r.confirmed:
                verdict += "+confirmed"
            row.append(verdict)
        rows.append(row)
    yield (["knob", "truth"] + [r.mode for r in results], rows,
           f"policy inference (seed {args.seed}: {point.label()})")
    for result in results:
        yield result.transcript


def _transparency(args, config, runner):
    """Scored round-trip sweep over N random policy-grid points."""
    from repro.infer import run_transparency_sweep

    score = run_transparency_sweep(args.points, seed=args.seed,
                                   runner=runner)
    yield score.render()
    if score.graybox_total > score.blackbox_total:
        yield ("gray-box access recovers strictly more than the "
               "host interface — the paper's transparency gap, measured.")


def _compression(args, config, runner):
    from repro.workloads.oltp import (
        COMPRESSION_HEADERS,
        compression_rates,
        compression_rows,
    )

    rates = compression_rates(args.regime, args.transactions)
    yield (COMPRESSION_HEADERS, compression_rows(rates),
           f"Fig 2 — compression schemes ({args.regime})")


def _jtag_study(args, config, runner):
    from repro.core.jtag.discovery import run_full_study
    from repro.ssd.firmware.device import HackableSSD

    report = run_full_study(HackableSSD(config))
    yield report.HEADERS, report.rows(), "Fig 6 / §3.2 — JTAG study"


def _probe_features(args, config, runner):
    from repro.core.blackbox.ssdcheck import (
        detect_checkpoint_interval,
        detect_write_buffer,
    )
    from repro.ssd.timed import TimedSSD

    config = config.with_changes(cache_sectors=args.cache_sectors)
    buffer_probe = detect_write_buffer(TimedSSD(config))
    interval_probe = detect_checkpoint_interval(TimedSSD(config),
                                                writes=args.writes)
    yield (["feature", "estimate", "actual"],
           [["write buffer (sectors)", buffer_probe.estimated_sectors,
             config.cache_sectors],
            ["checkpoint interval (writes)", interval_probe.estimated_interval,
             config.mapping_sync_interval]],
           "SSDCheck-style black-box probes")


# ----------------------------------------------------------------------
# Subcommands with their own output
# ----------------------------------------------------------------------


def cmd_policies(args) -> int:
    """List every registered FTL policy, per design knob."""
    for knob, registry in REGISTRIES.items():
        rows = []
        for entry in registry:
            fields = ", ".join(entry.schema) if entry.schema else "-"
            rows.append([entry.name, entry.summary, fields])
        print(format_table(
            ["policy", "summary", "config fields"],
            rows, title=f"{knob} ({len(registry)} registered)",
        ))
        print()
    return 0


def cmd_replay(args) -> int:
    """Replay a recorded block trace against a device preset.

    The trace is validated at load time (column shape, op kinds,
    monotonic timestamps, LBA bounds against the chosen preset); a
    malformed trace exits nonzero with the offending line named.
    """
    from repro.workloads.source import TraceSource
    from repro.workloads.trace import BlockTrace, TraceFormatError

    config = PRESETS[args.preset](scale=args.scale)
    try:
        trace = BlockTrace.load(args.trace, num_sectors=config.logical_sectors)
    except OSError as exc:
        print(f"replay: cannot read {args.trace}: {exc}")
        return 1
    except TraceFormatError as exc:
        print(f"replay: {exc}")
        return 1
    if not len(trace):
        print(f"replay: {args.trace} has no records")
        return 1

    source = TraceSource(trace, name="replay", time_scale=args.time_scale,
                         submission=args.submission, iodepth=args.iodepth)
    device, run = _device_and_run(args, config)
    result = run(device, [source])
    job = result.jobs["replay"]
    if args.mode == "timed":
        print(_latency_table(
            args, job, "trace replay",
            f"open loop @ recorded timeline x{args.time_scale:g}",
            head=[["requests", job.requests],
                  ["failed", job.failed_requests]],
            tail=[["WAF", round(result.waf, 3)]], p999=False))
    else:
        print(device.smart_render())
        print(f"\nreplayed {job.requests} requests "
              f"({job.sectors} sectors), WAF {result.waf:.3f}")
    return 0


def cmd_engine(args) -> int:
    """Run YCSB mixes through the storage engines, one cached cell per
    engine x mix, and show how engine structure lands on the device."""
    from repro.exp import Cell

    config = PRESETS[args.preset](scale=args.scale)
    if args.alloc:
        config = config.with_changes(allocation_scheme=args.alloc)

    cells = []
    for engine in args.engines:
        for mix in args.mixes:
            spec = ycsb_spec_for_device(
                mix, config.logical_sectors,
                value_sectors=args.value_sectors,
                operations=args.ops or None)
            if args.records:
                from dataclasses import replace
                spec = replace(spec, records=args.records)
            cells.append(Cell(
                run_engine_cell,
                EngineRunCell(config, engine, spec, iodepth=args.iodepth),
                seed=args.seed,
                label=f"engine:{engine}:{mix}",
            ))
    runner = _make_runner(args)
    results = runner.run(cells)

    rows = []
    for r in results:
        rows.append([
            r.engine, r.mix.upper(), r.requests,
            round(r.p50_us, 1), round(r.p99_us, 1),
            round(r.iops), round(r.device_waf, 3),
            round(r.engine_waf, 3), r.maintenance_ops,
        ])
    alloc = args.alloc or config.allocation_scheme
    print(format_table(
        ["engine", "mix", "requests", "p50 (us)", "p99 (us)", "IOPS",
         "device WAF", "engine WAF", "maint ops"],
        rows,
        title=f"storage engines on {args.preset} (alloc {alloc})",
    ))
    errors = sum(r.read_errors for r in results)
    if errors:
        print(f"\nengine: {errors} READ-AFTER-WRITE VIOLATIONS")
        return 1
    print("\nengine: all reads returned the latest written version")
    print(runner.describe())
    return 0


def cmd_latency(args) -> int:
    from repro.exp import Cell, TimedJobCell, run_timed_job_cell

    if args.submission == "open" and args.rate <= 0:
        args.parser.error("--submission open needs --rate > 0 (IOPS)")
    config = PRESETS[args.preset](scale=args.scale)
    _check_bs_fits(args, config)
    job = _write_job(args, config, "cli", iodepth=args.iodepth,
                     submission=args.submission, rate_iops=args.rate,
                     arrival=args.arrival)
    runner = _make_runner(args)
    cell = Cell(run_timed_job_cell, TimedJobCell(config, job), label="cli:latency")
    [result] = runner.run([cell])
    print(_latency_table(args, result.jobs["cli"], "timed random writes",
                         f"open loop @ {args.rate:g} IOPS ({args.arrival})"))
    print(runner.describe())
    return 0


def cmd_faultsweep(args) -> int:
    """Crash-consistency sweep: cut power at every k-th host op for each
    stride, recover, audit the durability contract.  Exit 1 on any
    acknowledged-flushed loss, ghost mapping, or unusable recovery."""
    from repro.exp import Cell
    from repro.faults import (
        CrashSweepCell,
        FaultPlan,
        FaultSpec,
        SweepWorkload,
        run_crash_sweep_cell,
    )

    config = PRESETS[args.preset](scale=args.scale)
    workload = SweepWorkload(ops=args.ops, seed=args.seed)
    plan = None
    if args.fault_rate > 0:
        plan = FaultPlan(seed=args.seed, specs=(
            FaultSpec("program_fail", probability=args.fault_rate, count=0),
            FaultSpec("erase_fail", probability=args.fault_rate, count=0),
        ))
    cells = [
        Cell(run_crash_sweep_cell,
             CrashSweepCell(config, workload, stride, plan=plan),
             seed=args.seed, label=f"sweep:k={stride}")
        for stride in args.strides
    ]
    runner = _make_runner(args)
    results = runner.run(cells)

    rows = []
    for r in results:
        rows.append([r.stride, r.ops_run, r.cuts, r.lost_sectors,
                     r.ghost_sectors, r.recovery_failures,
                     r.resurrected_trims, r.blocks_retired,
                     "yes" if r.clean else "NO"])
    print(format_table(
        ["stride", "ops", "cuts", "lost", "ghosts", "bad recov",
         "trim resurrect", "blk retired", "clean"],
        rows,
        title=f"crash-consistency sweep ({args.preset}, {args.ops} ops, "
              f"seed {args.seed})",
    ))
    for r in results:
        for line in r.detail:
            print(f"  k={r.stride}: {line}")
    print(runner.describe())
    if not all(r.clean for r in results):
        print("faultsweep: DURABILITY CONTRACT VIOLATED")
        return 1
    print("faultsweep: all cut points clean "
          "(no acknowledged-flushed write lost)")
    return 0


def _fleet_only(spec, lo: int, hi: int) -> int:
    """Serial deep-dive on one device (or a range): the path the
    CellError / FleetDeviceError repro one-liners point at."""
    from repro.fleet import FailedDevice, FleetShardCell, run_fleet_shard_cell

    rows = []
    crashed: list[FailedDevice] = []
    # keep_going: the whole point of --only is triage
    for device in run_fleet_shard_cell(
            FleetShardCell(spec, lo, hi, keep_going=True)):
        if isinstance(device, FailedDevice):
            crashed.append(device)
            continue
        events = ", ".join(f"{kind}@op{op}"
                           for kind, _, op in device.fault_events[:4])
        if len(device.fault_events) > 4:
            events += f", ... ({len(device.fault_events)} total)"
        rows.append([
            device.index, device.seed,
            sum(s.requests for s in device.tenants),
            device.failed_requests,
            device.degraded_kind or "-",
            device.degraded_at_ns if device.degraded else "-",
            device.sectors_lost,
            round(device.waf, 3),
            events or "-",
        ])
    if rows:
        print(format_table(
            ["device", "seed", "requests", "failed", "degraded",
             "at (ns)", "lost", "WAF", "fault firings"],
            rows, title=f"fleet device detail [{lo}, {hi})",
        ))
    for entry in crashed:
        print(f"fleet: device #{entry.index} CRASHED: {entry.error}")
    return 1 if crashed else 0


def cmd_fleet(args) -> int:
    """Fleet-scale sharded simulation: merged SLO table, nonzero exit
    on any tenant SLO or durability violation."""
    import time

    from repro.exp import CellError
    from repro.fleet import CAMPAIGNS, FleetSpec, run_fleet

    campaign = None
    if args.campaign != "none":
        campaign = CAMPAIGNS[args.campaign]
        if args.afr is not None:
            from dataclasses import replace
            campaign = replace(campaign, afr=args.afr)
    elif args.afr is not None:
        args.parser.error("--afr needs --campaign (default|infant|wearout)")
    if args.only is not None and args.only[1] > args.devices:
        lo, hi = args.only
        args.parser.error(f"--only [{lo}, {hi}) is outside the fleet's "
                          f"{args.devices} devices")

    try:
        tenants = TENANT_MIXES[args.mix](rate_scale=args.rate_scale,
                                         io_count=args.io_count)
        spec = FleetSpec(tenants=tenants, devices=args.devices,
                         preset=args.preset, scale=args.scale,
                         seed=args.seed, campaign=campaign)
    except ValueError as exc:  # e.g. a --rate-scale overflowing a rate
        args.parser.error(str(exc))

    if args.only is not None:
        return _fleet_only(spec, *args.only)

    runner = _make_runner(args)
    started = time.perf_counter()
    try:
        report = run_fleet(spec, runner, shards=args.shards,
                           keep_going=args.keep_going)
    except CellError as exc:
        print(f"fleet: {exc}")
        return 1
    elapsed = time.perf_counter() - started

    title = (f"fleet SLO report ({args.devices} x {args.preset}, "
             f"mix {args.mix}, seed {args.seed})")
    if campaign is not None:
        title += f", campaign {campaign.name} AFR {campaign.afr:g}"
    headers, rows = report.slo_table()
    print(format_table(headers, rows, title=title))
    print()
    print(format_table(["metric", "value"], report.summary_rows(),
                       title="fleet summary"))
    if campaign is not None and campaign.active:
        headers, rows = report.chaos_table()
        print()
        print(format_table(headers, rows,
                           title="healthy vs faulted latency split"))
    for entry in report.failed_devices:
        line = f"fleet: device #{entry.index} failed: {entry.error}"
        if entry.repro:
            line += f"\n  rerun standalone: {entry.repro}"
        print(line)
    for error in runner.errors:
        print(f"fleet: quarantined: {error}")
    print(f"\nfleet: {args.devices} devices in {elapsed:.2f}s "
          f"({args.devices / elapsed:.0f} devices/s)")
    print(runner.describe())
    status = 0
    if not report.ok:
        print("fleet: SLO VIOLATED by " + ", ".join(report.violations))
        status = 1
    if not report.durability_ok:
        print(f"fleet: DURABILITY VIOLATED "
              f"({report.sectors_lost} acked sectors lost, "
              f"{len(report.failed_devices)} devices unaccounted)")
        status = 1
    if status == 0:
        print("fleet: all tenant SLOs met"
              + ("; durability clean" if campaign is not None else ""))
    return status


# ----------------------------------------------------------------------
# The command table and the parser built from it
# ----------------------------------------------------------------------


#: every option more than one subcommand offers, declared once:
#: ``add_argument`` keywords a row of :data:`COMMANDS` overrides where
#: that subcommand differs.
SHARED_OPTIONS = {
    "--preset": dict(choices=sorted(PRESETS)),
    "--scale": dict(type=_positive_int, default=2),
    "--seed": dict(type=_non_negative_int, default=42),
    "--writes": dict(type=_positive_int),
    "--io-count": dict(type=_positive_int),
    "--bs": dict(type=_positive_int, default=1,
                 help="request size in sectors"),
    "--iodepth": dict(type=_positive_int),
    "--mode": dict(default="timed", choices=["timed", "counter"]),
    "--jobs": dict(type=_positive_int, default=None,
                   help="worker processes (default: REPRO_JOBS or CPU count)"),
    "--no-cache": dict(action="store_true",
                       help="bypass the on-disk result cache"),
}


def _opt(flag: str, **overrides) -> tuple[str, dict]:
    """One option of a row: the shared declaration of *flag*, if any,
    with *overrides* applied."""
    return flag, {**SHARED_OPTIONS.get(flag, {}), **overrides}


def _device(preset: str) -> list[tuple[str, dict]]:
    """``--preset/--scale/--seed`` of a subcommand that simulates a
    device preset."""
    return [_opt("--preset", default=preset,
                 help=f"device preset (default {preset})"),
            _opt("--scale", help="geometry down-scale factor (default 2)"),
            _opt("--seed")]


#: ``--jobs/--no-cache`` of a subcommand that runs its cells on a Runner.
_PARALLEL = [_opt("--jobs"), _opt("--no-cache")]

#: subcommand -> (help, options in order, handler).
COMMANDS = {
    "presets": ("list device presets", [_opt("--scale")], _study(_presets)),
    "policies": ("list registered FTL policies per design knob", [],
                 cmd_policies),
    "simulate": ("counter-mode workload + SMART", [
        *_device("mx500"), _opt("--writes", default=20_000), _opt("--bs"),
        _opt("--pattern", default="uniform",
             choices=["uniform", "sequential", "hotcold", "zipf"]),
    ], _study(_simulate)),
    "trace": ("run a workload with the observability layer attached; "
              "write a JSONL event trace", [
        *_device("tiny"), _opt("--writes", default=4_000), _opt("--bs"),
        _opt("--mode"), _opt("--iodepth", default=4),
        _opt("--out", default="trace.jsonl",
             help="JSONL trace output path (default trace.jsonl)"),
    ], _study(_trace)),
    "replay": ("replay a recorded block trace (validated at load; exits "
               "nonzero on a malformed trace)", [
        *_device("tiny"),
        _opt("--trace", required=True,
             help="block-trace CSV (op,lba,sectors,at_us)"),
        _opt("--time-scale", type=_positive_float, default=1.0,
             help="arrival-time multiplier: > 1 slows the trace down, "
                  "< 1 speeds it up (default 1)"),
        _opt("--mode"),
        _opt("--submission", default="open", choices=["open", "closed"],
             help="open loop at the recorded timeline, or closed loop at "
                  "--iodepth (default open)"),
        _opt("--iodepth", default=1),
    ], cmd_replay),
    "engine": ("YCSB mixes through the LSM / B-tree storage engines, one "
               "cached cell per engine x mix", [
        *_device("mqsim"),
        _opt("--engines", type=_names(ENGINES), default="lsm,btree",
             help="comma-separated engine axis (default lsm,btree)"),
        _opt("--mixes", type=_names(YCSB_MIXES), default="a,b,c",
             help="comma-separated YCSB mix axis (default a,b,c)"),
        _opt("--alloc", default="",
             choices=REGISTRIES["allocation_scheme"].names(),
             help="allocation_scheme override (e.g. hotcold)"),
        _opt("--records", type=_non_negative_int, default=0,
             help="key count (default: sized to the device)"),
        _opt("--ops", type=_non_negative_int, default=0,
             help="run-phase operations (default: 4x records)"),
        _opt("--value-sectors", type=_positive_int, default=1),
        _opt("--iodepth", default=1), *_PARALLEL,
    ], cmd_engine),
    "latency": ("timed workload, latency percentiles", [
        *_device("mx500"), _opt("--writes", default=8_000),
        _opt("--bs", help=None), _opt("--iodepth", default=4),
        _opt("--submission", default="closed", choices=["closed", "open"],
             help="closed loop (iodepth) or open loop (arrival rate)"),
        _opt("--rate", type=_non_negative_float, default=0.0,
             help="open-loop arrival rate in IOPS"),
        _opt("--arrival", default="poisson", choices=["poisson", "fixed"],
             help="open-loop inter-arrival distribution"),
        *_PARALLEL,
    ], cmd_latency),
    "nand-page": ("Fig 4a NAND-page estimation", _device("mx500"),
                  _study(_nand_page)),
    "waf-study": ("Fig 4b WAF extrapolation study", [
        *_device("mx500"), _opt("--io-count", default=12_000), *_PARALLEL,
    ], _study(_waf_study)),
    "fidelity": ("Fig 3 FTL-variant latency study", [
        _opt("--scale", default=4), _opt("--io-count", default=2_000),
        *_PARALLEL,
    ], _study(_fidelity, preset="mqsim")),
    "policy-grid": ("sweep the GC x cache x allocation policy grid", [
        _opt("--scale", default=4), _opt("--io-count", default=2_000),
        _opt("--bs"),
        _opt("--gc", type=_names(REGISTRIES["gc_policy"].names()),
             default="", help="comma-separated gc_policy axis override"),
        _opt("--cache", type=_names(REGISTRIES["cache_designation"].names()),
             default="",
             help="comma-separated cache_designation axis override"),
        _opt("--alloc", type=_names(REGISTRIES["allocation_scheme"].names()),
             default="", help="comma-separated allocation axis override"),
        *_PARALLEL,
    ], _study(_policy_grid, preset="mqsim")),
    "infer": ("recover the six policy knobs from one firmware image "
              "(black-box + gray-box)", [
        _opt("--seed", help="selects the random policy-grid point"),
        _opt("--mode", default="both",
             choices=["both", "blackbox", "graybox"]),
    ], _study(_infer)),
    "transparency": ("per-knob recovery-rate score over N random policy "
                     "points", [
        _opt("--points", type=_positive_int, default=8), _opt("--seed"),
        *_PARALLEL,
    ], _study(_transparency)),
    "compression": ("Fig 2 compression schemes", [
        _opt("--regime", default="high",
             choices=["high", "moderate", "incompressible"]),
        _opt("--transactions", type=_positive_int, default=3_000),
    ], _study(_compression)),
    "jtag-study": ("Fig 6 / §3.2 JTAG RE study", [_opt("--scale")],
                   _study(_jtag_study, preset="evo840")),
    "faultsweep": ("crash-consistency sweep: power-cut at every k-th host "
                   "op, recover, audit durability", [
        *_device("tiny"),
        _opt("--ops", type=_positive_int, default=2_000,
             help="host operations in the sweep workload"),
        _opt("--strides", type=_positive_ints, default="1,7,31",
             help="comma-separated cut strides (default 1,7,31)"),
        _opt("--fault-rate", type=_probability, default=0.0,
             help="per-candidate program/erase fail probability "
                  "(default 0: crash-only sweep)"),
        *_PARALLEL,
    ], cmd_faultsweep),
    "fleet": ("fleet-scale sharded simulation: thousands of devices, "
              "merged per-tenant SLO verdicts", [
        *_device("tiny"),
        _opt("--devices", type=_positive_int, default=256,
             help="fleet size (default 256)"),
        _opt("--shards", type=_positive_int, default=None,
             help="shard count (default: devices/32, independent of "
                  "--jobs)"),
        _opt("--mix", default="default", choices=sorted(TENANT_MIXES),
             help="built-in tenant mix (default: default)"),
        _opt("--io-count", default=150,
             help="requests per tenant per device (default 150)"),
        _opt("--rate-scale", type=_positive_float, default=1.0,
             help="multiplier on every tenant arrival rate"),
        _opt("--campaign", default="none",
             choices=["none", "default", "infant", "wearout"],
             help="fault campaign over the fleet (default: none)"),
        _opt("--afr", type=_non_negative_float, default=None,
             help="override the campaign's annualized failure rate"),
        _opt("--keep-going", action="store_true",
             help="isolate per-device/per-shard failures into the report "
                  "instead of aborting the run"),
        _opt("--timeout", type=_positive_float, default=None,
             help="per-cell wall-clock watchdog in seconds (default: none)"),
        _opt("--only", type=_device_range, default=None, metavar="N|LO:HI",
             help="serial deep-dive on one device (or range) instead of "
                  "the sharded fleet run"),
        *_PARALLEL,
    ], cmd_fleet),
    "probe-features": ("SSDCheck-style latency probes", [
        _opt("--scale"),
        _opt("--cache-sectors", type=_non_negative_int, default=128),
        _opt("--writes", default=8_000),
    ], _study(_probe_features, preset="vertex2")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ssd",
        description="SSD performance-transparency studies (HotOS '19 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        # Checks that span two options (or need the device) report
        # through the subcommand's own parser: usage line, exit 2.
        p.set_defaults(fn=handler, parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (``repro-ssd ... | head``).  That is not
        # this program's failure, so no traceback and exit 0 — a caller
        # under ``set -o pipefail`` keeps going.  Stdout goes to devnull
        # so the interpreter's exit-time flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    return status


if __name__ == "__main__":
    sys.exit(main())
