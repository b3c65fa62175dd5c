"""Command-line interface: run the paper's studies from a shell.

Installed as ``repro-ssd``.  Every subcommand is a thin veneer over the
library — useful for demos, quick sweeps, and as executable
documentation of the public API::

    repro-ssd simulate --preset mx500 --writes 20000
    repro-ssd trace --preset tiny --writes 4000 --out trace.jsonl
    repro-ssd nand-page --preset mx500
    repro-ssd waf-study --io-count 12000
    repro-ssd fidelity --io-count 2000
    repro-ssd compression --regime high
    repro-ssd jtag-study --scale 2
    repro-ssd probe-features --cache-sectors 128
    repro-ssd faultsweep --preset tiny --strides 1,7,31
    repro-ssd presets
    repro-ssd policies
    repro-ssd policy-grid --io-count 1000 --jobs 4
    repro-ssd infer --seed 7
    repro-ssd transparency --points 8 --jobs 4
    repro-ssd fleet --devices 1000 --mix default --jobs 4
    repro-ssd fleet --devices 256 --campaign default --afr 0.5 --keep-going
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis.report import format_table
from repro.analysis.stats import summarize_latencies
from repro.fleet.spec import TENANT_MIXES
from repro.ssd.presets import PRESETS


def _preset(name: str, scale: int):
    try:
        return PRESETS[name](scale=scale)
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise SystemExit(f"unknown preset {name!r}; known: {known}")


def _int_at_least(minimum: int):
    """An ``argparse`` type: an int, a usage error below *minimum*."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    parse.__name__ = f"int >= {minimum}"  # argparse: "invalid <name> value"
    return parse


#: every request-count, request-size and queue-depth option: a job of
#: zero requests (or zero sectors, or depth 0) is a usage error, not a
#: ``JobSpec`` traceback.
_positive_int = _int_at_least(1)
#: every ``--seed``: numpy's generators refuse a negative seed with a
#: traceback of their own.
_non_negative_int = _int_at_least(0)


def _check_bs_fits(args, config) -> None:
    """A request larger than the device is a usage error (exit 2), not
    the address pattern's ``region smaller than one request``."""
    if args.bs > config.logical_sectors:
        print(f"repro-ssd {args.command}: --bs {args.bs} is larger than "
              f"the device ({config.logical_sectors} sectors)",
              file=sys.stderr)
        raise SystemExit(2)


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
        # e.g. --jobs 0 or REPRO_JOBS=-2: exit with the message, not a
        # traceback.
        raise SystemExit(f"repro-ssd: {exc}")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_presets(args) -> int:
    rows = []
    for name, factory in sorted(PRESETS.items()):
        config = factory(scale=args.scale)
        geometry = config.geometry
        rows.append([
            name,
            f"{config.logical_bytes / 2**20:.0f} MiB",
            geometry.channels,
            geometry.page_size,
            config.gc_policy,
            config.cache_designation,
            config.rain_stripe or "-",
            config.pslc_blocks or "-",
        ])
    print(format_table(
        ["preset", "logical", "ch", "page B", "gc", "cache", "rain", "pslc"],
        rows, title="device presets",
    ))
    return 0


def cmd_policies(args) -> int:
    """List every registered FTL policy, per design knob."""
    from repro.ssd.policy import REGISTRIES

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


def cmd_simulate(args) -> int:
    from repro.ssd.device import SimulatedSSD
    from repro.workloads.engine import run_counter
    from repro.workloads.patterns import Region
    from repro.workloads.spec import JobSpec

    config = _preset(args.preset, args.scale)
    _check_bs_fits(args, config)
    device = SimulatedSSD(config)
    job = JobSpec(
        name="cli",
        rw="randwrite" if args.pattern != "sequential" else "write",
        region=Region(0, device.num_sectors),
        bs_sectors=args.bs,
        io_count=args.writes,
        pattern=None if args.pattern in ("uniform", "sequential") else args.pattern,
        seed=args.seed,
    )
    result = run_counter(device, [job])
    print(device.smart_render())
    print(f"\nWAF (FTL pages / host pages): {result.waf:.3f}")
    print(f"GC invocations: {device.ftl.stats.gc_invocations}")
    return 0


def cmd_trace(args) -> int:
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
    from repro.workloads.source import synthetic_source

    config = _preset(args.preset, args.scale)
    _check_bs_fits(args, config)
    counter = CounterSink()
    histogram = HistogramSink()
    jsonl = JsonlSink(args.out)
    sink = TeeSink(jsonl, counter, histogram)

    def source(device, iodepth=1):
        return synthetic_source("trace", "randwrite", device.num_sectors,
                                bs_sectors=args.bs, io_count=args.writes,
                                iodepth=iodepth, seed=args.seed)

    if args.mode == "timed":
        from repro.ssd.timed import TimedSSD
        from repro.workloads.engine import run_timed

        device = TimedSSD(config)
        run_timed(device, [source(device, iodepth=args.iodepth)], sink=sink)
    else:
        from repro.ssd.device import SimulatedSSD
        from repro.workloads.engine import run_counter

        device = SimulatedSSD(config)
        run_counter(device, [source(device)], sink=sink)
    sink.close()

    print(format_table(
        ["event", "count", "metric sum"],
        counter.summarize(),
        title=f"trace event counts ({args.mode} mode, {args.writes} requests)",
    ))
    print()
    print(format_table(
        ["event", "count", "mean", "p50", "p99", "max"],
        histogram.summarize(),
        title="per-event metric distributions",
    ))
    if args.mode == "timed":
        buckets = attribute_tail(load_trace(args.out))
        if buckets:
            print()
            print(format_table(
                ["bucket", "requests", "latency (ms)", "stall (ms)",
                 "stall share"],
                [b.row() for b in buckets],
                title="write-tail attribution (cache-admission stall)",
            ))
    print(f"\ntrace: {jsonl.events_written} events -> {args.out}")
    return 0


def cmd_replay(args) -> int:
    """Replay a recorded block trace against a device preset.

    The trace is validated at load time (column shape, op kinds,
    monotonic timestamps, LBA bounds against the chosen preset); a
    malformed trace exits nonzero with the offending line named.
    """
    from repro.workloads.source import TraceSource
    from repro.workloads.trace import BlockTrace, TraceFormatError

    config = _preset(args.preset, args.scale)
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
    if args.mode == "timed":
        from repro.ssd.timed import TimedSSD
        from repro.workloads.engine import run_timed

        device = TimedSSD(config)
        result = run_timed(device, [source])
        job = result.jobs["replay"]
        summary = summarize_latencies(job.latencies_us)
        loop = (f"open loop @ recorded timeline x{args.time_scale:g}"
                if source.is_open_loop else f"closed loop qd={args.iodepth}")
        print(format_table(
            ["metric", "value"],
            [["requests", job.requests],
             ["failed", job.failed_requests],
             ["IOPS", round(job.iops)],
             ["mean (us)", summary.mean], ["p50 (us)", summary.p50],
             ["p99 (us)", summary.p99], ["max (us)", summary.max],
             ["WAF", round(result.waf, 3)]],
            title=f"trace replay on {args.preset} ({loop})",
        ))
    else:
        from repro.ssd.device import SimulatedSSD
        from repro.workloads.engine import run_counter

        device = SimulatedSSD(config)
        result = run_counter(device, [source])
        job = result.jobs["replay"]
        print(device.smart_render())
        print(f"\nreplayed {job.requests} requests "
              f"({job.sectors} sectors), WAF {result.waf:.3f}")
    return 0


def cmd_engine(args) -> int:
    """Run YCSB mixes through the storage engines, one cached cell per
    engine x mix, and show how engine structure lands on the device."""
    from repro.engines import (
        ENGINES,
        YCSB_MIXES,
        EngineRunCell,
        run_engine_cell,
        ycsb_spec_for_device,
    )
    from repro.exp import Cell

    def axis(raw, known, what):
        picked = tuple(s.strip() for s in raw.split(",") if s.strip())
        for name in picked:
            if name not in known:
                raise SystemExit(f"engine: unknown {what} {name!r}; "
                                 f"known: {', '.join(sorted(known))}")
        return picked

    engines = axis(args.engines, ENGINES, "engine")
    mixes = axis(args.mixes, YCSB_MIXES, "mix")
    config = _preset(args.preset, args.scale)
    if args.alloc:
        config = config.with_changes(allocation_scheme=args.alloc)

    cells = []
    for engine in engines:
        for mix in mixes:
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
    from repro.workloads.patterns import Region
    from repro.workloads.spec import JobSpec

    if args.submission == "open" and args.rate <= 0:
        print("latency: --submission open needs --rate > 0 (IOPS)")
        return 1
    config = _preset(args.preset, args.scale)
    _check_bs_fits(args, config)
    job = JobSpec("cli", "randwrite", Region(0, config.logical_sectors),
                  bs_sectors=args.bs, io_count=args.writes,
                  iodepth=args.iodepth, seed=args.seed,
                  submission=args.submission, rate_iops=args.rate,
                  arrival=args.arrival)
    runner = _make_runner(args)
    cell = Cell(run_timed_job_cell, TimedJobCell(config, job), label="cli:latency")
    [result] = runner.run([cell])
    job_result = result.jobs["cli"]
    summary = summarize_latencies(job_result.latencies_us)
    loop = (f"open loop @ {args.rate:g} IOPS ({args.arrival})"
            if args.submission == "open" else f"closed loop qd={args.iodepth}")
    print(format_table(
        ["metric", "value"],
        [["IOPS", round(job_result.iops)],
         ["mean (us)", summary.mean], ["p50 (us)", summary.p50],
         ["p99 (us)", summary.p99], ["p99.9 (us)", summary.p999],
         ["max (us)", summary.max]],
        title=f"timed random writes on {args.preset} ({loop})",
    ))
    print(runner.describe())
    return 0


def cmd_nand_page(args) -> int:
    from repro.core.blackbox.nand_page import sequential_write_sweep
    from repro.ssd.device import SimulatedSSD

    device = SimulatedSSD(_preset(args.preset, args.scale))
    estimate = sequential_write_sweep(device)
    print(format_table(
        ["host write (KiB)", "NAND pages", "bytes/page"],
        [[p.write_bytes // 1024, p.nand_pages, round(p.bytes_per_page)]
         for p in estimate.points],
        title="Fig 4a — sequential write sweep",
    ))
    print(f"\nconverged: {estimate.converged_bytes_per_page / 1024:.1f} KiB/page")
    return 0


def cmd_waf_study(args) -> int:
    from repro.core.blackbox.waf import run_waf_study

    runner = _make_runner(args)
    study = run_waf_study(
        config=_preset(args.preset, args.scale),
        io_count=args.io_count,
        runner=runner,
    )
    rows = [[w.name, w.requests, round(w.waf, 3)] for w in study.separate]
    rows.append(["expected mixed", "-", round(study.expected_mixed_waf, 3)])
    rows.append(["measured mixed", "-", round(study.measured_mixed_waf, 3)])
    print(format_table(["workload", "requests", "WAF"], rows,
                       title="Fig 4b — WAF extrapolation study"))
    print(f"\nextrapolation error: {study.extrapolation_error:.2f}x")
    print(runner.describe())
    return 0


def cmd_fidelity(args) -> int:
    from repro.core.modeling.fidelity import run_fidelity_study
    from repro.ssd.presets import mqsim_baseline

    runner = _make_runner(args)
    study = run_fidelity_study(
        mqsim_baseline(scale=args.scale),
        block_sizes_sectors=(1, 4),
        io_count=args.io_count,
        runner=runner,
    )
    rows = []
    for bs in study.block_sizes():
        for variant in study.variants():
            result = study.of(variant, bs)
            rows.append([f"{bs * 4}K", variant,
                         round(result.summary.p50, 1),
                         round(result.summary.p99, 1),
                         round(result.summary.p999, 1)])
    print(format_table(
        ["request", "variant", "p50 (us)", "p99 (us)", "p99.9 (us)"],
        rows, title="Fig 3 — FTL variants",
    ))
    for bs in study.block_sizes():
        print(f"\np99 spread at {bs * 4}K: {study.p99_spread(bs):.2f}x")
    print(runner.describe())
    return 0


def cmd_policy_grid(args) -> int:
    """Sweep the GC × cache-designation × allocation cross product."""
    from repro.core.modeling.policy_grid import (
        GRID_ALLOCATION_POLICIES,
        GRID_CACHE_DESIGNATIONS,
        GRID_GC_POLICIES,
        grid_rows,
        run_policy_grid,
    )
    from repro.ssd.presets import mqsim_baseline

    def axis(raw, default):
        return tuple(s.strip() for s in raw.split(",") if s.strip()) \
            if raw else default

    base = mqsim_baseline(scale=args.scale)
    _check_bs_fits(args, base)
    runner = _make_runner(args)
    study = run_policy_grid(
        base,
        block_sizes_sectors=(args.bs,),
        io_count=args.io_count,
        gc_policies=axis(args.gc, GRID_GC_POLICIES),
        designations=axis(args.cache, GRID_CACHE_DESIGNATIONS),
        allocations=axis(args.alloc, GRID_ALLOCATION_POLICIES),
        runner=runner,
    )
    rows = [
        [r["gc_policy"], r["cache_designation"], r["allocation"],
         round(r["p50_us"], 1), round(r["p99_us"], 1),
         round(r["p999_us"], 1), round(r["iops"])]
        for r in sorted(grid_rows(study), key=lambda r: r["p99_us"])
    ]
    print(format_table(
        ["gc", "cache", "alloc", "p50 (us)", "p99 (us)", "p99.9 (us)",
         "IOPS"],
        rows,
        title=f"policy design grid ({len(rows)} points, "
              f"{args.bs * 4}K random writes)",
    ))
    print(f"\np99 spread across the grid: {study.p99_spread(args.bs):.2f}x")
    print(runner.describe())
    return 0


def cmd_infer(args) -> int:
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
    headers = ["knob", "truth"] + [r.mode for r in results]
    print(format_table(headers, rows,
                       title=f"policy inference (seed {args.seed}: "
                             f"{point.label()})"))
    for result in results:
        print()
        print(result.transcript)
    return 0


def cmd_transparency(args) -> int:
    """Scored round-trip sweep over N random policy-grid points."""
    from repro.infer import run_transparency_sweep

    runner = _make_runner(args)
    score = run_transparency_sweep(args.points, seed=args.seed,
                                   runner=runner)
    print(score.render())
    if score.graybox_total > score.blackbox_total:
        print("\ngray-box access recovers strictly more than the "
              "host interface — the paper's transparency gap, measured.")
    print(runner.describe())
    return 0


def cmd_compression(args) -> int:
    from repro.ssd.compression import make_scheme
    from repro.workloads.compressibility import REGIMES, CompressibilityModel
    from repro.workloads.oltp import OltpWorkload, flash_writes_per_transaction

    names = ["re-bp32", "compact", "fixed", "chunk4", "none"]
    rates = {
        name: flash_writes_per_transaction(
            make_scheme(name), OltpWorkload(seed=1),
            CompressibilityModel(REGIMES[args.regime], seed=1),
            args.transactions,
        )
        for name in names
    }
    baseline = rates["re-bp32"]
    print(format_table(
        ["scheme", "writes/txn", "normalized"],
        [[n, round(rates[n], 3), round(rates[n] / baseline, 3)] for n in names],
        title=f"Fig 2 — compression schemes ({args.regime})",
    ))
    return 0


def cmd_jtag_study(args) -> int:
    from repro.core.jtag.discovery import run_full_study
    from repro.ssd.firmware.device import HackableSSD

    device = HackableSSD(scale=args.scale)
    report = run_full_study(device)
    print(format_table(["finding", "value"], report.rows(),
                       title="Fig 6 / §3.2 — JTAG study"))
    return 0


def cmd_probe_features(args) -> int:
    from repro.core.blackbox.ssdcheck import (
        detect_checkpoint_interval,
        detect_write_buffer,
    )
    from repro.ssd.presets import vertex2_like
    from repro.ssd.timed import TimedSSD

    config = vertex2_like(scale=args.scale).with_changes(
        cache_sectors=args.cache_sectors,
    )
    buffer_probe = detect_write_buffer(TimedSSD(config))
    interval_probe = detect_checkpoint_interval(TimedSSD(config),
                                                writes=args.writes)
    print(format_table(
        ["feature", "estimate", "actual"],
        [["write buffer (sectors)", buffer_probe.estimated_sectors,
          config.cache_sectors],
         ["checkpoint interval (writes)", interval_probe.estimated_interval,
          config.mapping_sync_interval]],
        title="SSDCheck-style black-box probes",
    ))
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

    try:
        strides = sorted({int(s) for s in args.strides.split(",") if s.strip()})
    except ValueError:
        print(f"faultsweep: bad --strides {args.strides!r} (want e.g. 1,7,31)")
        return 1
    if not strides or strides[0] < 1:
        print("faultsweep: strides must be positive integers")
        return 1

    config = _preset(args.preset, args.scale)
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
        for stride in strides
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


def _fleet_only(spec, selector: str) -> int:
    """Serial deep-dive on one device (or a range): the path the
    CellError / FleetDeviceError repro one-liners point at."""
    from repro.fleet import FailedDevice, simulate_device

    try:
        if ":" in selector:
            lo_text, hi_text = selector.split(":", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = int(selector)
            hi = lo + 1
    except ValueError:
        print(f"fleet: bad --only {selector!r} (want N or LO:HI)")
        return 1
    if not 0 <= lo < hi <= spec.devices:
        print(f"fleet: --only [{lo}, {hi}) outside 0..{spec.devices}")
        return 1

    rows = []
    crashed: list[FailedDevice] = []
    for index in range(lo, hi):
        try:
            device = simulate_device(spec, index)
        except Exception as exc:  # the whole point of --only is triage
            crashed.append(FailedDevice(index, spec.device_seed(index),
                                        f"{type(exc).__name__}: {exc}"))
            continue
        events = ", ".join(f"{kind}@op{op}"
                           for kind, _, op in device.fault_events[:4])
        if len(device.fault_events) > 4:
            events += f", ... ({len(device.fault_events)} total)"
        rows.append([
            index, device.seed,
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

    if args.devices < 1:
        print("fleet: --devices must be >= 1")
        return 1
    if args.shards is not None and args.shards < 1:
        print("fleet: --shards must be >= 1")
        return 1
    if args.rate_scale <= 0:
        print("fleet: --rate-scale must be > 0")
        return 1

    campaign = None
    if args.campaign != "none":
        campaign = CAMPAIGNS[args.campaign]
        if args.afr is not None:
            from dataclasses import replace
            campaign = replace(campaign, afr=args.afr)
    elif args.afr is not None:
        print("fleet: --afr needs --campaign (default|infant|wearout)")
        return 1

    tenants = TENANT_MIXES[args.mix](rate_scale=args.rate_scale,
                                     io_count=args.io_count)
    try:
        spec = FleetSpec(tenants=tenants, devices=args.devices,
                         preset=args.preset, scale=args.scale,
                         seed=args.seed, campaign=campaign)
    except ValueError as exc:
        print(f"fleet: {exc}")
        return 1

    if args.only is not None:
        return _fleet_only(spec, args.only)

    runner = _make_runner(args)
    if runner.cache is not None:
        from repro.fleet import (
            cached_shard_count,
            load_fleet_manifest,
            write_fleet_manifest,
        )

        if args.resume:
            stored = load_fleet_manifest(spec, runner.cache, args.shards,
                                         keep_going=args.keep_going)
            if stored is None:
                print("fleet: no manifest for this exact run yet "
                      "(starting fresh)")
            else:
                cached = cached_shard_count(runner.cache, stored)
                print(f"fleet: resume — {cached}/{len(stored['cells'])} "
                      f"shards already cached")
        write_fleet_manifest(spec, runner.cache, args.shards,
                             keep_going=args.keep_going)
    elif args.resume:
        print("fleet: --resume needs the result cache (drop --no-cache)")
        return 1

    started = time.perf_counter()
    try:
        report = run_fleet(spec, runner, shards=args.shards,
                           keep_going=args.keep_going)
    except (CellError, ValueError) as exc:
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
# Parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ssd",
        description="SSD performance-transparency studies (HotOS '19 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, preset_default="mx500"):
        p.add_argument("--preset", default=preset_default,
                       help=f"device preset (default {preset_default})")
        p.add_argument("--scale", type=int, default=2,
                       help="geometry down-scale factor (default 2)")
        p.add_argument("--seed", type=_non_negative_int, default=42)

    def parallel(p):
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: REPRO_JOBS or CPU count)")
        p.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk result cache")

    p = sub.add_parser("presets", help="list device presets")
    p.add_argument("--scale", type=int, default=2)
    p.set_defaults(fn=cmd_presets)

    p = sub.add_parser("policies",
                       help="list registered FTL policies per design knob")
    p.set_defaults(fn=cmd_policies)

    p = sub.add_parser("simulate", help="counter-mode workload + SMART")
    common(p)
    p.add_argument("--writes", type=_positive_int, default=20_000)
    p.add_argument("--bs", type=_positive_int, default=1,
                   help="request size in sectors")
    p.add_argument("--pattern", default="uniform",
                   choices=["uniform", "sequential", "hotcold", "zipf"])
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("trace",
                       help="run a workload with the observability layer "
                            "attached; write a JSONL event trace")
    common(p, preset_default="tiny")
    p.add_argument("--writes", type=_positive_int, default=4_000)
    p.add_argument("--bs", type=_positive_int, default=1,
                   help="request size in sectors")
    p.add_argument("--mode", default="timed", choices=["timed", "counter"])
    p.add_argument("--iodepth", type=_positive_int, default=4)
    p.add_argument("--out", default="trace.jsonl",
                   help="JSONL trace output path (default trace.jsonl)")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("replay",
                       help="replay a recorded block trace (validated at "
                            "load; exits nonzero on a malformed trace)")
    common(p, preset_default="tiny")
    p.add_argument("--trace", required=True,
                   help="block-trace CSV (op,lba,sectors,at_us)")
    p.add_argument("--time-scale", type=float, default=1.0,
                   help="arrival-time multiplier: > 1 slows the trace "
                        "down, < 1 speeds it up (default 1)")
    p.add_argument("--mode", default="timed", choices=["timed", "counter"])
    p.add_argument("--submission", default="open",
                   choices=["open", "closed"],
                   help="open loop at the recorded timeline, or closed "
                        "loop at --iodepth (default open)")
    p.add_argument("--iodepth", type=_positive_int, default=1)
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("engine",
                       help="YCSB mixes through the LSM / B-tree storage "
                            "engines, one cached cell per engine x mix")
    common(p, preset_default="mqsim")
    p.add_argument("--engines", default="lsm,btree",
                   help="comma-separated engine axis (default lsm,btree)")
    p.add_argument("--mixes", default="a,b,c",
                   help="comma-separated YCSB mix axis (default a,b,c)")
    p.add_argument("--alloc", default="",
                   help="allocation_scheme override (e.g. hotcold)")
    p.add_argument("--records", type=int, default=0,
                   help="key count (default: sized to the device)")
    p.add_argument("--ops", type=int, default=0,
                   help="run-phase operations (default: 4x records)")
    p.add_argument("--value-sectors", type=int, default=1)
    p.add_argument("--iodepth", type=_positive_int, default=1)
    parallel(p)
    p.set_defaults(fn=cmd_engine)

    p = sub.add_parser("latency", help="timed workload, latency percentiles")
    common(p)
    p.add_argument("--writes", type=_positive_int, default=8_000)
    p.add_argument("--bs", type=_positive_int, default=1)
    p.add_argument("--iodepth", type=_positive_int, default=4)
    p.add_argument("--submission", default="closed",
                   choices=["closed", "open"],
                   help="closed loop (iodepth) or open loop (arrival rate)")
    p.add_argument("--rate", type=float, default=0.0,
                   help="open-loop arrival rate in IOPS")
    p.add_argument("--arrival", default="poisson",
                   choices=["poisson", "fixed"],
                   help="open-loop inter-arrival distribution")
    parallel(p)
    p.set_defaults(fn=cmd_latency)

    p = sub.add_parser("nand-page", help="Fig 4a NAND-page estimation")
    common(p)
    p.set_defaults(fn=cmd_nand_page)

    p = sub.add_parser("waf-study", help="Fig 4b WAF extrapolation study")
    common(p)
    p.add_argument("--io-count", type=_positive_int, default=12_000)
    parallel(p)
    p.set_defaults(fn=cmd_waf_study)

    p = sub.add_parser("fidelity", help="Fig 3 FTL-variant latency study")
    p.add_argument("--scale", type=int, default=4)
    p.add_argument("--io-count", type=_positive_int, default=2_000)
    parallel(p)
    p.set_defaults(fn=cmd_fidelity)

    p = sub.add_parser("policy-grid",
                       help="sweep the GC x cache x allocation policy grid")
    p.add_argument("--scale", type=int, default=4)
    p.add_argument("--io-count", type=_positive_int, default=2_000)
    p.add_argument("--bs", type=_positive_int, default=1,
                   help="request size in sectors")
    p.add_argument("--gc", default="",
                   help="comma-separated gc_policy axis override")
    p.add_argument("--cache", default="",
                   help="comma-separated cache_designation axis override")
    p.add_argument("--alloc", default="",
                   help="comma-separated allocation axis override")
    parallel(p)
    p.set_defaults(fn=cmd_policy_grid)

    p = sub.add_parser("infer",
                       help="recover the six policy knobs from one "
                            "firmware image (black-box + gray-box)")
    p.add_argument("--seed", type=_non_negative_int, default=42,
                   help="selects the random policy-grid point")
    p.add_argument("--mode", default="both",
                   choices=["both", "blackbox", "graybox"])
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("transparency",
                       help="per-knob recovery-rate score over N random "
                            "policy points")
    p.add_argument("--points", type=int, default=8)
    p.add_argument("--seed", type=_non_negative_int, default=42)
    parallel(p)
    p.set_defaults(fn=cmd_transparency)

    p = sub.add_parser("compression", help="Fig 2 compression schemes")
    p.add_argument("--regime", default="high",
                   choices=["high", "moderate", "incompressible"])
    p.add_argument("--transactions", type=int, default=3_000)
    p.set_defaults(fn=cmd_compression)

    p = sub.add_parser("jtag-study", help="Fig 6 / §3.2 JTAG RE study")
    p.add_argument("--scale", type=int, default=2)
    p.set_defaults(fn=cmd_jtag_study)

    p = sub.add_parser("faultsweep",
                       help="crash-consistency sweep: power-cut at every "
                            "k-th host op, recover, audit durability")
    common(p, preset_default="tiny")
    p.add_argument("--ops", type=int, default=2_000,
                   help="host operations in the sweep workload")
    p.add_argument("--strides", default="1,7,31",
                   help="comma-separated cut strides (default 1,7,31)")
    p.add_argument("--fault-rate", type=float, default=0.0,
                   help="per-candidate program/erase fail probability "
                        "(default 0: crash-only sweep)")
    parallel(p)
    p.set_defaults(fn=cmd_faultsweep)

    p = sub.add_parser("fleet",
                       help="fleet-scale sharded simulation: thousands of "
                            "devices, merged per-tenant SLO verdicts")
    common(p, preset_default="tiny")
    p.add_argument("--devices", type=int, default=256,
                   help="fleet size (default 256)")
    p.add_argument("--shards", type=int, default=None,
                   help="shard count (default: devices/32, independent "
                        "of --jobs)")
    p.add_argument("--mix", default="default",
                   choices=sorted(TENANT_MIXES),
                   help="built-in tenant mix (default: default)")
    p.add_argument("--io-count", type=_positive_int, default=150,
                   help="requests per tenant per device (default 150)")
    p.add_argument("--rate-scale", type=float, default=1.0,
                   help="multiplier on every tenant arrival rate")
    p.add_argument("--campaign", default="none",
                   choices=["none", "default", "infant", "wearout"],
                   help="fault campaign over the fleet (default: none)")
    p.add_argument("--afr", type=float, default=None,
                   help="override the campaign's annualized failure rate")
    p.add_argument("--keep-going", action="store_true",
                   help="isolate per-device/per-shard failures into the "
                        "report instead of aborting the run")
    p.add_argument("--resume", action="store_true",
                   help="report how many shards of this exact run are "
                        "already cached before running the rest")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-cell wall-clock watchdog in seconds "
                        "(default: none)")
    p.add_argument("--only", default=None, metavar="N|LO:HI",
                   help="serial deep-dive on one device (or range) "
                        "instead of the sharded fleet run")
    parallel(p)
    p.set_defaults(fn=cmd_fleet)

    p = sub.add_parser("probe-features", help="SSDCheck-style latency probes")
    p.add_argument("--scale", type=int, default=2)
    p.add_argument("--cache-sectors", type=int, default=128)
    p.add_argument("--writes", type=_positive_int, default=8_000)
    p.set_defaults(fn=cmd_probe_features)

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
