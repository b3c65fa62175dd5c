"""Command line: ``python3 -m perfbench <run|suite|compare|selfcheck>``."""

from __future__ import annotations

import time

_PROCESS_STARTED = time.perf_counter()

import argparse
import sys

from perfbench import add_simulator_to_path


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench",
                                     description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="one workload in this process; the last line printed is "
                    "the JSON result (the BENCHMARK.json command)")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, default=11)
    run.add_argument("--seconds", type=float, default=10.0,
                     help="length of the timed section on the reference "
                          "sandbox; converted to a fixed number of slices")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="0: end-to-end metrics; 1: per-layer metrics")
    run.add_argument("--slices", type=int, default=None,
                     help="run exactly this many slices instead")
    run.add_argument("--setups", type=int, default=3,
                     help="set-ups whose median is setup_s (--trace 0)")

    suite = commands.add_parser(
        "suite", help="every workload, untraced then traced, each in a fresh "
                      "subprocess; writes BENCH_<rev>.json and the ledger")
    selfcheck = commands.add_parser(
        "selfcheck", help="two suites of the same code back to back, compared")
    for sub in (suite, selfcheck):
        sub.add_argument("--seed", type=int, default=11)
        sub.add_argument("--workloads", default=None,
                         help="comma-separated subset (default: all)")
        sub.add_argument("--seconds", type=float, default=10.0)
        sub.add_argument("--slices", type=int, default=None)
        sub.add_argument("--repeat", type=int, default=1,
                         help="untraced runs per workload (their spread "
                              "decides 'unresolved' in compare)")
        sub.add_argument("--quick", action="store_true",
                         help="3 slices, no trace: the smoke test")
        sub.add_argument("--no-trace", action="store_true")

    compare = commands.add_parser(
        "compare", help="A.json B.json: per workload x end-to-end metric, "
                        "both values, ratio, bound and verdict")
    compare.add_argument("base")
    compare.add_argument("change")
    return parser


def _run(args) -> int:
    add_simulator_to_path()
    from perfbench import measure
    from perfbench.report import print_result
    from perfbench.workloads import WORKLOADS
    import_s = time.perf_counter() - _PROCESS_STARTED

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"known: {', '.join(WORKLOADS)}")
    if args.trace:
        slices = args.slices or workload.trace_slices
        result = measure.measure_per_layer(workload, args.seed, slices)
    else:
        slices = args.slices or measure.slices_for(workload, args.seconds)
        result = measure.measure_end_to_end(workload, args.seed, slices,
                                            import_s, setups=args.setups)
    print_result(result)
    return 0 if result.correct else 1


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "run":
        return _run(args)
    from perfbench import report
    if args.command == "compare":
        return report.compare_files(args.base, args.change)
    if args.command == "suite":
        return report.suite(args)
    return report.selfcheck(args)


if __name__ == "__main__":
    sys.exit(main())
