"""Printing, the suite driver, the ledger, and the comparison rule.

``suite`` runs every workload in its own fresh subprocess, one at a
time (``run --trace 0``, then ``run --trace 1``), checks the simulated
fingerprints of the two agree, prints every metric by name and unit,
writes ``results/BENCH_<rev>.json`` with a machine stamp and appends a
one-line summary to ``results/ledger.jsonl``.

``compare`` is the rule later performance issues are judged by: per
workload and end-to-end metric, both medians, their ratio with its base,
the bound, and a verdict of better / same / worse / unresolved.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench import RESULTS_DIR, ROOT, metrics as m

DETAIL_PREFIX = "perfbench-detail "


# ----------------------------------------------------------------------
# One run's output
# ----------------------------------------------------------------------


def print_result(result) -> None:
    """Human-readable metrics, then the detail line, then — last — the
    one-line JSON result the benchmark contract asks for."""
    detail = result.detail
    print(f"# {detail['workload']} seed={detail['seed']} "
          f"trace={detail['trace']} slices={detail['slices']} "
          f"ops={detail['ops']}")
    for name, entry in result.metrics.items():
        print(f"{name:<42} {entry['value']:>16.6g} {entry['unit']}")
    for problem in detail["problems"]:
        print(f"PROBLEM: {problem}")
    print(DETAIL_PREFIX + json.dumps(detail))
    print(result.result_line(), flush=True)


def _run_child(workload: str, seed: int, trace: int, seconds: float,
               slices: int | None, setups: int = 3) -> tuple[dict, dict]:
    """Run ``perfbench run`` in a fresh subprocess; returns its result
    line and its detail line, parsed."""
    command = [sys.executable, "-m", "perfbench", "run",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--setups", str(setups)]
    if slices is not None:
        command += ["--slices", str(slices)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith(DETAIL_PREFIX):
        raise RuntimeError(
            f"{' '.join(command)} exited {done.returncode} without a "
            f"result:\n{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2][len(DETAIL_PREFIX):])


# ----------------------------------------------------------------------
# Machine stamp
# ----------------------------------------------------------------------


def git_revision() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "nogit"
    return done.stdout.strip() if done.returncode == 0 else "nogit"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_stamp() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(),
    }


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------


def run_suite(args) -> dict:
    """Run the selected workloads; returns the BENCH document."""
    from perfbench import add_simulator_to_path
    add_simulator_to_path()
    from perfbench.measure import MIN_SLICES
    from perfbench.workloads import WORKLOADS

    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise SystemExit(f"perfbench: unknown workloads {unknown}; "
                         f"known: {', '.join(WORKLOADS)}")
    slices = MIN_SLICES if args.quick else args.slices
    traced = not (args.quick or args.no_trace)

    document = {
        "machine": machine_stamp(), "seed": args.seed,
        "seconds": args.seconds, "slices": slices, "workloads": {},
    }
    for name in names:
        entry = document["workloads"][name] = {
            "end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0,
            "problems": [], "cu_ns": [],
        }
        first_detail = None
        for _ in range(max(1, args.repeat)):
            result, detail = _run_child(
                name, args.seed, 0, args.seconds, slices,
                setups=1 if args.quick else 3)
            first_detail = first_detail or detail
            for metric, value in result["metrics"].items():
                entry["end_to_end"].setdefault(metric, []).append(value["value"])
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["problems"] += detail["problems"]
            entry["cu_ns"].append(detail["bench.cu_ns"])
            entry["slices"] = detail["slices"]
        if traced:
            result, detail = _run_child(name, args.seed, 1, args.seconds,
                                        None)
            entry["per_layer"] = {k: v["value"]
                                  for k, v in result["metrics"].items()}
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["problems"] += detail["problems"]
            # Both runs replay the same first slices from the same seed.
            shared = min(len(detail["fingerprints"]),
                         len(first_detail["fingerprints"]))
            differ = [i for i in range(shared)
                      if detail["fingerprints"][i]
                      != first_detail["fingerprints"][i]]
            if differ:
                entry["problems"].append(
                    f"slices {differ} simulate differently in the untraced "
                    f"and traced runs")
                entry["failed"] += len(differ) * (first_detail["ops"]
                                                  // first_detail["slices"])
        entry["failed_share"] = entry["failed"] / max(entry["attempted"], 1)
        _print_workload(name, entry)
    return document


def _print_workload(name: str, entry: dict) -> None:
    print(f"\n== {name}: {entry['slices']} slices, "
          f"failed_share {entry['failed_share']:.6g} ==")
    for metric in m.END_TO_END:
        values = entry["end_to_end"][metric.name]
        shown = statistics.median(values)
        runs = f"  (median of {len(values)})" if len(values) > 1 else ""
        print(f"{metric.name:<42} {shown:>16.6g} {metric.unit}{runs}")
    for metric in m.PER_LAYER:
        if metric.name in entry["per_layer"]:
            print(f"{metric.name:<42} "
                  f"{entry['per_layer'][metric.name]:>16.6g} {metric.unit}")
    for problem in entry["problems"]:
        print(f"PROBLEM: {problem}")


def _write_bench(document: dict) -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    revision = document["machine"]["git_revision"]
    path = RESULTS_DIR / f"BENCH_{revision}.json"
    with open(path, "w") as fh:
        json.dump(document, fh, indent=1)
    summary = {
        "at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        **document["machine"], "seed": document["seed"],
        "workloads": {
            name: {"slices": entry["slices"],
                   "cu_ns": statistics.median(entry["cu_ns"]),
                   "cu_per_op": statistics.median(
                       entry["end_to_end"]["cu_per_op"]),
                   "failed_share": entry["failed_share"]}
            for name, entry in document["workloads"].items()
        },
    }
    with open(RESULTS_DIR / "ledger.jsonl", "a") as fh:
        fh.write(json.dumps(summary) + "\n")
    return path


def _suite_ok(document: dict) -> bool:
    return not any(entry["problems"] or entry["failed"]
                   for entry in document["workloads"].values())


def suite(args) -> int:
    document = run_suite(args)
    path = _write_bench(document)
    print(f"\nwrote {path} and appended to {path.parent / 'ledger.jsonl'}")
    return 0 if _suite_ok(document) else 1


# ----------------------------------------------------------------------
# compare / selfcheck
# ----------------------------------------------------------------------


def spread_of(values: list[float]) -> float | None:
    """Run-to-run spread as a share of the median: the distance between
    the quartiles with four or more runs, the full range with two or
    three, unknown with one."""
    if len(values) < 2:
        return None
    middle = statistics.median(values)
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / middle
    return (max(values) - min(values)) / middle


def verdict(metric: m.Metric, base: list[float], change: list[float]) -> dict:
    """One row of the comparison.

    *worse* / *better*: the change's median moved by more than the
    metric's bound.  *unresolved*: either side's run-to-run spread is
    wider than the bound, so a move of that size cannot be told from
    noise — unless every run of one side beats every run of the other.
    """
    a, b = statistics.median(base), statistics.median(change)
    ratio = b / a if a else float("inf")
    gain = (1.0 - ratio) if metric.better == "lower" else (ratio - 1.0)
    spreads = [s for s in (spread_of(base), spread_of(change)) if s is not None]
    spread = max(spreads) if spreads else None
    if metric.better == "lower":
        all_better = max(change) < min(base)
        all_worse = min(change) > max(base)
    else:
        all_better = min(change) > max(base)
        all_worse = max(change) < min(base)
    if spread is not None and spread > metric.bound and not (
            all_better or all_worse):
        word = "unresolved"
    elif gain > metric.bound:
        word = "better"
    elif gain < -metric.bound:
        word = "worse"
    else:
        word = "same"
    return {"metric": metric.name, "base": a, "change": b, "ratio": ratio,
            "bound": metric.bound, "spread": spread, "verdict": word}


def compare(base: dict, change: dict) -> tuple[list[dict], list[str]]:
    """Rows for every shared workload x end-to-end metric, plus the
    names of exact simulated values that differ."""
    rows = []
    inexact = []
    for name, a in base["workloads"].items():
        b = change["workloads"].get(name)
        if b is None:
            continue
        for metric in m.END_TO_END:
            row = verdict(metric, a["end_to_end"][metric.name],
                          b["end_to_end"][metric.name])
            rows.append({"workload": name, **row})
        for key, value in a["per_layer"].items():
            if (m.PER_LAYER_BY_NAME[key].exact
                    and b["per_layer"].get(key, value) != value):
                inexact.append(f"{name}: {key} {value!r} -> "
                               f"{b['per_layer'][key]!r}")
        for side, label in ((a, "base"), (b, "change")):
            if side["failed_share"] > 0:
                inexact.append(f"{name}: failed_share "
                               f"{side['failed_share']:.6g} in {label}")
    return rows, inexact


def print_comparison(rows: list[dict], inexact: list[str],
                     base_label: str) -> None:
    print(f"{'workload':<18}{'metric':<16}{'base':>12}{'change':>12}"
          f"{'ratio':>9}{'bound':>7}{'spread':>8}  verdict")
    for row in rows:
        spread = "n/a" if row["spread"] is None else f"{row['spread']:.3f}"
        print(f"{row['workload']:<18}{row['metric']:<16}{row['base']:>12.5g}"
              f"{row['change']:>12.5g}{row['ratio']:>9.3f}{row['bound']:>7.2f}"
              f"{spread:>8}  {row['verdict']}")
    print(f"ratio = change / base, base = {base_label}")
    for line in inexact:
        print(f"DIFFERS: {line}")


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def compare_files(base_path: str, change_path: str) -> int:
    rows, inexact = compare(_load(base_path), _load(change_path))
    print_comparison(rows, inexact, base_path)
    bad = [r for r in rows if r["verdict"] == "worse"]
    return 1 if bad or inexact else 0


def selfcheck(args) -> int:
    """The same code twice: every end-to-end metric must agree within
    its own bound, and every exact simulated value must be identical."""
    first = run_suite(args)
    second = run_suite(args)
    _write_bench(second)
    rows, inexact = compare(first, second)
    print()
    print_comparison(rows, inexact, "first suite")
    agree = all(r["verdict"] == "same" for r in rows)
    ok = agree and not inexact and _suite_ok(first) and _suite_ok(second)
    print("selfcheck: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1
