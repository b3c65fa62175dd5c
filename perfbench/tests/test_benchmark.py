"""The contract: names, BENCHMARK.json, instrumentation, --quick."""

import json
import re
import subprocess
import sys

import pytest

from perfbench import ROOT, metrics, report
from perfbench.__main__ import main
from perfbench.spans import Tracer
from perfbench.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_and_units_are_well_formed():
    names = ([w for w in WORKLOADS]
             + [x.name for x in metrics.END_TO_END + metrics.PER_LAYER])
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in metrics.END_TO_END + metrics.PER_LAYER:
        assert UNIT.fullmatch(metric.unit), metric
        assert metric.better in ("lower", "higher"), metric
    for workload in WORKLOADS.values():
        assert 0 < len(workload.why) <= 200 and "\n" not in workload.why


def test_manifest_lists_exactly_what_the_code_declares(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["perfbench"]
    assert manifest["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert manifest["end_to_end"] == [
        {"name": x.name, "unit": x.unit, "better": x.better, "bound": x.bound}
        for x in metrics.END_TO_END]
    assert manifest["per_layer"] == [
        {"name": x.name, "unit": x.unit, "better": x.better}
        for x in metrics.PER_LAYER]
    assert all(0 < x["bound"] <= 0.25 for x in manifest["end_to_end"])
    setup = [x for x in manifest["end_to_end"] if x["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(x["bound"] for x in manifest["end_to_end"])}]


def test_instrumenting_a_device_is_undone_completely():
    workload = WORKLOADS["waf_mix_counter"]
    state = workload.setup(seed=3)
    device = state.device
    watched = [device, device.ftl, device.ftl.mapping, device.ftl.allocator,
               device.ftl.selector, device.ftl.nand]
    before = [set(vars(obj)) for obj in watched]   # instance attribute names
    tracer = Tracer()
    workload.instrument(state, tracer)
    assert "write" in vars(device.ftl) and "program" in vars(device.ftl.nand)
    workload.summarize(state, workload.run_slice(state, 3, 0, tracer))
    assert tracer.totals()["ssd.ftl"].calls > 0
    tracer.restore()
    assert [set(vars(obj)) for obj in watched] == before
    assert device.ftl.write.__func__ is type(device.ftl).write
    spans = len(tracer)
    workload.run_slice(state, 3, 1)
    assert len(tracer) == spans


def test_timed_resources_are_traced_and_restored():
    from repro.sim.kernel import Resource

    workload = WORKLOADS["randread_chunked"]
    device = workload.make_device()
    state = type("State", (), {"device": device, "sink": None})()
    tracer = Tracer()
    workload.instrument(state, tracer)
    resources = list(device.kernel.resources.values())
    assert resources and all(type(r) is not Resource for r in resources)
    tracer.restore()
    assert all(type(r) is Resource for r in resources)
    assert "submit" not in vars(device)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_run_prints_the_declared_metrics_in_both_modes(manifest):
    def run(trace):
        done = subprocess.run(
            [sys.executable, "-m", "perfbench", "run", "--workload",
             "waf_mix_counter", "--seed", "5", "--seconds", "1", "--trace",
             str(trace), "--slices", "3", "--setups", "1"],
            cwd=ROOT, capture_output=True, text=True)
        assert done.returncode == 0, done.stdout + done.stderr
        return _last_json(done.stdout)

    bare, traced = run(0), run(1)
    for result in (bare, traced):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 3 * 6000
    assert list(bare["metrics"]) == [x["name"] for x in manifest["end_to_end"]]
    assert list(traced["metrics"]) == [x["name"] for x in manifest["per_layer"]]
    assert all(v["value"] > 0 for v in bare["metrics"].values())
    layers = traced["metrics"]
    assert layers["sim.fingerprint_ok"]["value"] == 1
    assert layers["bench.span_coverage"]["value"] >= 0.9
    # Counter mode has no timed device and no sim kernel under it.
    assert layers["sim.kernel.calls_per_op"]["value"] == 0
    assert layers["ssd.timed.self_cu_per_op"]["value"] == 0
    assert layers["ssd.device.self_cu_per_op"]["value"] > 0


def test_quick_suite_end_to_end(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(report, "RESULTS_DIR", tmp_path)
    code = main(["suite", "--quick", "--seed", "12"])
    assert code == 0, capsys.readouterr().out
    (bench,) = tmp_path.glob("BENCH_*.json")
    document = json.loads(bench.read_text())
    assert set(document["workloads"]) == set(WORKLOADS)
    assert {"nproc", "cpu_model", "python", "numpy",
            "git_revision"} <= set(document["machine"])
    for entry in document["workloads"].values():
        assert entry["failed_share"] == 0 and not entry["problems"]
        assert set(entry["end_to_end"]) == set(metrics.END_TO_END_BY_NAME)
    (line,) = (tmp_path / "ledger.jsonl").read_text().splitlines()
    assert set(json.loads(line)["workloads"]) == set(WORKLOADS)
    # The same document compared with itself is "same" on every row.
    rows, inexact = report.compare(document, document)
    assert len(rows) == len(WORKLOADS) * len(metrics.END_TO_END)
    assert not inexact and {r["verdict"] for r in rows} == {"same"}


def test_verdicts():
    metric = metrics.Metric("x", "cu/op", "lower", "a time", bound=0.10)
    assert report.verdict(metric, [100.0], [104.0])["verdict"] == "same"
    assert report.verdict(metric, [100.0], [80.0])["verdict"] == "better"
    assert report.verdict(metric, [100.0], [120.0])["verdict"] == "worse"
    noisy = [80.0, 100.0, 120.0, 140.0]
    assert report.verdict(metric, noisy, [95.0, 100.0, 118.0, 130.0])[
        "verdict"] == "unresolved"
    # Wide spread, but every run of the change beats every base run.
    assert report.verdict(metric, noisy, [40.0, 50.0, 60.0, 70.0])[
        "verdict"] == "better"
    assert report.spread_of([7.0]) is None
    assert report.spread_of([90.0, 100.0, 110.0]) == pytest.approx(0.2)
