"""CLI smoke tests: every subcommand runs and prints its table."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.report import format_table
from repro.cli import build_parser, main

#: Every subcommand registered in cli.py.  TestCommands must smoke each
#: one (test_every_subcommand_has_smoke_coverage enforces it).
ALL_SUBCOMMANDS = [
    "presets", "simulate", "trace", "latency", "nand-page", "waf-study",
    "fidelity", "compression", "jtag-study", "probe-features", "faultsweep",
    "policies", "policy-grid", "infer", "transparency", "fleet",
    "replay", "engine",
]


def _options(*names):
    """Every (subcommand, option) pair offering one of *names*."""
    subparsers = build_parser()._subparsers._group_actions[0].choices
    return [(command, option)
            for command, parser in sorted(subparsers.items())
            for action in parser._actions
            for option in action.option_strings
            if option in names]


def _data_lines(headers, rows):
    """The data lines of a table, rendered the way the CLI renders it."""
    return format_table(headers, rows).splitlines()[2:]


def _runner():
    """The runner the CLI builds, minus its worker pool: same result
    cache, so a study the CLI just ran is read back, not rerun."""
    from repro.exp import ResultCache, Runner

    return Runner(jobs=1, cache=ResultCache())


def _count_options():
    """Every (subcommand, option) pair that sets a job's request count,
    request size or queue depth."""
    return _options("--writes", "--io-count", "--bs", "--iodepth")


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_preset_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--preset", "warpdrive", "--writes", "10"])

    @pytest.mark.parametrize("command", ALL_SUBCOMMANDS)
    def test_help_available(self, command):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--help"])
        assert excinfo.value.code == 0

    def test_request_count_options_found(self):
        assert len(_options("--writes", "--io-count")) == 8
        assert len(_options("--bs")) == 4
        assert len(_options("--iodepth")) == 4
        assert len(_options("--seed")) == 11

    @pytest.mark.parametrize("count", ["0", "-3"])
    @pytest.mark.parametrize("command, option", _count_options())
    def test_request_count_must_be_positive(self, command, option, count,
                                            capsys):
        """A usage error (exit 2), not a JobSpec traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main([command, option, count])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"argument {option}: must be >= 1" in err

    @pytest.mark.parametrize("command, option", _options("--seed"))
    def test_seed_must_not_be_negative(self, command, option, capsys):
        """A usage error (exit 2), not numpy's ValueError."""
        with pytest.raises(SystemExit) as excinfo:
            main([command, option, "-1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "argument --seed: must be >= 0" in err

    @pytest.mark.parametrize("argv", [
        ["policy-grid", "--gc", "nope"],
        ["policy-grid", "--cache", "nope"],
        ["policy-grid", "--alloc", "nope"],
        ["engine", "--alloc", "nope"],
        ["engine", "--value-sectors", "0"],
        ["engine", "--records", "-5"],
        ["engine", "--ops", "-1"],
        ["compression", "--transactions", "0"],
        ["faultsweep", "--ops", "0"],
        ["fleet", "--campaign", "default", "--afr", "-1"],
        ["fleet", "--campaign", "default", "--afr", "nan"],
        ["fleet", "--campaign", "default", "--afr", "inf"],
        ["simulate", "--scale", "0"],
        ["presets", "--scale", "-1"],
        ["transparency", "--points", "0"],
        ["replay", "--trace", "t.csv", "--time-scale", "0"],
        ["replay", "--trace", "t.csv", "--time-scale", "-1"],
        ["replay", "--trace", "t.csv", "--time-scale", "nan"],
        ["fleet", "--rate-scale", "0"],
        ["fleet", "--rate-scale", "-2"],
        ["fleet", "--rate-scale", "nan"],
        ["fleet", "--rate-scale", "inf"],
        ["latency", "--submission", "open", "--rate", "nan"],
        ["latency", "--submission", "open", "--rate", "inf"],
        ["latency", "--rate", "-5"],
        ["simulate", "--preset", "nope"],
        ["fleet", "--devices", "0"],
        ["fleet", "--shards", "0"],
        ["fleet", "--timeout", "nan"],
        ["fleet", "--timeout", "-1"],
        ["latency", "--jobs", "0"],
        ["faultsweep", "--fault-rate", "2"],
        ["faultsweep", "--fault-rate", "-1"],
        ["faultsweep", "--fault-rate", "nan"],
        ["faultsweep", "--strides", "1,zap"],
        ["faultsweep", "--strides", "0"],
        ["probe-features", "--cache-sectors", "-5"],
        ["fleet", "--only", "5:2"],
        ["fleet", "--devices", "4", "--only", "9"],
        ["fleet", "--afr", "0.5"],
        ["latency", "--submission", "open"],
    ])
    def test_hostile_input_is_a_usage_error(self, argv, capsys):
        """A usage error (exit 2) naming the offending option, not a
        registry or spec traceback, a silent ``max(1, scale)``, an
        empty score or the exit 1 of a failed verdict."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "Traceback" not in err
        error = err.strip().splitlines()[-1]
        assert any(arg in error for arg in argv if arg.startswith("--"))

    @pytest.mark.parametrize("command", [c for c, _ in _options("--bs")])
    def test_request_larger_than_the_device(self, command, capsys, tmp_path):
        """One line and exit 2, not the address pattern's ValueError
        (from inside a worker cell, for latency and policy-grid)."""
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--bs", "100000", "--scale", "4",
                  *(["--out", str(tmp_path / "t.jsonl")]
                    if command == "trace" else [])])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: repro-ssd {command} ")
        assert (f"repro-ssd {command}: error: --bs 100000 is larger than "
                f"the device (") in captured.err
        assert not (tmp_path / "t.jsonl").exists()

    #: every subcommand's parsed defaults (``fn`` and ``parser`` aside),
    #: from the minimal argv: ``replay`` alone needs ``--trace``.
    DEFAULTS = {
        "presets": {"scale": 2},
        "policies": {},
        "simulate": {"preset": "mx500", "scale": 2, "seed": 42,
                     "writes": 20000, "bs": 1, "pattern": "uniform"},
        "trace": {"preset": "tiny", "scale": 2, "seed": 42, "writes": 4000,
                  "bs": 1, "mode": "timed", "iodepth": 4,
                  "out": "trace.jsonl"},
        "replay": {"preset": "tiny", "scale": 2, "seed": 42,
                   "trace": "t.csv", "time_scale": 1.0, "mode": "timed",
                   "submission": "open", "iodepth": 1},
        "engine": {"preset": "mqsim", "scale": 2, "seed": 42,
                   "engines": ("lsm", "btree"), "mixes": ("a", "b", "c"),
                   "alloc": "", "records": 0, "ops": 0, "value_sectors": 1,
                   "iodepth": 1, "jobs": None, "no_cache": False},
        "latency": {"preset": "mx500", "scale": 2, "seed": 42,
                    "writes": 8000, "bs": 1, "iodepth": 4,
                    "submission": "closed", "rate": 0.0,
                    "arrival": "poisson", "jobs": None, "no_cache": False},
        "nand-page": {"preset": "mx500", "scale": 2, "seed": 42},
        "waf-study": {"preset": "mx500", "scale": 2, "seed": 42,
                      "io_count": 12000, "jobs": None, "no_cache": False},
        "fidelity": {"scale": 4, "io_count": 2000, "jobs": None,
                     "no_cache": False},
        "policy-grid": {"scale": 4, "io_count": 2000, "bs": 1, "gc": (),
                        "cache": (), "alloc": (), "jobs": None,
                        "no_cache": False},
        "infer": {"seed": 42, "mode": "both"},
        "transparency": {"points": 8, "seed": 42, "jobs": None,
                         "no_cache": False},
        "compression": {"regime": "high", "transactions": 3000},
        "jtag-study": {"scale": 2},
        "faultsweep": {"preset": "tiny", "scale": 2, "seed": 42,
                       "ops": 2000, "strides": [1, 7, 31], "fault_rate": 0.0,
                       "jobs": None, "no_cache": False},
        "fleet": {"preset": "tiny", "scale": 2, "seed": 42, "devices": 256,
                  "shards": None, "mix": "default", "io_count": 150,
                  "rate_scale": 1.0, "campaign": "none", "afr": None,
                  "keep_going": False, "timeout": None, "only": None,
                  "jobs": None, "no_cache": False},
        "probe-features": {"scale": 2, "cache_sectors": 128,
                           "writes": 8000},
    }

    @pytest.mark.parametrize("command", ALL_SUBCOMMANDS)
    def test_parsed_defaults(self, command):
        """Each default, by value and type (``1.0`` is not ``1``)."""
        argv = [command] + (["--trace", "t.csv"] if command == "replay"
                            else [])
        parsed = vars(build_parser().parse_args(argv))
        assert parsed.pop("fn") and parsed.pop("parser")
        expected = {"command": command, **self.DEFAULTS[command]}
        assert ({k: (type(v), v) for k, v in parsed.items()}
                == {k: (type(v), v) for k, v in expected.items()})

    def test_subcommand_list_is_complete(self):
        """ALL_SUBCOMMANDS mirrors the parser registry, so adding a
        subcommand without smoke coverage fails here."""
        parser = build_parser()
        actions = [a for a in parser._subparsers._group_actions][0]
        assert sorted(actions.choices) == sorted(ALL_SUBCOMMANDS)


class TestCommands:
    def test_presets(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "mx500" in out and "evo840" in out and "vertex2" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "--preset", "tiny", "--scale", "1",
                     "--writes", "3000"]) == 0
        out = capsys.readouterr().out
        assert "FTL_Program_Page_Count" in out
        assert "WAF" in out

    def test_latency(self, capsys):
        assert main(["latency", "--preset", "tiny", "--scale", "1",
                     "--writes", "500"]) == 0
        out = capsys.readouterr().out
        assert "p99 (us)" in out
        assert "closed loop" in out

    def test_latency_open_loop(self, capsys):
        assert main(["latency", "--preset", "tiny", "--scale", "1",
                     "--writes", "500", "--submission", "open",
                     "--rate", "20000"]) == 0
        out = capsys.readouterr().out
        assert "open loop @ 20000 IOPS (poisson)" in out
        assert "p99 (us)" in out

    def test_nand_page(self, capsys):
        from repro.core.blackbox.nand_page import sequential_write_sweep
        from repro.ssd.device import SimulatedSSD
        from repro.ssd.presets import mx500_like

        assert main(["nand-page", "--preset", "mx500", "--scale", "4"]) == 0
        out = capsys.readouterr().out
        assert "bytes/page" in out
        assert "converged" in out
        estimate = sequential_write_sweep(SimulatedSSD(mx500_like(scale=4)))
        for line in _data_lines(estimate.HEADERS, estimate.rows()):
            assert line in out

    def test_compression(self, capsys):
        from repro.workloads.oltp import (
            COMPRESSION_HEADERS,
            compression_rates,
            compression_rows,
        )

        assert main(["compression", "--transactions", "400"]) == 0
        out = capsys.readouterr().out
        assert "re-bp32" in out and "chunk4" in out
        rows = compression_rows(compression_rates("high", 400))
        for line in _data_lines(COMPRESSION_HEADERS, rows):
            assert line in out

    def test_jtag_study(self, capsys):
        # The infer harness wraps this gray-box path; the standalone
        # Fig 6 study must keep working as its own entry point.
        assert main(["jtag-study", "--scale", "4"]) == 0
        out = capsys.readouterr().out
        assert "map arrays" in out
        assert "IDCODE" in out

    def test_waf_study(self, capsys):
        from repro.core.blackbox.waf import run_waf_study
        from repro.ssd.presets import mx500_like

        assert main(["waf-study", "--preset", "mx500", "--scale", "4",
                     "--io-count", "2000"]) == 0
        out = capsys.readouterr().out
        assert "measured mixed" in out
        study = run_waf_study(mx500_like(scale=4), io_count=2000,
                              runner=_runner())
        for line in _data_lines(study.HEADERS, study.rows()):
            assert line in out

    def test_probe_features(self, capsys):
        # The infer harness wraps this black-box path; the standalone
        # SSDCheck-style probes must keep working as their own entry
        # point.
        assert main(["probe-features", "--scale", "2",
                     "--cache-sectors", "64", "--writes", "2000"]) == 0
        out = capsys.readouterr().out
        assert "write buffer" in out

    def test_infer(self, capsys):
        assert main(["infer", "--seed", "3", "--mode", "graybox"]) == 0
        out = capsys.readouterr().out
        assert "policy inference (seed 3" in out
        assert "tool loop (graybox" in out
        for knob in ("gc_policy", "allocation", "cache_designation",
                     "cache_admission", "cache_eviction", "wear_policy"):
            assert knob in out

    def test_transparency(self, capsys):
        assert main(["transparency", "--points", "2", "--seed", "1",
                     "--jobs", "1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "transparency score over 2 random grid points" in out
        assert "gray-box" in out
        assert "recovers strictly more" in out

    def test_policies(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        # One section per registry, every knob present.
        for knob in ("gc_policy", "allocation_scheme", "cache_designation",
                     "cache_admission", "cache_eviction", "wear_policy"):
            assert knob in out
        # New registry-era policies are listed with their one-liners.
        assert "d_choices" in out and "cat" in out and "hotcold" in out
        assert "gc_sample_size" in out  # schema column

    def test_policy_grid(self, capsys):
        from repro.core.modeling.policy_grid import (
            GRID_HEADERS,
            grid_rows,
            run_policy_grid,
        )
        from repro.ssd.presets import mqsim_baseline

        assert main(["policy-grid", "--scale", "8", "--io-count", "150",
                     "--jobs", "1", "--no-cache",
                     "--gc", "greedy,d_choices", "--alloc", "CWDP"]) == 0
        out = capsys.readouterr().out
        assert "policy design grid (4 points" in out
        assert "p99 spread across the grid" in out
        assert "d_choices" in out
        study = run_policy_grid(mqsim_baseline(scale=8),
                                block_sizes_sectors=(1,), io_count=150,
                                gc_policies=("greedy", "d_choices"),
                                allocations=("CWDP",))
        for line in _data_lines(GRID_HEADERS, grid_rows(study)):
            assert line in out

    def test_fidelity(self, capsys):
        from repro.core.modeling.fidelity import run_fidelity_study
        from repro.ssd.presets import mqsim_baseline

        assert main(["fidelity", "--scale", "8", "--io-count", "150"]) == 0
        out = capsys.readouterr().out
        assert "p99 (us)" in out
        assert "p99 spread" in out
        study = run_fidelity_study(mqsim_baseline(scale=8),
                                   block_sizes_sectors=(1, 4), io_count=150,
                                   runner=_runner())
        for line in _data_lines(study.HEADERS, study.rows()):
            assert line in out

    def test_trace_timed(self, capsys, tmp_path):
        out_path = tmp_path / "trace.jsonl"
        assert main(["trace", "--preset", "tiny", "--scale", "1",
                     "--writes", "1000", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "trace event counts" in out
        assert "host_request" in out
        assert "stall share" in out
        assert out_path.exists()
        from repro.obs import load_trace

        records = load_trace(out_path)
        assert records and all("event" in r for r in records)

    def test_trace_counter_mode(self, capsys, tmp_path):
        out_path = tmp_path / "trace.jsonl"
        assert main(["trace", "--preset", "tiny", "--scale", "1",
                     "--mode", "counter", "--writes", "1000",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "flash_op" in out
        assert "gc_started" in out
        assert out_path.exists()

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_reader_closing_the_pipe_early_is_not_an_error(self, tmp_path,
                                                           unbuffered):
        """``repro-ssd ... | head``: no traceback, exit 0.  Stdout is a
        pipe whose read end is already closed, so the first ``print``
        (unbuffered) or the final flush (buffered) gets EPIPE."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        env["PYTHONPATH"] = (str(Path(repro.__file__).resolve().parents[1])
                             + os.pathsep + env.get("PYTHONPATH", ""))
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro.cli", "trace", "--preset",
                 "tiny", "--writes", "200", "--out", str(tmp_path / "t.jsonl")],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                timeout=120, env=env)
        finally:
            os.close(write_end)
        assert done.stderr == ""
        assert done.returncode == 0
        assert (tmp_path / "t.jsonl").stat().st_size > 0

    def _write_trace(self, tmp_path, max_lba=700):
        from repro.workloads.trace import BlockTrace, TraceRecord

        trace = BlockTrace([TraceRecord("write", (i * 37) % max_lba, 1,
                                        i * 20.0) for i in range(80)])
        trace.append(TraceRecord("flush", 0, 0, 80 * 20.0))
        return str(trace.save(tmp_path / "trace.csv"))

    def test_replay_timed(self, capsys, tmp_path):
        path = self._write_trace(tmp_path)
        assert main(["replay", "--preset", "tiny", "--scale", "1",
                     "--trace", path, "--time-scale", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "trace replay on tiny" in out
        assert "open loop" in out and "x0.5" in out
        assert "p99 (us)" in out

    def test_replay_closed_loop(self, capsys, tmp_path):
        path = self._write_trace(tmp_path)
        assert main(["replay", "--preset", "tiny", "--scale", "1",
                     "--trace", path, "--submission", "closed",
                     "--iodepth", "4"]) == 0
        assert "closed loop qd=4" in capsys.readouterr().out

    def test_replay_counter_mode(self, capsys, tmp_path):
        path = self._write_trace(tmp_path)
        assert main(["replay", "--preset", "tiny", "--scale", "1",
                     "--trace", path, "--mode", "counter"]) == 0
        out = capsys.readouterr().out
        assert "replayed 81 requests" in out
        assert "WAF" in out

    def test_replay_malformed_trace_exits_nonzero(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("op,lba,sectors,at_us\n"
                        "write,1,1,10.0\nwrite,2,1,5.0\n")
        assert main(["replay", "--preset", "tiny", "--scale", "1",
                     "--trace", str(path)]) == 1
        out = capsys.readouterr().out
        assert "trace line 3" in out and "backwards" in out

    def test_replay_negative_timestamp_exits_nonzero(self, capsys, tmp_path):
        path = tmp_path / "negative.csv"
        path.write_text("op,lba,sectors,at_us\nread,0,1,-5.0\n")
        assert main(["replay", "--preset", "tiny", "--scale", "1",
                     "--trace", str(path)]) == 1
        out = capsys.readouterr().out
        assert "trace line 2" in out and "non-negative" in out

    def test_replay_out_of_range_trace_exits_nonzero(self, capsys, tmp_path):
        # LBA 5000 is valid CSV but beyond tiny's 716 sectors
        path = self._write_trace(tmp_path, max_lba=5001)
        assert main(["replay", "--preset", "tiny", "--scale", "1",
                     "--trace", path]) == 1
        assert "outside" in capsys.readouterr().out

    def test_replay_missing_file_exits_nonzero(self, capsys, tmp_path):
        assert main(["replay", "--preset", "tiny", "--scale", "1",
                     "--trace", str(tmp_path / "nope.csv")]) == 1
        assert "cannot read" in capsys.readouterr().out

    def test_replay_empty_trace_exits_nonzero(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("op,lba,sectors,at_us\n")
        assert main(["replay", "--preset", "tiny", "--scale", "1",
                     "--trace", str(path)]) == 1
        assert "no records" in capsys.readouterr().out

    def test_engine(self, capsys):
        assert main(["engine", "--preset", "tiny", "--scale", "1",
                     "--mixes", "a", "--jobs", "1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "storage engines on tiny" in out
        assert "lsm" in out and "btree" in out
        assert "engine WAF" in out
        assert "all reads returned the latest written version" in out

    def test_engine_alloc_override(self, capsys):
        assert main(["engine", "--preset", "tiny", "--scale", "1",
                     "--engines", "lsm", "--mixes", "c", "--records", "64",
                     "--ops", "100", "--alloc", "hotcold",
                     "--jobs", "1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "alloc hotcold" in out
        assert "lsm" in out and "btree" not in out

    def test_engine_unknown_axis_rejected(self):
        with pytest.raises(SystemExit):
            main(["engine", "--preset", "tiny", "--scale", "1",
                  "--engines", "fractal", "--jobs", "1", "--no-cache"])
        with pytest.raises(SystemExit):
            main(["engine", "--preset", "tiny", "--scale", "1",
                  "--mixes", "z", "--jobs", "1", "--no-cache"])

    def test_faultsweep(self, capsys):
        assert main(["faultsweep", "--preset", "tiny", "--scale", "1",
                     "--ops", "200", "--strides", "13,47",
                     "--jobs", "1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "crash-consistency sweep" in out
        assert "all cut points clean" in out

    def test_faultsweep_with_faults(self, capsys):
        assert main(["faultsweep", "--preset", "tiny", "--scale", "1",
                     "--ops", "200", "--strides", "29",
                     "--fault-rate", "0.01",
                     "--jobs", "1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "all cut points clean" in out

    def test_fleet(self, capsys):
        assert main(["fleet", "--devices", "12", "--io-count", "30",
                     "--jobs", "1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "fleet SLO report" in out
        assert "SLO verdict" in out
        assert "all tenant SLOs met" in out
        assert "devices/s" in out

    def test_fleet_noisy_mix_violates_slo(self, capsys):
        assert main(["fleet", "--devices", "6", "--io-count", "40",
                     "--mix", "noisy", "--jobs", "1", "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "SLO VIOLATED" in out
        assert "VIOLATED" in out  # rendered in the per-tenant table too

    def test_fleet_overdriven_rates_violate_slo(self, capsys):
        # Same mix, 20x the arrival rates: open-loop queueing takes over.
        assert main(["fleet", "--devices", "4", "--io-count", "40",
                     "--rate-scale", "20", "--jobs", "1",
                     "--no-cache"]) == 1
        assert "SLO VIOLATED" in capsys.readouterr().out

    def test_fleet_unknown_mix_rejected(self):
        with pytest.raises(SystemExit):
            main(["fleet", "--mix", "mystery"])

    def test_fleet_campaign(self, capsys):
        assert main(["fleet", "--devices", "8", "--io-count", "30",
                     "--campaign", "default", "--afr", "40",
                     "--jobs", "1", "--no-cache"]) in (0, 1)
        out = capsys.readouterr().out
        assert "campaign" in out
        assert "availability" in out
        assert "durability verdict" in out
        assert "healthy vs faulted latency split" in out

    def test_fleet_only_device_detail(self, capsys):
        assert main(["fleet", "--devices", "8", "--io-count", "30",
                     "--campaign", "default", "--afr", "40",
                     "--only", "0:3", "--jobs", "1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "fleet device detail [0, 3)" in out

    def test_fleet_resume_reports_cached_shards(self, capsys, tmp_path,
                                                monkeypatch):
        """A plain re-run resumes: the result cache skips every shard a
        run already banked, and the ``exp:`` line counts them."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["fleet", "--devices", "8", "--io-count", "30",
                "--shards", "2", "--jobs", "1"]
        assert main(argv) == 0
        assert "2 executed, 0 cache hits" in capsys.readouterr().out
        assert main(argv) == 0
        assert "0 executed, 2 cache hits" in capsys.readouterr().out

    def test_fleet_repro_command_reruns_the_device(self, capsys):
        """A failed device's "rerun standalone" line runs that device:
        same mix, request count, rate scale and unrounded AFR."""
        import shlex
        from dataclasses import replace

        from repro.fleet import (
            CAMPAIGNS,
            FleetSpec,
            device_repro_command,
            noisy_tenants,
            simulate_device,
        )

        spec = FleetSpec(tenants=noisy_tenants(rate_scale=3, io_count=40),
                         devices=4, campaign=replace(CAMPAIGNS["default"],
                                                     afr=0.123456789))
        command = device_repro_command(spec, 2)
        assert "--afr 0.123456789 " in command
        program, *argv = shlex.split(command)
        assert program == "repro-ssd"
        assert main(argv) == 0
        row = capsys.readouterr().out.splitlines()[3].split()
        device = simulate_device(spec, 2)
        requests = sum(s.requests for s in device.tenants)
        assert requests == 120
        assert row[:3] == ["2", str(device.seed), str(requests)]
        assert row[7] == str(round(device.waf, 3))

    def test_no_repro_command_for_a_spec_the_cli_cannot_build(self):
        from repro.fleet import (
            FleetSpec,
            TenantSpec,
            default_tenants,
            device_repro_command,
        )

        hand_rolled = (TenantSpec(name="solo", rate_iops=100.0),)
        for spec in (FleetSpec(tenants=hand_rolled),
                     FleetSpec(tenants=default_tenants(), allocation="CWDP")):
            assert device_repro_command(spec, 3).startswith(
                "no standalone command")

    def test_every_subcommand_has_smoke_coverage(self):
        """Each subcommand in cli.py has a TestCommands smoke test."""
        covered = {
            "presets", "simulate", "trace", "latency", "nand-page",
            "waf-study", "fidelity", "compression", "jtag-study",
            "probe-features", "faultsweep", "policies", "policy-grid",
            "infer", "transparency", "fleet", "replay", "engine",
        }
        assert covered == set(ALL_SUBCOMMANDS)
