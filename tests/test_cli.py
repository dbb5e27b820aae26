"""Command-line front end: parsing, report formats, reproducibility, exit codes."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from belllab import cli, schulman
from belllab.cli import (
    UsageError,
    build_parser,
    fmt_float,
    main,
    parse_angle,
    parse_settings,
)
from belllab.core import PI
from belllab.qm import chsh_pairs
from belllab.schulman import (
    BridgeSamplingError,
    PathSpec,
    expected_net_dominance,
    two_photon_outcome_joint,
)


class TestParsing:
    def test_radians(self):
        assert float(parse_angle("0.5")) == 0.5

    def test_pi_multiples(self):
        assert float(parse_angle("0.125pi")) == pytest.approx(PI / 8)
        assert float(parse_angle("pi")) == 0.0  # canonical
        assert float(parse_angle("-0.125pi")) == pytest.approx(7 * PI / 8)

    def test_bad_angle(self):
        with pytest.raises(UsageError):
            parse_angle("twelve")

    def test_settings_quadruple(self):
        s = parse_settings("0,0.25pi,0.125pi,-0.125pi")
        assert len(s) == 4
        assert float(s[1]) == pytest.approx(PI / 4)
        with pytest.raises(UsageError):
            parse_settings("0,1")

    def test_fmt_float_17_digits(self):
        assert fmt_float(1 / 3) == "0.33333333333333331"
        assert fmt_float(2.0) == "2"


class TestReports:
    def run(self, argv):
        return main(argv)

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["run-chsh", "--model", "hall", "--samples", "20000", "--seed", "3"]
        assert self.run(argv + ["--out", str(out1)]) == 0
        assert self.run(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("model", ["hall", "delta-mixture", "local-baseline", "pr-box"])
    def test_worker_count_does_not_change_report(self, model, tmp_path):
        # three shards per correlator, the last one partial
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        base = ["run-chsh", "--model", model, "--samples", "600001", "--seed", "3"]
        assert self.run(base + ["--workers", "1", "--out", str(out1)]) == 0
        assert self.run(base + ["--workers", "4", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_round_trip_idempotent(self, tmp_path):
        out = tmp_path / "r.json"
        assert self.run(["run-chsh", "--model", "hall", "--samples", "20000",
                         "--seed", "3", "--out", str(out)]) == 0
        text = out.read_text()
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text

    def test_csv_format(self, tmp_path):
        out = tmp_path / "r.csv"
        assert self.run(["run-chsh", "--model", "hall", "--samples", "20000",
                         "--seed", "3", "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().split("\n")
        assert lines[0] == "key,value"
        values = dict(line.split(",", 1) for line in lines[1:] if line)
        s = float(values["s_value"])
        assert 2.0 < s < 2.9
        # 17 significant digits survive the round trip
        assert fmt_float(s) == values["s_value"]

    def test_default_seed_is_zero_whatever_the_environment(self, tmp_path, monkeypatch):
        # --seed is the seed's one source: no environment variable sets it
        monkeypatch.setenv("BELLLAB_DEFAULT_SEED", "77")
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["run-chsh", "--model", "hall", "--samples", "5000"]
        assert self.run(argv + ["--out", str(out1)]) == 0
        assert self.run(argv + ["--seed", "0", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert json.loads(out1.read_text())["config"]["seed"] == 0


class TestSubcommands:
    def test_run_chsh_pr_box(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["run-chsh", "--model", "pr-box", "--samples", "10000",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["s_value"] == 4.0
        assert report["s_standard_error"] == 0.0
        # the box has no hidden angle, so only hidden-variable models get this residual
        assert list(report["residuals"]) == ["screening"]

    def test_run_chsh_hall_reports_lambda_independence(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["run-chsh", "--model", "hall", "--samples", "2000",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["residuals"]["lambda_independence"] > 0.0

    def test_run_chsh_schulman2_analytic(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["run-chsh", "--model", "schulman-2", "--gamma", "0.002",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["s_value"] == pytest.approx(2 * math.sqrt(2), abs=1e-3)
        assert all(c["standard_error"] == 0.0 for c in report["correlators"])
        # nothing is drawn, so samples and seed are not echoed
        assert report["config"] == {"model": "schulman-2", "gamma": 0.002}

    def test_run_chsh_schulman2_reports_correlators_in_chsh_pairs_order(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["run-chsh", "--model", "schulman-2", "--gamma", "1e-3",
                     "--settings", "0,0.1,0.5,1.3", "--out", str(out)]) == 0
        values = [c["value"] for c in json.loads(out.read_text())["correlators"]]
        settings = parse_settings("0,0.1,0.5,1.3")
        a, a_p, b, b_p = settings
        pairs = [(a, b), (a_p, b), (a, b_p), (a_p, b_p)]
        assert list(chsh_pairs(settings)) == pairs
        assert values == [two_photon_outcome_joint(x, y, 1e-3).correlator() for x, y in pairs]

    def test_run_chsh_schulman2_builds_no_grid(self, tmp_path, monkeypatch):
        # a lambda grid at gamma = 1e-6 would hold 25M points per correlator
        def no_grid(*args, **kwargs):
            raise AssertionError("run-chsh built a two-photon lambda grid")

        monkeypatch.setattr(cli, "two_photon_joint", no_grid)
        out = tmp_path / "r.json"
        assert main(["run-chsh", "--model", "schulman-2", "--gamma", "1e-6",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert abs(report["s_value"] - 2 * math.sqrt(2)) < 1e-3

    def test_scan_settings_qm_self_scan(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["scan-settings", "--model", "qm", "--grid", "4",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["max_abs_diff_vs_qm"] == 0.0

    def test_scan_settings_hall(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["scan-settings", "--model", "hall", "--grid", "4",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["max_abs_diff_vs_qm"] < 1e-9
        assert len(report["table"]) == 16

    def test_schulman_paths(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["schulman-paths", "--gamma", "0.001", "--steps", "20",
                     "--samples", "2000", "--seed", "1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert sum(report["kick_time_histogram"]) + report["excluded_paths"] == 2000
        assert report["cauchy_stability_ks_pvalue"] > 0.01
        spec = PathSpec(theta1=0.0, theta2=PI / 8, gamma=0.001, steps=20)
        assert report["discarded_winding_mass"] == (
            expected_net_dominance(spec).discarded_winding_mass
        )
        assert report["discarded_winding_mass"] == pytest.approx(2.527e-4, rel=1e-3)

    def test_schulman_paths_discarded_winding_mass_grows_with_gamma(self, tmp_path):
        # sin^2(2 dtheta) / (pi^2 n_windings) holds for small gamma only
        out = tmp_path / "r.json"
        assert main(["schulman-paths", "--gamma", "1", "--steps", "10",
                     "--samples", "500", "--seed", "1", "--out", str(out)]) == 0
        mass = json.loads(out.read_text())["discarded_winding_mass"]
        assert 9.8e-4 < mass < 1.06e-3

    def test_schulman_paths_at_a_tiny_gamma(self, tmp_path):
        # below gamma ~ 1e-153 the rejection step once overflowed and accepted
        # every proposal, which moved the dominant kick to the early steps
        out = tmp_path / "r.json"
        assert main(["schulman-paths", "--gamma", "1e-160", "--steps", "100",
                     "--samples", "20000", "--seed", "2029", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert sum(report["kick_time_histogram"]) == 20000
        assert report["kick_time_chi2_pvalue"] > 0.01

    def test_schulman_paths_memory_is_flat_in_steps(self, tmp_path):
        argv = ["schulman-paths", "--gamma", "1e-3", "--seed", "1", "--out", str(tmp_path / "r.json")]
        assert main([*argv, "--steps", "10", "--samples", "100"]) == 0  # imports and caches
        peaks = []
        for steps in ("10", "1000"):
            tracemalloc.start()
            try:
                assert main([*argv, "--steps", steps, "--samples", "2000"]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # no array has a dimension of steps beyond one block of free kicks
        assert peaks[1] - peaks[0] < 2**20

    def test_schulman_paths_memory_is_flat_in_samples(self, tmp_path):
        argv = ["schulman-paths", "--gamma", "1e-3", "--seed", "1", "--out", str(tmp_path / "r.json")]
        assert main([*argv, "--steps", "10", "--samples", "100"]) == 0  # imports and caches
        tracemalloc.start()
        try:
            assert main([*argv, "--steps", "100", "--samples", "200000"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # vectors of one number per path (about 17 MiB), not 154 MiB of paths
        assert peak < 24 * 2**20

    def test_schulman_paths_draws_on_the_main_thread(self, tmp_path, monkeypatch):
        draws = []

        def recording(name):
            def call(*args):
                draws.append((name, threading.current_thread(), threading.active_count()))
                return getattr(schulman, name)(*args)

            return call

        for name in ("sample_bridges", "dominant_kick_stats", "free_kick_sums"):
            monkeypatch.setattr(cli, name, recording(name))
        threads_before = threading.active_count()
        # more than one block of free kicks
        assert main(["schulman-paths", "--gamma", "1e-3", "--steps", "20", "--samples",
                     "5000", "--seed", "3", "--out", str(tmp_path / "r.json")]) == 0
        assert [name for name, _, _ in draws] == [
            "sample_bridges", "dominant_kick_stats", "free_kick_sums",
        ]
        for _, thread, threads in draws:
            assert thread is threading.main_thread()
            assert threads == threads_before
        assert threading.active_count() == threads_before

    def test_mutual_info_echoes_its_default_grid(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["mutual-info", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["lambda_grid"] == 2048

    def test_mutual_info_hall(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["mutual-info", "--lambda-grid", "1024",
                     "--settings-grid", "64", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["bits"] < 0.07
        refinement = report["refinement"]
        # the halved settings grid (32 per axis) really differs from the full one
        assert 0.0 < refinement["abs_change"] < 1e-3
        assert refinement["abs_change"] == abs(refinement["halved_grid_bits"] - report["bits"])

    def test_run_chsh_schulman2_at_wide_kicks(self, tmp_path):
        # at 2 * gamma = 400 sinh(2 gamma)^2 overflows; the outcomes are coin flips
        out = tmp_path / "r.json"
        assert main(["run-chsh", "--model", "schulman-2", "--gamma", "200",
                     "--out", str(out)]) == 0
        def strict(constant):
            raise ValueError(f"{constant} is not valid JSON")

        report = json.loads(out.read_text(), parse_constant=strict)
        assert report["s_value"] == 0.0
        assert all(c["value"] == 0.0 for c in report["correlators"])

    def test_two_photon_wide_kicks_use_the_smallest_grid(self, tmp_path):
        # ceil(8 pi / gamma) = 26 points would be below the grid's floor of 64
        out = tmp_path / "r.json"
        assert main(["two-photon", "--gamma", "1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["lambda_grid"] == 64
        # cos(2(a - b)) / cosh(4 gamma), the wrapped-Cauchy correlator at width 2 gamma
        assert report["correlator"] == pytest.approx(math.sqrt(0.5) / math.cosh(4.0), rel=1e-12)

    def test_two_photon(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["two-photon", "--gamma", "0.002", "--pair", "0,0.125pi",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["max_abs_diff_vs_qm"] < 1e-4
        shares = [w["share_of_windows"] for w in report["atom_windows"].values()]
        assert shares == pytest.approx([0.25] * 4, abs=0.01)

    def test_two_photon_grid_passes_its_own_resolution_check(self, tmp_path):
        # gamma / (pi / 211) rounds to 7.999999999999999 at this gamma, and the
        # grid still has the 211 points of 8 per gamma width
        out = tmp_path / "r.json"
        assert main(["two-photon", "--gamma", "0.11911251767165092", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["lambda_grid"] == 211


def fresh_env() -> dict:
    """Environment for a fresh interpreter that imports this checkout's belllab."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


#: One small invocation of each subcommand.
SMALL_RUNS = [
    ["run-chsh", "--model", "hall", "--samples", "2000"],
    ["scan-settings", "--model", "hall", "--grid", "2"],
    ["schulman-paths", "--gamma", "1e-3", "--steps", "5", "--samples", "50"],
    ["mutual-info", "--lambda-grid", "512", "--settings-grid", "64"],
    ["two-photon", "--gamma", "1e-2"],
]


class TestReportPath:
    """`main` writes every subcommand's report, once, with the same header."""

    @pytest.fixture
    def writes(self, monkeypatch):
        calls = []
        write = cli.write_report

        def counting(report, out, fmt):
            calls.append(report["command"])
            write(report, out, fmt)

        monkeypatch.setattr(cli, "write_report", counting)
        return calls

    @pytest.mark.parametrize("argv", SMALL_RUNS, ids=lambda argv: argv[0])
    def test_csv_rows_start_with_the_header(self, argv, tmp_path, writes):
        out = tmp_path / "r.csv"
        assert main([*argv, "--format", "csv", "--out", str(out)]) == 0
        keys = [line.split(",", 1)[0] for line in out.read_text().splitlines()[1:]]
        assert keys[:2] == ["command", "version"]
        assert keys[2].startswith("config.")
        assert writes == [argv[0]]

    @pytest.mark.parametrize("argv", SMALL_RUNS, ids=lambda argv: argv[0])
    def test_json_names_the_subcommand_and_stdout_ends_in_the_time(
        self, argv, tmp_path, writes, capsys
    ):
        out = tmp_path / "r.json"
        assert main([*argv, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["command"] == argv[0]
        assert report["version"] == cli.__version__
        captured = capsys.readouterr()
        assert captured.out == ""  # the summary goes to stderr, not beside a report
        line = captured.err
        assert line.startswith(argv[0] + " ")
        assert re.search(r", \d+\.\d\ds\n\Z", line)
        assert writes == [argv[0]]

    def test_stdout_without_out_is_the_report_alone(self, capsys):
        assert main(["two-photon", "--gamma", "1e-2"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["command"] == "two-photon"
        assert captured.err.startswith("two-photon gamma=0.01 ")

    def test_closed_stdout_exits_141_without_a_traceback(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # as `| head -1` does once it has its line
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "belllab.cli", "run-chsh", "--model", "hall",
                 "--samples", "100"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=fresh_env(), timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""

    def test_no_report_is_written_on_failure(self, writes, monkeypatch):
        def fail(spec, n_paths, rng):
            raise BridgeSamplingError("conditional increment sampling stalled")

        monkeypatch.setattr(cli, "sample_bridges", fail)
        assert main(SMALL_RUNS[2]) == 1
        assert main(["run-chsh", "--model", "schulman-2"]) == 2
        assert writes == []


def test_only_schulman_paths_imports_scipy_stats(tmp_path):
    # scipy.stats takes most of a cold start; only schulman-paths' p-values need it
    runs = [argv for argv in SMALL_RUNS if argv[0] != "schulman-paths"]
    code = (
        "import sys\n"
        "from belllab.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main([*argv, '--out', sys.argv[1]]) == 0, argv\n"
        "assert 'scipy.stats' not in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "r.json")],
        capture_output=True, text=True, env=fresh_env(), timeout=120,
    )
    assert [argv[0] for argv in runs] == ["run-chsh", "scan-settings", "mutual-info", "two-photon"]
    assert proc.returncode == 0, proc.stderr


class TestParser:
    def test_readme_option_table_matches_the_parser(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = dict(re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", readme, re.MULTILINE))
        common = re.search(r"Every subcommand also takes ([^.]*)\.", readme).group(1)
        flag = r"`(--[a-z][a-z0-9-]*)"
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert sorted(rows) == sorted(subparsers.choices)
        for command, parser in subparsers.choices.items():
            documented = set(re.findall(flag, rows[command])) | set(re.findall(flag, common))
            options = {o for action in parser._actions for o in action.option_strings}
            assert documented == options - {"-h", "--help"}, command

    def test_main_builds_the_parser_once(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(2):
            assert main(["scan-settings", "--model", "qm", "--grid", "2",
                         "--out", str(tmp_path / "r.json")]) == 0
        assert built.count("belllab") == 1


class TestExitCodes:
    def test_usage_error_for_bad_combination(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run-chsh", "--model", "schulman-1", "--samples", "10"])
        assert exc.value.code == 2
        assert "schulman-1" in capsys.readouterr().err

    def test_scan_settings_refuses_pr_box(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan-settings", "--model", "pr-box"])
        assert exc.value.code == 2
        assert "pr-box" in capsys.readouterr().err

    def test_mutual_info_refuses_delta_mixture(self, capsys):
        # mutual-info is Hall-only and takes no --model; its help says why
        with pytest.raises(SystemExit) as exc:
            main(["mutual-info", "--model", "delta-mixture"])
        assert exc.value.code == 2
        assert "--model" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["mutual-info", "--help"])
        assert "diverges" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["scan-settings", "--model", "hall", "--workers", "2"],
        ["scan-settings", "--model", "hall", "--settings", "0,1,2,3"],
        ["two-photon", "--gamma", "1e-3", "--workers", "2"],
        ["two-photon", "--gamma", "1e-3", "--lambda-grid", "64"],
        ["run-chsh", "--model", "hall", "--config", "x.txt"],
    ])
    def test_options_no_subcommand_reads_are_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["schulman-paths", "--gamma", "1e-3", "--samples", "0"],
        ["schulman-paths", "--gamma", "1e-3", "--steps", "0"],
        ["run-chsh", "--model", "hall", "--samples", "0"],
        ["run-chsh", "--model", "hall", "--workers", "0"],
        ["run-chsh", "--model", "hall", "--workers", "-3"],
        ["scan-settings", "--model", "hall", "--grid", "1"],
        ["mutual-info", "--settings-grid", "32"],
        ["mutual-info", "--lambda-grid", "100"],
    ])
    def test_values_below_the_minimum_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be >=" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("argv", [
        ["schulman-paths", "--gamma", "1e-3", "--steps", "5", "--samples", "10", "--theta1={}"],
        ["schulman-paths", "--gamma", "1e-3", "--steps", "5", "--samples", "10", "--theta2={}"],
        ["run-chsh", "--model", "hall", "--samples", "1000", "--settings={},0,0,0"],
        ["two-photon", "--gamma", "1e-2", "--pair={},0"],
    ], ids=["theta1", "theta2", "settings", "pair"])
    def test_angles_must_be_finite(self, argv, value, capsys):
        argv = [arg.format(value) for arg in argv]
        if argv[0] == "two-photon":
            # the subcommand parses --pair, so main reports the usage error
            assert main(argv) == 2
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert value in capsys.readouterr().err

    def test_schulman_models_require_gamma(self, capsys):
        assert main(["run-chsh", "--model", "schulman-2"]) == 2
        assert "--gamma is required" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["run-chsh", "--model", "schulman-2", "--gamma", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("model", ["hall", "delta-mixture", "local-baseline", "pr-box"])
    def test_run_chsh_refuses_gamma_for_the_sampled_models(self, model, capsys):
        assert main(["run-chsh", "--model", model, "--gamma", "0.5", "--samples", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --gamma is read by schulman-2 only, not by {model}\n"

    @pytest.mark.parametrize("gamma", ["nan", "inf", "-inf", "0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["run-chsh", "--model", "schulman-2"],
        ["schulman-paths", "--steps", "5", "--samples", "10"],
        ["two-photon"],
    ], ids=lambda argv: argv[0])
    def test_gamma_must_be_finite_and_positive(self, argv, gamma, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--gamma={gamma}"])
        assert exc.value.code == 2
        assert "must be finite and > 0" in capsys.readouterr().err

    def test_two_photon_refuses_a_grid_size_that_is_not_finite(self, capsys):
        assert main(["two-photon", "--gamma", "5e-324"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: lambda grid of 8 pi / gamma points is not finite" in captured.err

    @pytest.mark.parametrize("gamma", ["1e-13", "1e-300"])
    def test_two_photon_refuses_a_grid_numpy_cannot_allocate(self, gamma, capsys):
        # 2.5e14 and 2.5e301 points: numpy refuses before touching memory
        assert main(["two-photon", "--gamma", gamma]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"points cannot be allocated at gamma = {float(gamma)!r}" in captured.err
        assert captured.err.startswith("error: lambda grid of ")

    @pytest.mark.parametrize("gamma, width", [("1e-310", "1e-311"), ("5e-324", "0.0")])
    def test_schulman_paths_refuses_a_subnormal_step_width(self, gamma, width, capsys):
        # widths below the smallest normal float overflow the conditional step:
        # 1e-310 once gave a wrong report, 5e-324 a ZeroDivisionError traceback
        assert main(["schulman-paths", "--gamma", gamma, "--steps", "10",
                     "--samples", "1000", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: step width gamma / steps = {width} is below the "
                                f"smallest normal float, {sys.float_info.min!r}\n")

    @pytest.mark.parametrize("gamma, extra", [
        ("8e153", []),
        ("1.5e-162", ["--theta2", "0"]),
        ("1e-170", ["--theta2", "0.5pi"]),
        ("3e-306", ["--steps", "100"]),
        ("1e-200", ["--theta2", "0"]),
    ], ids=["8e153", "1.5e-162-aligned", "1e-170-perpendicular", "3e-306-100-steps",
            "1e-200-aligned"])
    def test_schulman_paths_runs_where_gamma_squared_is_not_a_float(self, gamma, extra, tmp_path):
        # pi * gamma**2 overflows or underflows to 0 here; the sampler never forms it
        out = tmp_path / "r.json"
        assert main(["schulman-paths", "--gamma", gamma, "--samples", "300", *extra,
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["steps"] == 100
        assert report["kick_time_chi2_pvalue"] > 0.01
        assert report["cauchy_stability_ks_pvalue"] > 0.01

    @pytest.mark.parametrize("gamma", ["1.2e292", "1e300"])
    def test_schulman_paths_refuses_a_gamma_beyond_the_largest_kick(self, gamma, capsys):
        # gamma * 1.6e16, a kick at the largest Cauchy variate, overflows
        assert main(["schulman-paths", "--gamma", gamma, "--samples", "300"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: gamma = {float(gamma)!r} times the largest Cauchy variate"
        )
        assert "Traceback" not in captured.err

    @hyp_settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        exponent=st.floats(min_value=math.log10(5e-324), max_value=math.log10(1.7e308)),
        theta2=st.sampled_from(["0", "0.125pi", "0.5pi"]),
        steps=st.sampled_from(["1", "2", "100"]),
    )
    def test_schulman_commands_run_or_refuse_at_any_gamma(self, exponent, theta2, steps):
        # gamma log-uniform over the positive floats: schulman-paths runs
        # exactly where its step width gamma / steps is a normal float and a
        # kick at the largest Cauchy variate, gamma * |tan(-pi/2)|, is finite,
        # and refuses with a usage error elsewhere; schulman-2 runs at any gamma
        gamma = max(10.0**exponent, 5e-324)
        admitted = (gamma / int(steps) >= sys.float_info.min
                    and math.isfinite(gamma * abs(math.tan(-PI / 2))))

        def run(argv):
            report = io.StringIO()
            with contextlib.redirect_stdout(report), contextlib.redirect_stderr(io.StringIO()):
                try:
                    return main(argv), report.getvalue()
                except SystemExit as exc:  # argparse's usage errors
                    return exc.code, ""

        code, report = run(["schulman-paths", "--gamma", repr(gamma), "--steps", steps,
                            "--theta2", theta2, "--samples", "300"])
        assert code == (0 if admitted else 2)
        if code == 0:
            # no chi-square bound: at 2 steps with aligned ends, or gamma above
            # about 1e16, the two kicks tie exactly and the first step takes it
            report = json.loads(report)
            assert math.isfinite(report["kick_time_chi2_pvalue"])
            assert math.isfinite(report["cauchy_stability_ks_pvalue"])
        assert run(["run-chsh", "--model", "schulman-2", "--gamma", repr(gamma),
                    "--settings", f"0,0.25pi,{theta2},0.125pi"])[0] == 0

    def test_run_chsh_has_no_lambda_grid(self, capsys):
        # the schulman-2 joint is exact, so there is no grid to size
        with pytest.raises(SystemExit) as exc:
            main(["run-chsh", "--model", "schulman-2", "--gamma", "1e-3",
                  "--lambda-grid", "100"])
        assert exc.value.code == 2
        assert "--lambda-grid" in capsys.readouterr().err

    def test_bridge_sampling_failure(self, capsys, monkeypatch):
        def stall(residual, d1, d2, gen):
            raise BridgeSamplingError("conditional increment sampling stalled")

        monkeypatch.setattr(schulman, "_conditional_step", stall)
        code = main(["schulman-paths", "--gamma", "1e-3", "--steps", "10",
                     "--samples", "100", "--seed", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "numerical failure" in err and "step 0" in err

    def test_bridge_stall_in_a_later_shard_names_it(self, capsys, monkeypatch):
        sizes = []

        def stall_in_shard_1(residual, d1, d2, gen):
            sizes.append(residual.size)
            if len(sizes) == 2:  # 2 steps: one conditional step per shard
                raise BridgeSamplingError("conditional increment sampling stalled")
            return np.zeros_like(residual)

        monkeypatch.setattr(schulman, "_conditional_step", stall_in_shard_1)
        code = main(["schulman-paths", "--gamma", "1e-3", "--steps", "2",
                     "--samples", str(schulman.BRIDGE_SHARD + 1), "--seed", "1"])
        assert code == 1
        assert sizes == [schulman.BRIDGE_SHARD, 1]
        err = capsys.readouterr().err
        assert ("numerical failure: conditional increment sampling stalled in bridge "
                "shard 1 (step 0, 64 proposal rounds)") in err

    def test_bridge_failure_leaves_no_helper_thread(self, capsys, monkeypatch):
        def fail(spec, n_paths, rng):
            raise BridgeSamplingError("conditional increment sampling stalled")

        monkeypatch.setattr(cli, "sample_bridges", fail)
        threads_before = threading.active_count()
        code = main(["schulman-paths", "--gamma", "1e-3", "--steps", "10",
                     "--samples", "100", "--seed", "1"])
        assert code == 1
        assert "numerical failure" in capsys.readouterr().err
        assert threading.active_count() == threads_before
