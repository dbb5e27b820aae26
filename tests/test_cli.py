"""Command-line front end: parsing, report formats, reproducibility, exit codes."""

import argparse
import json
import math

import pytest

from belllab import cli, schulman
from belllab.cli import (
    UsageError,
    fmt_float,
    load_config_file,
    main,
    parse_angle,
    parse_settings,
)
from belllab.core import PI
from belllab.schulman import BridgeSamplingError, PathSpec, expected_net_dominance


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


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# comment\nmodel=hall\nsamples=1000  # inline\n\nseed=7\n")
        assert load_config_file(str(path)) == {
            "model": "hall",
            "samples": "1000",
            "seed": "7",
        }

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("model hall\n")
        with pytest.raises(UsageError):
            load_config_file(str(path))

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("command=run-chsh\nmodel=hall\nsamples=2000\nseed=5\n")
        out = tmp_path / "r.json"
        assert main(["--config", str(cfg), "run-chsh", "--seed", "8",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["seed"] == 8
        assert report["config"]["samples"] == 2000


class TestReports:
    def run(self, argv):
        return main(argv)

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["run-chsh", "--model", "hall", "--samples", "20000", "--seed", "3"]
        assert self.run(argv + ["--out", str(out1)]) == 0
        assert self.run(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_count_does_not_change_report(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        base = ["run-chsh", "--model", "hall", "--samples", "600000", "--seed", "3"]
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

    def test_env_var_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BELLLAB_DEFAULT_SEED", "77")
        out = tmp_path / "r.json"
        assert self.run(["run-chsh", "--model", "hall", "--samples", "5000",
                         "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["seed"] == 77

    def test_explicit_seed_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BELLLAB_DEFAULT_SEED", "77")
        out = tmp_path / "r.json"
        assert self.run(["run-chsh", "--model", "hall", "--samples", "5000",
                         "--seed", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["seed"] == 1


class TestSubcommands:
    def test_run_chsh_pr_box(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["run-chsh", "--model", "pr-box", "--samples", "10000",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["s_value"] == 4.0
        assert report["s_standard_error"] == 0.0

    def test_run_chsh_schulman2_analytic(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["run-chsh", "--model", "schulman-2", "--gamma", "0.002",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["s_value"] == pytest.approx(2 * math.sqrt(2), abs=1e-3)
        assert all(c["standard_error"] == 0.0 for c in report["correlators"])
        # nothing is drawn, so samples and seed are not echoed
        assert report["config"] == {"model": "schulman-2", "gamma": 0.002}

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


class TestParser:
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
    ])
    def test_options_no_subcommand_reads_are_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_schulman_models_require_gamma(self):
        assert main(["run-chsh", "--model", "schulman-2"]) == 2
        assert main(["run-chsh", "--model", "schulman-2", "--gamma", "0"]) == 2

    def test_run_chsh_has_no_lambda_grid(self, capsys):
        # the schulman-2 joint is exact, so there is no grid to size
        with pytest.raises(SystemExit) as exc:
            main(["run-chsh", "--model", "schulman-2", "--gamma", "1e-3",
                  "--lambda-grid", "100"])
        assert exc.value.code == 2
        assert "--lambda-grid" in capsys.readouterr().err

    def test_bridge_sampling_failure(self, capsys, monkeypatch):
        def stall(residual, d1, d2, gen, max_rounds):
            raise BridgeSamplingError("conditional increment sampling stalled", -1, max_rounds)

        monkeypatch.setattr(schulman, "_conditional_step", stall)
        code = main(["schulman-paths", "--gamma", "1e-3", "--steps", "10",
                     "--samples", "100", "--seed", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "numerical failure" in err and "step 0" in err

    def test_two_photon_resolution_failure(self, capsys):
        code = main(["two-photon", "--gamma", "0.001", "--lambda-grid", "100"])
        assert code == 1
        assert "grid" in capsys.readouterr().err
