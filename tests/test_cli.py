"""Command-line front end: parsing, report formats, reproducibility, exit codes."""

import argparse
import concurrent.futures
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
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
from belllab.estimator import HALL_INFORMATION_BITS
from belllab.qm import chsh_pairs
from belllab.schulman import (
    BridgeSamplingError,
    PathSpec,
    endpoint_targets,
    two_photon_outcome_joint,
)


class TestParsing:
    def test_radians(self):
        assert float(parse_angle("0.5")) == 0.5

    def test_pi_multiples(self):
        assert float(parse_angle("0.125pi")) == pytest.approx(PI / 8)
        assert float(parse_angle("pi")) == 0.0  # canonical
        assert float(parse_angle("-0.125pi")) == pytest.approx(7 * PI / 8)

    def test_pi_multiples_take_a_sign_and_any_case(self):
        assert parse_angle(" 0.25PI ") == parse_angle("+0.25Pi") == parse_angle("0.25pi")
        # a bare sign is a whole turn, canonical 0 either way mod pi
        assert float(parse_angle("+pi")) == float(parse_angle("-PI")) == 0.0

    def test_bad_angle(self):
        with pytest.raises(UsageError):
            parse_angle("twelve")

    def test_settings_quadruple(self):
        s = parse_settings("0,0.25pi,0.125pi,-0.125pi")
        assert len(s) == 4
        assert float(s[1]) == pytest.approx(PI / 4)
        with pytest.raises(UsageError):
            parse_settings("0,1")
        # an empty field is an angle that does not parse, not a missing one
        for text in ("0,,0.25pi,0.125pi,-0.125pi", "0,0.25pi,0.125pi,-0.125pi,", "0,0.25pi, ,0"):
            with pytest.raises(UsageError, match="^cannot parse angle ''$"):
                parse_settings(text)

    def test_fmt_float_17_digits(self):
        assert fmt_float(1 / 3) == "0.33333333333333331"
        assert fmt_float(2.0) == "2"

    def test_csv_flattens_a_tuple_as_json_writes_it_an_array(self, tmp_path):
        report = {"pair": (PI, None), "rows": [[1, 0.5]]}
        out = tmp_path / "r.csv"
        cli.write_report(report, str(out), "csv")
        assert out.read_text() == (f"key,value\npair[0],{fmt_float(PI)}\npair[1],\n"
                                   "rows[0][0],1\nrows[0][1],0.5\n")


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

    @pytest.mark.parametrize("samples, measured", [(1000, False), (20000, True)])
    def test_run_chsh_screening_is_null_with_no_bin_to_measure(self, tmp_path, samples, measured):
        # 1000 samples leave every one of the 64 bins below MIN_BIN_COUNT
        out = tmp_path / "r.json"
        assert main(["run-chsh", "--model", "local-baseline", "--samples", str(samples),
                     "--out", str(out)]) == 0
        screening = json.loads(out.read_text())["residuals"]["screening"]
        if measured:
            assert isinstance(screening, float)
        else:
            assert screening is None

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
        assert report["discarded_winding_mass"] == endpoint_targets(spec)[2]
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

    @pytest.mark.parametrize("gamma, extra, excluded", [
        ("1e-3", ["--theta2", "0", "--steps", "2", "--samples", "3000"], 3000),
        ("1e200", ["--steps", "2", "--samples", "2000"], 2000),
    ], ids=["aligned-2-steps", "1e200-2-steps"])
    def test_schulman_paths_leaves_out_tied_kicks(self, gamma, extra, excluded, tmp_path):
        # the two kicks are r - e and e with r = 0, or r below an ulp of e: their
        # sizes tie, so no path says when its kick came
        out = tmp_path / "r.json"
        assert main(["schulman-paths", "--gamma", gamma, *extra, "--seed", "1",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["excluded_paths"] == excluded
        assert report["kick_time_histogram"] == [0, 0]
        assert report["kick_time_chi2_pvalue"] is None
        assert report["net_dominance_over_0.99_fraction"] is None
        assert report["dominance_fraction_quantiles"] is None

    def test_schulman_paths_counts_every_path_of_three_aligned_steps(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["schulman-paths", "--gamma", "1e-3", "--theta2", "0", "--steps", "3",
                     "--samples", "3000", "--seed", "1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["excluded_paths"] == 0
        assert sum(report["kick_time_histogram"]) == 3000
        assert report["kick_time_chi2_pvalue"] > 0.01

    @pytest.mark.parametrize("steps, theta2, samples, counted", [
        ("1", "0", "2000", 0), ("1", "0.125pi", "2000", 2000), ("1000", "0.125pi", "2000", 2000),
        ("10", "0.125pi", "49", 49),
    ], ids=["1-step-aligned", "1-step", "2-expected-a-bin", "4.9-expected-a-bin"])
    def test_schulman_paths_gives_no_p_value_without_a_valid_test(
        self, steps, theta2, samples, counted, tmp_path, capsys
    ):
        out = tmp_path / "r.json"
        assert main(["schulman-paths", "--gamma", "1e-3", "--theta2", theta2, "--steps", steps,
                     "--samples", samples, "--seed", "1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert sum(report["kick_time_histogram"]) == counted
        assert report["kick_time_chi2_pvalue"] is None
        assert " chi2 p=none" in capsys.readouterr().err

    def test_schulman_paths_gives_a_p_value_at_5_expected_paths_a_bin(self, tmp_path):
        # Cochran's rule holds with equality: 50 paths over 10 steps, none tied
        out = tmp_path / "r.json"
        assert main(["schulman-paths", "--gamma", "1e-3", "--steps", "10", "--samples", "50",
                     "--seed", "1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert sum(report["kick_time_histogram"]) == 50
        assert math.isfinite(report["kick_time_chi2_pvalue"])

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

    def test_schulman_paths_on_a_pool_writes_the_serial_report(self, tmp_path, monkeypatch):
        draws = []

        def recording(name):
            def call(*args):
                draws.append((name, threading.current_thread(), threading.active_count()))
                return getattr(schulman, name)(*args)

            return call

        for name in ("sample_bridges", "dominant_kick_stats", "free_kick_sums"):
            monkeypatch.setattr(cli, name, recording(name))
        threads_before = threading.active_count()
        # more than one block of free kicks, and two bridge shards
        argv = ["schulman-paths", "--gamma", "1e-3", "--steps", "20", "--samples",
                str(schulman.BRIDGE_SHARD + 5000), "--seed", "3", "--out"]
        assert main([*argv, str(tmp_path / "pool.json")]) == 0
        assert threading.active_count() == threads_before
        assert sorted(name for name, _, _ in draws) == [
            "dominant_kick_stats", "free_kick_sums", "sample_bridges",
        ]
        for name, thread, _ in draws:
            if name != "free_kick_sums":
                assert thread is threading.main_thread()

        draws.clear()
        monkeypatch.setattr(cli, "ThreadPoolExecutor", SerialExecutor)
        assert main([*argv, str(tmp_path / "serial.json")]) == 0
        assert [name for name, _, _ in draws] == [
            "free_kick_sums", "sample_bridges", "dominant_kick_stats",
        ]
        for _, thread, threads in draws:
            assert thread is threading.main_thread()
            assert threads == threads_before
        assert (tmp_path / "pool.json").read_bytes() == (tmp_path / "serial.json").read_bytes()

    @pytest.mark.parametrize("source, cpus, samples, workers", [
        (source, *case) for source in ("affinity", "cpu_count") for case in (
            (1, 1000, 1), (64, 1000, 64), (1, 10**12, 1), (64, 10**12, 64),
        )
    ] + [("cpu_count", None, 1000, 1)])  # os.cpu_count() may not know
    def test_schulman_paths_pool_has_a_thread_per_usable_cpu(
        self, source, cpus, samples, workers, monkeypatch
    ):
        sizes = []

        class Sized(Exception):
            """Raised in place of building the pool: its size is all this test reads."""

        def pool(max_workers):
            sizes.append(max_workers)
            raise Sized

        patch_usable_cpus(monkeypatch, cpus, source)
        monkeypatch.setattr(cli, "ThreadPoolExecutor", pool)
        threads_before = threading.active_count()
        with pytest.raises(Sized):
            main(["schulman-paths", "--gamma", "1e-3", "--samples", str(samples)])
        assert sizes == [workers]
        assert threading.active_count() == threads_before

    @pytest.mark.parametrize("samples, most", [(1000, 2), (3 * schulman.BRIDGE_SHARD + 1, 5)])
    def test_schulman_paths_starts_a_thread_per_task_at_most(
        self, samples, most, tmp_path, monkeypatch
    ):
        # the free kicks and 1 or 4 bridge shards: threads start as tasks arrive
        patch_usable_cpus(monkeypatch, 64)
        alive = []

        def counted(function):
            def call(*args):
                alive.append(threading.active_count())
                return function(*args)

            return call

        monkeypatch.setattr(cli, "free_kick_sums", counted(schulman.free_kick_sums))
        monkeypatch.setattr(schulman, "_conditional_step", counted(schulman._conditional_step))
        threads_before = threading.active_count()
        assert main(["schulman-paths", "--gamma", "1e-3", "--steps", "3", "--samples",
                     str(samples), "--out", str(tmp_path / "r.json")]) == 0
        assert alive and all(threads_before < n <= threads_before + most for n in alive)
        assert threading.active_count() == threads_before

    def test_run_chsh_builds_one_pool_of_at_most_the_usable_cpus(self, tmp_path, monkeypatch):
        sizes = []

        def recorded(max_workers):
            sizes.append(max_workers)
            return concurrent.futures.ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", recorded)
        threads_before = threading.active_count()
        # four correlators of four shards each share the one pool, of the
        # usable CPUs or --workers (default 1), whichever is fewer
        for workers, cpus, size in (("4", 1, 1), ("4", 2, 2), ("1", 2, 1), ("1", 64, 1),
                                    (None, 2, 1)):
            patch_usable_cpus(monkeypatch, cpus)
            sizes.clear()
            option = ["--workers", workers] if workers else []
            assert main(["run-chsh", "--model", "hall", *option, "--samples",
                         "750001", "--out", str(tmp_path / "r.json")]) == 0
            assert sizes == [size]
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
        # the closed form; the grids only size the uniformity check
        assert report["bits"] == HALL_INFORMATION_BITS
        assert "refinement" not in report
        assert report["error_estimate"] < 1e-12

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

    def test_two_photon_wide_kicks_give_the_wrapped_cauchy_correlator(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["two-photon", "--gamma", "1", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert "lambda_grid" not in report
        # cos(2(a - b)) / cosh(4 gamma), the wrapped-Cauchy correlator at width 2 gamma
        assert report["correlator"] == pytest.approx(math.sqrt(0.5) / math.cosh(4.0), rel=1e-12)

    def test_two_photon(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["two-photon", "--gamma", "0.002", "--pair", "0,0.125pi",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["max_abs_diff_vs_qm"] < 1e-4
        shares = [w["share_of_windows"] for w in report["atom_windows"].values()]
        assert shares == pytest.approx([0.25] * 4, abs=1e-12)

    def test_two_photon_holds_no_lambda_grid(self, tmp_path):
        argv = ["two-photon", "--pair", "0,0.125pi", "--out", str(tmp_path / "r.json")]
        assert main([*argv, "--gamma", "1e-2"]) == 0  # imports and caches
        tracemalloc.start()
        try:
            assert main([*argv, "--gamma", "1e-4"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a lambda grid at this gamma (251 328 points) would peak near 25 MB
        assert peak < 2**20


def patch_usable_cpus(monkeypatch, cpus, source="affinity") -> None:
    """Make `cpus` the usable CPU count, read from the affinity mask or, with
    no such call, from `os.cpu_count()`."""
    if source == "affinity":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)


class SerialExecutor:
    """Stand-in for `ThreadPoolExecutor` that runs each task on the calling
    thread: `submit` at once, `map` in order as its results are taken."""

    def __init__(self, max_workers=None):
        pass

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def map(self, fn, *iterables):
        return map(fn, *iterables)

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass


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

#: Runs whose reports hold nulls: exact correlators carry no p-value bound and
#: no residuals, and one step gives no kick-time test.
NULL_RUNS = [
    ["run-chsh", "--model", "schulman-2", "--gamma", "1e-3"],
    ["schulman-paths", "--gamma", "1e-3", "--steps", "1", "--samples", "100"],
]


def json_leaves(prefix: str, value):
    """(key, leaf) for each leaf of a parsed JSON report, keys in the CSV's spelling."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from json_leaves(f"{prefix}.{key}" if prefix else key, sub)
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from json_leaves(f"{prefix}[{i}]", sub)
    else:
        yield prefix, value


def csv_rows(text: str) -> list[list[str]]:
    """The rows after the header, each checked to be a key and a value."""
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    assert header == ["key", "value"]
    assert [len(row) for row in rows] == [2] * len(rows)
    return rows


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

    @pytest.mark.parametrize("argv", SMALL_RUNS + NULL_RUNS, ids=" ".join)
    def test_csv_parses_as_csv_and_agrees_with_json(self, argv, tmp_path):
        json_out, csv_out = tmp_path / "r.json", tmp_path / "r.csv"
        assert main([*argv, "--out", str(json_out)]) == 0
        assert main([*argv, "--format", "csv", "--out", str(csv_out)]) == 0
        fields = dict(csv_rows(csv_out.read_text(encoding="utf-8")))
        leaves = dict(json_leaves("", json.loads(json_out.read_text(encoding="utf-8"))))
        assert sorted(fields) == sorted(leaves)
        for key, leaf in leaves.items():
            if leaf is None:
                assert fields[key] == "", key
            elif isinstance(leaf, float):
                assert float(fields[key]).hex() == leaf.hex(), key
            else:  # an int or a string
                assert fields[key] == str(leaf), key
        if argv in NULL_RUNS:
            assert None in leaves.values()

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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_stdout_without_out_is_the_report_alone(self, fmt, capsys):
        assert main(["two-photon", "--gamma", "1e-2", "--format", fmt]) == 0
        captured = capsys.readouterr()
        if fmt == "json":
            report = json.loads(captured.out)
            assert report["config"]["pair"] == "0,0.125pi"
        else:
            report = dict(csv_rows(captured.out))
            assert report["config.pair"] == "0,0.125pi"
        assert report["command"] == "two-photon"
        assert captured.err.startswith("two-photon gamma=0.01 ")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_closed_stdout_exits_141_without_a_traceback(self, fmt):
        read_end, write_end = os.pipe()
        os.close(read_end)  # as `| head -1` does once it has its line
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "belllab.cli", "run-chsh", "--model", "hall",
                 "--samples", "100", "--format", fmt],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=fresh_env(), timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""

    @pytest.mark.parametrize("where, reason", [
        ("missing/r.json", "No such file or directory"),
        (".", "Is a directory"),
    ])
    def test_an_unwritable_out_is_a_usage_error(self, where, reason, tmp_path, capsys):
        out = tmp_path / where
        assert main(["run-chsh", "--model", "pr-box", "--samples", "10", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write report to {out}: {reason}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, work", [
        (["run-chsh", "--model", "hall", "--samples", "10"], "run_chsh_experiment"),
        (["schulman-paths", "--gamma", "1e-3", "--steps", "100", "--samples", "100000",
          "--seed", "2029"], "sample_bridges"),
    ], ids=lambda v: v[0] if isinstance(v, list) else v)
    def test_an_unwritable_out_is_refused_before_the_run(
        self, argv, work, tmp_path, monkeypatch, capsys
    ):
        def reached(*args, **kwargs):
            raise AssertionError(f"{work} ran")

        monkeypatch.setattr(cli, work, reached)
        out = tmp_path / "missing" / "r.json"
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write report to {out}: No such file or directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_failed_run_leaves_the_out_path_as_it_was(self, tmp_path, monkeypatch):
        def fail(spec, n_paths, rng, executor=None):
            raise BridgeSamplingError("conditional increment sampling stalled")

        monkeypatch.setattr(cli, "sample_bridges", fail)
        argv = ["schulman-paths", "--gamma", "1e-3", "--steps", "5", "--samples", "50"]
        existing = tmp_path / "old.json"
        existing.write_bytes(b'{"an": "earlier report"}\n')
        assert main([*argv, "--out", str(existing)]) == 1
        assert existing.read_bytes() == b'{"an": "earlier report"}\n'
        assert main([*argv, "--out", str(tmp_path / "new.json")]) == 1
        # a usage error found during the run does the same
        assert main(["run-chsh", "--model", "schulman-2", "--out", str(tmp_path / "new.json")]) == 2
        assert list(tmp_path.iterdir()) == [existing]

    def test_no_report_is_written_on_failure(self, writes, monkeypatch):
        def fail(spec, n_paths, rng, executor=None):
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
        # the paragraph below the table names the options every subcommand takes
        common = re.search(r"\|\n\nEvery subcommand also takes ([^.]*)\.", readme).group(1)
        flag = r"`(--[a-z][a-z0-9-]*)"
        shared = {"--seed", "--out", "--format"}
        assert set(re.findall(flag, common)) == shared
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert sorted(rows) == sorted(subparsers.choices)
        for command, parser in subparsers.choices.items():
            options = {o for action in parser._actions for o in action.option_strings}
            assert shared <= options, command
            documented = set(re.findall(flag, rows[command]))
            assert documented == options - shared - {"-h", "--help"}, command

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


def table_models(command: str) -> list[str]:
    return [key for key, entry in cli.MODELS.items() if command in entry.commands]


#: A value each `run-chsh` model option accepts, besides its default.
OPTION_VALUES = {"samples": "1000", "gamma": "1e-3", "workers": "2", "seed": "4"}

#: `run-chsh` options with no default: the models that read them require them.
REQUIRED = [option for option, default in cli.MODEL_OPTIONS.items() if default is None]


class TestModelTable:
    """`--model` choices, and the `run-chsh` options each reads, from `cli.MODELS`."""

    @pytest.mark.parametrize("model, option, value", [
        (model, option, value)
        for model in table_models("run-chsh")
        for option, default in cli.MODEL_OPTIONS.items()
        if option not in cli.MODELS[model].reads
        for value in dict.fromkeys([OPTION_VALUES[option], default]) if value is not None
    ])
    def test_an_option_the_model_does_not_read_is_refused(
        self, model, option, value, tmp_path, capsys
    ):
        # given at its default value too (schulman-2 with --samples 1000000
        # or --workers 1), the option is refused, not ignored
        out = tmp_path / "r.json"
        argv = ["run-chsh", "--model", model, f"--{option}", str(value), "--out", str(out)]
        for needed in set(cli.MODELS[model].reads) & set(REQUIRED):
            argv += [f"--{needed}", OPTION_VALUES[needed]]
        assert main(argv) == 2
        readers = [key for key, entry in cli.MODELS.items() if option in entry.reads]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --{option} is read by {', '.join(readers)} only, not by {model}\n")
        assert not out.exists()

    def test_schulman2_ignores_no_option(self, capsys):
        # this exited 0 with a report that read none of the three options
        assert main(["run-chsh", "--model", "schulman-2", "--gamma", "1e-3", "--samples", "5",
                     "--seed", "9", "--workers", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: --samples is read by ")

    @pytest.mark.parametrize("command, model", [
        (command, model) for command in ("run-chsh", "scan-settings")
        for model in table_models(command)
    ])
    def test_every_accepted_model_runs(self, command, model, tmp_path):
        out = tmp_path / "r.json"
        entry = cli.MODELS[model]
        argv = [command, "--model", model, "--out", str(out)]
        if command == "scan-settings":
            argv += ["--grid", "2"]
        else:
            for option in entry.reads:
                argv += [f"--{option}", OPTION_VALUES[option]]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        assert report["config"]["model"] == model
        if command == "run-chsh":
            # the report echoes every option the model reads but the worker count
            assert sorted(report["config"]) == sorted(
                ["model", *(o for o in entry.reads if o != "workers")])
            sampled = "samples" in entry.reads
            samples = int(OPTION_VALUES["samples"]) if sampled else 0
            assert [c["samples"] for c in report["correlators"]] == [samples] * 4
            if not sampled:  # exact correlators
                assert all(c["standard_error"] == 0.0 for c in report["correlators"])

    def test_a_sampled_model_echoes_the_default_sample_count(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["run-chsh", "--model", "pr-box", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"] == {
            "model": "pr-box", "samples": 1000000, "seed": 0}

    @pytest.mark.parametrize("model, option", [
        (model, option) for model in table_models("run-chsh")
        for option in cli.MODELS[model].reads if option in REQUIRED
    ])
    def test_an_option_without_a_default_is_required(self, model, option, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["run-chsh", "--model", model, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --{option} is required for {model}\n"
        assert not out.exists()

    def test_the_parser_offers_the_table_models(self):
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        for command in ("run-chsh", "scan-settings"):
            model = next(a for a in subparsers.choices[command]._actions if a.dest == "model")
            assert list(model.choices) == table_models(command)


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

    @pytest.mark.parametrize("argv, message", [
        (["run-chsh", "--model", "hall", "--samples", "1e6"], "invalid int value: '1e6'"),
        (["two-photon", "--gamma", "abc"], "invalid float value: 'abc'"),
    ], ids=["int", "float"])
    def test_values_that_do_not_parse_are_usage_errors(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv", [
        ["run-chsh", "--model", "hall", "--samples", "10", "--settings", "0,,0.25pi,0.125pi,-0.125pi"],
        ["run-chsh", "--model", "hall", "--samples", "10", "--settings", "0,0.25pi,0.125pi,-0.125pi,"],
        ["two-photon", "--gamma", "1e-2", "--pair", "0,,0.125pi"],
    ], ids=["settings", "trailing-comma", "pair"])
    def test_empty_angle_fields_are_usage_errors(self, argv, capsys):
        if argv[0] == "two-photon":
            # the subcommand parses --pair, so main reports the usage error
            assert main(argv) == 2
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("cannot parse angle ''\n")

    def test_schulman_models_require_gamma(self, capsys):
        assert main(["run-chsh", "--model", "schulman-2"]) == 2
        assert capsys.readouterr().err == "error: --gamma is required for schulman-2\n"
        with pytest.raises(SystemExit) as exc:
            main(["run-chsh", "--model", "schulman-2", "--gamma", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("model", ["hall", "delta-mixture", "local-baseline", "pr-box"])
    def test_run_chsh_refuses_gamma_for_the_sampled_models(self, model, capsys):
        assert main(["run-chsh", "--model", model, "--gamma", "0.5", "--samples", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --gamma is read by schulman-2 only, not by {model}\n"

    @pytest.mark.parametrize("settings, err", [
        ("0,0,0.1,0.2", "side-1 settings coincide mod pi at 0.0"),
        ("0,1pi,0.1,0.2", "side-1 settings coincide mod pi at 0.0"),
        ("0.1,0.2,0.25pi,-0.75pi", f"side-2 settings coincide mod pi at {PI / 4!r}"),
    ])
    def test_run_chsh_refuses_a_pr_box_side_with_one_angle(self, settings, err, tmp_path, capsys):
        # both settings of that side were box input 0, and S read 2.0
        out = tmp_path / "r.json"
        assert main(["run-chsh", "--model", "pr-box", "--samples", "1000",
                     f"--settings={settings}", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {err}\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("gamma", ["5e-324", "1e-300", "1e-13", "1e-12", "1e-7"])
    def test_two_photon_runs_where_its_grid_was_refused(self, gamma, tmp_path):
        # a lambda grid of 8 pi / gamma points would not be finite at 5e-324,
        # would be refused by numpy at 1e-300 and 1e-13, and 8 GB at 1e-7
        out = tmp_path / "r.json"
        start = time.perf_counter()
        assert main(["two-photon", "--gamma", gamma, "--out", str(out)]) == 0
        assert time.perf_counter() - start < 0.1
        windows = json.loads(out.read_text())["atom_windows"].values()
        assert all(0.0 < w["mass"] <= 1.0 for w in windows)
        assert [w["share_of_windows"] for w in windows] == pytest.approx([0.25] * 4, abs=1e-12)

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
        # 500 paths over 100 steps: the 5 expected a bin that the chi-square test needs
        assert main(["schulman-paths", "--gamma", gamma, "--samples", "500", *extra,
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
        # and refuses with a usage error elsewhere; schulman-2 and two-photon
        # run at any gamma
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
            # no p-value bound, but one exactly where a test is valid: more than
            # one step and 5 counted paths a bin
            report = json.loads(report)
            counted = sum(report["kick_time_histogram"])
            assert counted + report["excluded_paths"] == 300
            p = report["kick_time_chi2_pvalue"]
            if 1 < int(steps) <= counted / 5:
                assert math.isfinite(p)
            else:
                assert p is None
            assert math.isfinite(report["cauchy_stability_ks_pvalue"])
        assert run(["run-chsh", "--model", "schulman-2", "--gamma", repr(gamma),
                    "--settings", f"0,0.25pi,{theta2},0.125pi"])[0] == 0
        code, report = run(["two-photon", "--gamma", repr(gamma), "--pair", f"0,{theta2}"])
        assert code == 0
        windows = json.loads(report)["atom_windows"].values()
        assert all(0.0 <= w["mass"] <= 1.0 for w in windows)

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
            # the shards may run at once, so shard 1 is told by its one path
            if residual.size == 1:  # 2 steps: one conditional step per shard
                raise BridgeSamplingError("conditional increment sampling stalled")
            return np.zeros_like(residual)

        monkeypatch.setattr(schulman, "_conditional_step", stall_in_shard_1)
        code = main(["schulman-paths", "--gamma", "1e-3", "--steps", "2",
                     "--samples", str(schulman.BRIDGE_SHARD + 1), "--seed", "1"])
        assert code == 1
        assert sorted(sizes) == [1, schulman.BRIDGE_SHARD]
        err = capsys.readouterr().err
        assert ("numerical failure: conditional increment sampling stalled in bridge "
                "shard 1 (step 0, 64 proposal rounds)") in err

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
                     "and data type float64"),
         "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
         "and data type float64"),
        (MemoryError(), "an allocation was refused"),  # as a bare list allocation raises it
    ])
    def test_out_of_memory_exits_1_without_a_traceback(
        self, error, message, tmp_path, capsys, monkeypatch
    ):
        def fail(spec, n_paths, rng, executor=None):
            raise error

        monkeypatch.setattr(cli, "sample_bridges", fail)
        existing = tmp_path / "old.json"
        existing.write_bytes(b'{"an": "earlier report"}\n')
        threads_before = threading.active_count()
        code = main(["schulman-paths", "--gamma", "1e-3", "--samples", "100",
                     "--out", str(existing)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"out of memory: {message}\n"
        assert "Traceback" not in captured.err
        assert threading.active_count() == threads_before
        assert existing.read_bytes() == b'{"an": "earlier report"}\n'
        assert list(tmp_path.iterdir()) == [existing]

    def test_bridge_failure_leaves_no_helper_thread(self, capsys, monkeypatch):
        def fail(spec, n_paths, rng, executor=None):
            raise BridgeSamplingError("conditional increment sampling stalled")

        monkeypatch.setattr(cli, "sample_bridges", fail)
        threads_before = threading.active_count()
        code = main(["schulman-paths", "--gamma", "1e-3", "--steps", "10",
                     "--samples", "100", "--seed", "1"])
        assert code == 1
        assert "numerical failure" in capsys.readouterr().err
        assert threading.active_count() == threads_before
