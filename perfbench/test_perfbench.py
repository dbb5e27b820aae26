"""Tests of the benchmark's own machinery: self-time arithmetic, wrapper
installation and removal, and the report checks."""

import copy
import json
import threading
import types
from pathlib import Path

import pytest

import run
import workloads
from tracing import Span, Tracer, covered_length, install_layer_wrappers, self_times

import belllab.cli
import belllab.core
import belllab.estimator
import belllab.models
import belllab.schulman


# -- self-time arithmetic -----------------------------------------------------


def test_covered_length_merges_and_clips():
    assert covered_length([], 0.0, 1.0) == 0.0
    assert covered_length([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)], 0.0, 10.0) == 6.0
    assert covered_length([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0


def test_self_times_of_nested_and_overlapping_spans():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a, as a second thread would
        Span("leaf", 2.0, 3.0, 1),
        Span("a", 7.0, 8.0, 0),
    ]
    assert self_times(spans) == {"root": 4.0, "a": 3.0, "b": 3.0, "leaf": 1.0}


def _toy_module():
    mod = types.ModuleType("toy")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) * 2

    def fan_out(x):
        threads = [threading.Thread(target=mod.leaf, args=(x,)) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        return x

    mod.leaf, mod.outer, mod.fan_out = leaf, outer, fan_out
    return mod


def test_tracer_links_spans_to_their_caller_and_counts_calls():
    mod = _toy_module()
    tracer = Tracer()
    tracer.wrap(mod, "leaf", "toy.leaf")
    tracer.wrap(mod, "outer", "toy.outer")
    tracer.wrap(mod, "fan_out", "toy.fan_out", extra=lambda r: {"toy.fanned": 2})
    assert mod.outer(1) == 4
    mod.fan_out(0)
    names = [s.name for s in tracer.spans]
    parents = [s.parent for s in tracer.spans]
    assert names == ["toy.outer", "toy.leaf", "toy.fan_out", "toy.leaf", "toy.leaf"]
    # pool-thread spans hang off the span open in the main thread
    assert parents == [-1, 0, -1, 2, 2]
    assert tracer.counts == {
        "toy.outer.calls": 1, "toy.leaf.calls": 3, "toy.fan_out.calls": 1, "toy.fanned": 2,
    }


# -- wrapper installation ------------------------------------------------------


def test_wrappers_are_installed_where_callers_look_and_then_restored():
    lookups = {
        (belllab.cli, "sample_bridges"): belllab.schulman.sample_bridges,
        (belllab.estimator, "estimate_correlator"): belllab.estimator.estimate_correlator,
        (belllab.estimator, "hall_density"): belllab.models.hall_density,
        (belllab.models, "hall_density"): belllab.models.hall_density,
        (belllab.cli, "main"): belllab.cli.main,
    }
    tracer = Tracer()
    install_layer_wrappers(tracer)
    try:
        patched = {(owner, attr): original for owner, attr, original in tracer._patches}
        assert set(lookups) <= set(patched)
        for (owner, attr), original in patched.items():
            assert vars(owner)[attr] is not original
            assert vars(owner)[attr].__wrapped__ is original
    finally:
        tracer.uninstall()
    for (owner, attr), original in patched.items():
        assert vars(owner)[attr] is original
    for (owner, attr), original in lookups.items():
        assert getattr(owner, attr) is original
    assert "joint_dist" not in vars(belllab.models.HallModel)
    assert not hasattr(belllab.core.RngStream.substream, "__wrapped__")


SMALL_OPS = (
    workloads.Op("run_chsh_w2_s", ("run-chsh", "--model", "hall", "--samples", "600000",
                                   "--workers", "2"), workloads.check_chsh_quantum),
    workloads.Op("scan_settings_s", ("scan-settings", "--model", "hall", "--grid", "2"),
                 workloads.check_scan),
    workloads.Op("two_photon_s", ("two-photon", "--gamma", "1e-2"), lambda r: []),
    workloads.Op("schulman_paths_s", ("schulman-paths", "--gamma", "1e-3", "--steps", "10",
                                      "--samples", "2000"), lambda r: []),
)


def test_traced_counts_repeat_and_reports_are_unchanged(tmp_path):
    plain = workloads.run_pass(belllab.cli, SMALL_OPS, 5, tmp_path)
    assert plain.failed == []
    counts = []
    for _ in range(2):
        tracer = Tracer()
        install_layer_wrappers(tracer)
        try:
            traced = workloads.run_pass(belllab.cli, SMALL_OPS, 5, tmp_path, plain.reports)
        finally:
            tracer.uninstall()
        assert traced.failed == []
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]
    assert counts[0]["estimator.shards"] == 4 * 3
    assert counts[0]["models.joint_dist.calls"] == 4


# -- report checks -------------------------------------------------------------

GOOD_REPORTS = {
    workloads.check_chsh_quantum: {"s_value": 2.8290, "s_standard_error": 0.002},
    workloads.check_chsh_local: {"s_value": 1.4140, "s_standard_error": 0.002},
    workloads.check_chsh_prbox: {"s_value": 4.0, "s_standard_error": 0.0},
    workloads.check_chsh_two_photon: {"s_value": 2.8283, "s_standard_error": 0.0},
    workloads.check_scan: {"max_abs_diff_vs_qm": 3e-12},
    workloads.check_mutual_info: {"bits": 0.0462, "error_estimate": 2e-4},
    workloads.check_two_photon: {"max_abs_diff_vs_qm": 4e-5},
    workloads.check_paths: {"cauchy_stability_ks_pvalue": 0.38, "kick_time_chi2_pvalue": 0.6},
}

CORRUPTIONS = [
    (workloads.check_chsh_quantum, "s_value", 2.80),
    (workloads.check_chsh_quantum, "s_standard_error", 1e-5),
    (workloads.check_chsh_local, "s_value", 2.0),
    (workloads.check_chsh_prbox, "s_value", 3.999),
    (workloads.check_chsh_prbox, "s_standard_error", 1e-3),
    (workloads.check_chsh_two_photon, "s_value", 2.0),
    (workloads.check_scan, "max_abs_diff_vs_qm", 2e-9),
    (workloads.check_mutual_info, "bits", 0.07),
    (workloads.check_mutual_info, "error_estimate", 1e-3),
    (workloads.check_two_photon, "max_abs_diff_vs_qm", 1e-3),
    (workloads.check_paths, "cauchy_stability_ks_pvalue", 0.009),
    (workloads.check_paths, "kick_time_chi2_pvalue", 0.01),
]


def test_every_workload_check_has_a_good_and_a_corrupted_case():
    used = {op.check for ops in workloads.WORKLOADS.values() for op in ops}
    assert used == set(GOOD_REPORTS) == {check for check, _, _ in CORRUPTIONS}


@pytest.mark.parametrize("check", list(GOOD_REPORTS), ids=lambda c: c.__name__)
def test_check_accepts_good_report(check):
    assert check(GOOD_REPORTS[check]) == []


@pytest.mark.parametrize("check,key,value", CORRUPTIONS,
                         ids=[f"{c.__name__}-{k}" for c, k, _ in CORRUPTIONS])
def test_check_flags_corrupted_report(check, key, value):
    report = copy.deepcopy(GOOD_REPORTS[check])
    report[key] = value
    assert check(report)


class FakeCli:
    """Stands in for belllab.cli: writes a canned report per subcommand."""

    def __init__(self, reports, status=0):
        self.reports, self.status = reports, status
        self.calls = 0

    def main(self, argv):
        self.calls += 1
        out = Path(argv[argv.index("--out") + 1])
        report = self.reports(argv, self.calls)
        out.write_text(json.dumps(report))
        return self.status


def _chsh_report(argv, calls):
    workers = argv[argv.index("--workers") + 1]
    return {"command": "run-chsh", "workers_leak": workers, "s_value": 2.8284,
            "s_standard_error": 0.002}


def test_run_pass_flags_worker_dependent_report(tmp_path):
    ops = workloads.WORKLOADS["mc-chsh"]
    result = workloads.run_pass(FakeCli(_chsh_report), (ops[0], ops[4]), 1, tmp_path)
    assert len(result.failed) == 1 and "differs from that of op 0" in result.failed[0]


def test_run_pass_flags_exit_status_wrong_command_and_changed_report(tmp_path):
    op = workloads.WORKLOADS["exact-scan"][0]
    good = {"command": "scan-settings", "max_abs_diff_vs_qm": 0.0}
    assert workloads.run_pass(FakeCli(lambda a, c: good, status=1), (op,), 1, tmp_path).failed
    wrong = dict(good, command="two-photon")
    assert workloads.run_pass(FakeCli(lambda a, c: wrong), (op,), 1, tmp_path).failed
    drifting = FakeCli(lambda a, c: dict(good, max_abs_diff_vs_qm=c * 1e-12))
    first = workloads.run_pass(drifting, (op,), 1, tmp_path)
    assert first.failed == []
    again = workloads.run_pass(drifting, (op,), 1, tmp_path, first.reports)
    assert again.failed and "first pass" in again.failed[0]


# -- reporting -------------------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 10) is None
    values = [float(i) for i in range(1, 101)]
    assert run.tail_percentile(values) == (90, 90.0)
    assert run.tail_percentile(values[:20]) == (50, 10.0)


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER
    )
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
