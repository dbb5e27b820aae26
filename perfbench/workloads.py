"""The benchmark's workloads, the checks on the reports they write, and the
code that runs a pass of them in-process through ``belllab.cli.main``.

Sizes are those of the acceptance gate (tests/test_acceptance.py), and the
checks use the gate's own tolerances.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

#: Seed of the gate's bridge criterion (8).  schulman-paths always runs with
#: it: its KS and chi-square checks are significance tests at p > 0.01, which
#: an exact sampler fails on 1% of seeds, so a seed the benchmark draws would
#: turn that false-alarm rate into failed runs.
GATE_BRIDGE_SEED = 2029


def check_chsh_quantum(r: dict) -> list[str]:
    """Criterion 3: S within 5 standard errors of 2*sqrt(2)."""
    err = abs(r["s_value"] - TSIRELSON_BOUND)
    if err < 5.0 * r["s_standard_error"]:
        return []
    return [f"|S - 2sqrt2| = {err:.3e} not < 5 SE = {5.0 * r['s_standard_error']:.3e}"]


def check_chsh_local(r: dict) -> list[str]:
    """Criterion 3: the local baseline obeys S < 2."""
    return [] if r["s_value"] < 2.0 else [f"S = {r['s_value']!r} not < 2"]


def check_chsh_prbox(r: dict) -> list[str]:
    """Criterion 3: the PR box gives S = 4 exactly, with no spread."""
    if r["s_value"] == 4.0 and r["s_standard_error"] == 0.0:
        return []
    return [f"S = {r['s_value']!r} +- {r['s_standard_error']!r}, want 4 +- 0"]


def check_chsh_two_photon(r: dict) -> list[str]:
    """Criterion 7's joint tolerance 1e-3, carried through the four
    correlators of S (each moves by at most 4x the joint error)."""
    err = abs(r["s_value"] - TSIRELSON_BOUND)
    return [] if err < 16e-3 else [f"|S - 2sqrt2| = {err:.3e} not < 1.6e-2"]


def check_scan(r: dict) -> list[str]:
    """Criterion 2: every joint on the grid within 1e-9 of QM."""
    d = r["max_abs_diff_vs_qm"]
    return [] if d < 1e-9 else [f"max |joint - QM| = {d:.3e} not < 1e-9"]


def check_mutual_info(r: dict) -> list[str]:
    """Criterion 9: under 0.07 bits with error estimate under 1e-3."""
    out = []
    if not r["bits"] < 0.07:
        out.append(f"bits = {r['bits']!r} not < 0.07")
    if not r["error_estimate"] < 1e-3:
        out.append(f"error estimate = {r['error_estimate']!r} not < 1e-3")
    return out


def check_two_photon(r: dict) -> list[str]:
    """Criterion 7: max |joint - QM| < 1e-3."""
    d = r["max_abs_diff_vs_qm"]
    return [] if d < 1e-3 else [f"max |joint - QM| = {d:.3e} not < 1e-3"]


def check_paths(r: dict) -> list[str]:
    """Criterion 8's KS (Cauchy stability) and chi-square (kick times)
    clauses.  Its dominance clause fails by design and is only reported."""
    out = []
    for key in ("cauchy_stability_ks_pvalue", "kick_time_chi2_pvalue"):
        if not r[key] > 0.01:
            out.append(f"{key} = {r[key]!r} not > 0.01")
    return out


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a pass, checked on the report it writes."""

    #: the per-subcommand timing this invocation counts towards
    metric: str
    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]
    #: fixed CLI seed, or None to use the benchmark seed
    seed: int | None = None
    #: index of an earlier op of the pass whose report must be byte-identical
    same_report_as: int | None = None

    def command(self, seed: int, out: str) -> list[str]:
        used = self.seed if self.seed is not None else seed
        return [*self.argv, "--seed", str(used), "--out", out]


def _chsh(model: str, workers: int) -> tuple[str, ...]:
    return ("run-chsh", "--model", model, "--samples", "1000000", "--workers", str(workers))


WORKLOADS: dict[str, tuple[Op, ...]] = {
    "mc-chsh": (
        Op("run_chsh_s", _chsh("hall", 1), check_chsh_quantum),
        Op("run_chsh_s", _chsh("delta-mixture", 1), check_chsh_quantum),
        Op("run_chsh_s", _chsh("local-baseline", 1), check_chsh_local),
        Op("run_chsh_s", _chsh("pr-box", 1), check_chsh_prbox),
        Op("run_chsh_w2_s", _chsh("hall", 2), check_chsh_quantum, same_report_as=0),
    ),
    "exact-scan": (
        Op("scan_settings_s", ("scan-settings", "--model", "hall", "--grid", "16"), check_scan),
        Op("scan_settings_s", ("scan-settings", "--model", "delta-mixture", "--grid", "16"),
           check_scan),
        Op("mutual_info_s",
           ("mutual-info", "--lambda-grid", "2048", "--settings-grid", "64"), check_mutual_info),
    ),
    "levy": (
        Op("schulman_paths_s",
           ("schulman-paths", "--gamma", "1e-3", "--steps", "100", "--samples", "100000"),
           check_paths, seed=GATE_BRIDGE_SEED),
        Op("two_photon_s", ("two-photon", "--gamma", "1e-4", "--pair", "0,0.125pi"),
           check_two_photon),
        Op("run_chsh_s", ("run-chsh", "--model", "schulman-2", "--gamma", "1e-5"),
           check_chsh_two_photon),
    ),
}

#: Per-subcommand timings, each the time of that subcommand's invocations in
#: one pass.
SUBCOMMAND_METRICS = (
    "run_chsh_s", "run_chsh_w2_s", "scan_settings_s", "mutual_info_s",
    "schulman_paths_s", "two_photon_s",
)

#: One small invocation of each subcommand, run before anything is timed.
WARM_UP = (
    ("run-chsh", "--model", "hall", "--samples", "1000"),
    ("scan-settings", "--model", "hall", "--grid", "2"),
    ("mutual-info", "--lambda-grid", "512", "--settings-grid", "64"),
    ("schulman-paths", "--gamma", "1e-3", "--steps", "10", "--samples", "1000"),
    ("two-photon", "--gamma", "1e-2"),
)


def load_cli():
    """Import ``belllab.cli`` from the checkout's ``src``, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import belllab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"belllab was imported from {cli.__file__}, not from {src}")
    return cli


def run_op(cli, argv: list[str], check, out: Path) -> tuple[float, list[str], bytes | None]:
    """Time one ``cli.main`` call; return (seconds, problems, report bytes)."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            status = cli.main(argv)
    except Exception:  # an op that raises counts as failed; the run goes on
        return time.perf_counter() - start, [traceback.format_exc()], None
    seconds = time.perf_counter() - start
    if status != 0:
        return seconds, [f"exit status {status}: {sink.getvalue().strip()}"], None
    data = out.read_bytes()
    try:
        report = json.loads(data)
        problems = [] if report["command"] == argv[0] else [f"report of {report['command']!r}"]
        problems += check(report)
    except (ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable report: {exc!r}"]
    return seconds, problems, data


@dataclass
class PassResult:
    wall_s: float
    #: per-subcommand seconds in this pass
    times: dict[str, float]
    reports: list[bytes | None]
    #: one line per failed op
    failed: list[str] = field(default_factory=list)


def run_pass(cli, ops, seed: int, out_dir: Path, reference: list | None = None) -> PassResult:
    """Run every op once.  An op fails on a nonzero exit, a failed check, or a
    report that differs from ``reference`` (the first pass's reports, since
    every pass repeats the same inputs) or from its ``same_report_as`` op."""
    times: dict[str, float] = defaultdict(float)
    reports: list[bytes | None] = []
    failed: list[str] = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        out = out_dir / f"op{i}.json"
        seconds, problems, data = run_op(cli, op.command(seed, str(out)), op.check, out)
        times[op.metric] += seconds
        if data is not None:
            if reference is not None and data != reference[i]:
                problems.append("report differs from the first pass's")
            if op.same_report_as is not None and data != reports[op.same_report_as]:
                problems.append(f"report differs from that of op {op.same_report_as}")
        if problems:
            failed.append(f"{' '.join(op.argv)}: {'; '.join(problems)}")
        reports.append(data)
    return PassResult(time.perf_counter() - start, dict(times), reports, failed)


def warm_up(cli, out_dir: Path) -> None:
    """Run WARM_UP; raise RuntimeError if an invocation fails."""
    out = out_dir / "warm-up.json"
    for argv in WARM_UP:
        _, problems, _ = run_op(cli, [*argv, "--out", str(out)], lambda report: [], out)
        if problems:
            raise RuntimeError(f"warm-up {' '.join(argv)} failed: {'; '.join(problems)}")
