"""Benchmark of the belllab CLI at the acceptance-gate sizes.

Usage (from the repository root):

    python3 perfbench/run.py --workload {mc-chsh,exact-scan,levy,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload is a closed loop: one client in one process runs the
workload's CLI invocations in-process through ``belllab.cli.main``, pass
after pass, for about ``--seconds`` seconds, and checks every report.

--trace 0 prints the end-to-end metrics: ``setup_s`` (median of fresh
processes that import the CLI and warm up each subcommand), ``wall_s``
(median untraced pass) and ``peak_rss_mb``.  --trace 1 alternates untraced
and traced passes and prints the per-layer metrics: self times and counts
from wrappers around each layer's entry points, the per-subcommand timings
of the untraced passes, and the tracing overhead.  Human-readable lines come
first; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs each
workload in its own process and merges their results.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy
import scipy

from tracing import COUNTED, TIMED_LAYERS, Tracer, install_layer_wrappers, occupied_fraction
from workloads import ROOT, SUBCOMMAND_METRICS, WORKLOADS, load_cli, run_pass, warm_up

HERE = Path(__file__).resolve().parent
#: fresh processes timed per run for setup_s
SETUP_SAMPLES = 3
PROCESS_TIMEOUT_S = 120
DOMINANCE_KEY = "net_dominance_over_0.99_fraction"

#: (name, unit) of the metrics --trace 0 prints
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
OCCUPIED_FRACTION = "estimator.screening_residual.occupied_fraction"


def share_name(subcommand_metric: str) -> str:
    return subcommand_metric.removesuffix("_s") + "_share"


#: (name, unit, better) of the metrics --trace 1 prints.  Times a workload
#: never spends would read exactly 0 s on every run, so per-subcommand and
#: per-layer times go out as shares of the pass; the seconds are printed
#: above the JSON line, and traced_wall_s converts shares back to seconds.
PER_LAYER = (
    *((share_name(name), "1", "lower") for name in SUBCOMMAND_METRICS),
    ("traced_wall_s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
    *((f"{span}.self_share", "1", "lower") for span in TIMED_LAYERS),
    *((name, unit, "lower") for name, unit in COUNTED),
    (OCCUPIED_FRACTION, "1", "higher"),
)


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank), or None while there are too few samples."""
    n = len(values)
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(values)[math.ceil(p * n / 100) - 1]


def describe(name: str, values: list[float], unit: str) -> str:
    line = f"{name:<18} {statistics.median(values):.4f} {unit}  (median of {len(values)}"
    tail = tail_percentile(values)
    if tail is not None:
        line += f"; p{tail[0]} {tail[1]:.4f} {unit}"
    return line + ")"


def time_setup(out_dir: Path) -> float:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(out_dir)],
        check=True, timeout=PROCESS_TIMEOUT_S, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def run_for(seconds: float, kinds) -> list:
    """Cycle through ``kinds`` (callables taking the first pass's reports, or
    None for the first pass) at least once each, then while the next pass is
    expected to end within ``seconds``."""
    results: list = []
    start = time.perf_counter()
    for run in itertools.cycle(kinds):
        if len(results) >= len(kinds) and (
            time.perf_counter() - start + results[-1].wall_s > seconds
        ):
            break
        results.append(run(results[0].reports if results else None))
    return results


def machine_line() -> str:
    return (
        f"machine: nproc={os.cpu_count()} arch={platform.machine()} "
        f"python={platform.python_version()} numpy={numpy.__version__} scipy={scipy.__version__}"
    )


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(cli, args, out_dir: Path) -> dict:
    ops = WORKLOADS[args.workload]
    setup = [time_setup(out_dir) for _ in range(SETUP_SAMPLES)]
    warm_up(cli, out_dir)

    passes = run_for(args.seconds, [partial(run_pass, cli, ops, args.seed, out_dir)])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(describe("setup_s", setup, "s") + " fresh processes")
    print(describe("wall_s", [p.wall_s for p in passes], "s") + " untraced passes")
    for name in SUBCOMMAND_METRICS:
        if name in passes[0].times:
            print(describe(name, [p.times[name] for p in passes], "s"))
    print(f"{'peak_rss_mb':<18} {peak_mb:.1f} MB")
    return summarize(passes, len(ops), {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(statistics.median(p.wall_s for p in passes), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    })


def traced_run(cli, args, out_dir: Path) -> dict:
    ops = WORKLOADS[args.workload]
    warm_up(cli, out_dir)
    self_times: list[dict[str, float]] = []
    counts: list[dict[str, int]] = []

    untraced = partial(run_pass, cli, ops, args.seed, out_dir)

    def traced(reference):
        tracer = Tracer()
        install_layer_wrappers(tracer)
        try:
            result = untraced(reference)
        finally:
            tracer.uninstall()
        self_times.append(tracer.self_times())
        counts.append(dict(tracer.counts))
        return result

    passes = run_for(args.seconds, [untraced, traced])
    plain, with_trace = passes[0::2], passes[1::2]
    plain_wall = statistics.median(p.wall_s for p in plain)
    traced_wall = statistics.median(p.wall_s for p in with_trace)
    print(describe("wall_s", [p.wall_s for p in plain], "s") + " untraced passes")
    print(describe("traced_wall_s", [p.wall_s for p in with_trace], "s") + " traced passes")
    print(f"{'trace_overhead_s':<18} {traced_wall - plain_wall:.4f} s")
    values = {
        "traced_wall_s": metric(traced_wall, "s"),
        "trace_overhead_s": metric(traced_wall - plain_wall, "s"),
    }
    for name in SUBCOMMAND_METRICS:
        share = statistics.median(p.times.get(name, 0.0) / p.wall_s for p in plain)
        values[share_name(name)] = metric(share, "1")
        if name in plain[0].times:
            print(describe(name, [p.times[name] for p in plain], "s") + f" share {share:.4f}")
    for span in TIMED_LAYERS:
        share = statistics.median(t.get(span, 0.0) / p.wall_s for t, p in zip(self_times, with_trace))
        values[f"{span}.self_share"] = metric(share, "1")
        if share:
            seconds = [t.get(span, 0.0) for t in self_times]
            print(describe(f"{span}.self_s", seconds, "s") + f" share {share:.4f}")
    for name, unit in COUNTED:
        values[name] = metric(counts[0].get(name, 0), unit)
    values[OCCUPIED_FRACTION] = metric(occupied_fraction(counts[0]), "1")
    for name, entry in values.items():
        if entry["unit"] != "s" and not name.endswith("share") and entry["value"]:
            print(f"{name} {entry['value']} {entry['unit']}")
    extra = []
    if any(c != counts[0] for c in counts):
        extra.append("trace counts differ between traced passes")
    return summarize(passes, len(ops), {name: values[name] for name, _, _ in PER_LAYER}, extra)


def summarize(passes, ops_per_pass: int, metrics: dict, extra: list[str] = ()) -> dict:
    failed = [line for p in passes for line in p.failed]
    for data in passes[0].reports:
        with contextlib.suppress(ValueError, TypeError):  # failed ops are listed below
            report = json.loads(data)
            if DOMINANCE_KEY in report:
                print(f"criterion 8 dominance fraction (reported, not checked; fails by "
                      f"design): {report[DOMINANCE_KEY]}")
    for line in [*failed, *extra]:
        print(f"FAILED: {line}")
    attempted = ops_per_pass * len(passes)
    print(f"{'failed_ops':<18} {len(failed)} / {attempted} ops attempted")
    return {
        "correct": not failed and not extra,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Run each workload in its own process; merge metrics as <workload>.<name>."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=args.seconds + 600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines() or [""]
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(f"error: workload {name} exited with status {proc.returncode} "
                  "and no result", file=sys.stderr)
            return 2
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        cli = load_cli()
    except ImportError as exc:
        print(f"error: cannot import belllab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    print(machine_line())
    print(f"workload {args.workload}: closed loop, 1 client, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True)
    try:
        result = (traced_run if args.trace else timed_run)(cli, args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            out_dir.parent.rmdir()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
