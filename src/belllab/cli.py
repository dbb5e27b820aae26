"""Command-line front end: reproducible experiment runs with flat-file reports.

Subcommands map one-to-one onto library pipelines:

  run-chsh       four-settings CHSH experiment for a chosen model
  scan-settings  model vs quantum reference over a settings grid
  schulman-paths bridge-path ensemble statistics for the Levy-flight model
  mutual-info    setting information carried by the Hall hidden angle
  two-photon     two-photon Levy-flight joint distribution and posterior

JSON reports give floats in Python's shortest round-trip form, CSV reports to
17 significant digits; both read back to the same doubles.  Identical
configurations (seed included) reproduce reports byte for byte, so wall-clock
time goes to the summary on stderr.  Without --out, stdout holds only the report.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import __version__
from .core import PI, PolAngle, RngStream
from .estimator import (
    chsh_pvalue_log10,
    lambda_independence_residual,
    mutual_information_hall,
    run_chsh_experiment,
    screening_residual,
)
from .models import DeltaMixtureModel, HallModel, HiddenVariableModel, LocalBaselineModel, PRBoxModel
from .qm import chsh_pairs, chsh_value, qm_correlator, qm_joint, tsirelson_settings
from .schulman import (
    BridgeSamplingError,
    PathSpec,
    dominant_kick_stats,
    endpoint_targets,
    free_kick_sums,
    sample_bridges,
    two_photon_joint,
    two_photon_outcome_joint,
)


class ModelEntry(NamedTuple):
    """One `--model` choice.  `build(args)` gives an object with
    `joint_dist(a, b)`; `reads` names the `run-chsh` options it reads, in the
    order its report echoes them; `run-chsh` samples it if it reads "samples",
    else reports exact correlators; `commands` are the subcommands accepting it."""

    build: Callable[[argparse.Namespace], object]
    reads: tuple[str, ...]
    commands: tuple[str, ...]


SAMPLED, RUN, SCAN = ("samples", "seed", "workers"), ("run-chsh",), ("scan-settings",)

# The "qm" builder looks `qm_joint` up when called, so a wrapper put in this
# module's namespace (perfbench's tracing) is used.
MODELS = {
    "delta-mixture": ModelEntry(lambda args: DeltaMixtureModel(), SAMPLED, RUN + SCAN),
    "hall": ModelEntry(lambda args: HallModel(), SAMPLED, RUN + SCAN),
    "local-baseline": ModelEntry(lambda args: LocalBaselineModel(), SAMPLED, RUN + SCAN),
    "pr-box": ModelEntry(lambda args: PRBoxModel(args.settings), SAMPLED, RUN),
    "schulman-2": ModelEntry(lambda args: SimpleNamespace(joint_dist=functools.partial(
        two_photon_outcome_joint, gamma=args.gamma)), ("gamma",), RUN),
    "qm": ModelEntry(lambda args: SimpleNamespace(joint_dist=qm_joint), (), SCAN),
}

#: `run-chsh` options some model reads, and their defaults (None: required).
#: `--seed` is not checked: the benchmark passes it to every op (ROADMAP item 1).
MODEL_OPTIONS = {"samples": 10**6, "gamma": None, "workers": 1}


class UsageError(argparse.ArgumentTypeError, ValueError):
    """Invalid model/settings combination or malformed input.  argparse
    prints its message as given when an option's type raises it."""


def parse_angle(text: str) -> PolAngle:
    """Finite angles in radians ("0.3927") or multiples of pi ("0.125pi", "-0.5pi")."""
    text = text.strip().lower()
    try:
        if text.endswith("pi"):
            head = text[:-2]
            value = (1.0 if head in ("", "+") else -1.0 if head == "-" else float(head)) * PI
        else:
            value = float(text)
    except ValueError:
        raise UsageError(f"cannot parse angle {text!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"angle must be finite, got {text!r}")
    return PolAngle(value)


def parse_settings(text: str, count: int = 4) -> tuple[PolAngle, ...]:
    """`count` comma-separated angles; an empty field is an angle that does not parse."""
    angles = tuple(parse_angle(p) for p in text.split(","))
    if len(angles) != count:
        raise UsageError(f"expected {count} comma-separated angles, got {len(angles)}")
    return angles


def at_least(minimum: int):
    """argparse type: an integer no smaller than `minimum`, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def positive(text: str) -> float:
    """argparse type: a finite float > 0, else a usage error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _flatten(prefix: str, value, rows: list[tuple]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, rows)
    elif isinstance(value, (list, tuple)):
        for i, sub in enumerate(value):
            _flatten(f"{prefix}[{i}]", sub, rows)
    else:  # csv.writer writes None as an empty field and str() of the rest
        rows.append((prefix, fmt_float(value) if isinstance(value, float) else value))


def open_report(out: str, mode: str):
    """`out` opened for writing, or a usage error naming why it cannot be."""
    try:
        return open(out, mode, encoding="utf-8", newline="\n")
    except OSError as exc:  # stdout's BrokenPipeError is raised elsewhere, not here
        raise UsageError(f"cannot write report to {out}: {exc.strerror}") from None


def write_report(report: dict, out: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:  # argparse's choices leave only "csv"
        rows: list[tuple] = [("key", "value")]
        _flatten("", report, rows)
    # `main` checked `out` before the run, but the path can change since
    with open_report(out, "w") if out else contextlib.nullcontext(sys.stdout) as handle:
        if fmt == "json":
            handle.write(text)
        else:
            csv.writer(handle, lineterminator="\n").writerows(rows)
        handle.flush()  # a closed stdout pipe raises here, inside `main`


@contextlib.contextmanager
def thread_pool(limit: int | None = None):
    """The run's one pool: a thread per usable CPU, at most `limit`.  Threads
    start as tasks arrive, so it starts no more of them than the run has
    tasks.  On exit queued tasks are cancelled and the threads joined."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    pool = ThreadPoolExecutor(min(cpus or 1, limit or math.inf))
    try:
        yield pool
    finally:  # a failed task ends the run: its queued work is not waited for
        pool.shutdown(cancel_futures=True)


def _config_echo(args: argparse.Namespace, keys: list[str]) -> dict:
    return {key: getattr(args, key) for key in keys}


# ---------------------------------------------------------------------------
# Subcommands: each returns (report body from "config" on, stderr summary);
# `main` adds the header, writes the report and prints the summary's time.
# ---------------------------------------------------------------------------


def cmd_run_chsh(args: argparse.Namespace) -> tuple[dict, str]:
    entry = MODELS[args.model]
    # MODEL_OPTIONS parse to None, so one given at its default is refused too
    for option, default in MODEL_OPTIONS.items():
        given = getattr(args, option) is not None
        if given and option not in entry.reads:
            readers = ", ".join(key for key, e in MODELS.items() if option in e.reads)
            raise UsageError(f"--{option} is read by {readers} only, not by {args.model}")
        if not given and option in entry.reads:
            if default is None:
                raise UsageError(f"--{option} is required for {args.model}")
            setattr(args, option, default)
    settings = args.settings
    try:
        model = entry.build(args)
    except ValueError as exc:  # a PR-box side whose two settings coincide mod pi
        raise UsageError(str(exc)) from None
    # the worker count changes no result, so the report leaves it out
    config = ["model", *(option for option in entry.reads if option != "workers")]

    if "samples" not in entry.reads:
        values = [model.joint_dist(x, y).correlator() for x, y in chsh_pairs(settings)]
        correlators = [(c, 0.0, 0) for c in values]
        s_value, s_error = chsh_value(*values), 0.0
        pvalue, residuals = None, None
    else:
        rng = RngStream(args.seed)
        with thread_pool(limit=args.workers) as pool:
            chsh = run_chsh_experiment(model, settings, args.samples, rng, pool)
        residuals = {"screening": screening_residual(
            model, settings[0], settings[2], min(args.samples, 200_000), rng.substream(100)).value}
        if isinstance(model, HiddenVariableModel):
            residuals["lambda_independence"] = lambda_independence_residual(
                model, (settings[0], settings[2]), (settings[1], settings[3])
            )
        correlators = [(e.value, e.standard_error, e.sample_count) for e in chsh.correlators]
        s_value, s_error = chsh.s_value, chsh.s_standard_error
        pvalue = chsh_pvalue_log10(s_value, args.samples)

    body = {
        "config": _config_echo(args, config),
        "settings": [float(v) for v in settings],
        "correlators": [{"value": value, "standard_error": error, "samples": samples}
                        for value, error, samples in correlators],
        "s_value": s_value,
        "s_standard_error": s_error,
        "log10_pvalue_bound": pvalue,
        "residuals": residuals,
    }
    return body, f"run-chsh model={args.model} S={s_value:.6f} (+- {s_error:.6f})"


def cmd_scan_settings(args: argparse.Namespace) -> tuple[dict, str]:
    model = MODELS[args.model].build(args)
    angles = [PolAngle(i * PI / args.grid) for i in range(args.grid)]
    rows = []
    worst = 0.0
    for a in angles:
        for b in angles:
            ref = qm_joint(a, b)
            got = model.joint_dist(a, b)
            diff = got.max_abs_diff(ref)
            worst = max(worst, diff)
            rows.append({"a": float(a), "b": float(b), "correlator": got.correlator(),
                         "qm_correlator": qm_correlator(a, b), **dataclasses.asdict(got),
                         "max_abs_diff_vs_qm": diff})
    body = {"config": _config_echo(args, ["model", "grid"]), "max_abs_diff_vs_qm": worst,
            "table": rows}
    return body, f"scan-settings model={args.model} grid={args.grid} max|diff|={worst:.3e}"


def cmd_schulman_paths(args: argparse.Namespace) -> tuple[dict, str]:
    # scipy.stats takes most of a cold start, and no other subcommand uses it
    from scipy import stats

    try:
        spec = PathSpec(
            theta1=args.theta1, theta2=args.theta2, gamma=args.gamma, steps=args.steps
        )
    except ValueError as exc:  # a step width or gamma out of range
        raise UsageError(str(exc)) from None
    rng = RngStream(args.seed)
    with thread_pool() as pool:
        free = pool.submit(free_kick_sums, spec.gamma, spec.steps, args.samples, rng.substream(1))
        bridges = sample_bridges(spec, args.samples, rng.substream(0), pool)
    kicks = dominant_kick_stats(bridges)
    del bridges  # the ensemble goes before the KS test's copies of the sums
    ks = stats.kstest(free.result(), stats.cauchy(scale=spec.gamma).cdf)

    hist = kicks.kick_time_histogram
    # no test below one step or 5 expected paths a bin (Cochran 1952)
    chi2_p = float(stats.chisquare(hist).pvalue) if 1 < spec.steps <= hist.sum() / 5 else None
    body = {
        "config": _config_echo(
            args, ["gamma", "steps", "samples", "seed", "theta1", "theta2"]
        ),
        "paths": args.samples,
        "excluded_paths": kicks.excluded_paths,
        # endpoint weight the sampler's winding cut-off leaves out
        "discarded_winding_mass": endpoint_targets(spec)[2],
        "kick_time_histogram": hist.tolist(),
        "kick_time_chi2_pvalue": chi2_p,
        "cauchy_stability_ks_pvalue": float(ks.pvalue),
        "net_dominance_over_0.99_fraction": kicks.net_dominance_share,
        "dominance_fraction_quantiles": kicks.dominance_fraction_quantiles,
    }
    return body, (
        f"schulman-paths gamma={args.gamma} steps={args.steps} paths={args.samples} "
        f"KS p={ks.pvalue:.3f} chi2 p={'none' if chi2_p is None else format(chi2_p, '.3f')}"
    )


def cmd_mutual_info(args: argparse.Namespace) -> tuple[dict, str]:
    estimate = mutual_information_hall(args.lambda_grid, args.settings_grid)
    body = {
        # "model" stays the first key, so the CSV rows keep their order
        "config": {"model": "hall", **_config_echo(args, ["lambda_grid", "settings_grid"])},
        "bits": estimate.bits,
        "error_estimate": estimate.error_estimate,
    }
    return body, f"mutual-info bits={estimate.bits:.6f} (< 0.07: {estimate.bits < 0.07})"


def cmd_two_photon(args: argparse.Namespace) -> tuple[dict, str]:
    a, b = parse_settings(args.pair, count=2)
    result = two_photon_joint(a, b, args.gamma)
    windows = result.atom_window_masses(3.0 * args.gamma)
    total_window = sum(windows.values())
    diff = result.joint.max_abs_diff(qm_joint(a, b))
    body = {
        "config": _config_echo(args, ["gamma", "pair"]),
        "joint": dataclasses.asdict(result.joint),
        "correlator": result.joint.correlator(),
        "max_abs_diff_vs_qm": diff,
        "atom_windows": {
            fmt_float(atom): {
                "mass": mass,
                "share_of_windows": mass / total_window,
            }
            for atom, mass in windows.items()
        },
    }
    return body, f"two-photon gamma={args.gamma} max|diff vs QM|={diff:.3e}"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="belllab",
        description="Simulate and verify hidden-variable models of Bell-type experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def choices(command: str) -> tuple[str, ...]:
        return tuple(key for key, entry in MODELS.items() if command in entry.commands)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
        p.add_argument("--out", default=None, help="report file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("run-chsh", help="four-settings CHSH experiment")
    p.add_argument("--model", choices=choices("run-chsh"), required=True)
    p.add_argument("--settings", type=parse_settings, default=tsirelson_settings(),
                   help="a,a',b,b' (default: Tsirelson settings)")
    p.add_argument("--samples", type=at_least(1),
                   help=f"samples per correlator (default {MODEL_OPTIONS['samples']})")
    p.add_argument("--gamma", type=positive)
    p.add_argument("--workers", type=at_least(1), help=f"at most this many threads, and no "
                   f"more than the usable CPUs (default {MODEL_OPTIONS['workers']}); no result "
                   f"depends on it")
    common(p)
    p.set_defaults(func=cmd_run_chsh)

    p = sub.add_parser("scan-settings", help="model vs QM over a settings grid")
    p.add_argument("--model", choices=choices("scan-settings"), required=True)
    p.add_argument("--grid", type=at_least(2), default=16)
    common(p)
    p.set_defaults(func=cmd_scan_settings)

    p = sub.add_parser("schulman-paths", help="bridge-path ensemble statistics")
    p.add_argument("--gamma", type=positive, required=True)
    p.add_argument("--steps", type=at_least(1), default=100)
    p.add_argument("--samples", type=at_least(1), default=10**5, help="number of paths")
    p.add_argument("--theta1", type=parse_angle, default=PolAngle(0.0))
    p.add_argument("--theta2", type=parse_angle, default=PolAngle(PI / 8))
    common(p)
    p.set_defaults(func=cmd_schulman_paths)

    p = sub.add_parser(
        "mutual-info",
        help="setting information in the Hall hidden angle",
        description="Setting information carried by the Hall model's hidden angle.  Only "
        "the Hall model is offered: the delta mixture's hidden angle is atom-valued, so "
        "its continuous-prior mutual information diverges logarithmically with bin "
        "resolution and cannot be compared to the Hall-model bound.",
    )
    p.add_argument("--lambda-grid", type=at_least(512), default=2048)
    p.add_argument("--settings-grid", type=at_least(64), default=64)
    common(p)
    p.set_defaults(func=cmd_mutual_info)

    p = sub.add_parser("two-photon", help="two-photon Levy-flight joint distribution")
    p.add_argument("--gamma", type=positive, required=True)
    p.add_argument("--pair", default="0,0.125pi", help="a,b settings")
    common(p)
    p.set_defaults(func=cmd_two_photon)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.out:
            # refuse an unwritable path before the run; "a" truncates nothing,
            # and a file made here goes again, so a failed run leaves none
            existed = os.path.lexists(args.out)
            open_report(args.out, "a").close()
            if not existed:
                os.remove(args.out)
        started = time.perf_counter()
        body, summary = args.func(args)
        elapsed = time.perf_counter() - started
        write_report({"command": args.command, "version": __version__, **body},
                     args.out, args.format)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BridgeSamplingError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the refused allocation, a bare one nothing
        print(f"out of memory: {str(exc) or 'an allocation was refused'}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout (`| head`): stop as `yes | head` does, with
        # 128 + SIGPIPE, and point stdout at devnull so the exit flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    print(f"{summary}, {elapsed:.2f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
