"""Command-line front end: reproducible experiment runs with flat-file reports.

Subcommands map one-to-one onto library pipelines:

  run-chsh       four-settings CHSH experiment for a chosen model
  scan-settings  model vs quantum reference over a settings grid
  schulman-paths bridge-path ensemble statistics for the Levy-flight model
  mutual-info    setting information carried by the Hall hidden angle
  two-photon     two-photon Levy-flight joint distribution and posterior

Reports are written as JSON or CSV with 17 significant digits; identical
configurations (including the seed) reproduce reports byte for byte, so
wall-clock timing goes to the summary line on stderr and is kept out of the
reports.  Without --out, stdout carries the report and nothing else.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

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
from .qm import chsh_pairs, chsh_value, qm_correlator, qm_joint
from .schulman import (
    DOMINANCE_THRESHOLD,
    BridgeSamplingError,
    PathSpec,
    discarded_winding_mass,
    dominant_kick_stats,
    free_kick_sums,
    sample_bridges,
    two_photon_joint,
    two_photon_outcome_joint,
)

#: Model id -> (builder from the settings quadruple, or None where the
#: subcommand computes the model itself; subcommands accepting the id).
MODELS = {
    "delta-mixture": (lambda settings: DeltaMixtureModel(), ("run-chsh", "scan-settings")),
    "hall": (lambda settings: HallModel(), ("run-chsh", "scan-settings")),
    "local-baseline": (lambda settings: LocalBaselineModel(), ("run-chsh", "scan-settings")),
    "pr-box": (PRBoxModel, ("run-chsh",)),
    "schulman-2": (None, ("run-chsh",)),
    "qm": (None, ("scan-settings",)),
}


def model_choices(command: str) -> tuple[str, ...]:
    return tuple(key for key, (_, commands) in MODELS.items() if command in commands)


def build_model(model_id: str, settings: tuple[PolAngle, ...]):
    return MODELS[model_id][0](settings)


class UsageError(ValueError):
    """Invalid model/settings combination or malformed input."""


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
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != count:
        raise UsageError(f"expected {count} comma-separated angles, got {len(parts)}")
    return tuple(parse_angle(p) for p in parts)


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


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, rows)
    elif isinstance(value, (list, tuple)):
        for i, sub in enumerate(value):
            _flatten(f"{prefix}[{i}]", sub, rows)
    elif isinstance(value, float):
        rows.append((prefix, fmt_float(value)))
    else:
        rows.append((prefix, str(value)))


def write_report(report: dict, out: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:  # argparse's choices leave only "csv"
        rows: list[tuple[str, str]] = []
        _flatten("", report, rows)
        lines = ["key,value"]
        for key, value in rows:
            lines.append(f"{key},{value}")
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed pipe raises here, inside `main`


def _config_echo(args: argparse.Namespace, keys: list[str]) -> dict:
    return {key: getattr(args, key) for key in keys}


# ---------------------------------------------------------------------------
# Subcommands: each returns (report body from "config" on, stderr summary);
# `main` adds the header, writes the report and prints the summary's time.
# ---------------------------------------------------------------------------


def cmd_run_chsh(args: argparse.Namespace) -> tuple[dict, str]:
    settings = args.settings

    if args.model == "schulman-2":
        if args.gamma is None:
            raise UsageError("--gamma is required for schulman-2")
        values = [
            two_photon_outcome_joint(x, y, args.gamma).correlator()
            for x, y in chsh_pairs(settings)
        ]
        config = ["model", "gamma"]
        correlators = [(c, 0.0, 0) for c in values]
        s_value, s_error = chsh_value(*values), 0.0
        pvalue, residuals = None, None
    else:
        rng = RngStream(args.seed)
        model = build_model(args.model, settings)
        chsh = run_chsh_experiment(model, settings, args.samples, rng, workers=args.workers)
        residuals = {
            "screening": screening_residual(
                model, settings[0], settings[2], min(args.samples, 200_000), rng.substream(100)
            ).value
        }
        if isinstance(model, HiddenVariableModel):
            residuals["lambda_independence"] = lambda_independence_residual(
                model, (settings[0], settings[2]), (settings[1], settings[3])
            )
        config = ["model", "samples", "seed"]
        correlators = [(e.value, e.standard_error, e.sample_count) for e in chsh.correlators]
        s_value, s_error = chsh.s_value, chsh.s_standard_error
        pvalue = chsh_pvalue_log10(min(s_value, 4.0), args.samples)

    body = {
        "config": _config_echo(args, config),
        "settings": [float(v) for v in settings],
        "correlators": [
            {"value": value, "standard_error": error, "samples": samples}
            for value, error, samples in correlators
        ],
        "s_value": s_value,
        "s_standard_error": s_error,
        "log10_pvalue_bound": pvalue,
        "residuals": residuals,
    }
    return body, f"run-chsh model={args.model} S={s_value:.6f} (+- {s_error:.6f})"


def cmd_scan_settings(args: argparse.Namespace) -> tuple[dict, str]:
    # no scan model reads the settings quadruple (the PR box is not scanned)
    model = None if args.model == "qm" else build_model(args.model, ())
    angles = [PolAngle(i * PI / args.grid) for i in range(args.grid)]
    rows = []
    worst = 0.0
    for a in angles:
        for b in angles:
            ref = qm_joint(a, b)
            got = ref if model is None else model.joint_dist(a, b)
            diff = got.max_abs_diff(ref)
            worst = max(worst, diff)
            rows.append(
                {
                    "a": float(a),
                    "b": float(b),
                    "correlator": got.correlator(),
                    "qm_correlator": qm_correlator(a, b),
                    "p_pp": got.p_pp,
                    "p_pm": got.p_pm,
                    "p_mp": got.p_mp,
                    "p_mm": got.p_mm,
                    "max_abs_diff_vs_qm": diff,
                }
            )
    body = {
        "config": _config_echo(args, ["model", "grid"]),
        "max_abs_diff_vs_qm": worst,
        "table": rows,
    }
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
    kicks = dominant_kick_stats(sample_bridges(spec, args.samples, rng.substream(0)), spec.gamma)
    sums = free_kick_sums(spec.gamma, spec.steps, args.samples, rng.substream(1))
    ks = stats.kstest(sums, stats.cauchy(scale=spec.gamma).cdf)

    hist = kicks.kick_time_histogram
    if spec.steps > 1 and hist.sum() > 0:
        chi2_p = float(stats.chisquare(hist).pvalue)
    else:
        chi2_p = 1.0
    net_dom = kicks.net_dominance
    body = {
        "config": _config_echo(
            args, ["gamma", "steps", "samples", "seed", "theta1", "theta2"]
        ),
        "paths": args.samples,
        "excluded_paths": kicks.excluded_paths,
        # endpoint weight the sampler's winding cut-off leaves out
        "discarded_winding_mass": discarded_winding_mass(spec),
        "kick_time_histogram": hist.tolist(),
        "kick_time_chi2_pvalue": chi2_p,
        "cauchy_stability_ks_pvalue": float(ks.pvalue),
        "net_dominance_over_0.99_fraction": float(np.mean(net_dom > DOMINANCE_THRESHOLD))
        if net_dom.size
        else None,
        "dominance_fraction_quantiles": {
            "q05": float(np.quantile(kicks.dominance_fraction, 0.05)),
            "q50": float(np.quantile(kicks.dominance_fraction, 0.50)),
            "q95": float(np.quantile(kicks.dominance_fraction, 0.95)),
        }
        if kicks.dominance_fraction.size
        else None,
    }
    return body, (
        f"schulman-paths gamma={args.gamma} steps={args.steps} paths={args.samples} "
        f"KS p={ks.pvalue:.3f} chi2 p={chi2_p:.3f}"
    )


def cmd_mutual_info(args: argparse.Namespace) -> tuple[dict, str]:
    estimate = mutual_information_hall(args.lambda_grid, args.settings_grid)
    body = {
        # "model" stays the first key, so the CSV rows keep their order
        "config": {"model": "hall", **_config_echo(args, ["lambda_grid", "settings_grid"])},
        "bits": estimate.bits,
        "error_estimate": estimate.error_estimate,
        "refinement": {
            "halved_grid_bits": estimate.halved_grid_bits,
            "abs_change": abs(estimate.halved_grid_bits - estimate.bits),
        },
    }
    return body, f"mutual-info bits={estimate.bits:.6f} (< 0.07: {estimate.bits < 0.07})"


def cmd_two_photon(args: argparse.Namespace) -> tuple[dict, str]:
    a, b = parse_settings(args.pair, count=2)
    try:
        result = two_photon_joint(a, b, args.gamma)
    except ValueError as exc:  # a lambda grid too fine to size
        raise UsageError(str(exc)) from None
    windows = result.atom_window_masses(3.0 * args.gamma)
    total_window = sum(windows.values())
    diff = result.joint.max_abs_diff(qm_joint(a, b))
    body = {
        "config": _config_echo(args, ["gamma", "pair"]),
        "lambda_grid": result.lam.size,
        "joint": {
            "p_pp": result.joint.p_pp,
            "p_pm": result.joint.p_pm,
            "p_mp": result.joint.p_mp,
            "p_mm": result.joint.p_mm,
        },
        "correlator": result.joint.correlator(),
        "max_abs_diff_vs_qm": diff,
        "atom_windows": {
            fmt_float(atom): {
                "mass": mass,
                "share_of_windows": mass / total_window if total_window else None,
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

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
        p.add_argument("--out", default=None, help="report file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("run-chsh", help="four-settings CHSH experiment")
    p.add_argument("--model", choices=model_choices("run-chsh"), required=True)
    p.add_argument("--settings", type=parse_settings, default=parse_settings("0,0.25pi,0.125pi,-0.125pi"),
                   help="a,a',b,b' (default: Tsirelson settings)")
    p.add_argument("--samples", type=at_least(1), default=10**6, help="samples per correlator")
    p.add_argument("--gamma", type=positive, default=None)
    p.add_argument("--workers", type=at_least(1), default=1,
                   help="worker threads; does not affect results")
    common(p)
    p.set_defaults(func=cmd_run_chsh)

    p = sub.add_parser("scan-settings", help="model vs QM over a settings grid")
    p.add_argument("--model", choices=model_choices("scan-settings"), required=True)
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
    except BrokenPipeError:
        # the reader closed stdout (`| head`): stop as `yes | head` does, with
        # 128 + SIGPIPE, and point stdout at devnull so the exit flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    print(f"{summary}, {elapsed:.2f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
