"""Command-line front end: reproducible experiment runs with flat-file reports.

Subcommands map one-to-one onto library pipelines:

  run-chsh       four-settings CHSH experiment for a chosen model
  scan-settings  model vs quantum reference over a settings grid
  schulman-paths bridge-path ensemble statistics for the Levy-flight model
  mutual-info    setting information carried by the Hall hidden angle
  two-photon     two-photon Levy-flight joint distribution and posterior

Reports are written as JSON or CSV with 17 significant digits; identical
configurations (including the seed) reproduce reports byte for byte, so
wall-clock timing is printed to stdout only and kept out of the files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time

import numpy as np
from scipy import stats

from . import __version__
from .core import PI, PolAngle, RngStream
from .estimator import (
    chsh_pvalue_log10,
    estimate_correlator,
    lambda_independence_residual,
    mutual_information_hall,
    run_chsh_experiment,
    screening_residual,
)
from .models import DeltaMixtureModel, HallModel, LocalBaselineModel, PRBoxModel
from .qm import qm_correlator, qm_joint
from .schulman import (
    BridgeSamplingError,
    PathSpec,
    ResolutionError,
    _discarded_winding_mass,
    dominant_kick_stats,
    endpoint_targets,
    free_kick_sums,
    sample_bridges,
    two_photon_joint,
    two_photon_outcome_joint,
)

DEFAULT_SEED_ENV = "BELLLAB_DEFAULT_SEED"

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
    """Angles in radians ("0.3927") or multiples of pi ("0.125pi", "-0.5pi")."""
    text = text.strip().lower()
    try:
        if text.endswith("pi"):
            head = text[:-2]
            factor = 1.0 if head in ("", "+") else -1.0 if head == "-" else float(head)
            return PolAngle(factor * PI)
        return PolAngle(float(text))
    except ValueError:
        raise UsageError(f"cannot parse angle {text!r}") from None


def parse_settings(text: str, count: int = 4) -> tuple[PolAngle, ...]:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != count:
        raise UsageError(f"expected {count} comma-separated angles, got {len(parts)}")
    return tuple(parse_angle(p) for p in parts)


def load_config_file(path: str) -> dict[str, str]:
    """Flat key=value document, one key per line, '#' comments allowed."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def default_seed() -> int:
    raw = os.environ.get(DEFAULT_SEED_ENV)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{DEFAULT_SEED_ENV} must be an integer, got {raw!r}") from None


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
    elif fmt == "csv":
        rows: list[tuple[str, str]] = []
        _flatten("", report, rows)
        lines = ["key,value"]
        for key, value in rows:
            lines.append(f"{key},{value}")
        text = "\n".join(lines) + "\n"
    else:
        raise UsageError(f"unknown output format {fmt!r}")
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _config_echo(args: argparse.Namespace, keys: list[str]) -> dict:
    echo = {}
    for key in keys:
        value = getattr(args, key)
        if isinstance(value, tuple):
            value = [float(v) for v in value]
        echo[key] = value
    return echo


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_run_chsh(args: argparse.Namespace) -> int:
    settings = args.settings
    rng = RngStream(args.seed)
    started = time.perf_counter()

    if args.model == "schulman-2":
        if args.gamma is None or args.gamma <= 0:
            raise UsageError("--gamma > 0 is required for schulman-2")
        a, a_p, b, b_p = settings
        correlators = [
            two_photon_outcome_joint(x, y, args.gamma).correlator()
            for x, y in ((a, b), (a_p, b), (a, b_p), (a_p, b_p))
        ]
        s = abs(correlators[0] + correlators[1] + correlators[2] - correlators[3])
        report = {
            "command": "run-chsh",
            "version": __version__,
            "config": _config_echo(args, ["model", "gamma"]),
            "settings": [float(v) for v in settings],
            "correlators": [
                {"value": c, "standard_error": 0.0, "samples": 0} for c in correlators
            ],
            "s_value": s,
            "s_standard_error": 0.0,
            "log10_pvalue_bound": None,
            "residuals": None,
        }
    else:
        model = build_model(args.model, settings)
        chsh = run_chsh_experiment(model, settings, args.samples, rng, workers=args.workers)
        residuals: dict[str, float] = {
            "screening": screening_residual(
                model, settings[0], settings[2], min(args.samples, 200_000),
                lambda_bins=64, rng=rng.substream(100),
            ).value
        }
        if getattr(model, "exposes_lambda", False):
            residuals["lambda_independence"] = lambda_independence_residual(
                model, (settings[0], settings[2]), (settings[1], settings[3])
            )
        report = {
            "command": "run-chsh",
            "version": __version__,
            "config": _config_echo(args, ["model", "samples", "seed"]),
            "settings": [float(v) for v in settings],
            "correlators": [
                {"value": e.value, "standard_error": e.standard_error, "samples": e.sample_count}
                for e in chsh.correlators
            ],
            "s_value": chsh.s_value,
            "s_standard_error": chsh.s_standard_error,
            "log10_pvalue_bound": chsh_pvalue_log10(min(chsh.s_value, 4.0), args.samples),
            "residuals": residuals,
        }

    elapsed = time.perf_counter() - started
    write_report(report, args.out, args.format)
    print(
        f"run-chsh model={args.model} S={report['s_value']:.6f} "
        f"(+- {report['s_standard_error']:.6f}), {elapsed:.2f}s"
    )
    return 0


def cmd_scan_settings(args: argparse.Namespace) -> int:
    if args.grid < 2:
        raise UsageError("--grid must be >= 2")
    # no scan model reads the settings quadruple (the PR box is not scanned)
    model = None if args.model == "qm" else build_model(args.model, ())
    started = time.perf_counter()
    angles = [PolAngle(i * PI / args.grid) for i in range(args.grid)]
    rows = []
    worst = 0.0
    for a in angles:
        for b in angles:
            ref = qm_joint(a, b)
            if model is None:
                got = ref
            else:
                got = model.joint_dist(a, b)
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
    report = {
        "command": "scan-settings",
        "version": __version__,
        "config": _config_echo(args, ["model", "grid"]),
        "max_abs_diff_vs_qm": worst,
        "table": rows,
    }
    elapsed = time.perf_counter() - started
    write_report(report, args.out, args.format)
    print(f"scan-settings model={args.model} grid={args.grid} "
          f"max|diff|={worst:.3e}, {elapsed:.2f}s")
    return 0


def cmd_schulman_paths(args: argparse.Namespace) -> int:
    if args.gamma is None or args.gamma <= 0:
        raise UsageError("--gamma > 0 is required for schulman-paths")
    spec = PathSpec(
        theta1=args.theta1, theta2=args.theta2, gamma=args.gamma, steps=args.steps
    )
    rng = RngStream(args.seed)
    started = time.perf_counter()
    paths = sample_bridges(spec, args.samples, rng.substream(0))
    kicks = dominant_kick_stats(paths, spec.gamma)

    sums = free_kick_sums(spec.gamma, spec.steps, args.samples, rng.substream(1))
    ks = stats.kstest(sums, stats.cauchy(scale=spec.gamma).cdf)

    hist = kicks.kick_time_histogram
    if spec.steps > 1 and hist.sum() > 0:
        chi2 = stats.chisquare(hist)
        chi2_p = float(chi2.pvalue)
    else:
        chi2_p = 1.0
    net_dom = kicks.net_dominance
    report = {
        "command": "schulman-paths",
        "version": __version__,
        "config": _config_echo(
            args, ["gamma", "steps", "samples", "seed", "theta1", "theta2"]
        ),
        "paths": int(paths.shape[0]),
        "excluded_paths": kicks.excluded_paths,
        # endpoint weight the sampler's winding cut-off leaves out
        "discarded_winding_mass": _discarded_winding_mass(spec, endpoint_targets(spec)[0]),
        "kick_time_histogram": hist.tolist(),
        "kick_time_chi2_pvalue": chi2_p,
        "cauchy_stability_ks_pvalue": float(ks.pvalue),
        "net_dominance_over_0.99_fraction": float(np.mean(net_dom > 0.99))
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
    elapsed = time.perf_counter() - started
    write_report(report, args.out, args.format)
    print(
        f"schulman-paths gamma={args.gamma} steps={args.steps} paths={args.samples} "
        f"KS p={ks.pvalue:.3f} chi2 p={chi2_p:.3f}, {elapsed:.2f}s"
    )
    return 0


def cmd_mutual_info(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    estimate = mutual_information_hall(args.lambda_grid or 2048, args.settings_grid)
    report = {
        "command": "mutual-info",
        "version": __version__,
        # "model" stays the first key, so the CSV rows keep their order
        "config": {"model": "hall", **_config_echo(args, ["lambda_grid", "settings_grid"])},
        "bits": estimate.bits,
        "error_estimate": estimate.error_estimate,
        "refinement": {
            "halved_grid_bits": estimate.halved_grid_bits,
            "abs_change": abs(estimate.halved_grid_bits - estimate.bits),
        },
    }
    elapsed = time.perf_counter() - started
    write_report(report, args.out, args.format)
    print(f"mutual-info bits={estimate.bits:.6f} (< 0.07: {estimate.bits < 0.07}), "
          f"{elapsed:.2f}s")
    return 0


def cmd_two_photon(args: argparse.Namespace) -> int:
    if args.gamma is None or args.gamma <= 0:
        raise UsageError("--gamma > 0 is required for two-photon")
    a, b = parse_settings(args.pair, count=2)
    # 8 grid points per gamma width, and no fewer than two_photon_joint accepts
    grid = args.lambda_grid or max(64, math.ceil(8 * PI / args.gamma))
    started = time.perf_counter()
    result = two_photon_joint(a, b, args.gamma, grid)
    ref = qm_joint(a, b)
    windows = result.atom_window_masses(3.0 * args.gamma)
    total_window = sum(windows.values())
    report = {
        "command": "two-photon",
        "version": __version__,
        "config": _config_echo(args, ["gamma", "pair"]),
        "lambda_grid": grid,
        "joint": {
            "p_pp": result.joint.p_pp,
            "p_pm": result.joint.p_pm,
            "p_mp": result.joint.p_mp,
            "p_mm": result.joint.p_mm,
        },
        "correlator": result.joint.correlator(),
        "max_abs_diff_vs_qm": result.joint.max_abs_diff(ref),
        "atom_windows": {
            fmt_float(atom): {
                "mass": mass,
                "share_of_windows": mass / total_window if total_window else None,
            }
            for atom, mass in windows.items()
        },
    }
    elapsed = time.perf_counter() - started
    write_report(report, args.out, args.format)
    print(
        f"two-photon gamma={args.gamma} max|diff vs QM|="
        f"{report['max_abs_diff_vs_qm']:.3e}, {elapsed:.2f}s"
    )
    return 0


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
    parser.add_argument("--config", help="flat key=value config file; flags override")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (default: ${DEFAULT_SEED_ENV} or 0)")
        p.add_argument("--out", default=None, help="report file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("run-chsh", help="four-settings CHSH experiment")
    p.add_argument("--model", choices=model_choices("run-chsh"), required=True)
    p.add_argument("--settings", type=parse_settings, default=parse_settings("0,0.25pi,0.125pi,-0.125pi"),
                   help="a,a',b,b' (default: Tsirelson settings)")
    p.add_argument("--samples", type=int, default=10**6, help="samples per correlator")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--workers", type=int, default=1,
                   help="worker threads; does not affect results")
    common(p)
    p.set_defaults(func=cmd_run_chsh)

    p = sub.add_parser("scan-settings", help="model vs QM over a settings grid")
    p.add_argument("--model", choices=model_choices("scan-settings"), required=True)
    p.add_argument("--grid", type=int, default=16)
    common(p)
    p.set_defaults(func=cmd_scan_settings)

    p = sub.add_parser("schulman-paths", help="bridge-path ensemble statistics")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--samples", type=int, default=10**5, help="number of paths")
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
    p.add_argument("--lambda-grid", type=int, default=None)
    p.add_argument("--settings-grid", type=int, default=64)
    common(p)
    p.set_defaults(func=cmd_mutual_info)

    p = sub.add_parser("two-photon", help="two-photon Levy-flight joint distribution")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--pair", default="0,0.125pi", help="a,b settings")
    p.add_argument("--lambda-grid", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_two_photon)

    return parser


def apply_config_file(argv: list[str]) -> list[str]:
    """Expand --config key=value pairs into leading flags so that explicit
    command-line flags take precedence."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    try:
        path = argv[idx + 1]
    except IndexError:
        raise UsageError("--config requires a path") from None
    values = load_config_file(path)
    rest = argv[:idx] + argv[idx + 2 :]
    file_command = values.pop("command", None)
    if rest and not rest[0].startswith("-"):
        command, rest = rest[0], rest[1:]
    elif file_command is not None:
        command = file_command
    else:
        raise UsageError("config file must define a command (or pass one explicitly)")
    injected: list[str] = []
    for key, value in values.items():
        injected.extend([f"--{key.replace('_', '-')}", value])
    return [command, *injected, *rest]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(apply_config_file(argv))
        if getattr(args, "seed", None) is None:
            args.seed = default_seed()
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResolutionError, BridgeSamplingError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
