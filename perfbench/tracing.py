"""Outside-in tracing of belllab's layers for the benchmark's traced run.

The benchmark wraps the public entry points of ``core``, ``qm``, ``models``,
``estimator``, ``schulman`` and ``cli`` from here, without touching the
package: each wrapper is installed in the namespace the caller looks the
name up in, and removed again before any untraced timing.  A wrapper either
records a span (name, start, end, parent) or only counts calls; counting is
used for functions called tens of thousands of times per pass, whose time
stays in the caller's self time.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: index of the span that caused this one, -1 for a root span
    parent: int


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi)
    total = 0.0
    cur_start = cur_end = None
    for s, e in clipped:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-name sum of span duration minus the part its child spans cover.

    Children running in parallel threads can overlap; the part covered is
    the union of their intervals, so self time is wall time not spent in
    any child.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        out[span.name] += (span.end - span.start) - covered_length(
            children[index], span.start, span.end
        )
    return dict(out)


class Tracer:
    """Spans and counters recorded by wrappers it installs and removes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = defaultdict(list)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def _enter(self, name: str) -> int:
        stack = self._stacks[threading.get_ident()]
        if stack:
            parent = stack[-1]
        else:
            # Pool threads only run inside a call made from the main thread
            # (the shard dispatch of estimate_correlator), so the span open
            # there is the one that caused them.
            main = self._stacks.get(threading.main_thread().ident)
            parent = main[-1] if main else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    # -- wrappers -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, timed: bool = True, extra=None) -> None:
        """Replace ``owner.attr`` (a module global or a class method) by a
        wrapper that counts ``<name>.calls``, records a span named ``name``
        when ``timed``, and adds the counters ``extra(result)`` returns."""
        original = vars(owner)[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.count(f"{name}.calls")
            if not timed:
                result = original(*args, **kwargs)
            else:
                index = self._enter(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._exit(index)
            if extra is not None:
                for key, n in extra(result).items():
                    self.count(key, n)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back to its original object."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        return self_times(self.spans)


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap belllab's layer entry points where their callers look them up."""
    from belllab import cli, core, estimator, models, schulman

    def screening_bins(result):
        return {
            "estimator.screening_residual.occupied_bins": result.occupied_bins,
            "estimator.screening_residual.excluded_bins": result.excluded_bins,
        }

    def two_photon_sizes(result):
        # bytes of the arrays the grid computation returns, from their sizes
        return {
            "schulman.two_photon_joint.grid_points": result.lam.size,
            "schulman.two_photon_joint.bytes_computed": result.lam.nbytes
            + result.mass_by_outcome.nbytes,
        }

    w = tracer.wrap
    w(cli, "main", "cli.main")
    w(cli, "write_report", "cli.write_report")
    w(cli, "qm_joint", "qm.qm_joint", timed=False)
    w(core.RngStream, "substream", "core.RngStream.substream", timed=False)

    w(models.HiddenVariableModel, "joint_dist", "models.joint_dist")
    w(models.HiddenVariableModel, "sample_outcomes", "models.sample_outcomes")
    for cls in (models.HallModel, models.DeltaMixtureModel, models.LocalBaselineModel):
        w(cls, "sample_lambdas", f"models.{cls.__name__}.sample_lambdas")
    w(models.PRBoxModel, "sample_runs", "models.PRBoxModel.sample_runs")
    w(models, "hall_density", "models.hall_density", timed=False)

    w(estimator, "estimate_correlator", "estimator.estimate_correlator")
    w(estimator, "_shard_sizes", "estimator._shard_sizes", timed=False,
      extra=lambda sizes: {"estimator.shards": len(sizes)})
    w(estimator, "hall_density", "estimator.hall_density", timed=False)
    w(cli, "screening_residual", "estimator.screening_residual", extra=screening_bins)
    w(cli, "lambda_independence_residual", "estimator.lambda_independence_residual")
    w(cli, "mutual_information_hall", "estimator.mutual_information_hall")

    w(cli, "sample_bridges", "schulman.sample_bridges")
    w(schulman, "endpoint_targets", "schulman.endpoint_targets")
    w(cli, "free_kick_sums", "schulman.free_kick_sums")
    w(cli, "dominant_kick_stats", "schulman.dominant_kick_stats",
      extra=lambda kicks: {"schulman.dominant_kick_stats.excluded_paths": kicks.excluded_paths})
    w(cli, "two_photon_joint", "schulman.two_photon_joint", extra=two_photon_sizes)
    w(schulman, "periodized_cauchy", "schulman.periodized_cauchy")
    w(schulman.TwoPhotonResult, "atom_window_masses", "schulman.TwoPhotonResult.atom_window_masses")


#: Spans whose self time the traced run reports.
TIMED_LAYERS = (
    "models.sample_outcomes",
    "models.HallModel.sample_lambdas",
    "models.DeltaMixtureModel.sample_lambdas",
    "models.LocalBaselineModel.sample_lambdas",
    "models.PRBoxModel.sample_runs",
    "models.joint_dist",
    "estimator.estimate_correlator",
    "estimator.screening_residual",
    "estimator.lambda_independence_residual",
    "estimator.mutual_information_hall",
    "schulman.sample_bridges",
    "schulman.endpoint_targets",
    "schulman.free_kick_sums",
    "schulman.dominant_kick_stats",
    "schulman.two_photon_joint",
    "schulman.periodized_cauchy",
    "schulman.TwoPhotonResult.atom_window_masses",
    "cli.write_report",
    "cli.main",
)

#: (counter, unit) the traced run reports; they repeat exactly between passes.
COUNTED = (
    ("models.joint_dist.calls", "count"),
    ("models.hall_density.calls", "count"),
    ("estimator.shards", "count"),
    ("estimator.hall_density.calls", "count"),
    ("schulman.dominant_kick_stats.excluded_paths", "count"),
    ("schulman.two_photon_joint.grid_points", "count"),
    ("schulman.two_photon_joint.bytes_computed", "B"),
    ("schulman.periodized_cauchy.calls", "count"),
    ("qm.qm_joint.calls", "count"),
    ("core.RngStream.substream.calls", "count"),
)


def occupied_fraction(counts: dict[str, int]) -> float:
    """Occupied screening bins over occupied plus excluded ones (0 if none)."""
    occupied = counts.get("estimator.screening_residual.occupied_bins", 0)
    excluded = counts.get("estimator.screening_residual.excluded_bins", 0)
    return occupied / (occupied + excluded) if occupied + excluded else 0.0
