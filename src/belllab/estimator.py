"""Monte-Carlo and exact estimation: correlators, CHSH values, locality
residuals, mutual information and certification bounds.

Sampling work is split into fixed-size logical shards, shard i drawing
from rng.substream(i), so results are bit-identical whether the shards run
in order on the calling thread or as tasks of an executor the caller passes.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor
from dataclasses import dataclass

import numpy as np

from .core import PI, PolAngle, RngStream
from .models import AnyModel, HiddenVariableModel, hall_density
from .qm import chsh_pairs, chsh_value

SHARD_SIZE = 250_000

#: Equal bins of [0, pi) for a `screening_residual` lambda with no piece index.
SCREENING_BINS = 64

#: Fewest samples a `screening_residual` bin needs to be used, not excluded.
MIN_BIN_COUNT = 100

#: Exact settings-averaged Hall information, (2 - 2 ln 2 - Si(pi)/pi) / ln 2
#: bits, the double nearest the value at 40 digits.
HALL_INFORMATION_BITS = 0.03493596644866032


@dataclass(frozen=True)
class CorrelatorEstimate:
    """Sample mean of A*B with its standard error."""

    value: float
    standard_error: float
    sample_count: int


@dataclass(frozen=True)
class ChshReport:
    """The four correlators entering the CHSH combination and its value S."""

    correlators: tuple[
        CorrelatorEstimate, CorrelatorEstimate, CorrelatorEstimate, CorrelatorEstimate
    ]
    s_value: float
    s_standard_error: float


@dataclass(frozen=True)
class MIEstimate:
    """Settings-averaged mutual information, in bits."""

    bits: float
    error_estimate: float


@dataclass(frozen=True)
class ScreeningResult:
    """Worst factorization residual over occupied lambda bins, None if none is."""

    value: float | None
    occupied_bins: int
    excluded_bins: int


def _shard_sizes(n: int) -> list[int]:
    """Fixed decomposition of n samples, independent of how the shards run."""
    full, rest = divmod(n, SHARD_SIZE)
    return [SHARD_SIZE] * full + ([rest] if rest else [])


def estimate_correlator(
    model: AnyModel,
    a: float,
    b: float,
    n: int,
    rng: RngStream,
    executor: Executor | None = None,
) -> CorrelatorEstimate:
    """Monte-Carlo estimate of <AB> from n sampled runs, its shards run as
    `executor` tasks or, without one, in order on the calling thread.  Its
    mean is (n - 2 d) / n, rounded once, d the shards' disagreement count."""
    if n < 1:
        raise ValueError("n must be >= 1")
    sizes = _shard_sizes(n)

    def run_shard(index: int, size: int) -> int:
        return model.count_disagreements(a, b, size, rng.substream(index))

    disagreements = sum((executor.map if executor else map)(run_shard, range(len(sizes)), sizes))
    mean = (n - 2 * disagreements) / n
    variance = (n / max(n - 1, 1)) * (1.0 - mean * mean)  # A*B is +-1: the mean fixes it
    return CorrelatorEstimate(
        value=mean,
        standard_error=math.sqrt(variance / n),
        sample_count=n,
    )


def run_chsh_experiment(
    model: AnyModel,
    settings: tuple[float, float, float, float],
    n_per_correlator: int,
    rng: RngStream,
    executor: Executor | None = None,
) -> ChshReport:
    """Estimate all four CHSH correlators and combine them into S."""
    pairs = chsh_pairs(tuple(PolAngle(s) for s in settings))
    estimates = tuple(
        estimate_correlator(model, x, y, n_per_correlator, rng.substream(i), executor)
        for i, (x, y) in enumerate(pairs)
    )
    s = chsh_value(*(e.value for e in estimates))
    s_err = math.sqrt(sum(e.standard_error**2 for e in estimates))
    return ChshReport(
        correlators=estimates,
        s_value=s,
        s_standard_error=s_err,
    )


def peres_identity_check(a1: int, a2: int, b1: int, b2: int) -> int:
    """(A + A')B + (A - A')B'; equals +-2 for every +-1 assignment."""
    for v in (a1, a2, b1, b2):
        if v not in (+1, -1):
            raise ValueError("outcomes must be +-1")
    return (a1 + a2) * b1 + (a1 - a2) * b2


def screening_residual(
    model: AnyModel, a: float, b: float, n: int, rng: RngStream
) -> ScreeningResult:
    """Empirical check that outcomes factorize given (binned) lambda.

    Returns the worst |P(A,B | bin) - P(A | bin) P(B | bin)| over occupied
    bins and outcome pairs of one `sample_runs` draw.  A run's bin is the
    piece index it returns (a Hall segment, a delta-mixture atom, or the PR
    box's one piece, which measures the raw outcome correlation), on which
    outcome probabilities are constant; with no index (the local baseline),
    one of SCREENING_BINS equal bins of lambda, a binning bias of about
    (pi/64)^2/12 ~ 2e-4, below the 200 000-sample noise of about 0.01.
    Bins with fewer than MIN_BIN_COUNT samples are excluded and counted; if
    none is left, the residual is None, not 0.
    In all four cells of a bin of t runs it is +-(n++ n-- - n+- n-+) / t^2,
    from exact int64 counts, so it is rounded once, correctly while t^2 <
    2^53 (94 906 265 runs; the CLI's screening draw has at most 200 000).
    """
    index, lams, a_plus, b_plus = model.sample_runs(a, b, n, rng)
    if index is None:
        index = np.minimum((lams / PI * SCREENING_BINS).astype(np.intp), SCREENING_BINS - 1)
    index = index.astype(np.intp, copy=False)  # `4 * index` wraps in piece_index's uint8

    # counts[bin] as (++, +-, -+, --), from one pass over the samples
    codes = 4 * index + 2 * ~a_plus + ~b_plus
    counts = np.bincount(codes, minlength=4 * index.max(initial=0) + 4).reshape(-1, 4)
    total = counts.sum(axis=1)
    excluded = int(np.count_nonzero((total > 0) & (total < MIN_BIN_COUNT)))
    kept = total >= MIN_BIN_COUNT
    occupied = int(np.count_nonzero(kept))
    pp, pm, mp, mm = counts[kept].T
    worst = np.max(np.abs(pp * mm - pm * mp) / total[kept] ** 2, initial=0.0)
    return ScreeningResult(
        value=float(worst) if occupied else None, occupied_bins=occupied, excluded_bins=excluded
    )


def lambda_independence_residual(
    model: HiddenVariableModel,
    settings_1: tuple[float, float],
    settings_2: tuple[float, float],
) -> float:
    """Total-variation distance between the lambda distributions at two
    settings pairs; zero iff the model treats them identically."""
    if not isinstance(model, HiddenVariableModel):
        raise ValueError("model exposes no hidden angle")
    dist_1, dist_2 = (model.lambda_distribution(*pair) for pair in (settings_1, settings_2))
    return dist_1.total_variation(dist_2)


def mutual_information_hall(lambda_grid: int = 2048, settings_grid: int = 64) -> MIEstimate:
    """I(lambda : a, b) for the Hall model, uniform settings prior.

    `bits` is the closed form `HALL_INFORMATION_BITS` (Hall, PRL 105,
    250404 (2010)).  The closed form is I + KL(rho_bar || 1/pi), where
    rho_bar is the settings-averaged density, so it is I exactly when
    rho_bar is uniform.  `error_estimate` checks that premise: the largest
    |pi rho_bar - 1| on a lambda_grid-point grid, with rho_bar averaged over
    a uniform settings_grid x settings_grid grid on [0, pi)^2.
    """
    if lambda_grid < 512:
        raise ValueError("lambda_grid must be >= 512")
    if settings_grid < 64:
        raise ValueError("settings_grid must be >= 64 per axis")

    lam = (np.arange(lambda_grid) + 0.5) * PI / lambda_grid
    grid = np.arange(settings_grid) * PI / settings_grid
    mean_density = np.zeros(lambda_grid)
    for a in grid:
        for b in grid:
            mean_density += hall_density(a, b, lam)
    mean_density /= settings_grid**2
    return MIEstimate(
        bits=HALL_INFORMATION_BITS,
        error_estimate=float(np.max(np.abs(mean_density * PI - 1.0))),
    )


def chsh_pvalue_log10(s_hat: float, n_per_correlator: int) -> float:
    """log10 of the Hoeffding-style bound exp(-N (s_hat - 2)^2 / 8) on
    P(S_hat >= s_hat | true S <= 2), 0 for s_hat <= 2.  The bound itself
    underflows to 0 at the sample counts the CLI runs (S = 2.83, N = 1e6)."""
    if not 0.0 <= s_hat <= 4.0:
        raise ValueError("s_hat must be in [0, 4]")
    if s_hat <= 2.0:
        return 0.0
    return -n_per_correlator * (s_hat - 2.0) ** 2 / (8.0 * math.log(10.0))
