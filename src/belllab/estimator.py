"""Monte-Carlo and exact estimation: correlators, CHSH values, locality
residuals, mutual information and certification bounds.

Sampling work is split into fixed-size logical shards with one random
substream each, so results are bit-identical regardless of how many
workers execute the shards.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import PI, PolAngle, RngStream
from .models import AnyModel, HiddenVariableModel, hall_density
from .qm import chsh_pairs, chsh_value

SHARD_SIZE = 250_000

#: Equal bins of [0, pi) in which `screening_residual` groups a continuous lambda.
SCREENING_BINS = 64

#: Fewest samples a `screening_residual` bin needs to be used, not excluded.
MIN_BIN_COUNT = 100


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
    #: the same average on the settings grid of half the size per axis
    halved_grid_bits: float


@dataclass(frozen=True)
class ScreeningResult:
    """Worst factorization residual over occupied lambda bins."""

    value: float
    occupied_bins: int
    excluded_bins: int


def _shard_sizes(n: int) -> list[int]:
    """Fixed decomposition of n samples, independent of worker count."""
    full, rest = divmod(n, SHARD_SIZE)
    return [SHARD_SIZE] * full + ([rest] if rest else [])


def estimate_correlator(
    model: AnyModel,
    a: float,
    b: float,
    n: int,
    rng: RngStream,
    workers: int = 1,
) -> CorrelatorEstimate:
    """Monte-Carlo estimate of <AB> from n sampled runs."""
    if n < 1:
        raise ValueError("n must be >= 1")
    sizes = _shard_sizes(n)

    def run_shard(args):
        index, size = args
        # A*B is +-1: the sum is the count of agreements minus disagreements
        return float(size - 2 * model.count_disagreements(a, b, size, rng.substream(index)))

    with ThreadPoolExecutor(max_workers=workers) as pool:
        sums = list(pool.map(run_shard, enumerate(sizes)))

    mean = math.fsum(sums) / n
    # A*B is +-1, so the sample variance is determined by the mean
    variance = (n / max(n - 1, 1)) * max(1.0 - mean * mean, 0.0)
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
    workers: int = 1,
) -> ChshReport:
    """Estimate all four CHSH correlators and combine them into S."""
    pairs = chsh_pairs(tuple(PolAngle(s) for s in settings))
    estimates = tuple(
        estimate_correlator(model, x, y, n_per_correlator, rng.substream(i), workers)
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
    bins and outcome pairs.  A continuous lambda is binned into
    SCREENING_BINS equal bins, an atom-valued one by atom.  Bins with fewer
    than MIN_BIN_COUNT samples are excluded and counted.  Models without a
    hidden angle are treated as a single trivial bin, which measures the raw
    outcome correlation.
    """
    lams, a_out, b_out = model.sample_runs(a, b, n, rng)
    dist = None if lams is None else model.lambda_distribution(a, b)
    if dist is None:
        bins = np.zeros(n, dtype=int)
        n_bins = 1
    elif dist.edges is None:
        bins = np.searchsorted(dist.points, lams)
        n_bins = dist.points.size
    else:
        n_bins = SCREENING_BINS
        bins = np.minimum((np.asarray(lams) / PI * n_bins).astype(int), n_bins - 1)

    # counts[bin, A == -1, B == -1], from one pass over the samples
    codes = 4 * bins + 2 * (a_out != 1) + (b_out != 1)
    counts = np.bincount(codes, minlength=4 * n_bins).reshape(n_bins, 2, 2)
    total = counts.sum(axis=(1, 2))
    excluded = int(np.count_nonzero((total > 0) & (total < MIN_BIN_COUNT)))
    kept = total >= MIN_BIN_COUNT
    occupied = int(np.count_nonzero(kept))
    counts, total = counts[kept], total[kept]
    # the same divisions as per-bin means of the boolean outcome masks
    p_a = counts[:, 0, :].sum(axis=1) / total
    p_b = counts[:, :, 0].sum(axis=1) / total
    worst = 0.0
    for i, pa in enumerate((p_a, 1.0 - p_a)):
        for j, pb in enumerate((p_b, 1.0 - p_b)):
            joint = counts[:, i, j] / total
            worst = max(worst, float(np.max(np.abs(joint - pa * pb), initial=0.0)))
    return ScreeningResult(value=float(worst), occupied_bins=occupied, excluded_bins=excluded)


def lambda_independence_residual(
    model: HiddenVariableModel,
    settings_1: tuple[float, float],
    settings_2: tuple[float, float],
) -> float:
    """Total-variation distance between the lambda distributions at two
    settings pairs; zero iff the model treats them identically."""
    if not isinstance(model, HiddenVariableModel):
        raise ValueError("model exposes no hidden angle")
    dist_1 = model.lambda_distribution(*settings_1)
    dist_2 = model.lambda_distribution(*settings_2)
    if dist_1.edges is None:
        support = sorted(set(dist_1.points.tolist()) | set(dist_2.points.tolist()))
        m_1 = dict(zip(dist_1.points.tolist(), dist_1.mass.tolist()))
        m_2 = dict(zip(dist_2.points.tolist(), dist_2.mass.tolist()))
        return 0.5 * sum(abs(m_1.get(x, 0.0) - m_2.get(x, 0.0)) for x in support)

    # both densities are constant between consecutive edges of either one
    edges = np.union1d(dist_1.edges, dist_2.edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    gap = np.abs(dist_1.density_at(mids) - dist_2.density_at(mids))
    return 0.5 * float(np.sum(gap * np.diff(edges)))


def _hall_pair_information(d: np.ndarray) -> np.ndarray:
    """Exact per-pair lambda integral of rho * log2(pi * rho) for the Hall
    model at setting distance d = |a - b| (canonical, in [0, pi/2]).

    The density is piecewise constant: value rho_s on the region where the
    two deterministic outcomes agree (s = +1, measure pi - 2d) or disagree
    (s = -1, measure 2d), so the integral is a two-term sum.
    """
    d = np.asarray(d, dtype=float)
    z = 4.0 * d / PI
    c = np.cos(2.0 * d)
    m_plus = PI - 2.0 * d
    m_minus = 2.0 * d
    with np.errstate(divide="ignore", invalid="ignore"):
        # at d = pi/2 the agreement region has zero measure; its 0/0 density
        # is masked out by the mr > 0 guard below
        rho_plus = (1.0 + c) / (PI * (2.0 - z))
        rho_minus = np.where(z > 0.0, (1.0 - c) / (PI * np.maximum(z, 1e-300)), 0.0)

    def term(m, rho):
        mr = m * rho
        return np.where(mr > 0.0, mr * np.log2(np.maximum(PI * rho, 1e-300)), 0.0)

    return term(m_plus, rho_plus) + term(m_minus, rho_minus)


def mutual_information_hall(lambda_grid: int = 2048, settings_grid: int = 64) -> MIEstimate:
    """I(lambda : a, b) for the Hall model, uniform settings prior.

    The lambda integral is evaluated exactly by subdividing at the
    sign-change points (the density is constant between them); the
    settings average runs over a uniform settings_grid x settings_grid
    grid on [0, pi)^2.  The settings-averaged density is uniform 1/pi by
    symmetry; its maximum deviation on a lambda_grid-point grid is folded
    into the error estimate, together with a settings-grid refinement
    difference.
    """
    if lambda_grid < 512:
        raise ValueError("lambda_grid must be >= 512")
    if settings_grid < 64:
        raise ValueError("settings_grid must be >= 64 per axis")

    def average_over_grid(k: int) -> float:
        grid = np.arange(k) * PI / k
        diff = np.abs(
            (grid[:, None] - grid[None, :] + PI / 2.0) % PI - PI / 2.0
        )
        return float(np.mean(_hall_pair_information(diff)))

    bits = average_over_grid(settings_grid)

    # settings-averaged density on the lambda grid (should be 1/pi)
    lam = (np.arange(lambda_grid) + 0.5) * PI / lambda_grid
    grid = np.arange(settings_grid) * PI / settings_grid
    mean_density = np.zeros(lambda_grid)
    for a in grid:
        for b in grid:
            mean_density += hall_density(a, b, lam)
    mean_density /= settings_grid**2
    density_dev = float(np.max(np.abs(mean_density * PI - 1.0)))

    halved_grid_bits = average_over_grid(settings_grid // 2)
    return MIEstimate(
        bits=bits,
        error_estimate=max(abs(bits - halved_grid_bits), density_dev),
        halved_grid_bits=halved_grid_bits,
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
