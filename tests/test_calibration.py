"""Calibration: sampled statistics are standard normal about their exact values.

Every other sampled check sits at one settings pair or spec and one seed,
judged at 5 SE, so a bias below 5 SE there passes.

Correlators.  Each lambda model estimates its correlator at K = 200
settings pairs drawn uniformly from [-10, 10]^2 by
``np.random.default_rng(0)``, plus a = b and a perpendicular to b, with
20 000 runs each, pair i drawing from ``RngStream(0).substream(i)``.  Against
the exact correlator E of ``joint_dist``, z = (estimate - E) / sigma with
sigma = sqrt((1 - E^2) / n) from E, not from the sample.  Pairs where
sigma = 0 must be estimated exactly and are left out of the pooled tests.
Beside the package's three models, two segment models whose Malus outcomes
are drawn per lambda are checked: Hall's density with Malus outcomes, and
`SteppedModel`.

Bridges.  45 specs are kept from candidates drawn by
``np.random.default_rng(0)``: theta1 = 0, theta2 uniform on [0, pi), gamma
log-uniform on [1e-4, 3] and 2 to 39 steps, kept only where gamma is below
0.01 |delta| for the nearest target rotation delta, inside the domain of
`expected_net_dominance` (0.1 |delta|) with a 10x margin.  Spec i draws
4 000 paths from ``RngStream(0).substream(i)``.  The share of paths whose
largest kick passes the dominance threshold gives
z = (share - p) / sqrt(p (1 - p) / n), with p = value - overcount of the
prediction and n the paths not excluded.  Each spec's kick-time histogram
is uniform over its steps, so the sum of the specs' Pearson statistics is
chi^2 with sum(steps - 1) degrees of freedom.

For a correct sampler the z are close to N(0, 1), so the Kolmogorov-Smirnov
p against N(0, 1) and the chi^2 p of sum z^2 (one degree of freedom per
pair or spec) are uniform, as is the pooled kick-time p.  Each is asserted
above 1e-3, so a correct sampler fails a model's pair of checks with
probability below 2e-3, the bridges' three checks with probability below
3e-3, and this file as a whole (five models and the bridges) with
probability below 1.3e-2, for seeds chosen blind.  The seeds above are
fixed, so the outcome is reproducible.  Two planted defects show that the
checks can fail: a local baseline whose disagreement count is 1% high stays
under 5 SE at every one of the settings pairs and fails here, and a bridge
sampler whose conditional step gives each increment 1.1 times its Cauchy
width d1 fails all three bridge checks.
"""
import math

import numpy as np
import pytest
from scipy import stats

from belllab import schulman
from belllab.core import HALF_PI, PI, PolAngle, RngStream
from belllab.estimator import estimate_correlator
from belllab.models import DeltaMixtureModel, HallModel, LocalBaselineModel
from belllab.schulman import (
    PathSpec,
    dominant_kick_stats,
    endpoint_targets,
    expected_net_dominance,
    sample_bridges,
)
from test_estimator import SteppedModel
from test_models import MalusHall

RUNS = 20_000
LEVEL = 1e-3
SPECS = 45
PATHS = 4_000


def settings_pairs() -> list[tuple[float, float]]:
    pairs = np.random.default_rng(0).uniform(-10.0, 10.0, size=(200, 2))
    a = float(pairs[0, 0])
    return [*map(tuple, pairs.tolist()), (a, a), (a, a + HALF_PI)]


def z_scores(model) -> np.ndarray:
    """z of each pair's estimate; the pairs with sigma = 0 must be exact."""
    z = []
    for i, (a, b) in enumerate(settings_pairs()):
        exact = model.joint_dist(a, b).correlator()
        est = estimate_correlator(model, a, b, RUNS, RngStream(0).substream(i)).value
        sigma = math.sqrt(max(1.0 - exact * exact, 0.0) / RUNS)
        if sigma == 0.0:
            assert est == exact, (a, b)
            continue
        z.append((est - exact) / sigma)
    return np.array(z)


def pvalues(z: np.ndarray) -> tuple[float, float]:
    """KS p of z against N(0, 1), and the chi^2(len(z)) p of sum z^2."""
    ks = float(stats.kstest(z, "norm").pvalue)
    chi2 = float(stats.chi2.sf(np.sum(z * z), z.size))
    return ks, chi2


class BiasedBaseline(LocalBaselineModel):
    """The local baseline with its disagreement count planted 1% high."""

    def count_disagreements(self, a, b, n, rng):
        return round(1.01 * super().count_disagreements(a, b, n, rng))


@pytest.mark.parametrize(
    "model",
    [DeltaMixtureModel(), HallModel(), LocalBaselineModel(), MalusHall(), SteppedModel()],
    ids=lambda m: m.name,
)
def test_correlators_are_calibrated(model):
    z = z_scores(model)
    assert z.size >= 200
    ks, chi2 = pvalues(z)
    assert ks > LEVEL and chi2 > LEVEL, (ks, chi2)


def test_a_one_percent_count_bias_is_caught():
    z = z_scores(BiasedBaseline())
    assert np.max(np.abs(z)) < 5.0  # no pair alone shows it at 5 SE
    ks, _ = pvalues(z)
    assert ks < LEVEL


def bridge_specs() -> list[PathSpec]:
    """The first SPECS candidate specs with gamma < 0.01 |nearest rotation|."""
    rng, specs = np.random.default_rng(0), []
    while len(specs) < SPECS:
        theta2 = rng.uniform(0.0, PI)
        gamma = math.exp(rng.uniform(math.log(1e-4), math.log(3.0)))
        spec = PathSpec(PolAngle(0.0), PolAngle(theta2), gamma, int(rng.integers(2, 40)))
        if gamma < 0.01 * float(np.abs(endpoint_targets(spec)[0]).min()):
            specs.append(spec)
    return specs


def bridge_pvalues() -> tuple[float, float, float]:
    """KS and chi^2 p of the specs' dominance z, and the pooled kick-time p."""
    z, pearson, dof = [], 0.0, 0
    for i, spec in enumerate(bridge_specs()):
        kicks = dominant_kick_stats(sample_bridges(spec, PATHS, RngStream(0).substream(i)))
        prediction = expected_net_dominance(spec)
        p = prediction.value - prediction.overcount
        n = PATHS - kicks.excluded_paths
        z.append((kicks.net_dominance_share - p) / math.sqrt(p * (1.0 - p) / n))
        pearson += float(stats.chisquare(kicks.kick_time_histogram).statistic)
        dof += spec.steps - 1
    return (*pvalues(np.array(z)), float(stats.chi2.sf(pearson, dof)))


def test_bridges_are_calibrated():
    assert min(bridge_pvalues()) > LEVEL


def test_a_ten_percent_wider_first_kick_is_caught(monkeypatch):
    step = schulman._conditional_step
    monkeypatch.setattr(schulman, "_conditional_step",
                        lambda residual, d1, d2, gen: step(residual, 1.1 * d1, d2, gen))
    assert max(bridge_pvalues()) < LEVEL
