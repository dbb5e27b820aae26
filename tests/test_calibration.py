"""Calibration: sampled correlators are standard normal about their exact values.

Every other sampled check sits at one settings pair and one seed, judged at
5 SE, so a bias below 5 SE there passes.  Here each lambda model estimates
its correlator at K = 200 settings pairs drawn uniformly from [-10, 10]^2 by
``np.random.default_rng(0)``, plus a = b and a perpendicular to b, with
20 000 runs each, pair i drawing from ``RngStream(0).substream(i)``.  Against
the exact correlator E of ``joint_dist``, z = (estimate - E) / sigma with
sigma = sqrt((1 - E^2) / n) from E, not from the sample.  Pairs where
sigma = 0 must be estimated exactly and are left out of the pooled tests.

For a correct sampler the z are close to N(0, 1), so the Kolmogorov-Smirnov
p against N(0, 1) and the chi^2 p of sum z^2 (one degree of freedom per
pair) are uniform.  Each is asserted above 1e-3, so a correct sampler fails a
model's pair of checks with probability below 2e-3, and this file with
probability below 6e-3, for a seed chosen blind.  The seeds above are fixed,
so the outcome is reproducible.  `test_a_one_percent_count_bias_is_caught`
shows that the checks can fail: a local baseline whose disagreement count is
1% high stays under 5 SE at every one of these pairs, and fails here.
"""

import math

import numpy as np
import pytest
from scipy import stats

from belllab.core import HALF_PI, RngStream
from belllab.estimator import estimate_correlator
from belllab.models import DeltaMixtureModel, HallModel, LocalBaselineModel

RUNS = 20_000
LEVEL = 1e-3


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
    "model", [DeltaMixtureModel(), HallModel(), LocalBaselineModel()], ids=lambda m: m.name
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
