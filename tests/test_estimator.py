"""Estimation pipeline: correlators, CHSH, locality residuals, information."""

import math

import numpy as np
import pytest
from scipy import integrate

from belllab.core import PI, RngStream
from belllab.estimator import (
    MIN_BIN_COUNT,
    SCREENING_BINS,
    SHARD_SIZE,
    chsh_pvalue_log10,
    chsh_value,
    estimate_correlator,
    lambda_independence_residual,
    mutual_information_hall,
    peres_identity_check,
    run_chsh_experiment,
    screening_residual,
)
from belllab.models import (
    DeltaMixtureModel,
    HallModel,
    LambdaDistribution,
    LocalBaselineModel,
    PRBoxModel,
    hall_breakpoints,
    hall_density,
)
from belllab.qm import TSIRELSON_BOUND, chsh_pairs, qm_correlator, tsirelson_settings

TSIRELSON = tsirelson_settings()


def analytic_chsh(model, settings):
    """CHSH value from the model's exact joint distributions."""
    return chsh_value(*(model.joint_dist(x, y).correlator() for x, y in chsh_pairs(settings)))


class TestEstimateCorrelator:
    def test_pr_box_is_exact(self):
        model = PRBoxModel(TSIRELSON)
        est = estimate_correlator(model, TSIRELSON[0], TSIRELSON[2], 10_000, RngStream(0))
        assert est.value == 1.0
        assert est.standard_error == 0.0
        assert est.sample_count == 10_000

    # 1001 is one partial shard; 600 000 is two full shards and a partial one
    @pytest.mark.parametrize("n", [1001, 600_000])
    def test_workers_do_not_change_results(self, n):
        model = HallModel()
        a, b = TSIRELSON[0], TSIRELSON[2]
        serial = estimate_correlator(model, a, b, n, RngStream(1), workers=1)
        parallel = estimate_correlator(model, a, b, n, RngStream(1), workers=4)
        assert serial == parallel

    @pytest.mark.parametrize(
        "model", [HallModel(), DeltaMixtureModel(), LocalBaselineModel(), PRBoxModel(TSIRELSON)],
        ids=lambda m: m.name,
    )
    def test_shard_sums_are_those_of_sample_runs(self, model):
        # a full shard and a partial one, each from its own substream
        a, b = TSIRELSON[1], TSIRELSON[3]
        sizes = (SHARD_SIZE, 1001)
        sums = []
        for i, size in enumerate(sizes):
            _, a_out, b_out = model.sample_runs(a, b, size, RngStream(8).substream(i))
            sums.append(float(np.sum(a_out.astype(int) * b_out)))
        est = estimate_correlator(model, a, b, sum(sizes), RngStream(8))
        assert est.value == math.fsum(sums) / sum(sizes)

    def test_convergence_rate(self):
        # error shrinks roughly as 1/sqrt(N) toward the analytic correlator
        model = LocalBaselineModel()
        a, b = 0.0, PI / 8
        exact = model.joint_dist(a, b).correlator()
        for k, n in enumerate((10**3, 10**4, 10**5, 10**6)):
            est = estimate_correlator(model, a, b, n, RngStream(40 + k))
            assert abs(est.value - exact) < 5 * est.standard_error
            assert est.standard_error < 1.1 / math.sqrt(n)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            estimate_correlator(HallModel(), 0.0, 0.0, 0, RngStream(0))


class TestChsh:
    def test_chsh_value_combination(self):
        assert chsh_value(1, 1, 1, -1) == 4.0
        assert chsh_value(0.5, 0.5, 0.5, 0.5) == 1.0

    def test_analytic_values(self):
        assert analytic_chsh(DeltaMixtureModel(), TSIRELSON) == pytest.approx(
            TSIRELSON_BOUND, abs=1e-9
        )
        assert analytic_chsh(LocalBaselineModel(), TSIRELSON) == pytest.approx(
            TSIRELSON_BOUND / 2, abs=1e-9
        )
        assert analytic_chsh(PRBoxModel(TSIRELSON), TSIRELSON) == 4.0

    def test_experiment_report(self):
        report = run_chsh_experiment(HallModel(), TSIRELSON, 100_000, RngStream(2))
        assert len(report.correlators) == 4
        assert abs(report.s_value - TSIRELSON_BOUND) < 5 * report.s_standard_error
        assert report.s_standard_error == pytest.approx(
            math.sqrt(sum(e.standard_error**2 for e in report.correlators))
        )

    def test_experiment_reproducible(self):
        r1 = run_chsh_experiment(HallModel(), TSIRELSON, 50_000, RngStream(3))
        r2 = run_chsh_experiment(HallModel(), TSIRELSON, 50_000, RngStream(3))
        assert r1 == r2


class TestPeresIdentity:
    def test_exhaustive(self):
        values = {
            peres_identity_check(a1, a2, b1, b2)
            for a1 in (1, -1)
            for a2 in (1, -1)
            for b1 in (1, -1)
            for b2 in (1, -1)
        }
        assert values == {2, -2}

    def test_rejects_non_outcomes(self):
        with pytest.raises(ValueError):
            peres_identity_check(0, 1, 1, 1)


def masked_loop_screening(model, a, b, n, rng):
    """Reference for screening_residual: one boolean mask per lambda bin."""
    lams, a_out, b_out = model.sample_runs(a, b, n, rng)
    if lams is None:
        bins, n_bins = np.zeros(n, dtype=int), 1
    elif model.lambda_distribution(a, b).edges is None:
        points = model.lambda_distribution(a, b).points
        bins, n_bins = np.searchsorted(points, lams), points.size
    else:
        bins = np.minimum((lams / PI * SCREENING_BINS).astype(int), SCREENING_BINS - 1)
        n_bins = SCREENING_BINS
    worst, occupied, excluded = 0.0, 0, 0
    for idx in range(n_bins):
        mask = bins == idx
        count = int(mask.sum())
        if count == 0:
            continue
        if count < MIN_BIN_COUNT:
            excluded += 1
            continue
        occupied += 1
        a_bin, b_bin = a_out[mask], b_out[mask]
        p_a = (a_bin == 1).mean()
        p_b = (b_bin == 1).mean()
        for a_val, pa in ((1, p_a), (-1, 1.0 - p_a)):
            for b_val, pb in ((1, p_b), (-1, 1.0 - p_b)):
                joint = float(np.mean((a_bin == a_val) & (b_bin == b_val)))
                worst = max(worst, abs(joint - pa * pb))
    return float(worst), occupied, excluded


class SteppedModel(LocalBaselineModel):
    """Malus outcomes with lambda dense on [0, pi/2), sparse on [pi/2, 3pi/4)
    and absent from [3pi/4, pi): at 6400 samples its 64 screening bins are
    32 occupied (about 190 samples each), 16 excluded (about 20) and 16 empty."""

    def lambda_distribution(self, a, b):
        edges = np.array([0.0, PI / 2, 3 * PI / 4, PI])
        return LambdaDistribution(0.5 * (edges[:-1] + edges[1:]), np.array([0.95, 0.05, 0.0]), edges)

    def sample_lambdas(self, a, b, n, rng):
        return self.lambda_distribution(a, b).sample(n, rng)


class TestScreening:
    def test_hall_screens(self):
        res = screening_residual(HallModel(), 0.0, PI / 8, 400_000, RngStream(4))
        assert res.occupied_bins > 0
        # binomial fluctuation scale for the worst of ~64 bins
        assert res.value < 6 * math.sqrt(0.25 / (400_000 / (4 * 64)))

    def test_delta_mixture_screens(self):
        res = screening_residual(DeltaMixtureModel(), 0.0, PI / 8, 200_000, RngStream(5))
        assert res.occupied_bins == 4
        assert res.value < 6 * math.sqrt(0.25 / (200_000 / 4))

    def test_pr_box_does_not_screen(self):
        res = screening_residual(
            PRBoxModel(TSIRELSON), TSIRELSON[0], TSIRELSON[2], 100_000, RngStream(6)
        )
        # no lambda to condition on: the raw correlation survives, |0.5 - 0.25|
        assert res.value == pytest.approx(0.25, abs=0.01)

    @pytest.mark.parametrize(
        "model, a, b, n",
        [
            (HallModel(), 0.0, PI / 8, 200_000),
            # ~100 samples per bin: some fall below MIN_BIN_COUNT
            (HallModel(), 0.0, PI / 8, 6_400),
            # occupied, excluded and empty bins at once (see the test below)
            (SteppedModel(), 0.0, PI / 8, 6_400),
            # a perpendicular to b: Hall's agreement segments carry no mass
            (HallModel(), 0.3, 0.3 + PI / 2, 12_800),
            (DeltaMixtureModel(), 0.0, PI / 8, 20_000),
            (LocalBaselineModel(), 0.0, PI / 8, 6_400),
            (PRBoxModel(TSIRELSON), TSIRELSON[1], TSIRELSON[3], 1_000),
        ],
    )
    def test_matches_masked_loop_bit_for_bit(self, model, a, b, n):
        for seed in (0, 1, 2029):
            got = screening_residual(model, a, b, n, RngStream(seed))
            ref = masked_loop_screening(model, a, b, n, RngStream(seed))
            assert (got.value, got.occupied_bins, got.excluded_bins) == ref

    def test_empty_bins_count_as_neither_occupied_nor_excluded(self):
        for seed in (0, 1, 2029):
            res = screening_residual(SteppedModel(), 0.0, PI / 8, 6_400, RngStream(seed))
            # the 16 bins beyond 3pi/4 are empty
            assert (res.occupied_bins, res.excluded_bins) == (32, 16)
            assert res.value > 0.0


class TestLambdaIndependence:
    def test_baseline_is_independent(self):
        res = lambda_independence_residual(
            LocalBaselineModel(), (0.0, PI / 8), (PI / 4, 7 * PI / 8)
        )
        assert res == pytest.approx(0.0, abs=1e-10)

    def test_delta_mixture_depends_on_settings(self):
        # pairs sharing one setting: half of the atom mass moves
        res = lambda_independence_residual(
            DeltaMixtureModel(), (0.0, PI / 8), (0.0, 7 * PI / 8)
        )
        assert res == pytest.approx(0.5, abs=1e-12)

    def test_hall_depends_on_settings(self):
        res = lambda_independence_residual(
            HallModel(), (0.0, PI / 8), (0.0, 3 * PI / 8)
        )
        assert res > 0.01

    @pytest.mark.parametrize(
        "pair_1,pair_2",
        [
            ((0.0, PI / 8), (PI / 4, 7 * PI / 8)),
            ((0.0, PI / 8), (0.0, 3 * PI / 8)),
            ((0.3, 0.3), (0.3, 0.3 + PI / 4)),
            ((1.0, 2.5), (0.2, 0.2 + 1e-12)),
        ],
    )
    def test_hall_matches_quadrature(self, pair_1, pair_2):
        points = sorted(set(hall_breakpoints(*pair_1)) | set(hall_breakpoints(*pair_2)))

        def gap(lam):
            return abs(float(hall_density(*pair_1, lam)) - float(hall_density(*pair_2, lam)))

        reference, _ = integrate.quad(
            gap, 0.0, PI, points=points, epsabs=1e-14, epsrel=1e-14, limit=200
        )
        res = lambda_independence_residual(HallModel(), pair_1, pair_2)
        assert res == pytest.approx(0.5 * reference, abs=1e-12)

    def test_rejects_lambda_free_model(self):
        with pytest.raises(ValueError):
            lambda_independence_residual(
                PRBoxModel(TSIRELSON), (0.0, PI / 8), (0.0, PI / 4)
            )


class TestMutualInformation:
    def test_below_bound_with_stable_refinement(self):
        est = mutual_information_hall(lambda_grid=2048, settings_grid=64)
        assert 0.0 < est.bits < 0.07
        assert est.error_estimate < 1e-3

    def test_halved_grid_bits_is_the_half_size_average(self):
        est = mutual_information_hall(lambda_grid=512, settings_grid=128)
        assert est.halved_grid_bits == mutual_information_hall(512, 64).bits
        assert est.error_estimate >= abs(est.bits - est.halved_grid_bits) > 0.0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            mutual_information_hall(lambda_grid=100)
        with pytest.raises(ValueError):
            mutual_information_hall(settings_grid=10)


class TestPvalueBound:
    def test_boundary_is_one(self):
        assert chsh_pvalue_log10(2.0, 10) == 0.0
        assert chsh_pvalue_log10(1.0, 10) == 0.0

    def test_closed_form(self):
        # log10 of exp(-N (S - 2)^2 / 8) = exp(-31.25)
        assert chsh_pvalue_log10(2.5, 1000) == pytest.approx(-31.25 / math.log(10.0))

    def test_log_space_for_extreme_values(self):
        # at S=2.828, N=1e6 the bound is far below 1e-30000
        log10_p = chsh_pvalue_log10(2.828, 10**6)
        assert log10_p < -30_000
        assert math.exp(log10_p * math.log(10.0)) == 0.0  # underflows, hence log space

    def test_validation(self):
        with pytest.raises(ValueError):
            chsh_pvalue_log10(4.5, 10)
        with pytest.raises(ValueError):
            chsh_pvalue_log10(-0.1, 10)


class TestSignalLocality:
    @pytest.mark.parametrize(
        "model",
        [DeltaMixtureModel(), HallModel(), LocalBaselineModel(), PRBoxModel(TSIRELSON)],
    )
    def test_marginals_independent_of_distant_setting(self, model):
        if isinstance(model, PRBoxModel):
            b_values = [TSIRELSON[2], TSIRELSON[3]]
            a_values = [TSIRELSON[0], TSIRELSON[1]]
        else:
            b_values = [0.0, PI / 8, PI / 3, 1.1]
            a_values = [0.0, PI / 5]
        for a in a_values:
            for b in b_values:
                d = model.joint_dist(a, b)
                assert d.marginal_1()[0] == pytest.approx(0.5, abs=1e-9)
                assert d.marginal_2()[0] == pytest.approx(0.5, abs=1e-9)
