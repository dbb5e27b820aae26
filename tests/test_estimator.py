"""Estimation pipeline: correlators, CHSH, locality residuals, information."""

import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st
from scipy import integrate

from belllab import estimator
from belllab.core import PI, RngStream
from belllab.estimator import (
    HALL_INFORMATION_BITS,
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
finite_angles = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


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
    def test_an_executor_does_not_change_results(self, n):
        model = HallModel()
        a, b = TSIRELSON[0], TSIRELSON[2]
        serial = estimate_correlator(model, a, b, n, RngStream(1), executor=None)
        with ThreadPoolExecutor(4) as pool:
            parallel = estimate_correlator(model, a, b, n, RngStream(1), executor=pool)
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
            _, _, a_plus, b_plus = model.sample_runs(a, b, size, RngStream(8).substream(i))
            sums.append(float(np.sum(np.where(a_plus == b_plus, 1, -1))))
        est = estimate_correlator(model, a, b, sum(sizes), RngStream(8))
        assert est.value == math.fsum(sums) / sum(sizes)

    @pytest.mark.parametrize("n, disagreements", [(10, 3), (101, 0), (1000, 999)])
    def test_standard_error_is_that_of_a_mean_of_signs(self, n, disagreements):
        class Fixed:
            def count_disagreements(self, a, b, size, rng):
                return disagreements

        est = estimate_correlator(Fixed(), 0.0, 0.0, n, RngStream(0))
        assert est.value == (n - 2 * disagreements) / n
        # the unbiased sample variance of n values of +-1 is n (1 - mean^2) / (n - 1)
        assert est.standard_error == pytest.approx(
            math.sqrt((1.0 - est.value**2) / (n - 1)), rel=1e-14
        )

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
    """Reference for screening_residual: one boolean mask per lambda bin, the
    bin being the piece index `sample_runs` returned or, with none, one of
    SCREENING_BINS equal bins of [0, pi), or one bin with no lambdas either.
    The four cells' |P(A,B | bin) - P(A | bin) P(B | bin)| are exact
    fractions; their maximum over the bins is rounded once."""
    index, lams, a_plus, b_plus = model.sample_runs(a, b, n, rng)
    if lams is None:
        index = np.zeros(n, dtype=int)
    elif index is None:
        index = np.minimum((lams / PI * SCREENING_BINS).astype(int), SCREENING_BINS - 1)
    worst, occupied, excluded = Fraction(0), 0, 0
    for idx in np.unique(index):
        mask = index == idx
        count = int(mask.sum())
        if count < MIN_BIN_COUNT:
            excluded += 1
            continue
        occupied += 1
        a_bin, b_bin = a_plus[mask], b_plus[mask]
        p_a = Fraction(int(np.count_nonzero(a_bin)), count)
        p_b = Fraction(int(np.count_nonzero(b_bin)), count)
        for a_val, pa in ((True, p_a), (False, 1 - p_a)):
            for b_val, pb in ((True, p_b), (False, 1 - p_b)):
                joint = Fraction(int(np.count_nonzero((a_bin == a_val) & (b_bin == b_val))), count)
                worst = max(worst, abs(joint - pa * pb))
    return float(worst) if occupied else None, occupied, excluded


class SteppedModel(LocalBaselineModel):
    """Malus outcomes with lambda dense on [0, pi/2), sparse on [pi/2, 3pi/4)
    and absent from [3pi/4, pi).  Its outcome probabilities vary within each
    segment, so its runs carry no piece index, and at 6400 samples its 64
    equal screening bins are 32 occupied (about 190 samples each), 16
    excluded (about 20) and 16 empty."""

    name = "stepped"

    def lambda_distribution(self, a, b):
        edges = np.array([0.0, PI / 2, 3 * PI / 4, PI])
        return LambdaDistribution(0.5 * (edges[:-1] + edges[1:]), np.array([0.95, 0.05, 0.0]), edges)


class ManyAtomModel(DeltaMixtureModel):
    """Malus outcomes on 200 equal atoms: the piece index is a uint8, and
    past 63, 4 * index would wrap in it."""

    def lambda_distribution(self, a, b):
        return LambdaDistribution(np.arange(200) * PI / 200, np.full(200, 1 / 200))


class TestScreening:
    def test_hall_screens(self):
        res = screening_residual(HallModel(), 0.0, PI / 8, 400_000, RngStream(4))
        # one bin per segment; the outcomes are fixed on each
        assert (res.value, res.occupied_bins, res.excluded_bins) == (0.0, 5, 0)

    @pytest.mark.parametrize("model", [HallModel(), DeltaMixtureModel()], ids=lambda m: m.name)
    @hyp_settings(max_examples=50, deadline=None)
    @given(a=finite_angles, b=finite_angles)
    @example(a=0.01, b=0.04)  # an a- and a b-breakpoint within one 64th of pi
    @example(a=0.3, b=0.3 + PI / 2)  # coinciding delta-mixture atoms, merged
    def test_piece_models_screen_exactly_at_any_settings(self, model, a, b):
        # Hall's outcomes are fixed on each segment, and each delta-mixture
        # atom is an outcome axis of a or b, fixing that side's outcome
        res = screening_residual(model, a, b, 20_000, RngStream(9))
        assert res.value == 0.0

    def test_delta_mixture_screens(self):
        res = screening_residual(DeltaMixtureModel(), 0.0, PI / 8, 200_000, RngStream(5))
        assert (res.value, res.occupied_bins) == (0.0, 4)

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
            # the disagreement segments hold about 0.05^2 of the mass, about
            # 16 samples: below MIN_BIN_COUNT
            (HallModel(), 0.0, 0.05, 6_400),
            # occupied, excluded and empty bins at once (see the test below)
            (SteppedModel(), 0.0, PI / 8, 6_400),
            # a perpendicular to b: Hall's agreement segments carry no mass
            (HallModel(), 0.3, 0.3 + PI / 2, 12_800),
            (DeltaMixtureModel(), 0.0, PI / 8, 20_000),
            (ManyAtomModel(), 0.0, PI / 8, 40_000),
            (LocalBaselineModel(), 0.0, PI / 8, 6_400),
            # about 16 samples per bin: every bin is excluded, so no residual
            (LocalBaselineModel(), 0.0, PI / 8, 1_000),
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


def hall_pair_information(d: np.ndarray) -> np.ndarray:
    """Lambda integral of rho * log2(pi * rho) for the Hall model at setting
    distance d = |a - b| in [0, pi/2]: the density is rho_+ on the
    agreement region (measure pi - 2d) and rho_- on the disagreement region
    (measure 2d), so the integral is a two-term sum."""
    m_plus, m_minus = PI - 2.0 * d, 2.0 * d
    # m * rho is cos^2 d on agreement and sin^2 d on disagreement
    w_plus, w_minus = np.cos(d) ** 2, np.sin(d) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        t_plus = np.where(m_plus > 0.0, w_plus * np.log2(PI * w_plus / m_plus), 0.0)
        t_minus = np.where(m_minus > 0.0, w_minus * np.log2(PI * w_minus / m_minus), 0.0)
    return t_plus + t_minus


def grid_hall_information(k: int) -> float:
    """Settings average of `hall_pair_information` over a uniform k x k grid
    on [0, pi)^2: a Riemann sum of the exact information, O(k^-2) low."""
    grid = np.arange(k) * PI / k
    diff = np.abs((grid[:, None] - grid[None, :] + PI / 2.0) % PI - PI / 2.0)
    return float(np.mean(hall_pair_information(diff)))


class TestMutualInformation:
    def test_below_bound_with_a_uniform_average_density(self):
        est = mutual_information_hall(lambda_grid=2048, settings_grid=64)
        assert est.bits == HALL_INFORMATION_BITS
        assert 0.0 < est.bits < 0.07
        assert est.error_estimate < 1e-3

    def test_exact_value_is_the_nearest_double(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            exact = (2 - 2 * mpmath.log(2) - mpmath.si(mpmath.pi) / mpmath.pi) / mpmath.log(2)
            assert mpmath.nstr(exact, 22).startswith("0.0349359664486603198856")
            assert float(exact) == HALL_INFORMATION_BITS  # mpf -> float rounds to nearest

    @pytest.mark.parametrize("d", [0.0, 0.1, PI / 8, PI / 4, 1.2, PI / 2])
    def test_pair_information_is_the_lambda_integral(self, d):
        a, b = 0.3, 0.3 + d
        points = [0.0, *hall_breakpoints(a, b), PI]

        def integrand(lam):
            rho = float(hall_density(a, b, lam))
            return rho * math.log2(PI * rho) if rho > 0.0 else 0.0

        reference = sum(
            integrate.quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-14)[0]
            for lo, hi in zip(points[:-1], points[1:])
        )
        assert float(hall_pair_information(np.array(d))) == pytest.approx(reference, abs=1e-13)

    def test_settings_grid_converges_to_the_closed_form(self):
        errors = [HALL_INFORMATION_BITS - grid_hall_information(k) for k in (64, 128, 256, 512)]
        assert errors[0] == pytest.approx(2.2825e-4, rel=1e-4)
        # a Riemann sum of a smooth periodic average: O(k^-2), 4x per doubling
        for coarse, fine in zip(errors[:-1], errors[1:]):
            assert 3.8 < coarse / fine < 4.2

    def test_gate_grid_reproduces_the_former_report(self):
        # `mutual-info --settings-grid 64` reported this grid value as `bits`
        assert grid_hall_information(64) == pytest.approx(0.034707720698733305, abs=1e-15)

    def test_error_estimate_is_the_uniformity_deviation(self, monkeypatch):
        # the settings-averaged Hall density is exactly 1/pi; the loop sees rounding
        assert mutual_information_hall(512, 64).error_estimate < 1e-12
        # a density off 1/pi by 0.5/pi at one lambda point and one settings pair
        def planted(a, b, lam):
            rho = np.full(lam.size, 1.0 / PI)
            if a == 0.0 and b == 0.0:
                rho[7] *= 1.5
            return rho

        monkeypatch.setattr(estimator, "hall_density", planted)
        est = mutual_information_hall(512, 64)
        assert est.bits == HALL_INFORMATION_BITS
        assert est.error_estimate == pytest.approx(0.5 / 64**2, rel=1e-9)

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
