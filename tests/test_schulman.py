"""Levy-flight polarization model: family sums, outcome probabilities, bridges."""

import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from scipy import integrate, stats

from belllab import schulman
from belllab.core import PI, HALF_PI, PolAngle, RngStream
from belllab.qm import qm_joint
from belllab.schulman import (
    AlignedPoleError,
    BridgeSamplingError,
    FamilySumConfig,
    PathSpec,
    ResolutionError,
    _conditional_step,
    dominant_kick_stats,
    endpoint_targets,
    exact_family_sum,
    expected_net_dominance,
    free_kick_sums,
    net_dominance_given_rotation,
    net_rotation_density,
    periodized_cauchy,
    periodized_cauchy_truncated,
    sample_bridges,
    sequential_outcome_probs,
    single_photon_outcome_prob,
    truncated_family_sum,
    two_photon_joint,
    two_photon_outcome_joint,
)

CFG = FamilySumConfig()


class TestFamilySums:
    @pytest.mark.parametrize("d", [PI / 8, PI / 4, 3 * PI / 8, PI / 2, 0.3, 1.1])
    def test_truncated_matches_closed_form(self, d):
        assert truncated_family_sum(d, CFG) == pytest.approx(
            1.0 / math.sin(d) ** 2, abs=1e-10
        )
        assert exact_family_sum(d) == 1.0 / math.sin(d) ** 2

    def test_pole_raises(self):
        with pytest.raises(AlignedPoleError):
            exact_family_sum(0.0)
        with pytest.raises(AlignedPoleError):
            exact_family_sum(PI)

    def test_tail_correction_matters(self):
        no_tail = FamilySumConfig(n_max=100, tail_correction=False)
        with_tail = FamilySumConfig(n_max=100, tail_correction=True)
        exact = exact_family_sum(0.7)
        assert abs(truncated_family_sum(0.7, with_tail) - exact) < abs(
            truncated_family_sum(0.7, no_tail) - exact
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FamilySumConfig(n_max=0)


class TestPeriodizedCauchy:
    @given(
        st.floats(min_value=-1.5, max_value=1.5),
        st.floats(min_value=1e-4, max_value=0.5),
    )
    @hyp_settings(max_examples=40, deadline=None)
    def test_closed_form_matches_winding_sum(self, x, gamma):
        assert periodized_cauchy(x, gamma) == pytest.approx(
            periodized_cauchy_truncated(x, gamma, CFG), rel=1e-9
        )

    def test_normalized_over_a_period(self):
        total, _ = integrate.quad(lambda x: periodized_cauchy(x, 0.05), 0.0, PI)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_reduces_to_cauchy_for_small_width(self):
        # near the peak the other windings are negligible
        assert periodized_cauchy(0.001, 1e-4) == pytest.approx(
            net_rotation_density(0.001, 1e-4), rel=1e-6
        )

    @pytest.mark.parametrize("gamma", [355.1, 356.0, 711.0, 1e4])
    def test_flat_beyond_sinh_overflow(self, gamma):
        x = np.linspace(-2.0, 2.0, 9)
        np.testing.assert_array_equal(periodized_cauchy(x, gamma), 1.0 / PI)
        assert periodized_cauchy(0.0, gamma) == 1.0 / PI

    def test_finite_where_both_squares_underflow(self):
        # near the peak: gamma / (pi (x^2 + gamma^2)) with x^2 and gamma^2 below 1e-323
        assert periodized_cauchy(0.0, 1e-300) == pytest.approx(1.0 / (PI * 1e-300), rel=1e-12)
        assert periodized_cauchy(1e-300, 1e-300) == pytest.approx(0.5 / (PI * 1e-300), rel=1e-12)
        far = periodized_cauchy(1e-200, 1e-300)
        assert far == pytest.approx(1e-100 / (PI * 1e-200), rel=1e-12)
        got = periodized_cauchy(np.array([0.0, 1e-200, 0.3]), 1e-300)
        assert np.all(np.isfinite(got))
        assert got[2] == periodized_cauchy(0.3, 1e-300)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            periodized_cauchy(0.0, 0.0)
        with pytest.raises(ValueError):
            net_rotation_density(0.0, -1.0)


class TestSinglePhoton:
    def test_zero_width_is_malus(self):
        for d in np.linspace(0.01, HALF_PI - 0.01, 9):
            assert single_photon_outcome_prob(0.0, d, 0.0) == math.cos(d) ** 2

    def test_small_width_approaches_malus(self):
        for d in np.linspace(0.05, HALF_PI - 0.05, 9):
            assert single_photon_outcome_prob(0.0, d, 1e-4) == pytest.approx(
                math.cos(d) ** 2, abs=1e-3
            )

    def test_truncated_route_agrees_with_closed_form(self):
        d = PI / 8
        w_plus = periodized_cauchy_truncated(d, 1e-3, CFG)
        w_minus = periodized_cauchy_truncated(d + HALF_PI, 1e-3, CFG)
        assert single_photon_outcome_prob(0.0, d, 1e-3) == pytest.approx(
            w_plus / (w_plus + w_minus), rel=1e-9
        )

    def test_complementary_outcomes(self):
        p = single_photon_outcome_prob(0.0, 0.3, 1e-3)
        q = single_photon_outcome_prob(0.0, 0.3 + HALF_PI, 1e-3)
        assert p + q == pytest.approx(1.0)

    @given(
        st.floats(min_value=-300.0, max_value=4.0),
        st.one_of(st.sampled_from([0.0, 1e-300, HALF_PI, -HALF_PI]),
                  st.floats(min_value=-HALF_PI, max_value=HALF_PI)),
    )
    @hyp_settings(max_examples=200, deadline=None)
    def test_probability_at_any_width(self, log_gamma, d):
        gamma = 10.0**log_gamma
        p = single_photon_outcome_prob(0.0, d, gamma)
        assert math.isfinite(p) and 0.0 <= p <= 1.0
        if gamma >= 1.0:
            # p - 1/2 ~ exp(-2 gamma) cos(2d): the kicks wash out the polarizer angle
            assert abs(p - 0.5) <= 1.1 * math.exp(-2.0 * gamma) + 1e-15

    def test_aligned_and_crossed_at_tiny_width(self):
        assert single_photon_outcome_prob(0.0, 0.0, 1e-300) == 1.0
        assert single_photon_outcome_prob(0.0, HALF_PI, 1e-300) == 0.0

    def test_rejects_negative_width(self):
        with pytest.raises(ValueError):
            single_photon_outcome_prob(0.0, 0.3, -1e-3)


class TestSequentialChain:
    def test_three_polarizer_resurrection(self):
        # crossed polarizers with a diagonal one inserted: 1/4 transmission
        probs = sequential_outcome_probs((0.0, PI / 4, HALF_PI), 0.0)
        assert probs[(1, 1)] == pytest.approx(0.25)
        assert sum(probs.values()) == pytest.approx(1.0)

    def test_without_middle_polarizer_nothing_passes(self):
        probs = sequential_outcome_probs((0.0, HALF_PI), 0.0)
        assert probs[(1,)] == pytest.approx(0.0, abs=1e-30)

    def test_needs_two_angles(self):
        with pytest.raises(ValueError):
            sequential_outcome_probs((0.0,), 0.0)


class TestTwoPhoton:
    def test_matches_qm_at_small_width(self):
        res = two_photon_joint(PolAngle(0.0), PolAngle(PI / 8), 1e-3, 30_000)
        assert res.joint.max_abs_diff(qm_joint(0.0, PI / 8)) < 1e-3

    def test_posterior_masses_sum_to_one(self):
        res = two_photon_joint(PolAngle(0.0), PolAngle(PI / 8), 1e-3, 30_000)
        assert res.posterior_mass.sum() == pytest.approx(1.0)
        assert res.mass_by_outcome.sum() == pytest.approx(1.0)

    def test_posterior_concentrates_on_four_atoms(self):
        res = two_photon_joint(PolAngle(0.0), PolAngle(PI / 8), 1e-3, 30_000)
        windows = res.atom_window_masses(3e-3)
        assert len(windows) == 4
        shares = np.array(list(windows.values()))
        shares = shares / shares.sum()
        np.testing.assert_allclose(shares, 0.25, atol=0.01)
        # a Cauchy peak holds (2/pi) arctan(3) of its mass within +-3 widths
        assert sum(windows.values()) == pytest.approx(
            2 / PI * math.atan(3.0), abs=0.01
        )

    @pytest.mark.parametrize("gamma", [1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize("a, b", [(0.0, PI / 8), (0.3, 1.2), (0.0, 0.0), (0.0, HALF_PI)])
    def test_closed_form_matches_grid(self, a, b, gamma):
        res = two_photon_joint(PolAngle(a), PolAngle(b), gamma, math.ceil(8 * PI / gamma))
        closed = two_photon_outcome_joint(a, b, gamma)
        np.testing.assert_allclose(
            [[closed.p_pp, closed.p_pm], [closed.p_mp, closed.p_mm]],
            res.mass_by_outcome.sum(axis=2),
            rtol=0.0,
            atol=1e-12,
        )
        assert res.joint == closed

    def test_closed_form_rejects_bad_width(self):
        with pytest.raises(ValueError):
            two_photon_outcome_joint(0.0, PI / 8, 0.0)

    def test_grid_resolution_guard(self):
        with pytest.raises(ResolutionError):
            two_photon_joint(PolAngle(0.0), PolAngle(PI / 8), 1e-4, 1000)
        with pytest.raises(ValueError):
            two_photon_joint(PolAngle(0.0), PolAngle(PI / 8), 0.0, 1000)


class TestBridges:
    spec = PathSpec(theta1=PolAngle(0.0), theta2=PolAngle(PI / 8), gamma=1e-3, steps=50)

    def test_shapes_and_boundary(self):
        paths = sample_bridges(self.spec, 200, RngStream(2))
        assert paths.shape == (200, 51)
        np.testing.assert_array_equal(paths[:, 0], 0.0)

    def test_endpoints_exactly_on_families(self):
        paths = sample_bridges(self.spec, 500, RngStream(3))
        # every endpoint is bit-equal to one of the enumerated family targets
        rotations, _ = endpoint_targets(self.spec)
        assert np.isin(paths[:, -1], float(self.spec.theta1) + rotations).all()

    def test_reproducible(self):
        p1 = sample_bridges(self.spec, 50, RngStream(9))
        p2 = sample_bridges(self.spec, 50, RngStream(9))
        np.testing.assert_array_equal(p1, p2)

    def test_net_rotation_distribution(self):
        # endpoint weights follow the Cauchy net-rotation density: compare
        # the aligned-family share against the analytic family ratio
        paths = sample_bridges(self.spec, 20_000, RngStream(4))
        ends = paths[:, -1]
        # aligned family iff the endpoint differs from theta2 by a multiple
        # of pi (rather than an odd multiple of pi/2)
        residue = (ends - float(self.spec.theta2)) % PI
        aligned = np.minimum(residue, PI - residue) < 1e-9
        expected = single_photon_outcome_prob(
            self.spec.theta1, self.spec.theta2, self.spec.gamma
        )
        se = math.sqrt(expected * (1 - expected) / 20_000)
        assert abs(np.mean(aligned) - expected) < 5 * se

    def test_single_step_bridge(self):
        spec = PathSpec(theta1=PolAngle(0.0), theta2=PolAngle(PI / 8), gamma=1e-3, steps=1)
        paths = sample_bridges(spec, 1, RngStream(5))
        assert paths.shape == (1, 2)
        rotations, _ = endpoint_targets(spec)
        assert paths[0, 1] - paths[0, 0] in rotations

    def test_stalled_step_reports_its_index(self, monkeypatch):
        calls = []

        def stall_on_third_step(residual, d1, d2, gen, max_rounds):
            calls.append(max_rounds)
            if len(calls) == 3:
                raise BridgeSamplingError("stalled", -1, max_rounds)
            return np.zeros_like(residual)

        monkeypatch.setattr(schulman, "_conditional_step", stall_on_third_step)
        with pytest.raises(BridgeSamplingError) as exc:
            sample_bridges(self.spec, 200, RngStream(2))
        assert exc.value.step == 2
        # the retry budget of 10**6 proposals per step, over 200 paths
        assert exc.value.attempts == calls[-1] == 5000
        assert "step 2" in str(exc.value)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PathSpec(theta1=0.0, theta2=0.0, gamma=-1.0)
        with pytest.raises(ValueError):
            PathSpec(theta1=0.0, theta2=0.0, gamma=1e-3, steps=0)


def conditional_cdf(x, r, d1, d2):
    """CDF of C_d1(e) C_d2(r - e) / C_{d1+d2}(r), the law `_conditional_step`
    samples, by the partial fractions of `net_dominance_given_rotation`
    (needs r != 0 or d1 != d2)."""
    m = (r * r + (d1 + d2) ** 2) * (r * r + (d1 - d2) ** 2)
    a_ = 2.0 * r / m
    b_ = (r * r + d2 * d2 - d1 * d1) / m
    d_ = (r * r + d1 * d1 - d2 * d2) / m
    x = np.asarray(x, dtype=float)
    primitive = (
        0.5 * a_ * np.log((x * x + d1 * d1) / ((x - r) ** 2 + d2 * d2))
        + b_ / d1 * (np.arctan(x / d1) + HALF_PI)
        + d_ / d2 * (np.arctan((x - r) / d2) + HALF_PI)
    )
    return d1 * d2 / PI**2 * primitive / net_rotation_density(r, d1 + d2)


def exact_acceptance(r, d1, d2):
    """pi * Q_min * C_{d1+d2}(r) for the proposal weight w = sqrt(d2) / (sqrt(d1) + sqrt(d2))."""
    w = math.sqrt(d2) / (math.sqrt(d1) + math.sqrt(d2))
    alpha, beta = w / d2, (1.0 - w) / d1
    q_min = alpha * beta / (alpha + beta) * r * r + alpha * d2 * d2 + beta * d1 * d1
    return PI * q_min * net_rotation_density(r, d1 + d2)


class CountingGenerator:
    """Forwards the draws `_conditional_step` makes and counts its proposals."""

    def __init__(self, seed):
        self.gen = RngStream(seed).generator
        self.proposals = 0

    def standard_cauchy(self, size):
        self.proposals += size
        return self.gen.standard_cauchy(size)

    def random(self, size):
        return self.gen.random(size)


#: (residual, d1, d2): separated peaks (the gate's first step), equal widths,
#: zero residual, a far winding, comparable widths
STEP_REGIMES = [
    (PI / 8, 1e-5, 9.9e-4),
    (PI / 8, 5e-4, 5e-4),
    (0.0, 1e-5, 9.9e-4),
    (PI / 8 + 200 * PI, 1e-5, 9.9e-4),
    (2e-3, 1e-3, 1e-2),
]


class TestConditionalStep:
    @pytest.mark.parametrize("seed, regime", enumerate(STEP_REGIMES, start=31))
    def test_matches_exact_conditional(self, seed, regime):
        r, d1, d2 = regime
        n = 20_000
        eps = _conditional_step(np.full(n, r), d1, d2, RngStream(seed).generator, 64)
        assert stats.kstest(eps, lambda x: conditional_cdf(x, r, d1, d2)).pvalue > 0.01

    @pytest.mark.parametrize("seed, regime", enumerate(STEP_REGIMES, start=41))
    def test_proposal_count_matches_exact_acceptance(self, seed, regime):
        r, d1, d2 = regime
        n = 50_000
        gen = CountingGenerator(seed)
        _conditional_step(np.full(n, r), d1, d2, gen, 64)
        # proposals per path are geometric with success probability p
        p = exact_acceptance(r, d1, d2)
        se = math.sqrt((1.0 - p) / n) / p
        assert abs(gen.proposals / n - 1.0 / p) < 5 * se


class TestKickStatistics:
    def test_cauchy_stability(self):
        sums = free_kick_sums(1e-3, 100, 50_000, RngStream(6))
        ks = stats.kstest(sums, stats.cauchy(scale=1e-3).cdf)
        assert ks.pvalue > 0.01

    def test_dominance_on_crafted_paths(self):
        # one big kick at step 2, tiny ones elsewhere
        inc = np.full((3, 5), 1e-8)
        inc[:, 2] = 0.4
        paths = np.cumsum(np.hstack([np.zeros((3, 1)), inc]), axis=1)
        ks = dominant_kick_stats(paths, gamma=1e-3)
        np.testing.assert_array_equal(ks.kick_time_histogram, [0, 0, 3, 0, 0])
        assert np.all(ks.dominance_fraction > 0.99)
        assert np.all(ks.net_dominance > 0.99)
        assert ks.excluded_paths == 0

    def test_flat_paths_are_excluded(self):
        paths = np.zeros((4, 6))
        ks = dominant_kick_stats(paths, gamma=1e-3)
        assert ks.excluded_paths == 4
        assert ks.dominance_fraction.size == 0

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            dominant_kick_stats(np.empty((0, 5)), gamma=1e-3)

    @pytest.mark.parametrize("delta", [PI / 8, -3 * PI / 8, 5 * PI / 8 + 4 * PI, 2e-3, 4e-4])
    def test_closed_form_matches_quadrature(self, delta):
        gamma, steps, threshold = 1e-3, 100, 0.99
        a = gamma / steps
        c = threshold * abs(delta)

        def density(e):
            return net_rotation_density(e, a) * net_rotation_density(delta - e, gamma - a)

        # split at the second factor's peak (delta) so quad sees it
        pieces = [(c, math.inf), (-math.inf, -c)]
        pieces = [
            part
            for lo, hi in pieces
            for part in (((lo, delta), (delta, hi)) if lo < delta < hi else ((lo, hi),))
        ]
        mass = sum(
            integrate.quad(density, lo, hi, epsabs=0.0, epsrel=1e-13, limit=500)[0]
            for lo, hi in pieces
        )
        expected = steps * mass / net_rotation_density(delta, gamma)
        assert net_dominance_given_rotation(delta, gamma, steps, threshold) == pytest.approx(
            expected, abs=1e-10
        )

    def test_prediction_for_gate_spec(self):
        spec = PathSpec(theta1=PolAngle(0.0), theta2=PolAngle(PI / 8), gamma=1e-3, steps=100)
        pred = expected_net_dominance(spec)
        assert pred.value == pytest.approx(0.9274, abs=1e-4)
        assert 0.0 < pred.error_bound < 1e-4

    def test_prediction_is_mirror_symmetric(self):
        plus = expected_net_dominance(PathSpec(PolAngle(0.0), PolAngle(PI / 8), 1e-3, 100))
        minus = expected_net_dominance(PathSpec(PolAngle(0.0), PolAngle(-PI / 8), 1e-3, 100))
        # -pi/8 is stored as 7*pi/8, so the |n| <= 200 window keeps slightly
        # different far windings; the kept ones agree in pairs
        assert minus.value == pytest.approx(plus.value, abs=1e-8)
        assert minus.overcount == pytest.approx(plus.overcount, abs=1e-12)

    def test_approaches_leading_order_form(self):
        # per winding, exact - (1/2 + arctan(0.01*|Delta|/gamma)/pi) ~ -K gamma/|Delta|
        scaled = []
        for delta in (PI / 8, -5 * PI / 8, 3.0):
            for gamma in (1e-4, 1e-5, 1e-6):
                exact = net_dominance_given_rotation(delta, gamma, 100)
                leading = 0.5 + math.atan(0.01 * abs(delta) / gamma) / PI
                scaled.append((exact - leading) * abs(delta) / gamma)
        assert max(scaled) - min(scaled) < 1e-3 * abs(np.mean(scaled))
        # averaged over windings, the gap shrinks in proportion to gamma
        gaps = []
        for gamma in (1e-4, 1e-5, 1e-6):
            spec = PathSpec(PolAngle(0.0), PolAngle(PI / 8), gamma, 100)
            rotations, weights = endpoint_targets(spec)
            leading = np.sum(weights * (0.5 + np.arctan(0.01 * np.abs(rotations) / gamma) / PI))
            gaps.append((expected_net_dominance(spec).value - leading) / gamma)
        assert gaps[0] == pytest.approx(gaps[1], rel=1e-2)
        assert gaps[1] == pytest.approx(gaps[2], rel=1e-2)

    def test_single_step_and_aligned_paths_are_dominant(self):
        # one kick carries everything; a zero net rotation makes every ratio infinite
        assert net_dominance_given_rotation(0.3, 1e-3, 1) == 1.0
        assert net_dominance_given_rotation(0.0, 1e-3, 100) == 1.0
        assert expected_net_dominance(PathSpec(PolAngle(0.0), PolAngle(0.3), 1e-3, 1)).overcount == 0.0

    def test_threshold_below_half_refused(self):
        spec = PathSpec(PolAngle(0.0), PolAngle(PI / 8), 1e-3, 100)
        with pytest.raises(ValueError):
            expected_net_dominance(spec, threshold=0.5)
