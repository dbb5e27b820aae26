"""Levy-flight polarization model: family sums, outcome probabilities, bridges."""

import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from scipy import integrate, stats

from belllab import schulman
from belllab.core import OUTCOMES, PI, HALF_PI, PolAngle, RngStream, canonical_diff, outcome_axes
from belllab.qm import qm_joint
from belllab.schulman import (
    BridgeKicks,
    BridgeSamplingError,
    PathSpec,
    _cauchy_by_inversion,
    _conditional_step,
    bridge_shards,
    discarded_winding_mass,
    dominant_kick_stats,
    endpoint_targets,
    expected_net_dominance,
    free_kick_sums,
    net_dominance_given_rotation,
    periodized_cauchy,
    sample_bridges,
    single_photon_outcome_prob,
    truncated_family_sum,
    two_photon_joint,
    two_photon_outcome_joint,
)


def net_rotation_density(delta_q, gamma: float):
    """Cauchy density (1/pi) gamma / (delta_q^2 + gamma^2), the oracle for the
    closed forms built on it."""
    return gamma / (PI * (np.asarray(delta_q, dtype=float) ** 2 + gamma**2))


def periodized_cauchy_truncated(x: float, gamma: float) -> float:
    """Winding-by-winding evaluation of the wrapped Cauchy density, the
    reference for its closed form: |n| <= N_FAMILY_TERMS term by term, then
    the tail integral, exact for the Lorentzian, evaluated with arctan."""
    n = np.arange(-schulman.N_FAMILY_TERMS, schulman.N_FAMILY_TERMS + 1)
    edge = (schulman.N_FAMILY_TERMS + 0.5) * PI
    return float(np.sum(net_rotation_density(x + n * PI, gamma))) + (
        HALF_PI - math.atan((edge + x) / gamma) + HALF_PI - math.atan((edge - x) / gamma)
    ) / PI**2


def sequential_outcome_probs(angles, gamma):
    """Distribution over +-1 outcome sequences for a chain of polarizers.

    The first angle is the preparation; each measurement leaves the photon
    in the realized axis (the polarizer angle for +1, its perpendicular
    for -1), which becomes the boundary for the next segment.
    """
    angles = [PolAngle(t) for t in angles]
    if len(angles) < 2:
        raise ValueError("need a preparation angle and at least one polarizer")
    dists = {(): 1.0}
    realized = {(): angles[0]}
    for theta in angles[1:]:
        new_dists, new_realized = {}, {}
        for seq, prob in dists.items():
            p_plus = single_photon_outcome_prob(realized[seq], theta, gamma)
            for outcome, p, axis in zip(OUTCOMES, (p_plus, 1.0 - p_plus), outcome_axes(theta)):
                new_dists[seq + (outcome,)] = prob * p
                new_realized[seq + (outcome,)] = axis
        dists, realized = new_dists, new_realized
    return dists


def kicks_of(increments, theta1=0.0):
    """`BridgeKicks` of paths with these (n, steps) increments, by the
    whole-array formula."""
    abs_inc = np.abs(increments)
    return BridgeKicks(
        theta1=theta1,
        steps=increments.shape[1],
        endpoints=theta1 + increments.sum(axis=1),
        largest=abs_inc.max(axis=1),
        kick_step=abs_inc.argmax(axis=1),
        total=abs_inc.sum(axis=1),
    )


def assert_same_kicks(have, want):
    assert (have.theta1, have.steps) == (want.theta1, want.steps)
    for name in ("endpoints", "largest", "kick_step", "total"):
        a, b = getattr(have, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestFamilySums:
    @pytest.mark.parametrize("d", [PI / 8, PI / 4, 3 * PI / 8, PI / 2, 0.3, 1.1])
    def test_truncated_matches_closed_form(self, d):
        assert truncated_family_sum(d) == pytest.approx(
            1.0 / math.sin(d) ** 2, abs=1e-10
        )


class TestPeriodizedCauchy:
    @given(
        st.floats(min_value=-1.5, max_value=1.5),
        st.floats(min_value=1e-4, max_value=0.5),
    )
    @hyp_settings(max_examples=40, deadline=None)
    def test_closed_form_matches_winding_sum(self, x, gamma):
        assert periodized_cauchy(x, gamma) == pytest.approx(
            periodized_cauchy_truncated(x, gamma), rel=1e-9
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

    @pytest.mark.parametrize("gamma", [1e-155, 1e-160, 1e-161])
    def test_exact_where_the_squares_are_subnormal(self, gamma):
        # sinh(gamma)^2 + sin(x)^2 is subnormal here, with few digits left
        assert periodized_cauchy(0.0, gamma) == pytest.approx(1.0 / (PI * gamma), rel=1e-14)
        mixed = periodized_cauchy(np.array([0.0, gamma, 0.3]), gamma)
        assert mixed[1] == pytest.approx(0.5 / (PI * gamma), rel=1e-14)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            periodized_cauchy(0.0, 0.0)


#: (sinh(gamma)^2 + cos^2 theta2) / cosh(2 gamma) by mpmath at 60 digits, at
#: the float angles below
ONE_PHOTON_ANGLES = (0.3, 3 * PI / 8, HALF_PI - 1e-9, HALF_PI + 1e-6)
ONE_PHOTON_REFERENCE = {
    5e-324: (
        9.1266780745483915e-1, 1.4644660940672627e-1, 1.0000002879454426e-18, 9.9999999971266871e-13
    ),
    1e-300: (
        9.1266780745483915e-1, 1.4644660940672627e-1, 1.0000002879454426e-18, 9.9999999971266871e-13
    ),
    1e-13: (
        9.1266780745483915e-1, 1.4644660940672627e-1, 1.0000002979454426e-18, 9.9999999971267871e-13
    ),
    1e-4: (
        9.1266779920148314e-1, 1.4644661647779396e-1, 9.9999998343333373e-9, 1.000099983331305e-8
    ),
    1.0: (
        6.0968802298956909e-1, 4.060247207684619e-1, 3.6709888558296015e-1, 3.6709888558322596e-1
    ),
    400.0: (0.5, 0.5, 0.5, 0.5),
    1e300: (0.5, 0.5, 0.5, 0.5),
}


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
        w_plus = periodized_cauchy_truncated(d, 1e-3)
        w_minus = periodized_cauchy_truncated(d + HALF_PI, 1e-3)
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

    @pytest.mark.parametrize("gamma", [5e-324, 1e-310])
    def test_subnormal_width_is_malus(self, gamma):
        # the exact probability differs from Malus' law by about gamma^2,
        # below every float
        for d in np.linspace(0.0, HALF_PI, 9):
            malus = math.cos(canonical_diff(d, 0.0)) ** 2
            assert single_photon_outcome_prob(0.0, d, gamma) == malus

    def test_aligned_and_crossed_at_tiny_width(self):
        assert single_photon_outcome_prob(0.0, 0.0, 1e-300) == 1.0
        # Malus' law at the float angle: cos(HALF_PI) = 6.1e-17, not 0
        assert single_photon_outcome_prob(0.0, HALF_PI, 1e-300) == math.cos(HALF_PI) ** 2

    @pytest.mark.parametrize("gamma", sorted(ONE_PHOTON_REFERENCE))
    def test_matches_high_precision_reference(self, gamma):
        # near crossed polarizers cos^2 d is about 1e-18, so one extra rounding
        # of d (say d + pi/2) would cost 1e-7 of it
        for theta2, want in zip(ONE_PHOTON_ANGLES, ONE_PHOTON_REFERENCE[gamma]):
            got = single_photon_outcome_prob(0.0, theta2, gamma)
            assert got == pytest.approx(want, rel=1e-15, abs=0.0), theta2

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
        res = two_photon_joint(PolAngle(0.0), PolAngle(PI / 8), 1e-3)
        assert res.joint.max_abs_diff(qm_joint(0.0, PI / 8)) < 1e-3

    def test_posterior_masses_sum_to_one(self):
        res = two_photon_joint(PolAngle(0.0), PolAngle(PI / 8), 1e-3)
        assert res.posterior_mass.sum() == pytest.approx(1.0)
        assert res.mass_by_outcome.sum() == pytest.approx(1.0)

    def test_posterior_concentrates_on_four_atoms(self):
        res = two_photon_joint(PolAngle(0.0), PolAngle(PI / 8), 1e-3)
        windows = res.atom_window_masses(3e-3)
        assert len(windows) == 4
        shares = np.array(list(windows.values()))
        shares = shares / shares.sum()
        np.testing.assert_allclose(shares, 0.25, atol=0.01)
        # a Cauchy peak holds (2/pi) arctan(3) of its mass within +-3 widths
        assert sum(windows.values()) == pytest.approx(
            2 / PI * math.atan(3.0), abs=0.01
        )

    @pytest.mark.parametrize("gamma", [1e-2, 1e-3, 1e-4, 0.5])
    @pytest.mark.parametrize("a, b", [(0.0, PI / 8), (0.3, 1.2), (0.0, 0.0), (0.0, HALF_PI)])
    def test_closed_form_matches_grid(self, a, b, gamma):
        res = two_photon_joint(PolAngle(a), PolAngle(b), gamma)
        closed = two_photon_outcome_joint(a, b, gamma)
        np.testing.assert_allclose(
            [[closed.p_pp, closed.p_pm], [closed.p_mp, closed.p_mm]],
            res.mass_by_outcome.sum(axis=2),
            rtol=0.0,
            atol=1e-12,
        )
        assert res.joint == closed

    @pytest.mark.parametrize("a, b", [(0.0, PI / 8), (0.3, 1.2)])
    def test_outcome_pairs_are_labelled_by_their_axes(self, a, b):
        # index 0 is +1, the polarizer's own axis; index 1 is -1, its perpendicular.
        # The grid sums above cannot tell: p_pp = p_mm and p_pm = p_mp.
        gamma = 1e-3
        res = two_photon_joint(PolAngle(a), PolAngle(b), gamma)
        for i, axis_a in enumerate((a, a + HALF_PI)):
            for j, axis_b in enumerate((b, b + HALF_PI)):
                peak = res.lam[np.argmax(res.mass_by_outcome[i, j])]
                off = min(abs(canonical_diff(peak, axis_a)), abs(canonical_diff(peak, axis_b)))
                assert off < 3 * gamma, (i, j)

    def test_closed_form_rejects_bad_width(self):
        with pytest.raises(ValueError):
            two_photon_outcome_joint(0.0, PI / 8, 0.0)

    def test_joint_rejects_bad_width(self):
        with pytest.raises(ValueError):
            two_photon_joint(PolAngle(0.0), PolAngle(PI / 8), 0.0)

    def test_joint_refuses_a_grid_size_that_is_not_finite(self):
        with pytest.raises(ValueError, match="lambda grid"):
            two_photon_joint(PolAngle(0.0), PolAngle(PI / 8), 5e-324)

    @pytest.mark.parametrize("n", [131, 211, 290, 522])
    def test_grid_of_ceil_8pi_over_gamma_is_fine_enough(self, n):
        # one ulp below 8 pi / n, gamma / (pi / n) rounds to just under 8, and
        # the grid still has 8 points per gamma width
        gamma = math.nextafter(8 * PI / n, 0.0)
        assert math.ceil(8 * PI / gamma) == n
        assert two_photon_joint(PolAngle(0.0), PolAngle(PI / 8), gamma).lam.size == n

    def test_wide_kicks_use_the_smallest_grid(self):
        # ceil(8 pi / 1) = 26 points is below the grid's floor of 64
        assert two_photon_joint(PolAngle(0.0), PolAngle(PI / 8), 1.0).lam.size == 64


class TestBridges:
    spec = PathSpec(theta1=PolAngle(0.0), theta2=PolAngle(PI / 8), gamma=1e-3, steps=50)

    def test_shapes_and_boundary(self):
        bridges = sample_bridges(self.spec, 200, RngStream(2))
        assert (bridges.theta1, bridges.steps) == (0.0, 50)
        for vector in (bridges.endpoints, bridges.largest, bridges.kick_step, bridges.total):
            assert vector.shape == (200,)
        assert np.all((0 <= bridges.kick_step) & (bridges.kick_step < 50))
        assert np.all(bridges.largest <= bridges.total)

    def test_endpoints_exactly_on_families(self):
        spec = PathSpec(theta1=PolAngle(0.3), theta2=PolAngle(PI / 8), gamma=1e-3, steps=50)
        bridges = sample_bridges(spec, 500, RngStream(3))
        # every endpoint is bit-equal to theta1 plus one of the enumerated family targets
        rotations, _ = endpoint_targets(spec)
        assert np.isin(bridges.endpoints, 0.3 + rotations).all()

    def test_reproducible(self):
        assert_same_kicks(
            sample_bridges(self.spec, 50, RngStream(9)), sample_bridges(self.spec, 50, RngStream(9))
        )

    def test_net_rotation_distribution(self):
        # endpoint weights follow the Cauchy net-rotation density: compare
        # the aligned-family share against the analytic family ratio
        ends = sample_bridges(self.spec, 20_000, RngStream(4)).endpoints
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
        bridges = sample_bridges(spec, 1, RngStream(5))
        rotations, _ = endpoint_targets(spec)
        # the one increment is the whole rotation
        assert bridges.endpoints[0] in rotations
        assert bridges.largest[0] == bridges.total[0] == abs(bridges.endpoints[0])
        assert bridges.kick_step[0] == 0

    def test_stalled_step_reports_its_index(self, monkeypatch):
        calls = []

        def stall_on_third_step(residual, d1, d2, gen):
            calls.append(d1)
            if len(calls) == 3:
                raise BridgeSamplingError("stalled")
            return np.zeros_like(residual)

        monkeypatch.setattr(schulman, "_conditional_step", stall_on_third_step)
        with pytest.raises(BridgeSamplingError) as exc:
            sample_bridges(self.spec, 200, RngStream(2))
        assert str(exc.value) == "stalled in bridge shard 0 (step 2, 64 proposal rounds)"

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PathSpec(theta1=0.0, theta2=0.0, gamma=-1.0)
        with pytest.raises(ValueError):
            PathSpec(theta1=0.0, theta2=0.0, gamma=1e-3, steps=0)

    def test_spec_refuses_a_subnormal_step_width(self):
        tiny = sys.float_info.min
        # the smallest accepted width
        spec = PathSpec(theta1=0.0, theta2=0.0, gamma=tiny * 2.0**600, steps=2**600)
        assert spec.step_width == tiny
        with pytest.raises(ValueError, match="step width gamma / steps = 1.1125"):
            PathSpec(theta1=0.0, theta2=0.0, gamma=tiny, steps=2)
        with pytest.raises(ValueError, match="step width gamma / steps = 0.0 "):
            PathSpec(theta1=0.0, theta2=0.0, gamma=5e-324, steps=10)

    @pytest.mark.parametrize("gamma", [1.5e-162, 3e-306, sys.float_info.min, 8e153])
    def test_endpoint_weights_are_finite_where_gamma_squared_is_not(self, gamma):
        # pi * gamma**2 underflows to 0 or overflows here; the weights never form it
        _, weights = endpoint_targets(PathSpec(theta1=0.0, theta2=0.0, gamma=gamma, steps=1))
        assert np.all(np.isfinite(weights)) and weights.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("gamma, steps", [(100 * sys.float_info.min, 100), (1.1e292, 1)])
    def test_spec_accepts_the_gammas_at_the_ends_of_its_range(self, gamma, steps):
        spec = PathSpec(theta1=0.0, theta2=0.0, gamma=gamma, steps=steps)
        _, weights = endpoint_targets(spec)
        assert np.all(np.isfinite(weights)) and weights.sum() == pytest.approx(1.0)
        assert math.isfinite(discarded_winding_mass(spec))

    @pytest.mark.parametrize("gamma", [1.2e292, 1e300, sys.float_info.max])
    def test_spec_refuses_a_gamma_beyond_the_largest_kick(self, gamma):
        # gamma times |tan(-pi/2)| = 1.6e16, the largest Cauchy variate, overflows
        assert not math.isfinite(gamma * abs(math.tan(-HALF_PI)))
        with pytest.raises(ValueError, match=re.escape(f"gamma = {gamma!r} times the largest")):
            PathSpec(theta1=0.0, theta2=0.0, gamma=gamma, steps=1)

    def test_far_windings_of_a_tiny_gamma_weigh_exactly_zero(self):
        # in units of gamma every other winding's (x / gamma)^2 overflows; its
        # true weight, about (gamma / x)^2 = 1e-600, is below every float
        rotations, weights = endpoint_targets(PathSpec(0.0, 0.0, 1e-300, steps=1))
        assert weights[rotations == 0.0].tolist() == [1.0]
        assert np.count_nonzero(weights) == 1


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
    """pi * Q_min * C_{d1+d2}(r) for the proposal weight w = sqrt(d2) / (sqrt(d1) + sqrt(d2)).

    Q_min = alpha beta / (alpha + beta) r^2 + alpha d2^2 + beta d1^2 with
    alpha = w / d2 and beta = (1 - w) / d1 scales as the widths, and the
    density as their inverse, so the rate is taken in units of d2.
    """
    r, d1 = r / d2, d1 / d2
    w = 1.0 / (math.sqrt(d1) + 1.0)
    alpha, beta = w, (1.0 - w) / d1
    q_min = alpha * beta / (alpha + beta) * r * r + alpha + beta * d1 * d1
    return PI * q_min * net_rotation_density(r, d1 + 1.0)


class CountingGenerator:
    """Forwards the draws `_conditional_step` makes and counts its proposals.

    Each round draws two uniform arrays, the proposals' and then the
    acceptance test's, so the first `random` call of each round counts.
    """

    def __init__(self, seed):
        self.gen = RngStream(seed).generator
        self.proposals = 0
        self.calls = 0

    def standard_cauchy(self, size):
        raise AssertionError("proposals are drawn by inversion of uniforms")

    def random(self, size):
        if self.calls % 2 == 0:
            self.proposals += size
        self.calls += 1
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
        eps = _conditional_step(np.full(n, r), d1, d2, RngStream(seed).generator)
        assert stats.kstest(eps, lambda x: conditional_cdf(x, r, d1, d2)).pvalue > 0.01

    @pytest.mark.parametrize("seed, regime", enumerate(STEP_REGIMES, start=41))
    def test_proposal_count_matches_exact_acceptance(self, seed, regime):
        r, d1, d2 = regime
        n = 50_000
        gen = CountingGenerator(seed)
        _conditional_step(np.full(n, r), d1, d2, gen)
        # proposals per path are geometric with success probability p
        p = exact_acceptance(r, d1, d2)
        se = math.sqrt((1.0 - p) / n) / p
        assert abs(gen.proposals / n - 1.0 / p) < 5 * se

    @pytest.mark.parametrize("r_over_d2", [0.0, 10.0])
    @pytest.mark.parametrize("d1, d2", [
        (1e-3, 9.9e-2), (1e-163, 9.9e-162), (1e-300, 9.9e-299), (1e280, 9.9e281),
    ])
    def test_proposal_rate_is_exact_at_any_scale(self, d1, d2, r_over_d2):
        # one width ratio and r / d2 at scales from 1e-300 to 1e280
        n = 100_000
        r = r_over_d2 * d2
        gen = CountingGenerator(53)
        eps = _conditional_step(np.full(n, r), d1, d2, gen)
        assert np.all(np.isfinite(eps))
        p = exact_acceptance(r, d1, d2)
        se = math.sqrt((1.0 - p) / n) / p
        assert abs(gen.proposals / n - 1.0 / p) < 5 * se

    def test_tiny_widths_keep_the_law_and_the_acceptance(self):
        # the gate's first step scaled by 1e-157, where the squares of the
        # widths are subnormal
        r, d1, d2 = PI / 8, 1e-162, 9.9e-161
        n = 50_000
        gen = CountingGenerator(47)
        eps = _conditional_step(np.full(n, r), d1, d2, gen)
        # at |r| >> d2 an increment jumps to r with probability d1 / (d1 + d2)
        jump = d1 / (d1 + d2)
        share = np.mean(np.abs(eps) > r / 2)
        assert abs(share - jump) < 5 * math.sqrt(jump * (1.0 - jump) / n)
        # the acceptance depends on width ratios only, and at |r| >> d2 not on r
        p = exact_acceptance(1e6, d1 / (d1 + d2), d2 / (d1 + d2))
        assert abs(gen.proposals / n - 1.0 / p) < 5 * math.sqrt((1.0 - p) / n) / p

    def test_stalls_after_max_rounds(self):
        class Rejecting(CountingGenerator):
            def random(self, size):
                u = super().random(size)
                # acceptance uniforms of 1 reject every proposal off Q's minimum
                return u if self.calls % 2 == 1 else np.ones(size)

        n = 10
        gen = Rejecting(48)
        with pytest.raises(BridgeSamplingError):
            _conditional_step(np.full(n, PI / 8), 1e-5, 9.9e-4, gen)
        assert schulman.MAX_ROUNDS == 64
        assert gen.proposals == 64 * n


class TestRowBlocks:
    """Folded and blocked results equal the one-shot whole-array arithmetic,
    bit for bit."""

    # below 8 steps numpy sums a row in order, as the fold does
    spec = PathSpec(theta1=PolAngle(0.3), theta2=PolAngle(PI / 8), gamma=1e-3, steps=6)
    # a partial last block of free kicks
    n = schulman.KICK_BLOCK // 6 + 3

    def sample_fixed_kicks(self, monkeypatch, seed):
        """Bridges whose conditional steps return fixed Cauchy kicks; returns
        them with their endpoint targets and (n, steps) increments.  Row 0's
        kicks tie for the largest at steps 1 and 3 and cancel."""
        kick_gen = RngStream(seed).generator
        residuals, kicks = [], []

        def fixed_step(residual, d1, d2, gen):
            residuals.append(residual.copy())
            kick = 1e-3 * kick_gen.standard_cauchy(residual.size)
            if len(kicks) in (1, 3):
                kick[0] = 1e3 if len(kicks) == 1 else -1e3
            kicks.append(kick)
            return kick.copy()

        monkeypatch.setattr(schulman, "_conditional_step", fixed_step)
        bridges = sample_bridges(self.spec, self.n, RngStream(seed + 1))
        increments = np.column_stack([*kicks, residuals[-1] - kicks[-1]])
        return bridges, residuals[0], increments

    def test_folded_kicks_match_the_whole_array_formula(self, monkeypatch):
        bridges, targets, increments = self.sample_fixed_kicks(monkeypatch, 12)
        theta1 = float(self.spec.theta1)
        want = dataclasses.replace(kicks_of(increments, theta1), endpoints=theta1 + targets)
        assert_same_kicks(bridges, want)

    def test_a_tie_for_the_largest_kick_takes_the_first_step(self, monkeypatch):
        bridges, _, increments = self.sample_fixed_kicks(monkeypatch, 13)
        assert np.abs(increments[0]).max() == abs(increments[0, 1]) == abs(increments[0, 3])
        assert bridges.kick_step[0] == 1
        assert bridges.largest[0] == 1e3

    def test_kick_stats_match_the_whole_array_formula(self):
        increments = 1e-3 * RngStream(14).generator.standard_cauchy((self.n, self.spec.steps))
        increments[-2:] = 0.0  # two flat paths, which are excluded
        bridges = kicks_of(increments, 0.3)
        gamma = self.spec.gamma
        largest, total = bridges.largest, bridges.total
        net = np.abs(bridges.endpoints - 0.3)
        defined = total >= schulman.DOMINANCE_FLOOR * gamma
        expected = {
            "kick_time_histogram": np.bincount(
                bridges.kick_step[defined], minlength=self.spec.steps
            ),
            "dominance_fraction": largest[defined] / total[defined],
            "net_dominance": largest[defined] / net[defined],
        }
        got = dominant_kick_stats(bridges, gamma)
        assert got.excluded_paths == int(np.sum(~defined)) == 2
        for name, want in expected.items():
            have = getattr(got, name)
            assert have.dtype == want.dtype and have.tobytes() == want.tobytes(), name

    def test_free_kick_sums_match_one_draw(self):
        gamma = 1e-3
        # blocks of many rows, and rows longer than a block
        for steps, n in ((6, self.n), (schulman.KICK_BLOCK + 9, 3)):
            sums = free_kick_sums(gamma, steps, n, RngStream(15).substream(1))
            uniforms = RngStream(15).substream(1).generator.random((n, steps))
            kicks = (gamma / steps) * _cauchy_by_inversion(uniforms)
            assert sums.tobytes() == kicks.sum(axis=1).tobytes(), steps


class TestShards:
    """An ensemble drawn shard by shard, with a partial last shard of one path."""

    n = 2 * schulman.BRIDGE_SHARD + 1
    spec = PathSpec(theta1=PolAngle(0.3), theta2=PolAngle(PI / 8), gamma=1e-3, steps=12)

    def test_split_depends_on_the_count_alone(self):
        shards = bridge_shards(self.n, RngStream(3).substream(0))
        assert [size for size, _ in shards] == [schulman.BRIDGE_SHARD] * 2 + [1]
        assert [rng.stream for _, rng in shards] == [
            RngStream(3).substream(0).substream(i).stream for i in range(3)
        ]
        assert [size for size, _ in bridge_shards(1, RngStream(3))] == [1]

    def test_a_shard_drawn_alone_is_its_slice_of_the_ensemble(self, monkeypatch):
        ensemble = sample_bridges(self.spec, self.n, RngStream(21))
        for i, size in ((1, schulman.BRIDGE_SHARD), (2, 1)):
            # the ensemble's split replaced by shard i alone, from its own stream
            monkeypatch.setattr(
                schulman, "bridge_shards", lambda n, rng: [(size, RngStream(21).substream(i))]
            )
            alone = sample_bridges(self.spec, size, RngStream(0))
            rows = slice(i * schulman.BRIDGE_SHARD, i * schulman.BRIDGE_SHARD + size)
            assert_same_kicks(
                alone,
                BridgeKicks(
                    ensemble.theta1,
                    ensemble.steps,
                    ensemble.endpoints[rows],
                    ensemble.largest[rows],
                    ensemble.kick_step[rows],
                    ensemble.total[rows],
                ),
            )


class TestCauchyByInversion:
    def test_tail_mass(self):
        z = _cauchy_by_inversion(RngStream(17).generator.random(10**6))
        # P(|Z| > t) = 1 - 2 arctan(t) / pi = 2 / (pi t) (1 - 1 / (3 t^2) + ...)
        p = 2.0 / (1e3 * PI)
        se = math.sqrt(p * (1.0 - p) / z.size)
        assert abs(np.mean(np.abs(z) > 1e3) - p) < 5 * se

    def test_edges_are_finite_and_the_centre_is_zero(self):
        z = _cauchy_by_inversion(np.array([0.0, 1.0 - 2.0**-53, 0.5]))
        assert np.all(np.isfinite(z))
        assert z[0] < -1e15 and z[1] > 1e15
        assert z[2] == 0.0

    def test_transforms_in_place(self):
        v = np.array([0.25, 0.75])
        assert _cauchy_by_inversion(v) is v
        np.testing.assert_allclose(v, [-1.0, 1.0], rtol=1e-15)


class TestKickStatistics:
    def test_cauchy_stability(self):
        sums = free_kick_sums(1e-3, 100, 50_000, RngStream(6))
        ks = stats.kstest(sums, stats.cauchy(scale=1e-3).cdf)
        assert ks.pvalue > 0.01

    def test_dominance_on_crafted_paths(self):
        # one big kick at step 2, tiny ones elsewhere
        inc = np.full((3, 5), 1e-8)
        inc[:, 2] = 0.4
        ks = dominant_kick_stats(kicks_of(inc), gamma=1e-3)
        np.testing.assert_array_equal(ks.kick_time_histogram, [0, 0, 3, 0, 0])
        assert np.all(ks.dominance_fraction > 0.99)
        assert np.all(ks.net_dominance > 0.99)
        assert ks.excluded_paths == 0

    def test_flat_paths_are_excluded(self):
        ks = dominant_kick_stats(kicks_of(np.zeros((4, 5))), gamma=1e-3)
        assert ks.excluded_paths == 4
        assert ks.dominance_fraction.size == 0

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            dominant_kick_stats(kicks_of(np.empty((0, 5))), gamma=1e-3)

    @pytest.mark.parametrize("delta", [PI / 8, -3 * PI / 8, 5 * PI / 8 + 4 * PI, 2e-3, 4e-4])
    def test_closed_form_matches_quadrature(self, delta):
        gamma, steps = 1e-3, 100
        a = gamma / steps
        c = 0.99 * abs(delta)

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
        assert net_dominance_given_rotation(delta, gamma, steps) == pytest.approx(
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

    @pytest.mark.parametrize("delta, gamma, steps, want", [
        # expected counts by mpmath quadrature at 40 digits
        (1e-8, 1e-3, 2, 1.9999495797140568),
        (0.39, 1e-3, 2, 0.95612830774418064),
        (0.3, 1.0, 10, 1.433454460119747),
        (1e-5, 1e-3, 100, 49.819564092094191),
    ])
    def test_count_matches_high_precision_reference(self, delta, gamma, steps, want):
        assert net_dominance_given_rotation(delta, gamma, steps) == pytest.approx(want, rel=1e-14)

    def test_count_keeps_its_limits_at_extreme_ratios(self):
        # |delta| << gamma: both kicks of a 2-step bridge pass 0.99 |delta|
        assert net_dominance_given_rotation(1e-20, 1e-3, 2) == pytest.approx(2.0, rel=1e-14)
        # |delta| >> gamma: one kick carries the whole rotation
        assert net_dominance_given_rotation(PI / 8, 1e-200, 100) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("theta2", [0.0, 1e-9, PI / 8, HALF_PI, 3.0])
    def test_prediction_at_every_width(self, theta2):
        for gamma in np.logspace(-305, 292, 60):
            for steps in (1, 2, 3, 100):
                try:
                    spec = PathSpec(PolAngle(0.0), PolAngle(theta2), float(gamma), steps)
                except ValueError:
                    continue
                pred = expected_net_dominance(spec)
                where = f"gamma={gamma:.3g}, steps={steps}"
                assert 0.0 <= pred.value <= steps * (1.0 + 1e-12), where
                assert math.isfinite(pred.error_bound), where
                assert 0.0 <= pred.discarded_winding_mass <= 1.0, where
                if theta2 == PI / 8 and gamma <= 1e-100:
                    # every kept winding lies more than 1e98 widths from 0
                    assert pred.value == pytest.approx(1.0, abs=1e-12), where
