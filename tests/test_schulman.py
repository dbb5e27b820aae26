"""Levy-flight polarization model: family sums, outcome probabilities, bridges."""

import dataclasses
import math
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from scipy import integrate, stats

from belllab import schulman
from belllab.core import PI, HALF_PI, PolAngle, RngStream, canonical_diff, outcome_axes
from belllab.qm import qm_joint
from belllab.schulman import (
    BridgeKicks,
    BridgeSamplingError,
    PathSpec,
    _atom_window_mass,
    _cauchy_by_inversion,
    _conditional_step,
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
            for outcome, p, axis in zip((+1, -1), (p_plus, 1.0 - p_plus), outcome_axes(theta)):
                new_dists[seq + (outcome,)] = prob * p
                new_realized[seq + (outcome,)] = axis
        dists, realized = new_dists, new_realized
    return dists


def kicks_of(increments):
    """`BridgeKicks` of paths with these (n, steps) increments, by the
    whole-array formula: the kick step is the `argmax` where the largest
    |increment| occurs once, and -1 where it occurs at two or more steps."""
    abs_inc = np.abs(increments)
    largest = abs_inc.max(axis=1)
    unique = np.sum(abs_inc == largest[:, None], axis=1) == 1
    return BridgeKicks(
        steps=increments.shape[1],
        rotations=increments.sum(axis=1),
        largest=largest,
        kick_step=np.where(unique, abs_inc.argmax(axis=1), -1),
        total=abs_inc.sum(axis=1),
    )


def assert_same_kicks(have, want):
    assert have.steps == want.steps
    for name in ("rotations", "largest", "kick_step", "total"):
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

    @pytest.mark.parametrize("gamma", [*np.geomspace(1e-300, 1e4, 61).tolist(), 355.1, 711.0])
    def test_matches_mpmath(self, gamma):
        xs = [0.0, 1e-300, gamma, 0.3, 1.5, HALF_PI, -2.0]
        with mpmath.workdps(50):
            g = mpmath.mpf(gamma)
            want = [
                mpmath.sinh(g) * mpmath.cosh(g)
                / (mpmath.pi * (mpmath.sinh(g) ** 2 + mpmath.sin(mpmath.mpf(x)) ** 2))
                for x in xs
            ]
        got = periodized_cauchy(np.array(xs), gamma)
        for x, have, exact in zip(xs, got, want):
            if sys.float_info.min <= exact <= sys.float_info.max:
                assert abs(have - exact) <= 1e-15 * exact, x
            assert have == periodized_cauchy(x, gamma), x


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


def quadrature_windows(a: float, b: float, gamma: float, half_width: float) -> list[float]:
    """Posterior mass within +-half_width of the atoms a and b, by mpmath
    quadrature of the outcome-summed posterior, which is the product of the
    two photons' wrapped-Cauchy family weights summed over their outcome
    axes, normalized by its integral over [0, pi).  The kernel
    1 / (sinh(gamma)^2 + sin(x)^2) is the wrapped Cauchy density up to a
    constant, free of the cancellation in cosh(2 gamma) - cos(2 x)."""
    with mpmath.workdps(15):
        g = mpmath.mpf(gamma)
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        floor = mpmath.sinh(g) ** 2

        def family(x):  # both outcome axes: the setting and its perpendicular
            return 1 / (floor + mpmath.sin(x) ** 2) + 1 / (floor + mpmath.cos(x) ** 2)

        def posterior(lam):
            return family(lam - a) * family(lam - b)

        def integral(lo, hi):
            # cut at every peak and one width either side of it
            cuts = {lo, hi}
            for axis in (a, a + mpmath.pi / 2, b, b + mpmath.pi / 2):
                for turn in (-1, 0, 1):
                    for offset in (-g, 0, g):
                        x = axis + turn * mpmath.pi + offset
                        if lo < x < hi:
                            cuts.add(x)
            return mpmath.quad(posterior, sorted(cuts))

        total = integral(mpmath.mpf(0), mpmath.pi)
        h = mpmath.mpf(half_width)
        return [float(integral(t - h, t + h) / total) for t in (a, b)]


def grid_windows(res) -> tuple[float, dict[float, tuple[float, float]]]:
    """Posterior mass on the lazy lambda grid within +-3 gamma of each atom,
    as the grid counted it before the windows were exact: the cells whose
    midpoints lie within the window.  With each mass, the mass of the two
    cells nearest the window's edges."""
    half_width = 3.0 * res.gamma
    mass = res.mass_by_outcome.sum(axis=(0, 1))
    out = {}
    for atom in (*outcome_axes(res.a), *outcome_axes(res.b)):
        def offset(x):
            return np.abs((res.lam - float(atom) - x + HALF_PI) % PI - HALF_PI)

        edges = [int(np.argmin(offset(x))) for x in (-half_width, half_width)]
        out[float(atom)] = (float(mass[offset(0.0) <= half_width].sum()), float(mass[edges].sum()))
    return out


WINDOW_SETTINGS = [(0.0, PI / 8), (0.3, 1.2), (0.0, 0.0), (0.0, HALF_PI), (0.0, 1e-9)]


class TestTwoPhoton:
    def test_matches_qm_at_small_width(self):
        res = two_photon_joint(PolAngle(0.0), PolAngle(PI / 8), 1e-3)
        assert res.joint.max_abs_diff(qm_joint(0.0, PI / 8)) < 1e-3

    def test_posterior_masses_sum_to_one(self):
        res = two_photon_joint(PolAngle(0.0), PolAngle(PI / 8), 1e-3)
        assert res.mass_by_outcome.sum(axis=(0, 1)).sum() == pytest.approx(1.0)
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

    @pytest.mark.parametrize("gamma", [1e-4, 1e-2, 0.5])
    @pytest.mark.parametrize("a, b", WINDOW_SETTINGS)
    def test_atom_windows_match_high_precision_quadrature(self, a, b, gamma):
        windows = two_photon_joint(PolAngle(a), PolAngle(b), gamma).atom_window_masses(3 * gamma)
        want_a, want_b = quadrature_windows(a, b, gamma, 3 * gamma)
        assert windows[float(PolAngle(a))] == pytest.approx(want_a, rel=0.0, abs=1e-12)
        assert windows[float(PolAngle(b))] == pytest.approx(want_b, rel=0.0, abs=1e-12)
        # the outcome-summed posterior has period pi/2: each perpendicular
        # atom's window holds the same mass as its setting's
        assert set(windows.values()) == {windows[float(PolAngle(a))]}

    def test_atom_window_at_the_gate_matches_its_mpmath_value(self):
        # quadrature_windows at 30 digits; the lambda grid read 0.19879799421452
        windows = two_photon_joint(PolAngle(0.0), PolAngle(PI / 8), 1e-4).atom_window_masses(3e-4)
        assert list(windows.values()) == pytest.approx([0.1987918915858075461] * 4, rel=0.0,
                                                       abs=1e-16)

    @pytest.mark.parametrize("gamma", [5e-324, 1e-300, 1e-12, 1e3])
    @pytest.mark.parametrize("a, b", WINDOW_SETTINGS)
    def test_atom_windows_are_probabilities_at_extreme_widths(self, a, b, gamma):
        res = two_photon_joint(PolAngle(a), PolAngle(b), gamma)
        for half_width in (3 * gamma, 1e-3, 0.5, 1.0, HALF_PI):
            windows = res.atom_window_masses(half_width)
            assert all(math.isfinite(m) and 0.0 <= m <= 1.0 for m in windows.values())

    @given(
        separation=st.floats(min_value=0.0, max_value=PI, exclude_max=True),
        gamma=st.one_of(
            st.floats(min_value=5e-324, max_value=1e300),
            st.floats(min_value=-323.0, max_value=300.0).map(lambda e: 10.0**e),
        ),
    )
    @hyp_settings(max_examples=300, deadline=None)
    def test_three_width_window_holds_mass_at_every_width(self, separation, gamma):
        # two-photon reports each window's share of their sum, which needs a sum > 0
        assert _atom_window_mass(separation, gamma, 3.0 * gamma) > 0.0

    @pytest.mark.parametrize("gamma", [1e-4, 1e-3, 1e-2, 0.5])
    @pytest.mark.parametrize("a, b", WINDOW_SETTINGS)
    def test_atom_windows_agree_with_the_grid(self, a, b, gamma):
        # a grid window counts whole cells, so each edge can gain or lose up to
        # half a cell: the grid error is at most the mass of the two edge cells
        res = two_photon_joint(PolAngle(a), PolAngle(b), gamma)
        exact = res.atom_window_masses(3 * gamma)
        for atom, (grid, edge_cells) in grid_windows(res).items():
            assert abs(grid - exact[atom]) <= edge_cells, atom

    def test_grid_window_at_the_gate_is_high_by_its_stated_error(self):
        res = two_photon_joint(PolAngle(0.0), PolAngle(PI / 8), 1e-4)
        exact = res.atom_window_masses(3e-4)
        for atom, (grid, _) in grid_windows(res).items():
            assert grid - exact[atom] == pytest.approx(6.1e-6, abs=0.05e-6), atom

    @given(
        separation=st.floats(min_value=-PI, max_value=PI),
        exponent=st.floats(min_value=math.log10(5e-324), max_value=math.log10(1.7e308)),
        half_width=st.floats(min_value=0.0, max_value=2.0),
    )
    @hyp_settings(max_examples=300, deadline=None)
    def test_atom_window_grows_with_its_half_width(self, separation, exponent, half_width):
        gamma = max(10.0**exponent, 5e-324)
        res = two_photon_joint(PolAngle(0.0), PolAngle(separation), gamma)
        narrow = res.atom_window_masses(half_width)
        wide = res.atom_window_masses(half_width + 0.01)
        for atom, mass in narrow.items():
            assert 0.0 <= mass <= 1.0 and 0.0 <= wide[atom] <= 1.0
            assert mass <= wide[atom] + 1e-15

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
        res = two_photon_joint(PolAngle(0.0), PolAngle(PI / 8), 5e-324)
        with pytest.raises(ValueError, match="lambda grid"):
            res.lam

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
        assert bridges.steps == 50
        for vector in (bridges.rotations, bridges.largest, bridges.kick_step, bridges.total):
            assert vector.shape == (200,)
        assert np.all((0 <= bridges.kick_step) & (bridges.kick_step < 50))
        assert np.all(bridges.largest <= bridges.total)

    def test_endpoints_exactly_on_families(self):
        spec = PathSpec(theta1=PolAngle(0.3), theta2=PolAngle(PI / 8), gamma=1e-3, steps=50)
        bridges = sample_bridges(spec, 500, RngStream(3))
        # every net rotation is bit-equal to one of the enumerated family targets
        rotations, _, _ = endpoint_targets(spec)
        assert np.isin(bridges.rotations, rotations).all()

    def test_reproducible(self):
        assert_same_kicks(
            sample_bridges(self.spec, 50, RngStream(9)), sample_bridges(self.spec, 50, RngStream(9))
        )

    def test_net_rotation_distribution(self):
        # endpoint weights follow the Cauchy net-rotation density: compare
        # the aligned-family share against the analytic family ratio
        ends = float(self.spec.theta1) + sample_bridges(self.spec, 20_000, RngStream(4)).rotations
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
        rotations, _, _ = endpoint_targets(spec)
        # the one increment is the whole rotation
        assert bridges.rotations[0] in rotations
        assert bridges.largest[0] == bridges.total[0] == abs(bridges.rotations[0])
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
        _, weights, _ = endpoint_targets(PathSpec(theta1=0.0, theta2=0.0, gamma=gamma, steps=1))
        assert np.all(np.isfinite(weights)) and weights.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("gamma, steps", [(100 * sys.float_info.min, 100), (1.1e292, 1)])
    def test_spec_accepts_the_gammas_at_the_ends_of_its_range(self, gamma, steps):
        spec = PathSpec(theta1=0.0, theta2=0.0, gamma=gamma, steps=steps)
        _, weights, discarded = endpoint_targets(spec)
        assert np.all(np.isfinite(weights)) and weights.sum() == pytest.approx(1.0)
        assert math.isfinite(discarded)

    @pytest.mark.parametrize("gamma", [1.2e292, 1e300, sys.float_info.max])
    def test_spec_refuses_a_gamma_beyond_the_largest_kick(self, gamma):
        # gamma times |tan(-pi/2)| = 1.6e16, the largest Cauchy variate, overflows
        assert not math.isfinite(gamma * abs(math.tan(-HALF_PI)))
        with pytest.raises(ValueError, match=re.escape(f"gamma = {gamma!r} times the largest")):
            PathSpec(theta1=0.0, theta2=0.0, gamma=gamma, steps=1)

    def test_far_windings_of_a_tiny_gamma_weigh_exactly_zero(self):
        # in units of gamma every other winding's (x / gamma)^2 overflows; its
        # true weight, about (gamma / x)^2 = 1e-600, is below every float
        rotations, weights, _ = endpoint_targets(PathSpec(0.0, 0.0, 1e-300, steps=1))
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

    @staticmethod
    def fold_kicks(mp, spec, n, seed, kick):
        """Bridges whose j-th conditional step returns kick(j, paths) in place
        of a draw; returns them with their endpoint targets and (n, steps)
        increments."""
        residuals, kicks = [], []

        def fixed_step(residual, d1, d2, gen):
            residuals.append(residual.copy())
            kicks.append(kick(len(kicks), residual.size))
            return kicks[-1].copy()

        mp.setattr(schulman, "_conditional_step", fixed_step)
        bridges = sample_bridges(spec, n, RngStream(seed))
        increments = np.column_stack([*kicks, residuals[-1] - kicks[-1]])
        return bridges, residuals[0], increments

    def sample_fixed_kicks(self, monkeypatch, seed):
        """Bridges whose conditional steps return fixed Cauchy kicks.  Row 0's
        kicks tie for the largest at steps 1 and 3 and cancel."""
        kick_gen = RngStream(seed).generator

        def cauchy_kick(j, paths):
            kick = 1e-3 * kick_gen.standard_cauchy(paths)
            if j in (1, 3):
                kick[0] = 1e3 if j == 1 else -1e3
            return kick

        return self.fold_kicks(monkeypatch, self.spec, self.n, seed + 1, cauchy_kick)

    def test_folded_kicks_match_the_whole_array_formula(self, monkeypatch):
        bridges, targets, increments = self.sample_fixed_kicks(monkeypatch, 12)
        want = dataclasses.replace(kicks_of(increments), rotations=targets)
        assert_same_kicks(bridges, want)

    @hyp_settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        steps=st.integers(min_value=2, max_value=6),
        paths=st.integers(min_value=1, max_value=12),
        target=st.integers(min_value=-3, max_value=3),
    )
    def test_folded_ties_match_the_whole_array_formula(self, data, steps, paths, target):
        # small integers: ties below the largest, ties at it and all-zero rows,
        # every sum exact; each path's last increment is the target left
        kicks = data.draw(st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=paths, max_size=paths),
            min_size=steps - 1, max_size=steps - 1,
        ))
        spec = dataclasses.replace(self.spec, steps=steps)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(schulman, "endpoint_targets",
                       lambda spec: (np.array([float(target)]), np.ones(1), 0.0))
            bridges, _, increments = self.fold_kicks(
                mp, spec, paths, 16, lambda j, n: np.array(kicks[j], dtype=float)
            )
        assert_same_kicks(bridges, kicks_of(increments))

    def test_a_tie_for_the_largest_kick_leaves_the_path_out(self, monkeypatch):
        bridges, _, increments = self.sample_fixed_kicks(monkeypatch, 13)
        assert np.abs(increments[0]).max() == abs(increments[0, 1]) == abs(increments[0, 3])
        assert bridges.kick_step[0] == -1
        assert bridges.largest[0] == 1e3
        assert np.all(bridges.kick_step[1:] >= 0)
        names = ("rotations", "largest", "kick_step", "total")
        rest = BridgeKicks(bridges.steps, *(getattr(bridges, name)[1:] for name in names))
        got, want = dominant_kick_stats(bridges), dominant_kick_stats(rest)
        assert (got.excluded_paths, want.excluded_paths) == (1, 0)
        assert got.kick_time_histogram.tobytes() == want.kick_time_histogram.tobytes()
        assert got.net_dominance_share == want.net_dominance_share
        assert got.dominance_fraction_quantiles == want.dominance_fraction_quantiles

    def test_kick_stats_match_the_whole_array_formula(self):
        increments = 1e-3 * RngStream(14).generator.standard_cauchy((self.n, self.spec.steps))
        increments[-2:] = 0.0  # two flat paths, whose steps all share the largest kick
        bridges = kicks_of(increments)
        counted = bridges.kick_step >= 0
        largest = bridges.largest[counted]
        net_dominance = largest / np.abs(bridges.rotations[counted])
        fractions = largest / bridges.total[counted]
        hist = np.bincount(bridges.kick_step[counted], minlength=self.spec.steps)
        got = dominant_kick_stats(bridges)
        assert got.excluded_paths == int(np.sum(~counted)) == 2
        assert got.kick_time_histogram.dtype == hist.dtype
        assert got.kick_time_histogram.tobytes() == hist.tobytes()
        share = np.mean(net_dominance > schulman.DOMINANCE_THRESHOLD)
        assert type(got.net_dominance_share) is float and got.net_dominance_share == share
        quantiles = got.dominance_fraction_quantiles
        assert list(quantiles) == ["q05", "q50", "q95"]
        for key, q in zip(quantiles, (0.05, 0.50, 0.95)):
            assert type(quantiles[key]) is float and quantiles[key] == np.quantile(fractions, q), key

    def test_free_kick_sums_match_one_draw(self):
        gamma = 1e-3
        # blocks of many rows, and rows longer than a block
        for steps, n in ((6, self.n), (schulman.KICK_BLOCK + 9, 3)):
            sums = free_kick_sums(gamma, steps, n, RngStream(15).substream(1))
            uniforms = RngStream(15).substream(1).generator.random((n, steps))
            kicks = (gamma / steps) * _cauchy_by_inversion(uniforms)
            assert sums.tobytes() == kicks.sum(axis=1).tobytes(), steps


class RecordedStream(RngStream):
    """RngStream(21), recording the substream indices asked of it.  Given
    `shard`, every substream it hands back is RngStream(21).substream(shard)."""

    def __init__(self, shard: int | None = None):
        super().__init__(21)
        self.shard, self.asked = shard, []

    def substream(self, index: int) -> RngStream:
        self.asked.append(index)
        return super().substream(index if self.shard is None else self.shard)


class TestShards:
    """An ensemble drawn shard by shard, with a partial last shard of one path."""

    n = 2 * schulman.BRIDGE_SHARD + 1
    spec = PathSpec(theta1=PolAngle(0.3), theta2=PolAngle(PI / 8), gamma=1e-3, steps=12)

    def test_split_depends_on_the_count_alone(self, monkeypatch):
        sizes = []

        def recorded_step(residual, d1, d2, gen):
            sizes.append(residual.size)
            return _conditional_step(residual, d1, d2, gen)

        monkeypatch.setattr(schulman, "_conditional_step", recorded_step)
        spec = dataclasses.replace(self.spec, steps=2)  # one conditional step a shard
        for n, shard_sizes in ((self.n, [schulman.BRIDGE_SHARD] * 2 + [1]), (1, [1])):
            sizes.clear()
            rng = RecordedStream()
            sample_bridges(spec, n, rng)
            # in order on the calling thread: shard i from rng.substream(i)
            assert sizes == shard_sizes
            assert rng.asked == list(range(len(shard_sizes)))

    def test_a_shard_drawn_alone_is_its_slice_of_the_ensemble(self):
        ensemble = sample_bridges(self.spec, self.n, RngStream(21))
        for i, size in ((1, schulman.BRIDGE_SHARD), (2, 1)):
            # one shard's paths, drawn as shard 0 from shard i's stream
            rng = RecordedStream(shard=i)
            alone = sample_bridges(self.spec, size, rng)
            assert rng.asked == [0]
            rows = slice(i * schulman.BRIDGE_SHARD, i * schulman.BRIDGE_SHARD + size)
            assert_same_kicks(
                alone,
                BridgeKicks(
                    ensemble.steps,
                    ensemble.rotations[rows],
                    ensemble.largest[rows],
                    ensemble.kick_step[rows],
                    ensemble.total[rows],
                ),
            )

    @pytest.mark.parametrize("n", [1000, schulman.BRIDGE_SHARD + 1, 3 * schulman.BRIDGE_SHARD + 1])
    def test_a_pool_of_any_size_draws_the_serial_bits(self, n):
        # 1, 2 and 4 shards; 1 to 3 threads, more than the shards in some runs,
        # switching threads often so that a write to another shard's rows shows
        spec = dataclasses.replace(self.spec, steps=3)
        serial = sample_bridges(spec, n, RngStream(22))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for threads in (1, 2, 3):
                with ThreadPoolExecutor(threads) as pool:
                    pooled = sample_bridges(spec, n, RngStream(22), pool)
                assert_same_kicks(pooled, serial)
        finally:
            sys.setswitchinterval(interval)

    def test_the_first_failing_shard_in_shard_order_is_named(self, monkeypatch):
        rng = RngStream(23)
        # a shard is told by its generator's Philox key, (seed, stream)
        shard_of = {rng.substream(i).stream: i for i in range(4)}
        failed = []
        shard_3_failed = threading.Event()

        def stall_in_shards_2_and_3(residual, d1, d2, gen):
            shard = shard_of[int(gen.bit_generator.state["state"]["key"][1])]
            if shard == 2:
                # until shard 3 has failed; the timeout ends the wait if it never runs
                shard_3_failed.wait(timeout=10.0)
            if shard in (2, 3):
                failed.append(shard)
                if shard == 3:
                    shard_3_failed.set()
                raise BridgeSamplingError("conditional increment sampling stalled")
            return np.zeros_like(residual)

        monkeypatch.setattr(schulman, "_conditional_step", stall_in_shards_2_and_3)
        spec = dataclasses.replace(self.spec, steps=2)
        with ThreadPoolExecutor(4) as pool:
            with pytest.raises(BridgeSamplingError, match=r"in bridge shard 2 \(step 0,"):
                sample_bridges(spec, 3 * schulman.BRIDGE_SHARD + 1, rng, pool)
        assert failed == [3, 2]


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
        ks = dominant_kick_stats(kicks_of(inc))
        np.testing.assert_array_equal(ks.kick_time_histogram, [0, 0, 3, 0, 0])
        assert ks.net_dominance_share == 1.0
        assert ks.dominance_fraction_quantiles["q05"] > 0.99
        assert ks.excluded_paths == 0

    def test_flat_paths_are_excluded(self):
        ks = dominant_kick_stats(kicks_of(np.zeros((4, 5))))
        assert ks.excluded_paths == 4
        assert ks.net_dominance_share is None and ks.dominance_fraction_quantiles is None

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            dominant_kick_stats(kicks_of(np.empty((0, 5))))

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

    def test_overcount_matches_the_two_kick_term_by_quadrature(self, monkeypatch):
        # at the gate spec's nearest winding alone, `overcount` against the
        # expected number of kick pairs both beyond the threshold,
        # steps (steps - 1) / 2 * P(|e1|, |e2| > c | net rotation delta), by
        # mpmath quadrature; the leading-order form is off by O(gamma/|delta|)
        spec = PathSpec(theta1=PolAngle(0.0), theta2=PolAngle(PI / 8), gamma=1e-3, steps=100)
        rotations, weights, _ = endpoint_targets(spec)
        nearest = rotations[np.argmax(weights)]
        monkeypatch.setattr(
            schulman, "endpoint_targets", lambda _: (np.array([nearest]), np.ones(1), 0.0)
        )
        overcount = expected_net_dominance(spec).overcount
        with mpmath.workdps(15):
            d, g = mpmath.mpf(abs(nearest)), mpmath.mpf(spec.gamma)
            a = g / spec.steps
            rest = g - 2 * a  # Cauchy width of the sum of the other steps - 2 kicks
            c = schulman.DOMINANCE_THRESHOLD * d

            def cauchy(width, x):
                return width / (mpmath.pi * (x * x + width * width))

            def second_beyond(z):
                # the second kick y beyond +-c, the rest summing to z - y
                def f(y):
                    return cauchy(a, y) * cauchy(rest, z - y)
                return mpmath.quad(f, [-mpmath.inf, *([z] if z < -c else []), -c]) + mpmath.quad(
                    f, [c, *([z] if z > c else []), mpmath.inf]
                )

            def first_beyond(x):
                return cauchy(a, x) * second_beyond(d - x)
            # the second kick's window edge -c meets the rest's peak at x = d + c
            pair_mass = mpmath.quad(first_beyond, [-mpmath.inf, -c]) + mpmath.quad(
                first_beyond, [c, d + c, mpmath.inf]
            )
            want = float(spec.steps * (spec.steps - 1) / 2 * pair_mass / cauchy(g, d))
        assert abs(overcount / want - 1.0) < spec.gamma / abs(nearest)

    @pytest.mark.parametrize("gamma", [1e-3, 1.0], ids=["gate-spec", "gamma-1"])
    def test_error_bound_is_the_overcount_and_the_discarded_windings_shift(self, gamma):
        spec = PathSpec(theta1=PolAngle(0.0), theta2=PolAngle(PI / 8), gamma=gamma, steps=100)
        pred = expected_net_dominance(spec)
        discarded = endpoint_targets(spec)[2]
        assert pred.discarded_winding_mass == discarded
        assert pred.error_bound == pred.overcount + discarded * (1.0 - pred.value)

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
            rotations, weights, _ = endpoint_targets(spec)
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

    @pytest.mark.parametrize("theta2, gamma", [(PI / 8, 1e-3), (0.4, 1.0), (0.4, 0.3), (0.4, 1e-200)])
    def test_discarded_winding_mass_matches_mpmath(self, theta2, gamma):
        # 1 - (kept windings) / (both families' closed forms), at 50 digits
        spec = PathSpec(PolAngle(0.0), PolAngle(theta2), gamma, 100)
        with mpmath.workdps(50):
            g, d = mpmath.mpf(gamma), mpmath.mpf(float(spec.theta2))
            kept = mpmath.fsum(
                g / (mpmath.pi * ((d + family + n * mpmath.pi) ** 2 + g**2))
                for n in range(-schulman.N_WINDINGS, schulman.N_WINDINGS + 1)
                for family in (0, mpmath.pi / 2)
            )
            full = mpmath.fsum(
                mpmath.sinh(g) * mpmath.cosh(g) / (mpmath.pi * (mpmath.sinh(g) ** 2 + f(d) ** 2))
                for f in (mpmath.sin, mpmath.cos)
            )
            want = 1 - kept / full
        assert abs(endpoint_targets(spec)[2] - want) <= 3e-16

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
