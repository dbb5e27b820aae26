"""Quantum reference statistics for the polarization Bell state."""

import math

import pytest
from hypothesis import given, strategies as st

from belllab.core import PI, PolAngle
from belllab.qm import (
    TSIRELSON_BOUND,
    JointDist,
    chsh_pairs,
    chsh_value,
    qm_correlator,
    qm_joint,
    tsirelson_settings,
)

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def qm_chsh(settings):
    """|<AB> + <A'B> + <AB'> - <A'B'>| for the Bell state at these settings."""
    return chsh_value(*(qm_correlator(x, y) for x, y in chsh_pairs(settings)))


class TestJointDist:
    def test_accessors(self):
        d = JointDist(0.4, 0.1, 0.2, 0.3)
        assert d.correlator() == pytest.approx(0.4 - 0.1 - 0.2 + 0.3)
        assert d.marginal_1() == (pytest.approx(0.5), pytest.approx(0.5))
        assert d.marginal_2() == (pytest.approx(0.6), pytest.approx(0.4))

    def test_validate_rejects_bad_distributions(self):
        with pytest.raises(ValueError):
            JointDist(0.5, 0.5, 0.5, -0.5).validate()
        with pytest.raises(ValueError):
            JointDist(0.5, 0.5, 0.5, 0.5).validate()
        with pytest.raises(ValueError):  # mass missing, not only mass in excess
            JointDist(0.2, 0.2, 0.2, 0.2).validate()
        JointDist(0.25, 0.25, 0.25, 0.25).validate()

    def test_max_abs_diff(self):
        a = JointDist(0.25, 0.25, 0.25, 0.25)
        b = JointDist(0.30, 0.20, 0.25, 0.25)
        assert a.max_abs_diff(b) == pytest.approx(0.05)


class TestQmJoint:
    def test_parallel_settings_perfectly_correlate(self):
        d = qm_joint(0.0, 0.0)
        assert d.p_pp == pytest.approx(0.5)
        assert d.p_mm == pytest.approx(0.5)
        assert d.p_pm == pytest.approx(0.0, abs=1e-15)
        assert d.correlator() == pytest.approx(1.0)

    def test_crossed_settings_anticorrelate(self):
        d = qm_joint(0.0, PI / 2)
        assert d.p_pm == pytest.approx(0.5)
        assert d.p_mp == pytest.approx(0.5)
        assert d.correlator() == pytest.approx(-1.0)

    def test_eighth_turn(self):
        # cos(2 * pi/8) = sqrt(2)/2
        d = qm_joint(0.0, PI / 8)
        root_half = math.sqrt(2) / 2
        assert d.correlator() == pytest.approx(root_half)
        assert d.p_pp == pytest.approx(0.25 * (1 + root_half))
        assert d.p_pm == pytest.approx(0.25 * (1 - root_half))

    @given(angles, angles)
    def test_structure(self, a, b):
        d = qm_joint(a, b)
        d.validate(atol=1e-12)
        # symmetric under outcome flip and between the two diagonal pairs
        assert d.p_pp == pytest.approx(d.p_mm)
        assert d.p_pm == pytest.approx(d.p_mp)
        assert d.marginal_1()[0] == pytest.approx(0.5)
        assert d.marginal_2()[0] == pytest.approx(0.5)
        assert d.correlator() == pytest.approx(qm_correlator(a, b), abs=1e-12)

    @given(angles, angles, angles)
    def test_correlator_depends_only_on_difference(self, a, b, shift):
        assert qm_correlator(a + shift, b + shift) == pytest.approx(
            qm_correlator(a, b), abs=1e-9
        )


class TestTsirelson:
    def test_bound_value(self):
        assert TSIRELSON_BOUND == pytest.approx(2 * math.sqrt(2), abs=0)

    def test_settings_are_canonical(self):
        a, a_p, b, b_p = tsirelson_settings()
        assert (float(a), float(a_p), float(b)) == (0.0, PI / 4, PI / 8)
        assert float(b_p) == pytest.approx(7 * PI / 8)  # canonical form of -pi/8
        assert all(isinstance(s, PolAngle) for s in (a, a_p, b, b_p))

    def test_chsh_pairs_follow_the_combination(self):
        # <AB> + <A'B> + <AB'> - <A'B'> for the quadruple (a, a', b, b')
        assert chsh_pairs((1, 2, 3, 4)) == ((1, 3), (2, 3), (1, 4), (2, 4))
        assert chsh_value(1.0, 2.0, 4.0, 8.0) == 1.0

    def test_chsh_saturates_bound(self):
        assert qm_chsh(tsirelson_settings()) == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    def test_chsh_at_classical_settings(self):
        # all settings equal: |1 + 1 + 1 - 1| = 2
        assert qm_chsh((0.3, 0.3, 0.3, 0.3)) == pytest.approx(2.0)
