"""Angle arithmetic, outcome conventions and random-stream reproducibility."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from belllab.core import (
    HALF_PI,
    PI,
    PolAngle,
    RngStream,
    canonical_diff,
    outcome_axes,
)

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


class TestPolAngle:
    def test_canonical_range(self):
        assert float(PolAngle(0.0)) == 0.0
        assert float(PolAngle(PI)) == 0.0
        assert math.isclose(float(PolAngle(-PI / 8)), 7 * PI / 8)
        assert math.isclose(float(PolAngle(3 * PI + 0.25)), 0.25)

    @given(angles)
    def test_always_in_half_open_interval(self, x):
        assert 0.0 <= float(PolAngle(x)) < PI

    @given(angles)
    def test_idempotent(self, x):
        assert PolAngle(PolAngle(x)) == PolAngle(x)

    @pytest.mark.parametrize("setting", [0.3, -0.3, 3.0, 7.5])
    def test_outcome_axes_are_the_setting_then_its_perpendicular(self, setting):
        # the -1 axis wraps setting + pi/2 itself, so it is exact outside [0, pi) too
        assert outcome_axes(setting) == (PolAngle(setting), PolAngle(setting + HALF_PI))

    def test_is_a_float(self):
        assert isinstance(PolAngle(0.5) + 1.0, float)
        assert PolAngle(0.5) == 0.5


class TestCanonicalDiff:
    def test_examples(self):
        assert canonical_diff(0.0, 0.0) == 0.0
        assert math.isclose(canonical_diff(PI / 8, 0.0), PI / 8)
        # pi-periodicity folds large separations back
        assert math.isclose(canonical_diff(7 * PI / 8, 0.0), -PI / 8)
        assert canonical_diff(HALF_PI, 0.0) == -HALF_PI  # half-open at +pi/2

    @given(angles, angles)
    def test_range(self, x, y):
        d = canonical_diff(x, y)
        assert -HALF_PI <= d < HALF_PI

    @given(angles, angles)
    def test_cos2_consistency(self, x, y):
        # cos(2(x-y)) is pi-periodic, so folding must preserve it
        assert math.cos(2 * canonical_diff(x, y)) == pytest.approx(
            math.cos(2 * (x - y)), abs=1e-9
        )


class TestRngStream:
    def test_same_seed_same_draws(self):
        x = RngStream(123).generator.random(8)
        y = RngStream(123).generator.random(8)
        np.testing.assert_array_equal(x, y)

    def test_different_seeds_differ(self):
        x = RngStream(123).generator.random(8)
        y = RngStream(124).generator.random(8)
        assert not np.array_equal(x, y)

    def test_substreams_are_distinct_and_reproducible(self):
        root = RngStream(7)
        a = root.substream(0).generator.random(8)
        b = root.substream(1).generator.random(8)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, RngStream(7).substream(0).generator.random(8))

    def test_substream_of_substream_does_not_collide(self):
        # no key equals its parent's or a sibling's, over the root and two levels
        root = RngStream(7)
        firsts = [root.substream(i) for i in range(4)]
        streams = [root, *firsts, *(s.substream(j) for s in firsts for j in range(4))]
        assert len({(s.seed, s.stream) for s in streams}) == 1 + 4 + 16

    def test_substream_index_validation(self):
        with pytest.raises(ValueError):
            RngStream(0).substream(-1)
        with pytest.raises(ValueError):
            RngStream(0).substream(2**32)
