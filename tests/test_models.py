"""Hidden-variable models: lambda distributions, outcome rules, joint statistics."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings as hyp_settings, strategies as st
from scipy import integrate

from belllab.core import PI, HALF_PI, PolAngle, RngStream, canonical_diff
from belllab.models import (
    DeltaMixtureModel,
    HallModel,
    HiddenVariableModel,
    LambdaDistribution,
    LocalBaselineModel,
    PRBoxModel,
    hall_breakpoints,
    hall_density,
    joint_outcome_dist,
    sample_run,
)
from belllab.qm import JointDist, qm_joint, tsirelson_settings
from test_estimator import SteppedModel

angles = st.floats(min_value=0.0, max_value=PI - 1e-9, allow_nan=False)
wide_settings = st.floats(min_value=-1e3, max_value=1e3)
TSIRELSON = tsirelson_settings()


def local_baseline_joint(a: float, b: float) -> JointDist:
    """Joint of the uniform-lambda Malus model, (1/4)(1 + AB cos(2a - 2b)/2)."""
    c = 0.5 * math.cos(2 * (a - b))
    return JointDist(0.25 * (1 + c), 0.25 * (1 - c), 0.25 * (1 - c), 0.25 * (1 + c))


def hall_density_reference(a: float, b: float, lam: np.ndarray) -> np.ndarray:
    """Hall's density in its per-lambda form: a sign s, +1 where the two
    outcomes agree, then (1 + s cos 2d) / (pi (1 + s (1 - z))) at each
    lambda, with 0 where the denominator is 0."""
    d = abs(canonical_diff(a, b))
    z = (2.0 / PI) * 2.0 * d
    agree = (np.cos(2.0 * (a - lam)) >= 0.0) == (np.cos(2.0 * (b - lam)) >= 0.0)
    s = np.where(agree, 1.0, -1.0)
    num = 1.0 + s * math.cos(2.0 * d)
    den = 1.0 + s * (1.0 - z)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / (PI * den)
    return np.where(den == 0.0, 0.0, out)


def near_breakpoints(a: float, b: float, ulps: int = 64) -> np.ndarray:
    """Every double in [0, pi) within `ulps` ulps of each of Hall's breakpoints."""
    steps = np.arange(-ulps, ulps + 1)
    lam = np.concatenate(
        [(np.float64(p).view(np.int64) + steps).view(np.float64) for p in hall_breakpoints(a, b)]
    )
    return lam[(lam >= 0.0) & (lam < PI)]


class MalusHall(HallModel):
    """Hall's density with Malus outcomes (Hall, PRL 105, 250404 (2010)): a
    segment model whose outcome probabilities vary within each segment."""

    name = "malus-hall"
    outcome_prob = HiddenVariableModel.outcome_prob


class HalfVisibility(LocalBaselineModel):
    """The local baseline with half-visibility outcomes,
    P(+1) = (1 + cos(2s - 2 lam) / 2) / 2: a float rule, not Malus' law."""

    name = "half-visibility"

    def outcome_prob(self, setting, lam):
        return 0.5 + 0.25 * np.cos(2.0 * (setting - np.asarray(lam, dtype=float)))


class SineRule(LocalBaselineModel):
    """The local baseline with P(+1) = (1 + sin(s - lam)) / 2, a float rule
    that is not Malus' law."""

    name = "sine-rule"

    def outcome_prob(self, setting, lam):
        return 0.5 * (1.0 + np.sin(setting - np.asarray(lam, dtype=float)))


def total_variation_reference(dist_1, dist_2) -> float:
    """The total-variation sum as the estimator stated it before
    `LambdaDistribution.total_variation`: the atoms' dict sum over the sorted
    union of the supports, or |rho_1 - rho_2| times width over the union of
    the edges, each density looked up at the cell midpoints."""
    if dist_1.edges is None:
        support = sorted(set(dist_1.points.tolist()) | set(dist_2.points.tolist()))
        m_1 = dict(zip(dist_1.points.tolist(), dist_1.mass.tolist()))
        m_2 = dict(zip(dist_2.points.tolist(), dist_2.mass.tolist()))
        return 0.5 * sum(abs(m_1.get(x, 0.0) - m_2.get(x, 0.0)) for x in support)

    def density(dist, lam):
        index = np.searchsorted(dist.edges, lam, side="right") - 1
        return (dist.mass / np.diff(dist.edges))[index]

    edges = np.union1d(dist_1.edges, dist_2.edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    gap = np.abs(density(dist_1, mids) - density(dist_2, mids))
    return 0.5 * float(np.sum(gap * np.diff(edges)))


def malus_joint_by_quadrature(density, cuts, a: float, b: float) -> list[float]:
    """The four cells (++, +-, -+, --) of the separability integral of a
    piecewise-constant density with Malus outcomes, by mpmath quadrature at
    30 digits between consecutive cuts; the density is read at each piece's
    midpoint."""
    with mpmath.workdps(30):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        cells = [mpmath.mpf(0)] * 4
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            rho = mpmath.mpf(float(density(0.5 * (lo + hi))))
            for k, (plus_a, plus_b) in enumerate([(1, 1), (1, 0), (0, 1), (0, 0)]):
                def f(lam):
                    pa, pb = mpmath.cos(a - lam) ** 2, mpmath.cos(b - lam) ** 2
                    return (pa if plus_a else 1 - pa) * (pb if plus_b else 1 - pb)
                cells[k] += rho * mpmath.quad(f, [mpmath.mpf(lo), mpmath.mpf(hi)])
        return [float(c) for c in cells]


@st.composite
def hall_pairs(draw):
    """Settings in [-1e3, 1e3]: any pair, a = b, or b = a + pi/2."""
    a = draw(wide_settings)
    kind = draw(st.sampled_from(["any", "equal", "perpendicular"]))
    if kind == "any":
        return a, draw(wide_settings)
    return a, (a if kind == "equal" else a + HALF_PI)


@st.composite
def perpendicular_pairs(draw):
    """a perpendicular to b in doubles, |a - b| = pi/2 exactly: b = a - pi/2
    is exact for a in [pi/2, pi)."""
    a = draw(st.floats(min_value=HALF_PI, max_value=PI, exclude_max=True))
    pair = (a, a - HALF_PI)
    return pair[::-1] if draw(st.booleans()) else pair


class TestHallDensity:
    def test_equal_settings_value(self):
        # with a == b the reweighting disappears: density is uniform 1/pi on
        # the (full-measure) agreement set
        assert hall_density(0.0, 0.0, 0.1) == pytest.approx(1.0 / PI)
        assert hall_density(0.3, 0.3, 1.2) == pytest.approx(1.0 / PI)

    def test_agreement_disagreement_levels(self):
        # [DERIVED] at (a, b) = (0, pi/8): z = 1/2, cos(2d) = sqrt(2)/2
        c = math.sqrt(2) / 2
        rho_agree = (1 + c) / (PI * 1.5)
        rho_disagree = (1 - c) / (PI * 0.5)
        assert hall_density(0.0, PI / 8, 0.0) == pytest.approx(rho_agree)
        # lambda between a + pi/4 and b + pi/4: the two signs differ
        assert hall_density(0.0, PI / 8, PI / 4 + 0.05) == pytest.approx(rho_disagree)

    @given(angles, angles)
    @hyp_settings(max_examples=25, deadline=None)
    def test_normalized(self, a, b):
        pts = list(hall_breakpoints(a, b))
        total, _ = integrate.quad(
            lambda lam: float(hall_density(a, b, lam)), 0.0, PI,
            points=pts or None, limit=200,
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    @given(hall_pairs(), st.lists(st.floats(0.0, PI, exclude_max=True), max_size=32))
    @hyp_settings(max_examples=200, deadline=None)
    def test_equals_the_per_lambda_form_bit_for_bit(self, pair, lams):
        a, b = pair
        lam = np.concatenate([np.array(lams, dtype=float), near_breakpoints(a, b)])
        got = np.asarray(hall_density(a, b, lam), dtype=np.float64)
        np.testing.assert_array_equal(
            got.view(np.uint64), hall_density_reference(a, b, lam).view(np.uint64)
        )

    @given(perpendicular_pairs())
    @hyp_settings(max_examples=100, deadline=None)
    def test_perpendicular_settings_near_breakpoints(self, pair):
        # the agreement set is empty, but the rule reaches it by rounding
        # near a breakpoint; its 0/0 value there is 0.0
        a, b = pair
        values = hall_density(a, b, near_breakpoints(a, b))
        assert set(values.tolist()) <= {0.0, 1.0 / PI}

    def test_perpendicular_rounding_reaches_the_agreement_set(self):
        values = hall_density(3 * PI / 4, PI / 4, near_breakpoints(3 * PI / 4, PI / 4))
        assert set(values.tolist()) == {0.0, 1.0 / PI}

    @given(wide_settings)
    @hyp_settings(max_examples=100, deadline=None)
    def test_equal_settings_near_breakpoints(self, a):
        # the rule never reaches the empty disagreement set at a = b
        assert set(hall_density(a, a, near_breakpoints(a, a)).tolist()) == {1.0 / PI}

    def test_breakpoints(self):
        pts = hall_breakpoints(0.0, PI / 8)
        expected = sorted({PI / 4, 3 * PI / 4, PI / 8 + PI / 4, PI / 8 + 3 * PI / 4})
        assert pts == pytest.approx(expected)


class TestDeltaMixture:
    model = DeltaMixtureModel()

    def test_atoms_and_weights(self):
        dist = self.model.lambda_distribution(0.0, PI / 8)
        assert dist.edges is None
        assert sorted(dist.points) == pytest.approx(
            sorted([0.0, HALF_PI, PI / 8, PI / 8 + HALF_PI])
        )
        np.testing.assert_allclose(dist.mass, 0.25)

    def test_coinciding_atoms_merge(self):
        dist = self.model.lambda_distribution(0.3, 0.3)
        assert len(dist.points) == 2
        np.testing.assert_allclose(dist.mass, 0.5)
        assert dist.mass.sum() == pytest.approx(1.0)

    @given(angles, angles)
    @hyp_settings(max_examples=50, deadline=None)
    def test_matches_qm(self, a, b):
        got = self.model.joint_dist(a, b)
        assert got.max_abs_diff(qm_joint(a, b)) < 1e-9

    def test_sampled_lambdas_live_on_atoms(self):
        _, _, lams = self.model.sample_lambdas(0.0, PI / 8, 1000, RngStream(1))
        atoms = self.model.lambda_distribution(0.0, PI / 8).points
        assert set(np.unique(lams)) <= set(atoms)


class TestHallModel:
    model = HallModel()

    def test_outcomes_deterministic_given_lambda(self):
        lam = np.array([0.1, 1.0, 2.0])
        p = self.model.outcome_prob(0.0, lam)
        assert p.dtype == bool  # the rule gives the outcome, not a probability
        np.testing.assert_array_equal(p, np.cos(2.0 * (0.0 - lam)) >= 0.0)

    def test_a_subclass_with_malus_outcomes_draws_them(self):
        # a float rule on segments is integrated and drawn per lambda, whatever the class
        model, n, a, b = MalusHall(), 200_000, 0.0, PI / 8
        reference = malus_joint_by_quadrature(
            lambda lam: hall_density(a, b, lam), [0.0, *hall_breakpoints(a, b), PI], a, b
        )
        got = model.joint_dist(a, b)
        np.testing.assert_allclose(
            [got.p_pp, got.p_pm, got.p_mp, got.p_mm], reference, rtol=0.0, atol=1e-12
        )
        p = got.p_pp
        index, _, a_plus, b_plus = model.sample_runs(a, b, n, RngStream(12))
        assert index is None
        assert np.mean(a_plus & b_plus) == pytest.approx(p, abs=5 * math.sqrt(p * (1 - p) / n))
        count = model.count_disagreements(a, b, n, RngStream(12))
        assert count == np.count_nonzero(a_plus != b_plus)

    @given(angles, angles)
    @hyp_settings(max_examples=25, deadline=None)
    def test_matches_qm(self, a, b):
        got = self.model.joint_dist(a, b)
        assert got.max_abs_diff(qm_joint(a, b)) < 1e-9

    def test_sampled_lambda_histogram_matches_density(self):
        a, b = 0.0, PI / 8
        n = 200_000
        _, _, lams = self.model.sample_lambdas(a, b, n, RngStream(5))
        edges = np.linspace(0.0, PI, 33)
        hist, _ = np.histogram(lams, bins=edges, density=True)
        mids = 0.5 * (edges[:-1] + edges[1:])
        # bins that straddle a breakpoint mix two levels; stay away from them
        keep = np.array(
            [min(abs(m - p) for p in hall_breakpoints(a, b)) > PI / 32 for m in mids]
        )
        np.testing.assert_allclose(
            hist[keep], hall_density(a, b, mids[keep]), atol=0.02
        )


class TestLocalBaseline:
    model = LocalBaselineModel()

    @given(angles, angles)
    @hyp_settings(max_examples=25, deadline=None)
    def test_half_strength_correlator(self, a, b):
        # [DERIVED] uniform-lambda Malus average: <AB> = cos(2a-2b)/2, and the
        # whole joint is (1/4)(1 + AB cos(2a-2b)/2)
        got = self.model.joint_dist(a, b)
        assert got.correlator() == pytest.approx(
            0.5 * math.cos(2 * (a - b)), abs=1e-9
        )
        assert got.max_abs_diff(local_baseline_joint(a, b)) < 1e-14

    def test_lambda_distribution_ignores_settings(self):
        # one segment [0, pi) of density 1/pi, at every settings pair
        dist = self.model.lambda_distribution(0.0, PI / 8)
        np.testing.assert_array_equal(dist.edges, [0.0, PI])
        np.testing.assert_allclose(dist.mass / np.diff(dist.edges), 1.0 / PI)
        assert dist.total_variation(self.model.lambda_distribution(PI / 4, 7 * PI / 8)) == 0.0


class TestPRBox:
    model = PRBoxModel(TSIRELSON)

    def test_box_inputs(self):
        a, a_p, b, b_p = TSIRELSON
        assert self.model.box_inputs(a, b) == (0, 0)
        assert self.model.box_inputs(a_p, b_p) == (1, 1)

    def test_joint_distributions(self):
        a, a_p, b, b_p = TSIRELSON
        for x, y in ((a, b), (a_p, b), (a, b_p)):
            d = self.model.joint_dist(x, y)
            assert (d.p_pp, d.p_mm) == (0.5, 0.5)
        d = self.model.joint_dist(a_p, b_p)
        assert (d.p_pm, d.p_mp) == (0.5, 0.5)

    def test_rejects_unconfigured_settings(self):
        with pytest.raises(ValueError):
            self.model.box_inputs(0.123, TSIRELSON[2])

    @pytest.mark.parametrize("settings, side, angle", [
        ((0.0, 0.0, 0.1, 0.2), 1, 0.0),
        ((0.0, PI, 0.1, 0.2), 1, 0.0),  # the same axis mod pi
        ((0.3, -0.2, 2.0 - 2 * PI, 2.0), 2, 2.0),
    ])
    def test_rejects_a_side_whose_settings_coincide(self, settings, side, angle):
        # one angle would stand for both of that side's inputs, always input 0
        with pytest.raises(ValueError, match=f"^side-{side} settings coincide mod pi at "
                                             f"{re.escape(repr(angle))}$"):
            PRBoxModel(settings)

    def test_sampling_is_perfectly_correlated(self):
        a, a_p, b, b_p = TSIRELSON
        index, lam, a_plus, b_plus = self.model.sample_runs(a, b, 100, RngStream(0))
        assert lam is None and index.dtype == np.uint8
        np.testing.assert_array_equal(index, np.zeros(100, dtype=np.uint8))
        np.testing.assert_array_equal(a_plus, b_plus)
        _, _, a_plus, b_plus = self.model.sample_runs(a_p, b_p, 100, RngStream(0))
        np.testing.assert_array_equal(a_plus, ~b_plus)

    def test_outcomes_are_the_fair_coin(self):
        a, a_p, b, b_p = TSIRELSON
        _, _, a_plus, b_plus = self.model.sample_runs(a_p, b_p, 10_000, RngStream(7))
        reference = RngStream(7).generator.random(10_000) < 0.5
        np.testing.assert_array_equal(a_plus, reference)
        np.testing.assert_array_equal(b_plus, ~reference)
        assert a_plus.dtype == b_plus.dtype == bool


finite_angles = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


class TestPRBoxOffLattice:
    """Input matching at arbitrary float settings, not only the pi/64 lattice
    the Tsirelson quadruple sits on."""

    @hyp_settings(max_examples=200, deadline=None)
    @given(quad=st.tuples(*[finite_angles] * 4), n=st.integers(1, 10_000))
    def test_configured_angles_and_only_those_are_inputs(self, quad, n):
        a, a_p, b, b_p = quad
        assume(PolAngle(a) != PolAngle(a_p) and PolAngle(b) != PolAngle(b_p))
        model = PRBoxModel(quad)
        for x, u in enumerate((a, a_p)):
            for y, v in enumerate((b, b_p)):
                assert model.box_inputs(u, v) == (x, y)
                count = model.count_disagreements(u, v, n, RngStream(0))
                assert count == (n if x & y else 0)
                d = model.joint_dist(u, v)
                assert d.p_pm + d.p_mp == count / n
        for side, pair in ((1, (a, a_p)), (2, (b, b_p))):
            for setting in pair:
                for toward in (-math.inf, math.inf):
                    near = float(np.nextafter(setting, toward))
                    if PolAngle(near) in map(PolAngle, pair):
                        continue  # wrapped onto a configured angle mod pi
                    with pytest.raises(ValueError, match=f"side-{side}"):
                        model.box_inputs(near, b) if side == 1 else model.box_inputs(a, near)


class TestSamplingContract:
    @pytest.mark.parametrize(
        "model", [DeltaMixtureModel(), HallModel(), LocalBaselineModel()]
    )
    def test_sampled_frequencies_match_joint_dist(self, model):
        a, b = 0.0, PI / 8
        n = 100_000
        _, _, a_plus, b_plus = model.sample_runs(a, b, n, RngStream(11))
        d = model.joint_dist(a, b)
        tol = 5 * math.sqrt(0.25 / n)
        assert np.mean(a_plus & b_plus) == pytest.approx(d.p_pp, abs=tol)
        assert np.mean(a_plus & ~b_plus) == pytest.approx(d.p_pm, abs=tol)

    @pytest.mark.parametrize(
        "model", [DeltaMixtureModel(), HallModel(), LocalBaselineModel(), PRBoxModel(TSIRELSON)],
        ids=lambda m: m.name,
    )
    def test_sample_run_gives_the_sign_of_sample_runs(self, model):
        # +1 exactly where the one-run draw of `sample_runs` is True, on each side
        a, b = TSIRELSON[1], TSIRELSON[3]
        for seed in range(16):
            _, lams, a_plus, b_plus = model.sample_runs(a, b, 1, RngStream(seed))
            lam, a_out, b_out = sample_run(model, a, b, RngStream(seed))
            assert lam is None if lams is None else isinstance(lam, PolAngle)
            assert (a_out, b_out) == (1 if a_plus[0] else -1, 1 if b_plus[0] else -1)
            assert type(a_out) is type(b_out) is int

    def test_joint_outcome_dist_dispatch(self):
        d = joint_outcome_dist(DeltaMixtureModel(), 0.0, 0.0)
        assert d.correlator() == pytest.approx(1.0)


def per_sample_runs(model, a, b, n, rng):
    """Reference sampler: lambda by piece, outcome probabilities at every
    lambda, then A's uniforms, then B's (also for deterministic outcomes)."""
    gen = rng.generator
    dist = model.lambda_distribution(a, b)
    index = gen.choice(dist.mass.size, size=n, p=dist.mass / dist.mass.sum())
    if dist.edges is None:
        lams = dist.points[index]
    else:
        lams = dist.edges[index] + np.diff(dist.edges)[index] * gen.random(n)
    p1 = model.outcome_prob(a, lams)
    p2 = model.outcome_prob(b, lams)
    return index, lams, gen.random(n) < p1, gen.random(n) < p2


class TestPiecewiseRuns:
    """Hall and the delta mixture evaluate outcome probabilities once per
    lambda piece; the runs must equal per-sample evaluation element for
    element."""

    @staticmethod
    def settings_pairs():
        a = 0.3
        a_p, b, b_p = (float(x) for x in TSIRELSON[1:])
        yield a, a
        yield a, float(PolAngle(a + HALF_PI))
        yield a, float(PolAngle(a + PI / 4))  # b on a Hall breakpoint of a
        yield from ((float(TSIRELSON[0]), b), (a_p, b), (float(TSIRELSON[0]), b_p), (a_p, b_p))

    @staticmethod
    def assert_runs_equal_reference(model, a, b, n, *key):
        index, lams, a_plus, b_plus = model.sample_runs(a, b, n, RngStream(*key))
        ref_index, ref_lams, ref_a, ref_b = per_sample_runs(model, a, b, n, RngStream(*key))
        np.testing.assert_array_equal(index, ref_index)
        np.testing.assert_array_equal(lams, ref_lams)
        np.testing.assert_array_equal(a_plus, ref_a, err_msg=f"A at {(a, b)}")
        np.testing.assert_array_equal(b_plus, ref_b, err_msg=f"B at {(a, b)}")
        assert a_plus.dtype == b_plus.dtype == bool

    @pytest.mark.parametrize("model", [HallModel(), DeltaMixtureModel()], ids=lambda m: m.name)
    @pytest.mark.parametrize("seed", [0, 1, 2029])
    def test_runs_equal_per_sample_reference(self, model, seed):
        for k, (a, b) in enumerate(self.settings_pairs()):
            self.assert_runs_equal_reference(model, a, b, 20_000, seed, k)

    @pytest.mark.parametrize("model", [HallModel(), DeltaMixtureModel()], ids=lambda m: m.name)
    @given(pair=hall_pairs(), seed=st.integers(0, 2**32 - 1))
    @hyp_settings(max_examples=30, deadline=None)
    def test_runs_equal_per_sample_reference_at_any_settings(self, model, pair, seed):
        self.assert_runs_equal_reference(model, *pair, 2000, seed)

    def test_hall_outcomes_draw_no_uniforms(self):
        a, b = 0.0, PI / 8
        after_runs, after_lambdas = RngStream(4), RngStream(4)
        HallModel().sample_runs(a, b, 1000, after_runs)
        HallModel().sample_lambdas(a, b, 1000, after_lambdas)
        assert after_runs.generator.random() == after_lambdas.generator.random()

    def test_pieces_index_the_drawn_lambdas(self):
        dist = HallModel().lambda_distribution(0.0, PI / 8)
        index, lams = dist.sample(1000, RngStream(2))
        assert np.all(dist.edges[index] <= lams) and np.all(lams < dist.edges[index + 1])
        atoms = DeltaMixtureModel().lambda_distribution(0.0, PI / 8)
        index, lams = atoms.sample(1000, RngStream(2))
        np.testing.assert_array_equal(lams, atoms.points[index])

    def test_local_baseline_lambdas_carry_no_pieces(self):
        # its Malus probabilities vary within its one segment, so they are drawn per lambda
        index, lams, _, _ = LocalBaselineModel().sample_runs(0.0, PI / 8, 1000, RngStream(2))
        assert index is None
        assert lams.shape == (1000,) and np.all((0.0 <= lams) & (lams < PI))
        np.testing.assert_array_equal(lams, RngStream(2).generator.random(1000) * PI)

    @pytest.mark.parametrize("low, high", [(0.0, PI), (0.3, 1.7), (2.0, 2.0 + 1e-9)])
    def test_one_segment_is_its_uniforms_scaled(self, low, high):
        # no piece uniform, then random(n) * length + low, bit for bit
        dist = LambdaDistribution(np.array([0.5 * (low + high)]), np.array([1.0]),
                                  np.array([low, high]))
        drawn, reference = RngStream(3), RngStream(3)
        index, lams = dist.sample(1000, drawn)
        expected = reference.generator.random(1000) * (high - low) + low
        np.testing.assert_array_equal(lams.view(np.uint64), expected.view(np.uint64))
        np.testing.assert_array_equal(index, 0)
        assert drawn.generator.random() == reference.generator.random()


class StubStream:
    """An RngStream stand-in whose generator returns the given uniforms."""

    def __init__(self, uniforms):
        self.generator = self
        self.uniforms = np.asarray(uniforms, dtype=float)

    def random(self, n):
        assert n == self.uniforms.size
        return self.uniforms


class TestPieceIndex:
    """`LambdaDistribution.piece_index` counts CDF crossings in place of
    `Generator.choice`; indices and stream position must equal choice's,
    except that one piece draws no uniform."""

    MASSES = [
        [1.0],
        [0.25, 0.75],
        [0.0, 1.0],
        [0.5, 0.0, 0.5],
        [0.25, 0.25, 0.5, 0.0],
        [0.1, 0.2, 0.3, 0.15, 0.25],
        [0.0, 0.3, 0.0, 0.7, 0.0],
    ]

    @staticmethod
    def distributions():
        for mass in TestPieceIndex.MASSES:
            mass = np.array(mass)
            yield LambdaDistribution(np.arange(mass.size, dtype=float), mass)
        for a, b in TestPiecewiseRuns.settings_pairs():
            for model in (HallModel(), DeltaMixtureModel()):
                yield model.lambda_distribution(a, b)

    @pytest.mark.parametrize("seed", [0, 1, 2029])
    def test_indices_and_stream_equal_choice(self, seed):
        for k, dist in enumerate(self.distributions()):
            ours, theirs = RngStream(seed, k), RngStream(seed, k)
            index = dist.piece_index(50_000, ours)
            reference = theirs.generator.choice(
                dist.mass.size, size=50_000, p=dist.mass / dist.mass.sum()
            )
            np.testing.assert_array_equal(index, reference, err_msg=f"mass {dist.mass}")
            # choice draws a uniform per index, even for one piece
            untouched = RngStream(seed, k) if dist.mass.size == 1 else theirs
            assert ours.generator.random() == untouched.generator.random()
            assert index.dtype == np.uint8

    def test_a_uniform_on_a_cdf_entry_goes_to_the_next_piece(self):
        # choice's searchsorted(cdf, u, side="right") counts the entries <= u
        dist = LambdaDistribution(np.arange(5.0), np.array([0.25, 0.0, 0.25, 0.25, 0.25]))
        cdf = np.array([0.25, 0.25, 0.5, 0.75, 1.0])
        u = np.concatenate([[0.0], cdf[:-1], np.nextafter(cdf[:-1], 0.0), [np.nextafter(1.0, 0.0)]])
        index = dist.piece_index(u.size, StubStream(u))
        np.testing.assert_array_equal(index, np.searchsorted(cdf, u, side="right"))
        np.testing.assert_array_equal(index[1:5], [2, 2, 3, 4])


class TestCountDisagreements:
    """`count_disagreements` must equal the A != B count of `sample_runs` on
    the same substream, for every model and at the edge settings."""

    MODELS = [HallModel(), DeltaMixtureModel(), LocalBaselineModel(), PRBoxModel(TSIRELSON),
              MalusHall(), SteppedModel()]

    @staticmethod
    def settings_pairs(model):
        if isinstance(model, PRBoxModel):
            a, a_p, b, b_p = (float(x) for x in TSIRELSON)
            return [(a, b), (a_p, b), (a, b_p), (a_p, b_p)]
        return list(TestPiecewiseRuns.settings_pairs())

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    @pytest.mark.parametrize("seed", [0, 1, 2029])
    def test_count_equals_sample_runs(self, model, seed):
        for k, (a, b) in enumerate(self.settings_pairs(model)):
            count = model.count_disagreements(a, b, 20_001, RngStream(seed, k))
            _, _, a_plus, b_plus = model.sample_runs(a, b, 20_001, RngStream(seed, k))
            assert count == np.count_nonzero(a_plus != b_plus), (a, b)
            assert type(count) is int

    @pytest.mark.parametrize("model", MODELS[:3], ids=lambda m: m.name)
    @given(pair=hall_pairs(), seed=st.integers(0, 2**32 - 1))
    @hyp_settings(max_examples=30, deadline=None)
    def test_count_equals_sample_runs_at_any_settings(self, model, pair, seed):
        a, b = pair
        count = model.count_disagreements(a, b, 2000, RngStream(seed))
        _, _, a_plus, b_plus = model.sample_runs(a, b, 2000, RngStream(seed))
        assert count == np.count_nonzero(a_plus != b_plus)

    @pytest.mark.parametrize("model", [DeltaMixtureModel(), LocalBaselineModel()],
                             ids=lambda m: m.name)
    def test_count_draws_what_sample_runs_draws(self, model):
        a, b = 0.0, PI / 8
        counted, sampled = RngStream(6), RngStream(6)
        model.count_disagreements(a, b, 1000, counted)
        model.sample_runs(a, b, 1000, sampled)
        assert counted.generator.random() == sampled.generator.random()

    def test_hall_count_skips_only_the_last_draw(self):
        # the uniforms after the count are those that place each lambda in its segment
        a, b = 0.0, PI / 8
        counted, sampled = RngStream(6), RngStream(6)
        HallModel().count_disagreements(a, b, 1000, counted)
        dist, index, lams = HallModel().sample_lambdas(a, b, 1000, sampled)
        within = counted.generator.random(1000)
        np.testing.assert_array_equal(
            lams, dist.edges[index] + np.diff(dist.edges)[index] * within
        )
        assert counted.generator.random() == sampled.generator.random()


class TestOutcomeDraw:
    """`sample_outcomes`, the one draw of outcomes from their probabilities."""

    @pytest.mark.parametrize("model", TestCountDisagreements.MODELS[:3], ids=lambda m: m.name)
    @given(pair=hall_pairs(), seed=st.integers(0, 2**32 - 1))
    @hyp_settings(max_examples=30, deadline=None)
    def test_a_mask_per_run(self, model, pair, seed):
        # booleans, one per run; Hall's rule draws no uniforms, Malus' law A's n then B's n
        a, b, n = *pair, 2000
        index, lams, _, _ = model.sample_runs(a, b, n, RngStream(seed))
        at = lams if index is None else model.lambda_distribution(a, b).points
        drawn, reference = RngStream(seed, 1), RngStream(seed, 1)
        a_plus, b_plus = model.sample_outcomes(a, b, at, drawn, index)
        assert a_plus.dtype == b_plus.dtype == bool
        assert a_plus.shape == b_plus.shape == (n,)
        reference.generator.random(0 if isinstance(model, HallModel) else 2 * n)
        assert drawn.generator.random() == reference.generator.random()

    def test_plus_where_the_uniform_falls_strictly_below(self):
        # a uniform equal to P(+1) gives -1, so a +1 of probability 0 never
        # happens, not even on a uniform of 0.0
        class ProbabilityAsLambda(DeltaMixtureModel):
            def outcome_prob(self, setting, lam):
                return np.asarray(lam, dtype=float)

        model, p = ProbabilityAsLambda(), np.array([0.0, 0.25, 0.5, 1.0])
        below = np.array([0.0, *np.nextafter(p[1:], 0.0)])
        on = np.array([0.0, 0.25, 0.5, below[-1]])
        for u, want in ((on, [0, 0, 0, 1]), (below, [0, 1, 1, 1])):
            a_plus, b_plus = model.sample_outcomes(0.0, 0.0, p, StubStream(u), None)
            np.testing.assert_array_equal(a_plus, np.array(want, dtype=bool), err_msg=f"u = {u}")
            np.testing.assert_array_equal(b_plus, a_plus)


def stepped_density(lam: float) -> float:
    """`SteppedModel`'s density: 0.95 on [0, pi/2), 0.05 on [pi/2, 3pi/4)."""
    return 0.95 / HALF_PI if lam < HALF_PI else 0.05 / (PI / 4) if lam < 3 * PI / 4 else 0.0


class TestMalusSegments:
    """Segment models with Malus outcomes, whose probabilities vary within a
    segment: `joint_dist` integrates each segment in closed form."""

    CASES = [
        (MalusHall(), lambda a, b: (lambda lam: hall_density(a, b, lam),
                                    [0.0, *hall_breakpoints(a, b), PI])),
        (SteppedModel(), lambda a, b: (stepped_density, [0.0, HALF_PI, 3 * PI / 4, PI])),
    ]

    @pytest.mark.parametrize("model, density", CASES, ids=[m.name for m, _ in CASES])
    @pytest.mark.parametrize("a, b", [(0.0, PI / 8), (0.3, 0.3), (0.3, 0.3 + HALF_PI),
                                      (0.3, 0.3 + PI / 4), (-7.5, 912.0)])
    def test_joint_is_the_quadrature(self, model, density, a, b):
        got = model.joint_dist(a, b)
        np.testing.assert_allclose([got.p_pp, got.p_pm, got.p_mp, got.p_mm],
                                   malus_joint_by_quadrature(*density(a, b), a, b),
                                   rtol=0.0, atol=1e-12)


class TestOtherFloatRules:
    """A float rule on segments other than Malus' law: `joint_dist` has no
    exact integral for it and refuses, while its runs are drawn per lambda."""

    MODELS = [HalfVisibility(), SineRule()]

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_joint_dist_refuses(self, model):
        for a, b in TestPiecewiseRuns.settings_pairs():
            with pytest.raises(NotImplementedError, match=type(model).__name__):
                model.joint_dist(a, b)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    @pytest.mark.parametrize("seed", [0, 1, 2029])
    def test_runs_are_the_local_baselines_lambdas_with_their_own_outcomes(self, model, seed):
        # the parent's lambdas, then A's uniforms below P(+1), then B's
        for k, (a, b) in enumerate(TestPiecewiseRuns.settings_pairs()):
            n = 20_001
            index, lams, a_plus, b_plus = model.sample_runs(a, b, n, RngStream(seed, k))
            _, parent_lams, _, _ = LocalBaselineModel().sample_runs(a, b, n, RngStream(seed, k))
            gen = RngStream(seed, k).generator
            reference = gen.random(n) * PI
            assert index is None
            np.testing.assert_array_equal(lams.view(np.uint64), parent_lams.view(np.uint64))
            np.testing.assert_array_equal(lams.view(np.uint64), reference.view(np.uint64))
            np.testing.assert_array_equal(a_plus, gen.random(n) < model.outcome_prob(a, lams))
            np.testing.assert_array_equal(b_plus, gen.random(n) < model.outcome_prob(b, lams))
            count = model.count_disagreements(a, b, n, RngStream(seed, k))
            assert count == np.count_nonzero(a_plus != b_plus), (a, b)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_sampled_p_pp_is_the_quadrature(self, model):
        # half visibility: 1/4 + cos(2a - 2b) / 32 = 0.2721 at (0, pi/8)
        a, b, n = 0.0, PI / 8, 400_000
        p, _ = integrate.quad(
            lambda lam: model.outcome_prob(a, lam) * model.outcome_prob(b, lam) / PI, 0.0, PI
        )
        _, _, a_plus, b_plus = model.sample_runs(a, b, n, RngStream(1))
        assert np.mean(a_plus & b_plus) == pytest.approx(p, abs=5 * math.sqrt(p * (1 - p) / n))


class TestTotalVariation:
    """`LambdaDistribution.total_variation`, the exact lambda-independence sum."""

    @pytest.mark.parametrize("model", [HallModel(), DeltaMixtureModel(), LocalBaselineModel()],
                             ids=lambda m: m.name)
    @given(pair_1=hall_pairs(), pair_2=hall_pairs())
    @hyp_settings(max_examples=60, deadline=None)
    def test_equals_the_estimators_former_sum(self, model, pair_1, pair_2):
        dist_1, dist_2 = model.lambda_distribution(*pair_1), model.lambda_distribution(*pair_2)
        got = dist_1.total_variation(dist_2)
        assert got == total_variation_reference(dist_1, dist_2)
        assert got == dist_2.total_variation(dist_1)
        assert dist_1.total_variation(dist_1) == 0.0
        assert 0.0 <= got <= 1.0

    def test_is_symmetric_where_the_edges_differ(self):
        # each density is read on the cells of both distributions' edges
        model = HallModel()
        dist_1, dist_2 = (model.lambda_distribution(0.0, b) for b in (PI / 8, 3 * PI / 8))
        assert dist_1.total_variation(dist_2) == dist_2.total_variation(dist_1) > 0.1

    def test_disjoint_atoms_are_one_apart(self):
        model = DeltaMixtureModel()
        dist_1, dist_2 = (model.lambda_distribution(a, a + PI / 8) for a in (0.0, PI / 16))
        assert dist_1.total_variation(dist_2) == 1.0


class TestExactLambdaSums:
    """Edge settings: a = b, a perpendicular to b, b on a Hall breakpoint of a,
    and |a - b| = 1e-12, for every lambda-mediated model."""

    MODELS = [DeltaMixtureModel(), HallModel(), LocalBaselineModel()]
    REFERENCES = {
        "delta-mixture": qm_joint,
        "hall": qm_joint,
        "local-baseline": local_baseline_joint,
    }

    @staticmethod
    def edge_pairs():
        for a in (0.0, 0.3, HALF_PI, 2.9):
            for offset in (0.0, HALF_PI, PI / 4, 1e-12, -1e-12):
                yield a, float(PolAngle(a + offset))

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_joint_exact_at_edge_settings(self, model):
        reference = self.REFERENCES[model.name]
        for a, b in self.edge_pairs():
            got = model.joint_dist(a, b)
            assert got.max_abs_diff(reference(a, b)) < 1e-14, (a, b)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_mass_sums_to_one_at_edge_settings(self, model):
        for a, b in self.edge_pairs():
            dist = model.lambda_distribution(a, b)
            assert abs(dist.mass.sum() - 1.0) < 1e-14, (a, b)
            assert np.all(dist.mass >= 0.0)

    def test_hall_breakpoint_setting_is_a_segment_edge(self):
        a = 0.3
        b = float(PolAngle(a + PI / 4))
        dist = HallModel().lambda_distribution(a, b)
        assert b in dist.edges
        assert np.all(np.diff(dist.edges) > 0.0)
