"""Hidden-variable models: lambda distributions, outcome rules, joint statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from scipy import integrate

from belllab.core import PI, HALF_PI, PolAngle, RngStream
from belllab.models import (
    DeltaMixtureModel,
    HallModel,
    LambdaDistribution,
    LocalBaselineModel,
    PRBoxModel,
    hall_breakpoints,
    hall_density,
    joint_outcome_dist,
    sample_run,
)
from belllab.qm import JointDist, qm_joint, tsirelson_settings

angles = st.floats(min_value=0.0, max_value=PI - 1e-9, allow_nan=False)
TSIRELSON = tsirelson_settings()


def local_baseline_joint(a: float, b: float) -> JointDist:
    """Joint of the uniform-lambda Malus model, (1/4)(1 + AB cos(2a - 2b)/2)."""
    c = 0.5 * math.cos(2 * (a - b))
    return JointDist(0.25 * (1 + c), 0.25 * (1 - c), 0.25 * (1 - c), 0.25 * (1 + c))


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
        _, lams = self.model.sample_lambdas(0.0, PI / 8, 1000, RngStream(1))
        atoms = self.model.lambda_distribution(0.0, PI / 8).points
        assert set(np.unique(lams)) <= set(atoms)


class TestHallModel:
    model = HallModel()

    def test_outcomes_deterministic_given_lambda(self):
        lam = np.array([0.1, 1.0, 2.0])
        p = self.model.outcome_prob(0.0, lam)
        assert set(p.tolist()) <= {0.0, 1.0}
        np.testing.assert_array_equal(p, np.cos(2.0 * (0.0 - lam)) >= 0.0)

    @given(angles, angles)
    @hyp_settings(max_examples=25, deadline=None)
    def test_matches_qm(self, a, b):
        got = self.model.joint_dist(a, b)
        assert got.max_abs_diff(qm_joint(a, b)) < 1e-9

    def test_sampled_lambda_histogram_matches_density(self):
        a, b = 0.0, PI / 8
        n = 200_000
        _, lams = self.model.sample_lambdas(a, b, n, RngStream(5))
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
        dist = self.model.lambda_distribution(0.0, PI / 8)
        np.testing.assert_allclose(dist.density_at(np.linspace(0, 3, 7)), 1.0 / PI)


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

    def test_sampling_is_perfectly_correlated(self):
        a, a_p, b, b_p = TSIRELSON
        lam, a_out, b_out = self.model.sample_runs(a, b, 100, RngStream(0))
        assert lam is None
        np.testing.assert_array_equal(a_out, b_out)
        _, a_out, b_out = self.model.sample_runs(a_p, b_p, 100, RngStream(0))
        np.testing.assert_array_equal(a_out, -b_out)

    def test_outcomes_match_the_int64_reference(self):
        a, a_p, b, b_p = TSIRELSON
        _, a_out, b_out = self.model.sample_runs(a_p, b_p, 10_000, RngStream(7))
        reference = np.where(RngStream(7).generator.random(10_000) < 0.5, 1, -1)
        np.testing.assert_array_equal(a_out, reference)
        np.testing.assert_array_equal(b_out, -reference)
        assert a_out.dtype == b_out.dtype == np.int8


class TestSamplingContract:
    @pytest.mark.parametrize(
        "model", [DeltaMixtureModel(), HallModel(), LocalBaselineModel()]
    )
    def test_sampled_frequencies_match_joint_dist(self, model):
        a, b = 0.0, PI / 8
        n = 100_000
        _, a_out, b_out = model.sample_runs(a, b, n, RngStream(11))
        d = model.joint_dist(a, b)
        tol = 5 * math.sqrt(0.25 / n)
        assert np.mean((a_out == 1) & (b_out == 1)) == pytest.approx(d.p_pp, abs=tol)
        assert np.mean((a_out == 1) & (b_out == -1)) == pytest.approx(d.p_pm, abs=tol)

    def test_sample_run_single(self):
        lam, a_out, b_out = sample_run(DeltaMixtureModel(), 0.0, PI / 8, RngStream(3))
        assert isinstance(lam, PolAngle)
        assert a_out in (-1, 1) and b_out in (-1, 1)

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
    a_out = np.where(gen.random(n) < p1, 1, -1)
    b_out = np.where(gen.random(n) < p2, 1, -1)
    return lams, a_out, b_out


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

    @pytest.mark.parametrize("model", [HallModel(), DeltaMixtureModel()], ids=lambda m: m.name)
    @pytest.mark.parametrize("seed", [0, 1, 2029])
    def test_runs_equal_per_sample_reference(self, model, seed):
        for k, (a, b) in enumerate(self.settings_pairs()):
            lams, a_out, b_out = model.sample_runs(a, b, 20_000, RngStream(seed, k))
            ref_lams, ref_a, ref_b = per_sample_runs(model, a, b, 20_000, RngStream(seed, k))
            np.testing.assert_array_equal(lams, ref_lams)
            np.testing.assert_array_equal(a_out, ref_a, err_msg=f"A at {(a, b)}")
            np.testing.assert_array_equal(b_out, ref_b, err_msg=f"B at {(a, b)}")
            assert a_out.dtype == b_out.dtype == np.int8

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
        index, lams = LocalBaselineModel().sample_lambdas(0.0, PI / 8, 1000, RngStream(2))
        assert index is None
        assert lams.shape == (1000,) and np.all((0.0 <= lams) & (lams < PI))


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
    `Generator.choice`; indices and stream position must equal choice's."""

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
            assert ours.generator.random() == theirs.generator.random()
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

    MODELS = [HallModel(), DeltaMixtureModel(), LocalBaselineModel(), PRBoxModel(TSIRELSON)]

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
            _, a_out, b_out = model.sample_runs(a, b, 20_001, RngStream(seed, k))
            assert count == np.count_nonzero(a_out != b_out), (a, b)
            assert type(count) is int

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
        index, lams = HallModel().sample_lambdas(a, b, 1000, sampled)
        dist = HallModel().lambda_distribution(a, b)
        within = counted.generator.random(1000)
        np.testing.assert_array_equal(
            lams, dist.edges[index] + np.diff(dist.edges)[index] * within
        )
        assert counted.generator.random() == sampled.generator.random()


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
