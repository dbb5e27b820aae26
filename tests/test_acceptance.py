"""Acceptance gate: one test per published capability, pinned tolerances.

Each test prints a single machine-readable verdict line

    CRITERION <n>: PASS|FAIL -- <summary>

before asserting, so the full scorecard is visible in the pytest log even
when a criterion fails.  Tolerances are fixed here and must not be
loosened; a failing criterion indicates a real gap, not test noise.
"""

import math

import numpy as np
import pytest
from scipy import stats

from belllab.core import PI, HALF_PI, PolAngle, RngStream
from belllab.estimator import (
    chsh_value,
    lambda_independence_residual,
    mutual_information_hall,
    peres_identity_check,
    run_chsh_experiment,
    screening_residual,
)
from belllab.models import (
    DeltaMixtureModel,
    HallModel,
    LocalBaselineModel,
    PRBoxModel,
    joint_outcome_dist,
)
from belllab.qm import TSIRELSON_BOUND, qm_correlator, qm_joint, tsirelson_settings
from belllab.schulman import (
    PathSpec,
    dominant_kick_stats,
    endpoint_targets,
    expected_net_dominance,
    free_kick_sums,
    sample_bridges,
    single_photon_outcome_prob,
    truncated_family_sum,
    two_photon_joint,
)

TSIRELSON = tsirelson_settings()


def verdict(number: int, ok: bool, summary: str) -> None:
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} -- {summary}")
    assert ok, f"criterion {number}: {summary}"


def test_criterion_01_qm_reference_chsh():
    """CHSH of the quantum correlator at the optimal settings is 2*sqrt(2)."""
    a, a_p, b, b_p = TSIRELSON
    s = chsh_value(
        qm_correlator(a, b),
        qm_correlator(a_p, b),
        qm_correlator(a, b_p),
        qm_correlator(a_p, b_p),
    )
    err = abs(s - TSIRELSON_BOUND)
    verdict(1, err < 1e-12, f"QM CHSH at optimal settings: S={s!r}, |S - 2*sqrt(2)|={err:.2e} (tol 1e-12)")


def test_criterion_02_models_agree_with_qm_on_grid():
    """Delta-mixture and Hall joints match the quantum reference on 16x16 settings."""
    grid = [PolAngle(i * PI / 16) for i in range(16)]
    worst = {"delta-mixture": 0.0, "hall": 0.0}
    for model in (DeltaMixtureModel(), HallModel()):
        for a in grid:
            for b in grid:
                diff = joint_outcome_dist(model, a, b).max_abs_diff(qm_joint(a, b))
                worst[model.name] = max(worst[model.name], diff)
    ok = all(w < 1e-9 for w in worst.values())
    verdict(2, ok, "16x16 settings grid, max |joint - QM|: "
            + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) + " (tol 1e-9)")


def test_criterion_03_monte_carlo_chsh_violation():
    """Hall violates at the Tsirelson point; local baseline obeys the bound; PR box saturates 4."""
    n = 10**6
    hall = run_chsh_experiment(HallModel(), TSIRELSON, n, RngStream(2026))
    hall_ok = abs(hall.s_value - TSIRELSON_BOUND) < 5 * hall.s_standard_error

    base = run_chsh_experiment(LocalBaselineModel(), TSIRELSON, n, RngStream(2027))
    base_ok = base.s_value < 2.0

    pr = run_chsh_experiment(PRBoxModel(TSIRELSON), TSIRELSON, n, RngStream(2028))
    pr_ok = pr.s_value == 4.0 and pr.s_standard_error == 0.0

    verdict(
        3,
        hall_ok and base_ok and pr_ok,
        f"N=1e6/correlator: hall S={hall.s_value:.4f}+-{hall.s_standard_error:.4f} "
        f"(target 2.8284, 5 SE), baseline S={base.s_value:.4f} (< 2), "
        f"pr-box S={pr.s_value} (= 4 exactly)",
    )


def test_criterion_04_peres_identity():
    """(A+A')B + (A-A')B' is +-2 for all 16 deterministic assignments."""
    values = {
        peres_identity_check(a1, a2, b1, b2)
        for a1 in (1, -1) for a2 in (1, -1) for b1 in (1, -1) for b2 in (1, -1)
    }
    verdict(4, values == {2, -2}, f"exhaustive 16-case identity values: {sorted(values)}")


def test_criterion_05_family_sum():
    """Truncated-plus-tail winding sum reproduces 1/sin^2 to 1e-10."""
    worst = max(
        abs(truncated_family_sum(d) - 1.0 / math.sin(d) ** 2)
        for d in (PI / 8, PI / 4, 3 * PI / 8, HALF_PI)
    )
    verdict(5, worst < 1e-10, f"max |sum - 1/sin^2| over four angles: {worst:.2e} (tol 1e-10)")


def test_criterion_06_malus_recovery():
    """Small-width outcome probability recovers Malus' law; the width-0 branch is exact."""
    grid = np.linspace(0.0, HALF_PI, 32)
    grid = grid[(grid > 0.01) & (grid < HALF_PI - 0.01)]
    worst_gamma = max(
        abs(single_photon_outcome_prob(0.0, d, 1e-4) - math.cos(d) ** 2) for d in grid
    )
    exact_zero = all(
        single_photon_outcome_prob(0.0, d, 0.0) == math.cos(d) ** 2 for d in grid
    )
    verdict(
        6,
        worst_gamma < 1e-3 and exact_zero,
        f"gamma=1e-4: max |p - cos^2| = {worst_gamma:.2e} (tol 1e-3); "
        f"gamma=0 branch exact: {exact_zero}",
    )


def test_criterion_07_two_photon_limit():
    """Small-width two-photon joint matches QM; the posterior weights the four
    detector-axis atoms equally.

    The +-3*gamma windows are read as relative shares: a Cauchy peak keeps
    only (2/pi)*arctan(3) of its mass within +-3 widths, so the absolute
    window masses are 0.199 each by tail arithmetic.  The window masses are
    exact, with no lambda grid, and the shares are exactly 1/4 (see the
    README "Tests" section).
    """
    gamma = 1e-4
    res = two_photon_joint(PolAngle(0.0), PolAngle(PI / 8), gamma)
    diff = res.joint.max_abs_diff(qm_joint(0.0, PI / 8))

    windows = res.atom_window_masses(3.0 * gamma)
    shares = np.array(list(windows.values()))
    shares = shares / shares.sum()
    share_err = float(np.max(np.abs(shares - 0.25)))
    verdict(
        7,
        diff < 1e-3 and share_err < 0.01,
        f"gamma=1e-4 at (0, pi/8): max |joint - QM| = {diff:.2e} (tol 1e-3); "
        f"atom window shares deviate from 1/4 by {share_err:.2e} (tol 0.01)",
    )


def test_criterion_08_path_statistics():
    """Bridge ensemble: exact endpoints, Cauchy stability, single-kick dominance,
    uniform kick times.

    Dominance: the share of paths whose largest kick carries > 99% of the net
    rotation matches its exact expectation within 5 SE.  Given a net rotation
    Delta, the `steps` increments are exchangeable with density
    C_a(e) C_{gamma-a}(Delta - e) / C_gamma(Delta), a = gamma/steps, so the
    expected number of kicks beyond 0.99*|Delta| is steps times that density's
    mass outside +-0.99*|Delta|, in closed form by partial fractions
    (`expected_net_dominance`, averaged over the sampler's winding weights).
    At gamma=1e-3 and 100 steps it is 0.9274, with an error estimate below
    1e-4 that must stay below the SE; the gate spec's gamma / |Delta| of
    0.0025 lies inside the prediction's domain (at most 0.1).  No correct
    sampler reaches the former ">= 95% of paths" bar; see the README "Tests"
    section.
    """
    spec = PathSpec(theta1=PolAngle(0.0), theta2=PolAngle(PI / 8), gamma=1e-3, steps=100)
    rng = RngStream(2029)
    n_paths = 10**5
    bridges = sample_bridges(spec, n_paths, rng.substream(0))

    rotations, _, _ = endpoint_targets(spec)
    endpoint_ok = bool(np.isin(bridges.rotations, rotations).all())

    sums = free_kick_sums(spec.gamma, spec.steps, n_paths, rng.substream(1))
    ks_p = float(stats.kstest(sums, stats.cauchy(scale=spec.gamma).cdf).pvalue)

    kicks = dominant_kick_stats(bridges)
    dominance = kicks.net_dominance_share
    expected = expected_net_dominance(spec)
    defined = n_paths - kicks.excluded_paths
    se = math.sqrt(expected.value * (1.0 - expected.value) / defined)
    dominance_ok = abs(dominance - expected.value) < 5 * se and expected.error_estimate < se
    chi2_p = float(stats.chisquare(kicks.kick_time_histogram).pvalue)

    ok = endpoint_ok and ks_p > 0.01 and dominance_ok and chi2_p > 0.01
    verdict(
        8,
        ok,
        f"1e5 bridges (gamma=1e-3, 100 steps): endpoints exact={endpoint_ok}; "
        f"Cauchy KS p={ks_p:.3f} (> 0.01); dominant-kick>99% fraction={dominance:.4f} "
        f"vs expected {expected.value:.4f}+-{expected.error_estimate:.1e} "
        f"(SE {se:.5f}, 5 SE); kick-time chi2 p={chi2_p:.3f} (> 0.01)",
    )


def test_criterion_09_hall_information_bound():
    """Settings-averaged hidden-angle information stays below 0.07 bits."""
    est = mutual_information_hall(lambda_grid=2048, settings_grid=64)
    ok = est.bits < 0.07 and est.error_estimate < 1e-3
    verdict(
        9,
        ok,
        f"I(lambda : a,b) = {est.bits:.6f} bits (< 0.07); "
        f"uniformity check = {est.error_estimate:.2e} (< 1e-3)",
    )


def test_criterion_10_locality_properties():
    """Screening for lambda models, PR-box residual 0.25, lambda-dependence
    values, and setting-independent uniform marginals."""
    rng = RngStream(2030)
    a, b = TSIRELSON[0], TSIRELSON[2]

    screen_ok = True
    screen_report = []
    for idx, (model, n, min_mass) in enumerate((
        (DeltaMixtureModel(), 400_000, None),
        (HallModel(), 400_000, None),
        (LocalBaselineModel(), 400_000, 1 / 64),
    )):
        res = screening_residual(model, a, b, n, rng.substream(idx))
        # Hall fixes both outcomes on each segment bin; each delta-mixture
        # atom is an outcome axis of a or b, fixing that side on its bin
        if min_mass is None:
            screen_ok &= res.value == 0.0
            screen_report.append(f"{model.name}={res.value!r}==0.0")
            continue
        bound = 6 * math.sqrt(0.25 / (n * min_mass))
        screen_ok &= res.value < bound
        screen_report.append(f"{model.name}={res.value:.4f}<{bound:.4f}")

    pr_res = screening_residual(PRBoxModel(TSIRELSON), a, b, 200_000, rng.substream(99))
    pr_ok = abs(pr_res.value - 0.25) < 0.01

    base_dep = lambda_independence_residual(
        LocalBaselineModel(), (a, b), (TSIRELSON[1], TSIRELSON[3])
    )
    delta_dep = lambda_independence_residual(
        DeltaMixtureModel(), (a, b), (a, TSIRELSON[3])
    )
    dep_ok = base_dep < 1e-10 and abs(delta_dep - 0.5) < 1e-12

    marg_ok = True
    for model in (DeltaMixtureModel(), HallModel(), LocalBaselineModel()):
        for bb in (0.0, PI / 8, 1.2):
            d = model.joint_dist(0.3, bb)
            marg_ok &= abs(d.marginal_1()[0] - 0.5) < 1e-9
            marg_ok &= abs(d.marginal_2()[0] - 0.5) < 1e-9
    for x in (TSIRELSON[0], TSIRELSON[1]):
        for y in (TSIRELSON[2], TSIRELSON[3]):
            d = PRBoxModel(TSIRELSON).joint_dist(x, y)
            marg_ok &= d.marginal_1()[0] == 0.5 and d.marginal_2()[0] == 0.5

    verdict(
        10,
        screen_ok and pr_ok and dep_ok and marg_ok,
        f"screening: {', '.join(screen_report)}; pr-box residual={pr_res.value:.4f} "
        f"(~0.25); lambda-dependence: baseline={base_dep:.2e} (=0), "
        f"delta-mixture={delta_dep:.3f} (=0.5); uniform marginals: {marg_ok}",
    )
