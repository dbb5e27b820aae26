"""Hand-written mutants of `src/belllab/` and the tests that must kill them.

Each entry changes one exact piece of text in one file.  It names the test
ids that must each fail on the mutated code, or, for a mutant no test can
tell from the original, the reason it is equivalent.  Run

    python tests/mutants.py            # every entry
    python tests/mutants.py 3 7        # entries 3 and 7 only

from the repository root.  The runner copies the repository to a temporary
directory outside it, applies one entry at a time there, runs only that
entry's tests, and exits 1 if a named test passes on its mutant (a
survivor).  Equivalent entries are checked for their text only.

The file name keeps pytest from collecting it; `tests/test_source.py`
checks that every entry's old text occurs exactly once in its file and that
every test it names exists, so a refactor that moves mutated code must
update the entry with it.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    path: str  # relative to the repository root
    old: str  # exact text, occurring once in the file
    new: str
    killed_by: tuple[str, ...] = ()  # test ids that must each fail
    equivalent: str = ""  # why no test can tell the mutant from the original


EST, MOD, QM = "src/belllab/estimator.py", "src/belllab/models.py", "src/belllab/qm.py"
SCH, CLI = "src/belllab/schulman.py", "src/belllab/cli.py"
T_EST, T_MOD, T_QM = "tests/test_estimator.py", "tests/test_models.py", "tests/test_qm.py"
T_SCH, T_CLI = "tests/test_schulman.py", "tests/test_cli.py"
T_ACC, T_REP = "tests/test_acceptance.py", "tests/test_reports.py"
T_CAL = "tests/test_calibration.py"
#: the masked-loop screening case of the local baseline at 6400 runs
MASKED_LB = (f"{T_EST}::TestScreening::test_matches_masked_loop_bit_for_bit"
             "[model6-0.0-0.39269908169872414-6400]")
CODES = "codes = 4 * index + 2 * ~a_plus + ~b_plus"
LOCAL_COUNT = "self.sample_outcomes(a, b, dist.sample(n, rng)[1], rng, None)"
PER_PIECE = "return dist.edges is None or self.outcome_prob(a, dist.points).dtype == bool"
SIGNS = "return lam, 1 if a_plus[0] else -1, 1 if b_plus[0] else -1"
DRAW = "return gen.random(p1.size) < p1, gen.random(p2.size) < p2"
SAME = "same = (1.0 + c) / (PI * den_same) if den_same else 0.0"
DIFF = "diff = (1.0 - c) / (PI * den_diff) if den_diff else 0.0"
DOMAIN = "if spec.gamma > DOMINANCE_DOMAIN * nearest:"
GUARD = "elif type(self).outcome_prob is not HiddenVariableModel.outcome_prob:"
HALL_TV = f"{T_EST}::TestLambdaIndependence::test_hall_matches_quadrature"
LAMBDA_BINS = "np.minimum((lams / PI * SCREENING_BINS).astype(np.intp), SCREENING_BINS - 1)"
MIX = "w = math.sqrt(d2) / (math.sqrt(d1) + math.sqrt(d2))"

MUTANTS = [
    # screening tallies of boolean outcomes
    Mutant(EST, CODES, "codes = 4 * index + 2 * ~a_plus + ~a_plus", (
        MASKED_LB, f"{T_EST}::TestScreening::test_delta_mixture_screens",
    )),
    Mutant(EST, CODES, "codes = 4 * index + ~a_plus + ~b_plus", (
        MASKED_LB, f"{T_EST}::TestScreening::test_pr_box_does_not_screen",
    )),
    Mutant(EST, CODES, "codes = 4 * index + 2 * a_plus + ~b_plus", equivalent=(
        "flipping one side's sign swaps ++ with -+ and +- with --, which leaves"
        " |n++ n-- - n+- n-+| unchanged"
    )),
    Mutant(EST, "np.abs(pp * mm - pm * mp)", "np.abs(pp * mm + pm * mp)", (MASKED_LB,)),
    Mutant(EST, "/ total[kept] ** 2", "/ total[kept]", (
        MASKED_LB, f"{T_EST}::TestScreening::test_pr_box_does_not_screen",
    )),
    Mutant(EST, "np.abs(pp * mm - pm * mp)", "(pp * mm - pm * mp)", (MASKED_LB,)),
    # screening bins of runs drawn per lambda, and the PR box's one piece
    Mutant(EST, LAMBDA_BINS, LAMBDA_BINS.replace("lams / PI", "lams"), (
        MASKED_LB,
        f"{T_EST}::TestScreening::test_empty_bins_count_as_neither_occupied_nor_excluded",
        f"{T_REP}::test_benchmark_report_bytes_are_pinned[run-chsh --model local-baseline"
        " --samples 1000000 --workers 1 --seed 0]",
    )),
    Mutant(EST, LAMBDA_BINS, LAMBDA_BINS.replace("SCREENING_BINS - 1", "SCREENING_BINS - 2"), (
        MASKED_LB,
        f"{T_EST}::TestScreening::test_matches_masked_loop_bit_for_bit"
        "[model7-0.0-0.39269908169872414-1000]",
    )),
    Mutant(MOD, "return np.zeros(n, dtype=np.uint8), None",
           "return np.ones(n, dtype=np.uint8), None", (
        f"{T_MOD}::TestPRBox::test_sampling_is_perfectly_correlated",
    )),
    # the outcome draw and the runs
    Mutant(MOD, "b_plus = ~a_plus if x & y", "b_plus = a_plus if x & y", (
        f"{T_MOD}::TestPRBox::test_sampling_is_perfectly_correlated",
        f"{T_MOD}::TestPRBox::test_outcomes_are_the_fair_coin",
    )),
    Mutant(MOD, SIGNS, "return lam, -1 if a_plus[0] else 1, 1 if b_plus[0] else -1", (
        f"{T_MOD}::TestSamplingContract::test_sample_run_gives_the_sign_of_sample_runs[hall]",
    )),
    Mutant(MOD, SIGNS, "return lam, 1 if a_plus[0] else -1, -1 if b_plus[0] else 1", (
        f"{T_MOD}::TestSamplingContract::test_sample_run_gives_the_sign_of_sample_runs[pr-box]",
    )),
    Mutant(MOD, LOCAL_COUNT, LOCAL_COUNT.replace("(a, b,", "(a, a,"), (
        f"{T_EST}::TestEstimateCorrelator::test_shard_sums_are_those_of_sample_runs"
        "[local-baseline]",
        f"{T_CAL}::test_correlators_are_calibrated[local-baseline]",
    )),
    Mutant(MOD, LOCAL_COUNT,
           "self.sample_outcomes(a, b, dist.points, rng, dist.piece_index(n, rng))", (
        f"{T_EST}::TestEstimateCorrelator::test_shard_sums_are_those_of_sample_runs"
        "[local-baseline]",
        f"{T_MOD}::TestCountDisagreements::test_count_equals_sample_runs[0-local-baseline]",
        f"{T_MOD}::TestCountDisagreements::test_count_equals_sample_runs[0-malus-hall]",
    )),
    # the one sampling rule: per piece or per lambda, and the one-segment draw
    Mutant(MOD, PER_PIECE, PER_PIECE.replace("return ", "return not (") + ")", (
        f"{T_MOD}::TestHallModel::test_matches_qm",
        f"{T_MOD}::TestPiecewiseRuns::test_local_baseline_lambdas_carry_no_pieces",
        f"{T_MOD}::TestHallModel::test_a_subclass_with_malus_outcomes_draws_them",
    )),
    Mutant(MOD, "- 4.0 * m)", "+ 4.0 * m)", (
        f"{T_MOD}::TestHallModel::test_a_subclass_with_malus_outcomes_draws_them",
        f"{T_MOD}::TestMalusSegments::test_joint_is_the_quadrature"
        "[0.0-0.39269908169872414-stepped]",
    )),
    Mutant(MOD, "        if self.mass.size == 1:\n            return index\n", "", (
        f"{T_MOD}::TestPiecewiseRuns::test_local_baseline_lambdas_carry_no_pieces",
        f"{T_MOD}::TestPiecewiseRuns::test_one_segment_is_its_uniforms_scaled[0.3-1.7]",
        f"{T_MOD}::TestPieceIndex::test_indices_and_stream_equal_choice[0]",
        f"{T_REP}::test_benchmark_report_bytes_are_pinned[run-chsh --model local-baseline"
        " --samples 1000000 --workers 1 --seed 0]",
    )),
    Mutant(MOD, "if self.mass.size == 1:  #", "if self.mass.size != 1:  #", (
        f"{T_MOD}::TestPiecewiseRuns::test_runs_equal_per_sample_reference[0-hall]",
        f"{T_MOD}::TestPiecewiseRuns::test_pieces_index_the_drawn_lambdas",
    )),
    Mutant(MOD, "np.take(p1, index), np.take(p2, index)",
           "np.take(p2, index), np.take(p2, index)", (
        f"{T_MOD}::TestPiecewiseRuns::test_runs_equal_per_sample_reference[0-delta-mixture]",
    )),
    Mutant(MOD, DRAW, "b_plus = gen.random(p2.size) < p2\n        "
           "return gen.random(p1.size) < p1, b_plus", (
        f"{T_MOD}::TestPiecewiseRuns::test_runs_equal_per_sample_reference[0-delta-mixture]",
    )),
    Mutant(MOD, "if p1.dtype == bool:", "if p1.dtype != bool:", (
        f"{T_MOD}::TestPiecewiseRuns::test_hall_outcomes_draw_no_uniforms",
        f"{T_ACC}::test_criterion_03_monte_carlo_chsh_violation",
    )),
    Mutant(MOD, DRAW, DRAW.replace("< p1", "<= p1"), (
        f"{T_MOD}::TestOutcomeDraw::test_plus_where_the_uniform_falls_strictly_below",
    )),
    # exact lambda sums: the segment integral's refusal and the total variation
    Mutant(MOD, GUARD, GUARD.replace(" is not ", " is "), (
        f"{T_MOD}::TestOtherFloatRules::test_joint_dist_refuses[half-visibility]",
        f"{T_MOD}::TestMalusSegments::test_joint_is_the_quadrature"
        "[0.0-0.39269908169872414-malus-hall]",
        f"{T_MOD}::TestMalusSegments::test_joint_is_the_quadrature"
        "[0.0-0.39269908169872414-stepped]",
    )),
    Mutant(MOD, "return 0.5 * float(np.sum(np.abs(", "return 1.0 * float(np.sum(np.abs(", (
        f"{HALL_TV}[pair_10-pair_20]", f"{HALL_TV}[pair_11-pair_21]",
    )),
    Mutant(MOD, "edges = np.union1d(self.edges, other.edges)", "edges = self.edges", (
        f"{HALL_TV}[pair_10-pair_20]",
        f"{T_MOD}::TestTotalVariation::test_is_symmetric_where_the_edges_differ",
    )),
    Mutant(MOD, "for x in sorted(m_1 | m_2)", "for x in sorted(m_1)", (
        f"{T_EST}::TestLambdaIndependence::test_delta_mixture_depends_on_settings",
        f"{T_MOD}::TestTotalVariation::test_disjoint_atoms_are_one_apart",
    )),
    Mutant(MOD, 'np.searchsorted(d.edges, mids, side="right")',
           'np.searchsorted(d.edges, mids, side="left")', equivalent=(
        "a midpoint lies inside its cell, on no edge, unless two edges are adjacent"
        " doubles: then it may round onto one, and the misread cell is one ulp wide,"
        " moving the sum by about 1e-16 at most; no test's settings give such edges"
    )),
    # Hall's rule and density
    Mutant(MOD, "lam, dtype=float))) >= 0.0", "lam, dtype=float))) < 0.0", (
        f"{T_MOD}::TestHallModel::test_outcomes_deterministic_given_lambda",
    )),
    Mutant(MOD, "_hall_plus(b, lam), same, diff)", "_hall_plus(b, lam), diff, same)", (
        f"{T_MOD}::TestHallModel::test_matches_qm",
        f"{T_MOD}::TestHallDensity::test_agreement_disagreement_levels",
    )),
    Mutant(MOD, SAME, SAME.replace("(1.0 + c)", "(1.0 - c)"), (
        f"{T_MOD}::TestHallModel::test_matches_qm",
        f"{T_MOD}::TestHallDensity::test_normalized",
    )),
    Mutant(MOD, SAME, SAME.replace(" if den_same else 0.0", ""), (
        f"{T_MOD}::TestHallDensity::test_perpendicular_settings_near_breakpoints",
    )),
    Mutant(MOD, DIFF, DIFF.replace(" if den_diff else 0.0", ""), (
        f"{T_MOD}::TestHallDensity::test_equal_settings_near_breakpoints",
    )),
    # closed-form quantum predictions
    Mutant(QM, "same = 0.25 * (1.0 + c)", "same = 0.25 * (1.0 - c)", (
        f"{T_QM}::TestQmJoint::test_eighth_turn",
        f"{T_QM}::TestQmJoint::test_structure",
    )),
    Mutant(QM, "return (self.p_pp + self.p_mp, self.p_pm + self.p_mm)",
           "return (self.p_pp + self.p_pm, self.p_mp + self.p_mm)", (
        f"{T_QM}::TestJointDist::test_accessors",
    )),
    Mutant(QM, "            abs(self.p_mm - other.p_mm),\n", "", (
        f"{T_REP}::test_benchmark_report_bytes_are_pinned[scan-settings --model hall --grid 16"
        " --seed 0]",
    )),
    Mutant(QM, "abs(sum(probs) - 1.0) > atol", "sum(probs) - 1.0 > atol", (
        f"{T_QM}::TestJointDist::test_validate_rejects_bad_distributions",
    )),
    Mutant(QM, "return abs(c1 + c2 + c3 - c4)", "return c1 + c2 + c3 - c4", (
        f"{T_QM}::TestTsirelson::test_chsh_pairs_follow_the_combination",
    )),
    Mutant(QM, "return (a, b), (a_p, b), (a, b_p), (a_p, b_p)",
           "return (a, b), (a, b_p), (a_p, b), (a_p, b_p)", (
        f"{T_QM}::TestTsirelson::test_chsh_pairs_follow_the_combination",
        f"{T_CLI}::TestSubcommands"
        "::test_run_chsh_schulman2_reports_correlators_in_chsh_pairs_order",
    )),
    # two-photon atom windows
    Mutant(SCH, "if half_width > PI / 4:", "if half_width > PI / 2:", (
        f"{T_SCH}::TestTwoPhoton::test_atom_window_grows_with_its_half_width",
    )),
    Mutant(SCH, "log1p(z) / z if z > 0.0 else 1.0", "log1p(z) / z if z > 0.0 else 0.0", (
        f"{T_SCH}::TestTwoPhoton::test_atom_windows_agree_with_the_grid[0.0-0.0-0.0001]",
    )),
    Mutant(SCH, "if z <= 1.0:", "if z <= 0.5:", equivalent=(
        "both branches compute the same log ratio; over 200 000 random (separation,"
        " gamma in [1e-12, 3], half-width) inputs they differ by at most 2.2e-16"
    )),
    # the dominance prediction's domain
    Mutant(SCH, DOMAIN, DOMAIN.replace(">", ">="), (
        f"{T_SCH}::TestKickStatistics::test_answers_inside_its_domain[on-the-edge]",
    )),
    Mutant(SCH, "DOMINANCE_DOMAIN = 0.1", "DOMINANCE_DOMAIN = 0.2", (
        f"{T_SCH}::TestKickStatistics::test_refuses_beyond_its_domain[just-beyond]",
    )),
    Mutant(SCH, "DOMINANCE_DOMAIN = 0.1", "DOMINANCE_DOMAIN = 0.05", (
        f"{T_SCH}::TestKickStatistics::test_answers_inside_its_domain[just-inside]",
    )),
    Mutant(SCH, "nearest = float(delta.min())", "nearest = float(delta.max())", (
        f"{T_SCH}::TestKickStatistics::test_refuses_beyond_its_domain[gamma-1]",
        f"{T_SCH}::TestKickStatistics::test_refuses_beyond_its_domain[aligned]",
    )),
    # the bridge sampler: the proposal mixture, the tie rule and the endpoint families
    Mutant(SCH, MIX, MIX.replace("math.sqrt(d2) /", "math.sqrt(d1) /"), (
        f"{T_SCH}::TestConditionalStep::test_proposal_rate_is_exact_at_any_scale"
        "[0.001-0.099-10.0]",
        f"{T_SCH}::TestConditionalStep::test_tiny_widths_keep_the_law_and_the_acceptance",
        f"{T_CAL}::test_bridges_are_calibrated",
    )),
    Mutant(SCH, "            np.copyto(shard_step, -1, where=eps == shard_largest)\n", "", (
        f"{T_SCH}::TestRowBlocks::test_a_tie_for_the_largest_kick_leaves_the_path_out",
        f"{T_CLI}::TestSubcommands::test_schulman_paths_leaves_out_tied_kicks[aligned-2-steps]",
    )),
    Mutant(SCH, "rotations = np.concatenate([d0 + n * PI, d0 + HALF_PI + n * PI])",
           "rotations = d0 + n * PI", (
        f"{T_SCH}::TestBridges::test_net_rotation_distribution",
        f"{T_SCH}::TestKickStatistics::test_discarded_winding_mass_matches_mpmath[0.4-1.0]",
        f"{T_ACC}::test_criterion_08_path_statistics",
    )),
    # report writing and argument parsing
    Mutant(CLI, 'format(float(x), ".17g")', 'format(float(x), ".16g")', (
        f"{T_CLI}::TestParsing::test_fmt_float_17_digits",
    )),
    Mutant(CLI, "elif isinstance(value, (list, tuple)):", "elif isinstance(value, list):", (
        f"{T_CLI}::TestParsing::test_csv_flattens_a_tuple_as_json_writes_it_an_array",
    )),
    Mutant(CLI, "fmt_float(value) if isinstance(value, float) else value", "value", (
        f"{T_CLI}::TestReports::test_csv_format",
    )),
    Mutant(CLI, 'f"{prefix}.{key}" if prefix else str(key)', 'f"{prefix}.{key}"', (
        f"{T_CLI}::TestReports::test_csv_format",
    )),
    Mutant(CLI, "if value < minimum:", "if value <= minimum:", (
        f"{T_CLI}::TestSubcommands::test_run_chsh_builds_one_pool_of_at_most_the_usable_cpus",
    )),
    Mutant(CLI, "if not (math.isfinite(value) and value > 0):", "if not value > 0:", (
        f"{T_CLI}::TestExitCodes::test_gamma_must_be_finite_and_positive[two-photon-inf]",
    )),
    Mutant(CLI, '"workers": 1}', '"workers": 2}', (
        f"{T_CLI}::TestSubcommands::test_run_chsh_builds_one_pool_of_at_most_the_usable_cpus",
    )),
    Mutant(CLI, 'MODEL_OPTIONS = {"samples": 10**6', 'MODEL_OPTIONS = {"samples": 10**5', (
        f"{T_CLI}::TestModelTable::test_a_sampled_model_echoes_the_default_sample_count",
    )),
    Mutant(CLI, 'head in ("", "+")', 'head == ""', (
        f"{T_CLI}::TestParsing::test_pi_multiples_take_a_sign_and_any_case",
    )),
    Mutant(CLI, 'else -1.0 if head == "-"', 'else 1.0 if head == "-"', equivalent=(
        "-pi and +pi are the same polarization angle, PolAngle 0.0"
    )),
    Mutant(CLI, "text = text.strip().lower()", "text = text.strip()", (
        f"{T_CLI}::TestParsing::test_pi_multiples_take_a_sign_and_any_case",
    )),
]


def applied(mutant: Mutant, text: str) -> str:
    """`text` with the mutant's one occurrence of its old text replaced."""
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.path}: old text occurs {text.count(mutant.old)} times")
    return text.replace(mutant.old, mutant.new)


def failed(test_id: str, output: str) -> bool:
    """Whether pytest's short summary (``-rfE``) reports `test_id` failed or errored."""
    return re.search(rf"^(?:FAILED|ERROR) {re.escape(test_id)}(?: - |$)", output,
                     flags=re.MULTILINE) is not None


def run(indices: list[int]) -> int:
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="belllab-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", ".hypothesis", ".pytest_cache", "__pycache__", ".perfbench_out"))
        for i in indices:
            mutant = MUTANTS[i]
            target = copy / mutant.path
            original = target.read_text(encoding="utf-8")
            mutated = applied(mutant, original)
            if mutant.equivalent:
                print(f"[{i}] equivalent: {mutant.path}: {mutant.equivalent}", flush=True)
                continue
            target.write_text(mutated, encoding="utf-8")
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                     "-o", "addopts=", *mutant.killed_by],
                    cwd=copy, capture_output=True, text=True,
                )
            finally:
                target.write_text(original, encoding="utf-8")
            passed = [t for t in mutant.killed_by if not failed(t, proc.stdout)]
            if proc.returncode not in (0, 1) or passed:
                survivors += 1
                why = f"pytest exit {proc.returncode}" if proc.returncode not in (0, 1) else (
                    "passed: " + ", ".join(passed))
                print(f"[{i}] SURVIVED {mutant.path}: {mutant.new!r} ({why})", flush=True)
            else:
                took = time.perf_counter() - start
                print(f"[{i}] killed {mutant.path} by {len(mutant.killed_by)} test(s), "
                      f"{took:.1f} s", flush=True)
    live = [i for i in indices if not MUTANTS[i].equivalent]
    print(f"{len(live) - survivors} of {len(live)} mutants killed, {survivors} survived, "
          f"{len(indices) - len(live)} equivalent")
    return 1 if survivors else 0


if __name__ == "__main__":
    chosen = [int(a) for a in sys.argv[1:]] or list(range(len(MUTANTS)))
    sys.exit(run(chosen))
