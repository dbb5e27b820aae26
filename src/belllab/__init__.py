"""belllab: simulate and verify hidden-variable models of Bell-type experiments.

The package provides the quantum reference statistics for the polarization
Bell state, three hidden-variable constructions that reproduce them (a
delta-mixture, a deterministic model with a setting-dependent hidden-angle
density, and a Levy-flight kicked-polarization model), and estimators for
CHSH values, locality residuals and hidden-variable information content.
"""

from .core import HALF_PI, OUTCOMES, PI, PolAngle, RngStream, canonical_diff, malus_prob, outcome_axes
from .estimator import (
    ChshReport,
    CorrelatorEstimate,
    MIEstimate,
    ScreeningResult,
    analytic_chsh,
    chsh_pvalue,
    chsh_pvalue_log10,
    estimate_correlator,
    lambda_independence_residual,
    mutual_information_hall,
    peres_identity_check,
    run_chsh_experiment,
    screening_residual,
)
from .models import (
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
from .qm import (
    TSIRELSON_BOUND,
    JointDist,
    chsh_pairs,
    chsh_value,
    qm_chsh,
    qm_correlator,
    qm_joint,
    tsirelson_settings,
)
from .schulman import (
    AlignedPoleError,
    BridgeKicks,
    BridgeSamplingError,
    DominancePrediction,
    KickStats,
    PathSpec,
    TwoPhotonResult,
    bridge_shards,
    discarded_winding_mass,
    dominant_kick_stats,
    endpoint_targets,
    exact_family_sum,
    expected_net_dominance,
    free_kick_sums,
    net_dominance_given_rotation,
    net_rotation_density,
    periodized_cauchy,
    sample_bridges,
    single_photon_outcome_prob,
    truncated_family_sum,
    two_photon_joint,
    two_photon_outcome_joint,
)

__version__ = "0.1.0"
