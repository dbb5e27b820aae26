"""Levy-flight polarization model: Cauchy-kick histories between two polarizers.

The hidden polarization angle q(t) performs a Cauchy random walk between
the boundary angles enforced by preparation and measurement.  Because
Cauchy widths add along a path, the net rotation over a segment of total
width gamma is itself Cauchy(gamma) distributed, independent of how the
segment is discretized.  Outcome probabilities follow by summing the net
rotation density over all windings that land in the aligned family
(theta2 + n*pi) or the perpendicular family (theta2 + pi/2 + n*pi); in
the gamma -> 0 limit the normalized ratio is Malus' law cos^2(Dtheta).

Boundary-conditioned paths ("bridges") are sampled all-at-once: the exact
endpoint is drawn first from the family weights, then increments are
drawn from their exact conditional distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import HALF_PI, PI, PolAngle, RngStream, canonical_diff
from .qm import JointDist

#: Paths whose total absolute rotation is below this multiple of gamma have
#: no meaningful "collapse kick"; they are excluded from dominance ratios.
DOMINANCE_FLOOR = 1e-3

#: Windings |n| <= N_WINDINGS of each alignment family that bridge endpoints
#: are drawn from.  `endpoint_targets`, `sample_bridges` and
#: `expected_net_dominance` must share it for criterion 8's prediction to
#: describe the sampled paths.
N_WINDINGS = 200


class AlignedPoleError(ZeroDivisionError):
    """Family sum requested exactly at its pole (aligned boundary angles)."""


class ResolutionError(ValueError):
    """Lambda grid too coarse to resolve the Cauchy peaks."""


class BridgeSamplingError(RuntimeError):
    """Rejection sampler exhausted its retry budget."""

    def __init__(self, message: str, step: int, attempts: int) -> None:
        super().__init__(f"{message} (step {step}, {attempts} proposal rounds)")
        self.step = step
        self.attempts = attempts


@dataclass(frozen=True)
class FamilySumConfig:
    """Truncation policy for the winding sums."""

    n_max: int = 10_000
    tail_correction: bool = True

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")


@dataclass(frozen=True)
class PathSpec:
    """Boundary-conditioned kick history description.

    The endpoint is constrained modulo pi/2: the path ends in either the
    theta2 family or the theta2 + pi/2 family, with winding number free.
    """

    theta1: PolAngle
    theta2: PolAngle
    gamma: float
    steps: int = 100

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        object.__setattr__(self, "theta1", PolAngle(self.theta1))
        object.__setattr__(self, "theta2", PolAngle(self.theta2))

    @property
    def step_width(self) -> float:
        return self.gamma / self.steps


def net_rotation_density(delta_q, gamma: float):
    """Cauchy density (1/pi) * gamma / (delta_q^2 + gamma^2)."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    delta_q = np.asarray(delta_q, dtype=float)
    out = gamma / (PI * (delta_q**2 + gamma**2))
    return float(out) if out.ndim == 0 else out


def exact_family_sum(delta_theta: float) -> float:
    """Closed form of sum_n 1/(delta_theta + n*pi)^2, namely 1/sin^2."""
    s = math.sin(delta_theta)
    if abs(s) < 1e-12:
        raise AlignedPoleError(
            f"family sum has a pole at delta_theta = {delta_theta!r} (multiple of pi)"
        )
    return 1.0 / (s * s)


def truncated_family_sum(delta_theta: float, cfg: FamilySumConfig) -> float:
    """Direct winding sum, optionally with an integral tail correction.

    The tail of sum_{|n| > n_max} 1/(x + n*pi)^2 is approximated by the
    midpoint-rule integral 1/(pi*(x + (n_max + 1/2)*pi)) on each side,
    accurate to O(n_max^-3).
    """
    n = np.arange(-cfg.n_max, cfg.n_max + 1)
    total = float(np.sum(1.0 / (delta_theta + n * PI) ** 2))
    if cfg.tail_correction:
        edge = (cfg.n_max + 0.5) * PI
        total += 1.0 / (PI * (edge + delta_theta)) + 1.0 / (PI * (edge - delta_theta))
    return total


def periodized_cauchy(x, gamma: float):
    """sum_n Cauchy_gamma(x + n*pi): the pi-wrapped Cauchy density.

    Closed form sinh(2*gamma) / (pi * (cosh(2*gamma) - cos(2*x))), evaluated
    as sinh(gamma)*cosh(gamma) / (pi * (sinh(gamma)^2 + sin(x)^2)) to avoid
    the cancellation near the peak for small gamma; integrates to 1 over one
    period [0, pi).

    Where pi * sinh(gamma)^2 overflows (gamma > 355.0) the density is 1/pi
    to within rounding.  Where sinh(gamma)^2 and sin(x)^2 both underflow to 0
    (gamma and |sin(x)| below 1.6e-162) numerator and denominator are
    divided by the larger of sinh(gamma) and |sin(x)| first.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    x = np.asarray(x, dtype=float)
    try:
        sh = math.sinh(gamma)
    except OverflowError:
        sh = math.inf
    if math.isinf(PI * (sh * sh)):
        return 1.0 / PI if x.ndim == 0 else np.full(x.shape, 1.0 / PI)
    sin_x = np.sin(x)
    den = sh * sh + sin_x**2
    with np.errstate(divide="ignore"):
        out = sh * math.cosh(gamma) / (PI * den)
    underflow = den == 0.0
    if np.any(underflow):
        scale = np.maximum(sh, np.abs(sin_x))
        rel_sh, rel_sin = sh / scale, sin_x / scale
        rescaled = rel_sh * math.cosh(gamma) / (PI * scale * (rel_sh**2 + rel_sin**2))
        out = np.where(underflow, rescaled, out)
    return float(out) if out.ndim == 0 else out


def periodized_cauchy_truncated(x: float, gamma: float, cfg: FamilySumConfig) -> float:
    """Winding-by-winding evaluation of the wrapped Cauchy density.

    Reference path used to validate the closed form; the tail integral is
    exact for the Lorentzian, evaluated with arctan.
    """
    n = np.arange(-cfg.n_max, cfg.n_max + 1)
    total = float(np.sum(net_rotation_density(x + n * PI, gamma)))
    if cfg.tail_correction:
        edge = (cfg.n_max + 0.5) * PI
        total += (
            HALF_PI - math.atan((edge + x) / gamma) + HALF_PI - math.atan((edge - x) / gamma)
        ) / PI**2
    return total


def single_photon_outcome_prob(theta1: float, theta2: float, gamma: float) -> float:
    """Probability that the photon aligns with the second polarizer.

    gamma == 0 selects the analytic limit, which is exactly Malus' law
    cos^2(theta1 - theta2) (the family-sum poles cancel in the normalized
    ratio).  For gamma > 0 the aligned and perpendicular family weights
    are compared directly.
    """
    d = canonical_diff(theta2, theta1)
    if gamma == 0.0:
        return math.cos(d) ** 2
    if gamma < 0.0:
        raise ValueError("gamma must be >= 0")
    w_plus = periodized_cauchy(d, gamma)
    w_minus = periodized_cauchy(d + HALF_PI, gamma)
    return w_plus / (w_plus + w_minus)


def sequential_outcome_probs(
    angles: list[float] | tuple[float, ...], gamma: float
) -> dict[tuple[int, ...], float]:
    """Distribution over +-1 outcome sequences for a chain of polarizers.

    The first angle is the preparation; each measurement leaves the photon
    in the realized axis (the polarizer angle for +1, its perpendicular
    for -1), which becomes the boundary for the next segment.
    """
    angles = [PolAngle(t) for t in angles]
    if len(angles) < 2:
        raise ValueError("need a preparation angle and at least one polarizer")
    dists: dict[tuple[int, ...], float] = {(): 1.0}
    realized: dict[tuple[int, ...], PolAngle] = {(): angles[0]}
    for theta in angles[1:]:
        new_dists: dict[tuple[int, ...], float] = {}
        new_realized: dict[tuple[int, ...], PolAngle] = {}
        for seq, prob in dists.items():
            p_plus = single_photon_outcome_prob(realized[seq], theta, gamma)
            for outcome, p, axis in (
                (+1, p_plus, theta),
                (-1, 1.0 - p_plus, theta.perpendicular()),
            ):
                new_dists[seq + (outcome,)] = prob * p
                new_realized[seq + (outcome,)] = axis
        dists, realized = new_dists, new_realized
    return dists


# ---------------------------------------------------------------------------
# Two-photon model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoPhotonResult:
    """Joint outcome distribution and hidden-angle posterior on a grid."""

    joint: JointDist
    a: PolAngle
    b: PolAngle
    gamma: float
    lam: np.ndarray = field(repr=False)
    #: posterior mass per grid cell, by outcome pair, shape (2, 2, M);
    #: index 0 = +1, index 1 = -1 on each axis.  Sums to 1 overall.
    mass_by_outcome: np.ndarray = field(repr=False)

    @property
    def posterior_mass(self) -> np.ndarray:
        """Outcome-marginal posterior mass per lambda grid cell (sums to 1)."""
        return self.mass_by_outcome.sum(axis=(0, 1))

    def atom_window_masses(self, half_width: float) -> dict[float, float]:
        """Posterior mass within +-half_width (mod pi) of each delta-mixture atom."""
        atoms = [
            PolAngle(self.a),
            PolAngle(self.a).perpendicular(),
            PolAngle(self.b),
            PolAngle(self.b).perpendicular(),
        ]
        mass = self.posterior_mass
        out = {}
        for atom in atoms:
            dist = np.abs(
                (self.lam - float(atom) + HALF_PI) % PI - HALF_PI
            )
            out[float(atom)] = float(mass[dist <= half_width].sum())
        return out


def two_photon_outcome_joint(a: float, b: float, gamma: float) -> JointDist:
    """Observable joint of `two_photon_joint`, in closed form with no lambda grid.

    Wrapped Cauchy densities are closed under convolution,
    int P_gamma(lam - t1) P_gamma(lam - t2) dlam = P_{2 gamma}(t1 - t2)
    (Mardia & Jupp, Directional Statistics), so p(A, B) is proportional to
    the one-photon family weight between the two outcome axes at width
    2 * gamma: p_pp = p_mm = p / 2 and p_pm = p_mp = (1 - p) / 2 with
    p = single_photon_outcome_prob(a, b, 2 * gamma).
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    p = single_photon_outcome_prob(a, b, 2.0 * gamma)
    return JointDist(0.5 * p, 0.5 * (1.0 - p), 0.5 * (1.0 - p), 0.5 * p)


def two_photon_joint(
    a: float, b: float, gamma: float, grid_size: int
) -> TwoPhotonResult:
    """Two entangled photons sharing an unknown initial polarization.

    Both kick histories start at the common hidden angle lambda (flat base
    measure on [0, pi)) and end in the family selected by each outcome.
    The weight of a configuration is the product of the two wrapped-Cauchy
    family weights; normalizing over (lambda, A, B) on the grid yields the
    lambda posterior.  The joint is `two_photon_outcome_joint`, exact; the
    grid is needed only for the posterior.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if grid_size < 64:
        raise ValueError("grid_size must be >= 64")
    spacing = PI / grid_size
    if gamma / spacing < 8.0:
        raise ResolutionError(
            f"grid spacing {spacing:.3e} too coarse for gamma {gamma:.3e}; "
            f"need at least 8 grid points per gamma width ({math.ceil(8 * PI / gamma)} total)"
        )
    a = PolAngle(a)
    b = PolAngle(b)
    lam = (np.arange(grid_size) + 0.5) * spacing
    targets_1 = (float(a), float(a.perpendicular()))  # A = +1, -1
    targets_2 = (float(b), float(b.perpendicular()))
    mass = np.empty((2, 2, grid_size))
    for i, t1 in enumerate(targets_1):
        w1 = periodized_cauchy(lam - t1, gamma)
        for j, t2 in enumerate(targets_2):
            w2 = periodized_cauchy(lam - t2, gamma)
            mass[i, j] = w1 * w2 * spacing
    mass /= mass.sum()
    return TwoPhotonResult(
        joint=two_photon_outcome_joint(a, b, gamma),
        a=a,
        b=b,
        gamma=gamma,
        lam=lam,
        mass_by_outcome=mass,
    )


# ---------------------------------------------------------------------------
# Bridge sampling
# ---------------------------------------------------------------------------


def endpoint_targets(spec: PathSpec) -> tuple[np.ndarray, np.ndarray]:
    """Candidate net rotations and their normalized Cauchy weights.

    Targets enumerate both alignment families and windings |n| <= N_WINDINGS;
    the weights are renormalized over the kept windings.  The discarded share
    is about sin^2(2 * dtheta) / (pi^2 * N_WINDINGS) for gamma << 1 (2.5e-4 at
    dtheta = pi/8), and approaches 2 * gamma / (pi^2 * N_WINDINGS) once gamma
    is of order 1 (1.0e-3 at gamma = 1); `DominancePrediction` and the
    schulman-paths report give it exactly as `discarded_winding_mass`.
    """
    d0 = float(spec.theta2) - float(spec.theta1)
    n = np.arange(-N_WINDINGS, N_WINDINGS + 1)
    rotations = np.concatenate([d0 + n * PI, d0 + HALF_PI + n * PI])
    weights = net_rotation_density(rotations, spec.gamma)
    return rotations, weights / weights.sum()


def _conditional_step(
    residual: np.ndarray, d1: float, d2: float, gen: np.random.Generator,
    max_rounds: int,
) -> np.ndarray:
    """Draw one increment per path from f(e) ~ C_d1(e) * C_d2(residual - e).

    Exact rejection sampling.  Proposal: the mixture
    g(e) = w C_d1(e) + (1 - w) C_d2(r - e), w = sqrt(d2) / (sqrt(d1) + sqrt(d2)),
    of which only the chosen Cauchy variate is drawn.  g / f = pi Q(e) with
    Q(e) = alpha ((r - e)^2 + d2^2) + beta (e^2 + d1^2), alpha = w / d2,
    beta = (1 - w) / d1, a quadratic whose minimum
    Q_min = alpha beta / (alpha + beta) r^2 + alpha d2^2 + beta d1^2 is exact,
    so e is accepted when u Q(e) <= Q_min.  The acceptance rate is
    pi Q_min C_{d1+d2}(r): (d1 + d2) / (sqrt(d1) + sqrt(d2))^2 for |r| >> d2,
    between 1/2 (equal widths) and 1 (one width dominant), against exactly 1/2
    for an equal mixture.
    """
    n = residual.size
    w = math.sqrt(d2) / (math.sqrt(d1) + math.sqrt(d2))
    alpha = w / d2
    beta = (1.0 - w) / d1
    q_floor = alpha * d2 * d2 + beta * d1 * d1
    q_min = (alpha * beta / (alpha + beta)) * residual**2 + q_floor
    out = np.empty(n)
    todo = np.arange(n)
    for _ in range(max_rounds):
        m = todo.size
        r = residual[todo]
        z = gen.standard_cauchy(m)
        eps = np.where(gen.random(m) < w, d1 * z, r + d2 * z)
        q = alpha * (r - eps) ** 2 + beta * eps**2 + q_floor
        accept = gen.random(m) * q <= q_min[todo]
        # a rejected entry is overwritten in a later round; integer indexing
        # is cheaper here than scattering through the boolean mask
        out[todo] = eps
        todo = todo[np.flatnonzero(~accept)]
        if todo.size == 0:
            return out
    raise BridgeSamplingError("conditional increment sampling stalled", -1, max_rounds)


def sample_bridges(spec: PathSpec, n_paths: int, rng: RngStream) -> np.ndarray:
    """Sample boundary-conditioned kick paths, shape (n_paths, steps + 1).

    The endpoint (alignment family and winding) is drawn first from the
    normalized net-rotation weights; increments are then drawn from their
    exact conditional densities given the remaining rotation and remaining
    Cauchy width.  The endpoint constraint is satisfied bit-exactly.  Each
    step may take max(64, 10**6 // n_paths) proposal rounds before it raises
    `BridgeSamplingError`.
    """
    gen = rng.generator
    rotations, weights = endpoint_targets(spec)
    targets = rotations[gen.choice(rotations.size, size=n_paths, p=weights)]

    steps = spec.steps
    d_step = spec.step_width
    increments = np.empty((n_paths, steps))
    residual = targets.copy()
    retry_budget = 10**6
    max_rounds = max(64, retry_budget // max(1, n_paths))
    for i in range(steps - 1):
        remaining_width = (steps - 1 - i) * d_step
        try:
            eps = _conditional_step(residual, d_step, remaining_width, gen, max_rounds)
        except BridgeSamplingError as exc:
            raise BridgeSamplingError(str(exc), i, exc.attempts) from None
        increments[:, i] = eps
        residual -= eps
    increments[:, steps - 1] = residual

    paths = np.empty((n_paths, steps + 1))
    paths[:, 0] = float(spec.theta1)
    np.cumsum(increments, axis=1, out=paths[:, 1:])
    paths[:, 1:] += float(spec.theta1)
    # enforce the endpoint constraint exactly against cumulative rounding
    paths[:, -1] = float(spec.theta1) + targets
    return paths


def free_kick_sums(gamma: float, steps: int, n: int, rng: RngStream) -> np.ndarray:
    """Unconditioned sums of `steps` iid Cauchy(gamma/steps) kicks.

    By Cauchy stability these are distributed as Cauchy(gamma); used as
    the stability check against net_rotation_density.
    """
    kicks = (gamma / steps) * rng.generator.standard_cauchy((n, steps))
    return kicks.sum(axis=1)


@dataclass(frozen=True)
class KickStats:
    """Summary of which kick carries the rotation and when it happens."""

    #: histogram over step index of the largest |increment|, length = steps
    kick_time_histogram: np.ndarray
    #: max |increment| / sum |increments| per path (defined paths only)
    dominance_fraction: np.ndarray
    #: max |increment| / |net rotation| per path (defined paths only)
    net_dominance: np.ndarray
    #: paths excluded because their total |rotation| was below the floor
    excluded_paths: int


def dominant_kick_stats(paths: np.ndarray, gamma: float) -> KickStats:
    """Dominance statistics for an ensemble of paths (n_paths, steps + 1).

    Paths with total absolute increment below DOMINANCE_FLOOR * gamma have
    no collapse kick (aligned boundaries) and are excluded from ratios.
    """
    paths = np.atleast_2d(np.asarray(paths, dtype=float))
    if paths.shape[0] == 0:
        raise ValueError("empty path collection")
    inc = np.diff(paths, axis=1)
    abs_inc = np.abs(inc, out=inc)
    largest = abs_inc.max(axis=1)
    total = abs_inc.sum(axis=1)
    net = np.abs(paths[:, -1] - paths[:, 0])
    defined = total >= DOMINANCE_FLOOR * gamma
    argmax = abs_inc.argmax(axis=1)
    hist = np.bincount(argmax[defined], minlength=inc.shape[1])
    with np.errstate(invalid="ignore", divide="ignore"):
        net_dom = largest[defined] / net[defined]
    return KickStats(
        kick_time_histogram=hist,
        dominance_fraction=largest[defined] / total[defined],
        net_dominance=net_dom,
        excluded_paths=int(np.sum(~defined)),
    )


@dataclass(frozen=True)
class DominancePrediction:
    """Expected share of bridges whose largest kick exceeds a fraction of the
    net rotation, with the error of that expectation."""

    #: expected number of increments beyond the threshold, averaged over the
    #: sampler's winding weights; upper bound on the share of such paths
    value: float
    #: leading-order estimate of paths with two kicks beyond the threshold,
    #: by which `value` over-counts the share of paths
    overcount: float
    #: endpoint weight beyond the winding cut-off, discarded by `endpoint_targets`
    discarded_winding_mass: float

    @property
    def error_bound(self) -> float:
        """Over-count plus the largest shift the discarded windings could cause.

        Dominance per winding grows with |net rotation|, so the cut-off
        windings lie between the average and 1: restoring their mass raises
        the average by at most mass * (1 - value).
        """
        return self.overcount + self.discarded_winding_mass * (1.0 - self.value)


def net_dominance_given_rotation(delta, gamma: float, steps: int, threshold: float = 0.99):
    """Expected number of increments with |e| > threshold * |delta| in a bridge
    of `steps` Cauchy kicks (total width gamma) whose net rotation is delta.

    The increments are exchangeable, each distributed as
    C_a(e) C_b(delta - e) / C_gamma(delta) with a = gamma/steps and
    b = gamma - a, so the count is steps times the mass of that density
    beyond +-c, c = threshold * |delta|.  Partial fractions give the mass
    in closed form:

        1 / ((e^2 + a^2)((delta - e)^2 + b^2))
            = (A e + B) / (e^2 + a^2) + (-A (e - delta) + D) / ((e - delta)^2 + b^2)

    with M = (delta^2 + (a + b)^2)(delta^2 + (a - b)^2), A = 2 delta / M,
    B = (delta^2 + b^2 - a^2) / M and D = (delta^2 + a^2 - b^2) / M, whose
    antiderivative is a log term plus two arctan terms.  A single step, or a
    net rotation of exactly 0 (the ratio is infinite), counts as 1.
    Leading order in gamma/|delta| is
    1/2 + arctan((1 - threshold) |delta| / gamma) / pi.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    delta = np.abs(np.asarray(delta, dtype=float))
    if steps == 1:
        out = np.ones_like(delta)
        return float(out) if out.ndim == 0 else out
    a = gamma / steps
    b = gamma - a
    with np.errstate(divide="ignore", invalid="ignore"):
        c = threshold * delta
        m = (delta**2 + (a + b) ** 2) * (delta**2 + (a - b) ** 2)
        log_term = delta / m * np.log(((c - delta) ** 2 + b * b) / ((c + delta) ** 2 + b * b))
        # arctan(a / c) = pi/2 - arctan(c / a) without the cancellation for c >> a
        near_term = (delta**2 + b * b - a * a) / (m * a) * 2.0 * np.arctan(a / c)
        far_term = (delta**2 + a * a - b * b) / (m * b) * (
            PI - np.arctan((c - delta) / b) - np.arctan((c + delta) / b)
        )
        mass = a * b / PI**2 * (log_term + near_term + far_term)
        out = np.where(delta > 0.0, steps * mass / net_rotation_density(delta, gamma), 1.0)
    return float(out) if out.ndim == 0 else out


def _discarded_winding_mass(spec: PathSpec, rotations: np.ndarray) -> float:
    """Share of the endpoint weight outside the kept `rotations`, against the
    closed-form sum over all windings of both families."""
    d0 = float(spec.theta2) - float(spec.theta1)
    full = periodized_cauchy(d0, spec.gamma) + periodized_cauchy(d0 + HALF_PI, spec.gamma)
    kept = float(np.sum(net_rotation_density(rotations, spec.gamma)))
    return max(0.0, 1.0 - kept / full)


def expected_net_dominance(spec: PathSpec, threshold: float = 0.99) -> DominancePrediction:
    """Expected share of `sample_bridges(spec, ...)` paths whose largest
    |increment| exceeds threshold * |net rotation| (the quantity
    `dominant_kick_stats(...).net_dominance > threshold` estimates).

    Averages `net_dominance_given_rotation` over the same truncated winding
    weights the sampler draws endpoints from.  That average counts kicks,
    not paths, so it over-counts paths with two kicks beyond the threshold.
    For threshold > 1/2 these need opposite signs, x > (1 + threshold)|delta|
    and y = delta - x; summing the Cauchy tails a^2 / (pi^2 x^2 y^2) over the
    steps * (steps - 1) ordered pairs of kicks and dividing by
    C_gamma(delta) gives, to leading order in gamma/|delta|,

        (1 - 1/steps) gamma / (pi |delta|) * (1/u + 1/(u - 1) - 2 log(u / (u - 1))),
        u = 1 + threshold,

    which is reported as `overcount` together with the discarded winding mass.
    The prediction covers every path; `dominant_kick_stats` can exclude one
    only if its |net rotation| is below DOMINANCE_FLOOR * gamma, so the two
    agree whenever no winding lies that close to 0.
    """
    if threshold <= 0.5:
        raise ValueError("threshold must exceed 1/2 (two same-sign kicks could both exceed it)")
    rotations, weights = endpoint_targets(spec)
    per_winding = net_dominance_given_rotation(rotations, spec.gamma, spec.steps, threshold)
    value = float(np.sum(weights * per_winding))

    u = 1.0 + threshold
    two_kick = 1.0 / u + 1.0 / (u - 1.0) - 2.0 * math.log(u / (u - 1.0))
    delta = np.abs(rotations)
    with np.errstate(divide="ignore"):
        pair = np.where(
            delta > 0.0, (1.0 - 1.0 / spec.steps) * spec.gamma * two_kick / (PI * delta), 0.0
        )
    # a share of paths cannot be over-counted by more than the count itself
    overcount = float(np.sum(weights * np.minimum(pair, per_winding)))
    return DominancePrediction(
        value=value,
        overcount=overcount,
        discarded_winding_mass=_discarded_winding_mass(spec, rotations),
    )
