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
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import HALF_PI, PI, PolAngle, RngStream, outcome_axes
from .qm import JointDist

#: Paths whose total absolute rotation is below this multiple of gamma have
#: no meaningful "collapse kick"; they are excluded from dominance ratios.
DOMINANCE_FLOOR = 1e-3

#: Windings |n| <= N_WINDINGS of each alignment family that bridge endpoints
#: are drawn from.  `endpoint_targets`, `sample_bridges` and
#: `expected_net_dominance` must share it for criterion 8's prediction to
#: describe the sampled paths.
N_WINDINGS = 200

#: Kicks per block in which `free_kick_sums` draws its (n, steps) kicks, as
#: max(1, KICK_BLOCK // steps) whole rows.  Every row sees the same
#: arithmetic in any block, so results do not depend on it.
KICK_BLOCK = 2**15

#: Paths per shard of a bridge ensemble (see `bridge_shards`).  The
#: conditional step's temporaries are shard vectors, whatever the ensemble
#: size.
BRIDGE_SHARD = 25_000

#: Windings |n| <= N_FAMILY_TERMS that `truncated_family_sum` sums term by
#: term before its integral tails.
N_FAMILY_TERMS = 10_000

#: Share of the net rotation the largest kick must exceed to count as the
#: single dominant kick, in criterion 8 and the schulman-paths report.
DOMINANCE_THRESHOLD = 0.99

#: Proposal rounds a conditional step may take before it raises
#: `BridgeSamplingError`.  A round accepts a pending path with probability
#: pi Q_min C_{d1+d2}(r) (see `_conditional_step`), monotone in r^2, from
#: 1 - t / (1 + t^2) at r = 0 (t = sqrt(d1 / d2)) to
#: (d1 + d2) / (sqrt(d1) + sqrt(d2))^2 as |r| -> infinity.  Both bounds are
#: >= 1/2, so a path survives 64 rounds with probability at most 2**-64, at
#: every gamma.
MAX_ROUNDS = 64


class BridgeSamplingError(RuntimeError):
    """Rejection sampler exhausted its retry budget."""


@dataclass(frozen=True)
class PathSpec:
    """Boundary-conditioned kick history description.

    The endpoint is constrained modulo pi/2: the path ends in either the
    theta2 family or the theta2 + pi/2 family, with winding number free.
    The samplers are exact wherever gamma / steps is a normal float and
    gamma * `_LARGEST_CAUCHY` is finite (gamma up to about 1.1e292).
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
        if self.step_width < sys.float_info.min:
            # subnormal widths overflow the conditional step's 1 / width terms
            raise ValueError(
                f"step width gamma / steps = {self.step_width!r} is below the "
                f"smallest normal float, {sys.float_info.min!r}"
            )
        if not math.isfinite(self.gamma * _LARGEST_CAUCHY):
            # a bridge proposal or free kick of width up to gamma would overflow
            raise ValueError(
                f"gamma = {self.gamma!r} times the largest Cauchy variate, "
                f"{_LARGEST_CAUCHY!r}, overflows: gamma must be at most about 1.1e292"
            )
        object.__setattr__(self, "theta1", PolAngle(self.theta1))
        object.__setattr__(self, "theta2", PolAngle(self.theta2))

    @property
    def step_width(self) -> float:
        return self.gamma / self.steps


def truncated_family_sum(delta_theta: float) -> float:
    """Direct winding sum over |n| <= N_FAMILY_TERMS plus an integral tail.

    The tail of sum_{|n| > N} 1/(x + n*pi)^2 is approximated by the
    midpoint-rule integral 1/(pi*(x + (N + 1/2)*pi)) on each side,
    accurate to O(N^-3).
    """
    n = np.arange(-N_FAMILY_TERMS, N_FAMILY_TERMS + 1)
    edge = (N_FAMILY_TERMS + 0.5) * PI
    return float(np.sum(1.0 / (delta_theta + n * PI) ** 2)) + (
        1.0 / (PI * (edge + delta_theta)) + 1.0 / (PI * (edge - delta_theta))
    )


def periodized_cauchy(x, gamma: float):
    """sum_n Cauchy_gamma(x + n*pi): the pi-wrapped Cauchy density.

    Closed form sinh(2*gamma) / (pi * (cosh(2*gamma) - cos(2*x))), evaluated
    as sinh(gamma)*cosh(gamma) / (pi * (sinh(gamma)^2 + sin(x)^2)) to avoid
    the cancellation near the peak for small gamma; integrates to 1 over one
    period [0, pi).

    Where pi * sinh(gamma)^2 overflows (gamma > 355.0) the density is 1/pi
    to within rounding.  Where sinh(gamma)^2 + sin(x)^2 is subnormal or 0
    (gamma and |sin(x)| below about 1.5e-154) numerator and denominator are
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
    underflow = den < sys.float_info.min
    if np.any(underflow):
        scale = np.maximum(sh, np.abs(sin_x))
        rel_sh, rel_sin = sh / scale, sin_x / scale
        rescaled = rel_sh * math.cosh(gamma) / (PI * scale * (rel_sh**2 + rel_sin**2))
        out = np.where(underflow, rescaled, out)
    return float(out) if out.ndim == 0 else out


def single_photon_outcome_prob(theta1: float, theta2: float, gamma: float) -> float:
    """Probability that the photon aligns with the second polarizer.

    The aligned family's share of the wrapped Cauchy endpoint weight is
    (sinh(gamma)^2 + cos^2 d) / cosh(2 gamma), d = theta2 - theta1: Malus'
    law mixed with a fair coin in proportion 1 - sech(2 gamma).  It is taken
    as (expm1(-2 gamma)^2 / 2 + 2 t cos^2 d) / (1 + t^2), t = exp(-2 gamma),
    a sum of positive terms, so gamma = 0 and a subnormal gamma give cos^2 d
    bit for bit and a large gamma gives 1/2.
    """
    if gamma < 0.0:
        raise ValueError("gamma must be >= 0")
    t = math.exp(-2.0 * gamma)
    malus = math.cos(float(theta2) - float(theta1)) ** 2
    return (0.5 * math.expm1(-2.0 * gamma) ** 2 + 2.0 * t * malus) / (1.0 + t * t)


# ---------------------------------------------------------------------------
# Two-photon model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoPhotonResult:
    """Joint outcome distribution and hidden-angle posterior on a grid."""

    joint: JointDist
    a: PolAngle
    b: PolAngle
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
        mass = self.posterior_mass
        out = {}
        for atom in (*outcome_axes(self.a), *outcome_axes(self.b)):
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
    p = single_photon_outcome_prob(a, b, 2 * gamma), whose correlator 2 p - 1
    is cos(2 (a - b)) sech(4 gamma).
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    p = single_photon_outcome_prob(a, b, 2.0 * gamma)
    return JointDist(0.5 * p, 0.5 * (1.0 - p), 0.5 * (1.0 - p), 0.5 * p)


def two_photon_joint(a: float, b: float, gamma: float) -> TwoPhotonResult:
    """Two entangled photons sharing an unknown initial polarization.

    Both kick histories start at the common hidden angle lambda (flat base
    measure on [0, pi)) and end in the family selected by each outcome.
    The weight of a configuration is the product of the two wrapped-Cauchy
    family weights; normalizing over (lambda, A, B) on the grid yields the
    lambda posterior.  The joint is `two_photon_outcome_joint`, exact; the
    grid is needed only for the posterior.  It has 8 points per gamma width,
    max(64, ceil(8 pi / gamma)) in all.  A grid whose size is not finite
    (gamma below about 1.4e-307) or that numpy refuses to allocate (2.5e14
    points at gamma = 1e-13) raises ValueError naming the grid.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    cells = 8 * PI / gamma
    if not math.isfinite(cells):
        raise ValueError(f"lambda grid of 8 pi / gamma points is not finite at gamma = {gamma!r}")
    points = max(64, math.ceil(cells))
    spacing = PI / points
    a = PolAngle(a)
    b = PolAngle(b)
    try:
        lam = (np.arange(points) + 0.5) * spacing
        mass = np.empty((2, 2, points))
    except (ValueError, MemoryError):  # numpy's refusals to allocate
        raise ValueError(
            f"lambda grid of {cells:.3g} points cannot be allocated at gamma = {gamma!r}"
        ) from None
    # each photon's family weight per outcome, in the order of OUTCOMES
    w2 = [periodized_cauchy(lam - t, gamma) for t in outcome_axes(b)]
    for i, t in enumerate(outcome_axes(a)):
        w1 = periodized_cauchy(lam - t, gamma)
        for j, w in enumerate(w2):
            mass[i, j] = w1 * w * spacing
    mass /= mass.sum()
    return TwoPhotonResult(
        joint=two_photon_outcome_joint(a, b, gamma),
        a=a,
        b=b,
        lam=lam,
        mass_by_outcome=mass,
    )


# ---------------------------------------------------------------------------
# Bridge sampling
# ---------------------------------------------------------------------------


def _winding_weights(spec: PathSpec) -> tuple[np.ndarray, np.ndarray, float]:
    """Rotations x of both families' windings |n| <= N_WINDINGS, their weights
    1 / (x^2 + gamma^2) in units of m = max(min |x|, gamma), and m.  The
    nearest winding weighs 1/2 to 1; a far one, (x / m)^2 overflowing, 0."""
    d0 = float(spec.theta2) - float(spec.theta1)
    n = np.arange(-N_WINDINGS, N_WINDINGS + 1)
    rotations = np.concatenate([d0 + n * PI, d0 + HALF_PI + n * PI])
    unit = max(float(np.min(np.abs(rotations))), spec.gamma)
    with np.errstate(over="ignore"):
        x = rotations / unit
        weights = 1.0 / (x * x + (spec.gamma / unit) ** 2)
    return rotations, weights, unit


def endpoint_targets(spec: PathSpec) -> tuple[np.ndarray, np.ndarray]:
    """Candidate net rotations and their normalized Cauchy weights.

    Targets enumerate both alignment families and windings |n| <= N_WINDINGS;
    their `_winding_weights` are renormalized over the kept windings.  The
    discarded share is about sin^2(2 * dtheta) / (pi^2 * N_WINDINGS) for
    gamma << 1 (2.5e-4 at dtheta = pi/8), and approaches
    2 * gamma / (pi^2 * N_WINDINGS) once gamma is of order 1 (1.0e-3 at
    gamma = 1); `DominancePrediction` and the schulman-paths report give it
    exactly as `discarded_winding_mass`.
    """
    rotations, weights, _ = _winding_weights(spec)
    return rotations, weights / weights.sum()


def _cauchy_by_inversion(v: np.ndarray) -> np.ndarray:
    """Standard Cauchy variates from uniforms v on [0, 1], in place, by
    inversion of the CDF: z = tan(pi (v - 1/2)) (L. Devroye, Non-Uniform
    Random Variate Generation, 1986, section 2.1).

    The result is finite for every v in [0, 1]: at v = 0 it is
    tan(-pi/2 rounded) = -1.6e16.  Rounding pi (v - 1/2) by about 1e-16
    gives the tails a relative error of about 1e-16 |z|, 1e-10 at |z| = 1e6.
    """
    v -= 0.5
    v *= PI
    return np.tan(v, out=v)


#: The largest |z| `_cauchy_by_inversion` returns, |tan(-pi/2)| = 1.6e16 at
#: v = 0.  `PathSpec` refuses a gamma whose product with it overflows.
_LARGEST_CAUCHY = float(-_cauchy_by_inversion(np.zeros(1))[0])


def _conditional_step(
    residual: np.ndarray, d1: float, d2: float, gen: np.random.Generator
) -> np.ndarray:
    """Draw one increment per path from f(e) ~ C_d1(e) * C_d2(residual - e).

    Exact rejection sampling.  Proposal: the mixture
    g(e) = w C_d1(e) + (1 - w) C_d2(r - e), w = sqrt(d2) / (sqrt(d1) + sqrt(d2)).
    One uniform u per proposal picks the component (u < w) and, rescaled
    within it to v = u / w or (u - w) / (1 - w), gives the Cauchy variate by
    `_cauchy_by_inversion`; a second uniform u' decides acceptance.  g / f is
    pi Q(e) for a quadratic Q whose minimum Q_min lies at e = (1 - w) r, and
    e is accepted with probability Q_min / Q(e), that is when

        u' (e - (1 - w) r)^2 <= (1 - u') K,  K = w (1 - w) r^2 + (1 - w) d2^2 + w d1^2,

    u' Q <= Q_min multiplied through by sqrt(d1 d2).  Both sides are taken
    per path in units of s = max(|r|, d2), where each term is at most of
    order z^2 for the Cauchy variate z, so the test is exact at any widths.
    The acceptance rate is pi Q_min C_{d1+d2}(r): (d1 + d2) / (sqrt(d1) + sqrt(d2))^2
    for |r| >> d2, between 1/2 (equal widths) and 1 (one width dominant),
    against exactly 1/2 for an equal mixture.

    Every path is pending in the first round, which therefore works on whole
    arrays; later rounds gather the rejected paths' terms.
    """
    w = math.sqrt(d2) / (math.sqrt(d1) + math.sqrt(d2))
    inv_s = 1.0 / np.maximum(np.abs(residual), d2)
    # K / s^2 = w (1 - w) (r / s)^2 + ((1 - w) + w (d1 / d2)^2) (d2 / s)^2
    bound = w * (1.0 - w) * np.square(residual * inv_s)
    bound += ((1.0 - w) + w * (d1 / d2) ** 2) * np.square(d2 * inv_s)

    def propose(r, inv_s, bound) -> tuple[np.ndarray, np.ndarray]:
        """One proposal e per residual in r, and whether it is rejected."""
        u = gen.random(r.size)
        from_d1 = u < w
        v = np.where(from_d1, u / w, (u - w) / (1.0 - w))
        z = _cauchy_by_inversion(v)
        eps = np.where(from_d1, d1 * z, r + d2 * z)
        t = np.multiply(r, 1.0 - w, out=v)
        np.subtract(eps, t, out=t)
        t *= inv_s
        t *= t
        u = gen.random(r.size)
        t *= u
        np.subtract(1.0, u, out=u)
        u *= bound
        return eps, t > u

    out, rejected = propose(residual, inv_s, bound)
    todo = np.flatnonzero(rejected)
    for _ in range(MAX_ROUNDS - 1):
        if todo.size == 0:
            break
        eps, rejected = propose(residual[todo], inv_s[todo], bound[todo])
        # a rejected entry is overwritten in a later round; integer indexing
        # is cheaper here than scattering through the boolean mask
        out[todo] = eps
        todo = todo[rejected]
    if todo.size:
        raise BridgeSamplingError("conditional increment sampling stalled")
    return out


@dataclass(frozen=True)
class BridgeKicks:
    """Per-path kick summaries of a bridge ensemble, all that the dominance
    statistics and the endpoint check read from a path."""

    theta1: float
    steps: int
    #: theta1 + net rotation, bit-equal to theta1 + an `endpoint_targets` rotation
    endpoints: np.ndarray = field(repr=False)
    #: largest |increment|
    largest: np.ndarray = field(repr=False)
    #: step of the first largest |increment|, in [0, steps)
    kick_step: np.ndarray = field(repr=False)
    #: sum of |increment| in step order
    total: np.ndarray = field(repr=False)


def sample_bridges(spec: PathSpec, n_paths: int, rng: RngStream) -> BridgeKicks:
    """Sample n_paths boundary-conditioned kick paths, reduced as they are drawn.

    The endpoint (alignment family and winding) is drawn first from the
    normalized net-rotation weights; increments are then drawn from their
    exact conditional densities given the remaining rotation and remaining
    Cauchy width, and the last increment is the rotation left.  Each step's
    increments are folded into per-path running values as soon as they are
    drawn, so memory is a few vectors of n_paths whatever `steps` is.  A tie
    for the largest |increment| goes to the earlier step, as in `np.argmax`.

    The paths are drawn in the shards of `bridge_shards`, shard i from
    rng.substream(i).  Each step may take MAX_ROUNDS proposal rounds before
    it raises `BridgeSamplingError`, which names the shard and the step.
    """
    theta1 = float(spec.theta1)
    steps = spec.steps
    d_step = spec.step_width
    rotations, weights = endpoint_targets(spec)
    endpoints = np.empty(n_paths)
    largest = np.zeros(n_paths)
    kick_step = np.zeros(n_paths, dtype=np.intp)
    total = np.zeros(n_paths)
    start = 0
    for index, (size, shard_rng) in enumerate(bridge_shards(n_paths, rng)):
        rows = slice(start, start + size)
        start += size
        gen = shard_rng.generator
        residual = rotations[gen.choice(rotations.size, size=size, p=weights)]
        endpoints[rows] = theta1 + residual
        # views of this shard's rows, updated in place
        shard_largest, shard_step, shard_total = largest[rows], kick_step[rows], total[rows]
        for step in range(steps):
            if step == steps - 1:
                eps = residual
            else:
                remaining_width = (steps - 1 - step) * d_step
                try:
                    eps = _conditional_step(residual, d_step, remaining_width, gen)
                except BridgeSamplingError as exc:
                    raise BridgeSamplingError(
                        f"{exc} in bridge shard {index}"
                        f" (step {step}, {MAX_ROUNDS} proposal rounds)"
                    ) from None
                residual -= eps
            np.abs(eps, out=eps)  # eps is already taken off the residual
            shard_total += eps
            np.copyto(shard_step, step, where=eps > shard_largest)
            np.maximum(shard_largest, eps, out=shard_largest)
    return BridgeKicks(theta1, steps, endpoints, largest, kick_step, total)


def bridge_shards(n_paths: int, rng: RngStream) -> list[tuple[int, RngStream]]:
    """Split an ensemble of n_paths bridges into shards of BRIDGE_SHARD paths.

    Returns (size, stream) per shard: shard i holds paths
    [i * BRIDGE_SHARD, (i + 1) * BRIDGE_SHARD), cut short at n_paths, and
    `sample_bridges` draws it from rng.substream(i).  The split depends on
    n_paths alone.
    """
    return [
        (min(BRIDGE_SHARD, n_paths - start), rng.substream(i))
        for i, start in enumerate(range(0, n_paths, BRIDGE_SHARD))
    ]


def free_kick_sums(gamma: float, steps: int, n: int, rng: RngStream) -> np.ndarray:
    """Unconditioned sums of `steps` iid Cauchy(gamma/steps) kicks.

    By Cauchy stability these are distributed as Cauchy(gamma); used as
    the stability check against the Cauchy(gamma) law.  The kicks are
    uniforms turned into Cauchy variates in place by `_cauchy_by_inversion`,
    drawn max(1, KICK_BLOCK // steps) rows at a time in the stream order of
    one (n, steps) draw, then scaled and summed in place, so at most
    KICK_BLOCK kicks, or one row of them, are held and the sums do not
    depend on KICK_BLOCK.
    """
    gen = rng.generator
    out = np.empty(n)
    block = max(1, KICK_BLOCK // steps)
    for start in range(0, n, block):
        rows = min(block, n - start)
        kicks = _cauchy_by_inversion(gen.random((rows, steps)))
        kicks *= gamma / steps
        kicks.sum(axis=1, out=out[start : start + rows])
    return out


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


def dominant_kick_stats(bridges: BridgeKicks, gamma: float) -> KickStats:
    """Dominance statistics of a bridge ensemble.

    Paths with total absolute increment below DOMINANCE_FLOOR * gamma have
    no collapse kick (aligned boundaries) and are excluded from ratios.
    """
    if bridges.endpoints.size == 0:
        raise ValueError("empty path collection")
    net = np.abs(bridges.endpoints - bridges.theta1)
    defined = bridges.total >= DOMINANCE_FLOOR * gamma
    largest = bridges.largest[defined]
    with np.errstate(invalid="ignore", divide="ignore"):
        net_dom = largest / net[defined]
    return KickStats(
        kick_time_histogram=np.bincount(bridges.kick_step[defined], minlength=bridges.steps),
        dominance_fraction=largest / bridges.total[defined],
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


def net_dominance_given_rotation(delta, gamma: float, steps: int):
    """Expected number of increments with |e| > DOMINANCE_THRESHOLD * |delta|
    in a bridge of `steps` Cauchy kicks (total width gamma) whose net
    rotation is delta.

    The increments are exchangeable, each distributed as
    C_a(e) C_b(delta - e) / C_gamma(delta) with a = gamma/steps and
    b = gamma - a, so the count is steps times that density's mass beyond
    +-c, c = DOMINANCE_THRESHOLD * |delta|.  By partial fractions, with
    d = |delta|, q = d^2 + (b - a)^2 and L = log1p(-4 c d / ((c + d)^2 + b^2)),
    it is

        [b d L / q + (steps - 1)(1 + 2 a (b - a) / q) 2 arctan(a / c)
         + (1 - 2 b (b - a) / q)(pi - arctan((c - d) / b) - arctan((c + d) / b))] / pi,

    taken with every length in units of max(d, gamma), where no term exceeds
    order 1.  q is 0 only at two steps (b = a) and d below about 1e-154 gamma,
    where the terms over q vanish.  A single step, or a net rotation of
    exactly 0 (the ratio is infinite), counts as 1.  Leading order in
    gamma/|delta| is 1/2 + arctan((1 - DOMINANCE_THRESHOLD) |delta| / gamma) / pi.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    delta = np.abs(np.asarray(delta, dtype=float))
    if steps == 1:
        out = np.ones_like(delta)
        return float(out) if out.ndim == 0 else out
    unit = np.maximum(delta, gamma)
    d = delta / unit
    a = gamma / steps / unit
    b = (gamma - gamma / steps) / unit
    c = DOMINANCE_THRESHOLD * d
    q = d * d + (b - a) ** 2

    def over_q(x):  # 0 where q = 0, as b - a = 0 there and x vanishes with d
        return np.divide(x, q, out=np.zeros_like(q), where=q > 0.0)

    log_term = over_q(b * d * np.log1p(-4.0 * c * d / ((c + d) ** 2 + b * b)))
    # the ratios reach +-inf, whose arctan is exact, at delta = 0 or a tiny b
    with np.errstate(divide="ignore", over="ignore"):
        # arctan(a / c) = pi/2 - arctan(c / a) without the cancellation for c >> a
        near = 2.0 * np.arctan(a / c)
        far = PI - np.arctan((c - d) / b) - np.arctan((c + d) / b)
    count = log_term + (steps - 1) * (1.0 + over_q(2.0 * a * (b - a))) * near
    count += (1.0 - over_q(2.0 * b * (b - a))) * far
    out = np.where(delta > 0.0, count / PI, 1.0)
    return float(out) if out.ndim == 0 else out


def discarded_winding_mass(spec: PathSpec) -> float:
    """Share of the endpoint weight that `endpoint_targets` leaves out beyond
    its winding cut-off.  Both families form one lattice x + m pi/2, whose
    Cauchy weights sum to 2 `periodized_cauchy`(2 x, 2 gamma), taken at the
    lattice's own nearest rotation x."""
    rotations, weights, unit = _winding_weights(spec)
    nearest = float(rotations[np.argmin(np.abs(rotations))])
    full = 2.0 * periodized_cauchy(2.0 * nearest, 2.0 * spec.gamma)
    # sum of gamma / (pi (x^2 + gamma^2)) from the weights in units of `unit`
    kept = spec.gamma / unit * float(np.sum(weights)) / (PI * unit)
    return max(0.0, 1.0 - kept / full)


def expected_net_dominance(spec: PathSpec) -> DominancePrediction:
    """Expected share of `sample_bridges(spec, ...)` paths whose largest
    |increment| exceeds DOMINANCE_THRESHOLD * |net rotation| (the quantity
    `dominant_kick_stats(...).net_dominance > DOMINANCE_THRESHOLD` estimates).

    Averages `net_dominance_given_rotation` over the same truncated winding
    weights the sampler draws endpoints from.  That average counts kicks,
    not paths, so it over-counts paths with two kicks beyond the threshold.
    Because the threshold exceeds 1/2, two same-sign kicks cannot both pass
    it, so such pairs have opposite signs, x > (1 + threshold)|delta|
    and y = delta - x; summing the Cauchy tails a^2 / (pi^2 x^2 y^2) over the
    steps * (steps - 1) ordered pairs of kicks and dividing by
    C_gamma(delta) gives, to leading order in gamma/|delta|,

        (1 - 1/steps) gamma / (pi |delta|) * (1/u + 1/(u - 1) - 2 log(u / (u - 1))),
        u = 1 + DOMINANCE_THRESHOLD,

    which is reported as `overcount` together with the discarded winding mass.
    The prediction covers every path; `dominant_kick_stats` can exclude one
    only if its |net rotation| is below DOMINANCE_FLOOR * gamma, so the two
    agree whenever no winding lies that close to 0.
    """
    rotations, weights = endpoint_targets(spec)
    per_winding = net_dominance_given_rotation(rotations, spec.gamma, spec.steps)
    value = float(np.sum(weights * per_winding))

    u = 1.0 + DOMINANCE_THRESHOLD
    two_kick = 1.0 / u + 1.0 / (u - 1.0) - 2.0 * math.log(u / (u - 1.0))
    delta = np.abs(rotations)
    # gamma before the division: one step gives 0, not 0 * inf, where gamma / delta overflows
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pair = np.where(
            delta > 0.0, (1.0 - 1.0 / spec.steps) * two_kick / PI * spec.gamma / delta, 0.0
        )
    # a share of paths cannot be over-counted by more than the count itself
    overcount = float(np.sum(weights * np.minimum(pair, per_winding)))
    return DominancePrediction(
        value=value,
        overcount=overcount,
        discarded_winding_mass=discarded_winding_mass(spec),
    )
