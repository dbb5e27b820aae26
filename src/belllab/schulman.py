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
from concurrent.futures import Executor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import HALF_PI, PI, PolAngle, RngStream, outcome_axes
from .qm import JointDist

#: Windings |n| <= N_WINDINGS of each alignment family that bridge endpoints
#: are drawn from.  Only `endpoint_targets` reads it: `sample_bridges`,
#: `expected_net_dominance` and the `schulman-paths` report take the windings
#: and the cut-off share from it, so criterion 8's prediction describes the
#: sampled paths.
N_WINDINGS = 200

#: Kicks per block in which `free_kick_sums` draws its (n, steps) kicks, as
#: max(1, KICK_BLOCK // steps) whole rows.  Every row sees the same
#: arithmetic in any block, so results do not depend on it.
KICK_BLOCK = 2**15

#: Paths per shard of a bridge ensemble (see `sample_bridges`).  The
#: conditional step's temporaries are shard vectors, whatever the ensemble
#: size.
BRIDGE_SHARD = 25_000

#: Windings |n| <= N_FAMILY_TERMS that `truncated_family_sum` sums term by
#: term before its integral tails.
N_FAMILY_TERMS = 10_000

#: Share of the net rotation the largest kick must exceed to count as the
#: single dominant kick, in criterion 8 and the schulman-paths report.
DOMINANCE_THRESHOLD = 0.99

#: Largest gamma / |delta|, delta the nearest target rotation, at which
#: `expected_net_dominance` predicts the dominance share.
DOMINANCE_DOMAIN = 0.1

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

    Closed form sinh(2 gamma) / (pi (cosh(2 gamma) - cos(2 x))), which in
    t = exp(-2 gamma) is (1 - t)(1 + t) / (pi ((1 - t)^2 + 4 t sin(x)^2));
    it integrates to 1 over one period [0, pi).  1 - t = -expm1(-2 gamma) is
    exact and the denominator a sum of positive terms, so nothing cancels
    near the peak at small gamma.  Every term is taken in units of
    max(1 - t, 2 sqrt(t) |sin x|), so no square underflows and nothing
    overflows: a large gamma gives 1/pi, every normal gamma full precision.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    t = math.exp(-2.0 * gamma)
    gap = -math.expm1(-2.0 * gamma)  # 1 - t
    near = 2.0 * math.exp(-gamma) * np.abs(np.sin(np.asarray(x, dtype=float)))
    unit = np.maximum(gap, near)
    rel_gap, rel_near = gap / unit, near / unit  # the larger is 1
    out = rel_gap * (1.0 + t) / (PI * unit * (rel_gap**2 + rel_near**2))
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
    """Joint outcome distribution and hidden-angle posterior in closed form."""

    joint: JointDist
    a: PolAngle
    b: PolAngle
    gamma: float

    def atom_window_masses(self, half_width: float) -> dict[float, float]:
        """Posterior mass within +-half_width (mod pi) of each delta-mixture atom.

        Exact: the reflection lambda -> a + b - lambda and the period pi/2 of
        the outcome-summed posterior give all four atoms one mass,
        `_atom_window_mass`.  Windows that overlap each count the shared mass.
        """
        mass = _atom_window_mass(float(self.b) - float(self.a), self.gamma, half_width)
        return {float(atom): mass for atom in (*outcome_axes(self.a), *outcome_axes(self.b))}

    # The grid below only cross-checks the closed forms: the tests compare
    # them, and perfbench/tracing.py reads its sizes.  It is built on first read.

    @cached_property
    def lam(self) -> np.ndarray:
        """Cell midpoints of a lambda grid on [0, pi) with 8 points per gamma
        width, max(64, ceil(8 pi / gamma)) in all."""
        points = max(64, math.ceil(8 * PI / self.gamma))
        return (np.arange(points) + 0.5) * (PI / points)

    @cached_property
    def mass_by_outcome(self) -> np.ndarray:
        """Posterior mass per cell of `lam`, by outcome pair, shape (2, 2, M);
        index 0 = +1, index 1 = -1 on each axis.  Sums to 1 overall."""
        lam = self.lam
        spacing = PI / lam.size
        mass = np.empty((2, 2, lam.size))
        # each photon's family weight per outcome, +1 (aligned) first
        w2 = [periodized_cauchy(lam - t, self.gamma) for t in outcome_axes(self.b)]
        for i, t in enumerate(outcome_axes(self.a)):
            w1 = periodized_cauchy(lam - t, self.gamma)
            for j, w in enumerate(w2):
                mass[i, j] = w1 * w * spacing
        mass /= mass.sum()
        return mass


def _atom_window_mass(separation: float, gamma: float, half_width: float) -> float:
    """Posterior mass of `two_photon_joint` within +-half_width (mod pi) of
    one atom, for settings `separation` = b - a apart.

    Summed over outcomes, each photon's family weights form one pi/2-lattice,
    2 `periodized_cauchy`(2 x, 2 gamma).  In theta = 4 lambda the posterior is
    P(theta - alpha) P(theta - beta) / (4 pi P2(delta)), with the Poisson
    kernel P(u) = (1 - r^2) / (1 - 2 r cos u + r^2) at r = exp(-4 gamma), P2
    the kernel at r^2, alpha = 4 a and delta = beta - alpha = 4 (b - a).  By
    partial fractions, with Q(u) = 2 r sin u / (1 - 2 r cos u + r^2),

        P(u) P(u - delta) = P2(delta) / 2 * [P(u) + P(u - delta)
                            + tanh(4 gamma) cot(delta / 2) (Q(u) - Q(u - delta))],

    and P, Q integrate to F(u) = 2 arctan(tan(u / 2) / tanh(2 gamma)) and
    ln D(u), D(u) = tanh(2 gamma)^2 + sech(2 gamma)^2 sin(u / 2)^2, up to
    constants.  The window is u in [-w, w], w = 4 half_width, so its mass is

        [2 F(w) + F(w + delta) + F(w - delta)
         + tanh(4 gamma) cot(delta / 2) ln(D(w + delta) / D(w - delta))] / (8 pi).

    No term can overflow or lose its scale.  F is the atan2 of sin(u / 2)
    against tanh(2 gamma) cos(u / 2), exact down to a subnormal gamma.  The
    log ratio is log1p(z), z = sech(2 gamma)^2 sin w sin delta / D(w - delta),
    with D(w - delta) taken in units of the larger of tanh(2 gamma) and
    sech(2 gamma) |sin((w - delta) / 2)|.  Where z <= 1, cot(delta / 2)
    log1p(z) is written as
    2 cos(delta / 2)^2 sech(2 gamma)^2 sin w / D(w - delta) * log1p(z) / z,
    which has the finite limit at coinciding poles (delta -> 0: a = b or
    a perpendicular to b) that the raw cot(delta / 2) lacks; where z > 1 the
    two logs differ by more than ln 2 and are subtracted directly.  delta is
    taken mod 2 pi, folded into [0, pi], which leaves the mass unchanged.

    A window beyond pi/4 is 1 minus the window of half-width
    pi/2 - half_width around the atom's perpendicular, its complement (empty
    from pi/2 on, so such a window has mass 1), which keeps w + delta within
    the one turn where the atan2 form of F is continuous.
    """
    if not half_width > 0.0:  # a window with no interval in it
        return 0.0
    if half_width > PI / 4:
        return 1.0 - _atom_window_mass(separation, gamma, HALF_PI - half_width)
    d = separation % HALF_PI
    delta = 4.0 * min(d, HALF_PI - d)
    w = 4.0 * half_width
    tau = math.tanh(2.0 * gamma)
    decay = math.exp(-2.0 * gamma)
    sech = 2.0 * decay / (1.0 + decay * decay)
    tanh_4 = 2.0 * tau / (1.0 + tau * tau)

    def arc(u: float) -> float:  # F(u), continuous on [-2 pi, 2 pi]
        return 2.0 * math.atan2(math.sin(0.5 * u), tau * math.cos(0.5 * u))

    near = sech * math.sin(0.5 * (w - delta))  # D(w - delta) = tau^2 + near^2
    unit = max(tau, abs(near))
    scale = (tau / unit) ** 2 + (near / unit) ** 2  # D(w - delta) / unit^2, in [1, 2]
    slope = sech * sech * math.sin(w) / unit / scale
    z = slope * math.sin(delta) / unit
    if z <= 1.0:
        log1p_ratio = math.log1p(z) / z if z > 0.0 else 1.0
        log_term = 2.0 * math.cos(0.5 * delta) ** 2 * (tanh_4 / unit) * slope * log1p_ratio
    else:  # no cancellation in the log ratio, and delta > 0
        far = sech * math.sin(0.5 * (w + delta))
        log_term = 2.0 * tanh_4 / math.tan(0.5 * delta) * (
            math.log(math.hypot(tau, far)) - math.log(math.hypot(tau, near))
        )
    return (2.0 * arc(w) + arc(w + delta) + arc(w - delta) + log_term) / (8.0 * PI)


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
    family weights; normalizing over (lambda, A, B) yields the lambda
    posterior.  The joint (`two_photon_outcome_joint`) and the posterior's
    atom windows (`TwoPhotonResult.atom_window_masses`) are closed forms,
    exact at every positive gamma with no lambda grid.
    """
    a = PolAngle(a)
    b = PolAngle(b)
    return TwoPhotonResult(joint=two_photon_outcome_joint(a, b, gamma), a=a, b=b, gamma=gamma)


# ---------------------------------------------------------------------------
# Bridge sampling
# ---------------------------------------------------------------------------


def endpoint_targets(spec: PathSpec) -> tuple[np.ndarray, np.ndarray, float]:
    """Candidate net rotations, their normalized Cauchy weights, and the share
    of the endpoint weight left out beyond the winding cut-off.

    Targets enumerate both alignment families and windings |n| <= N_WINDINGS.
    Their weights 1 / (x^2 + gamma^2), taken in units of
    m = max(min |x|, gamma) so that the nearest winding weighs 1/2 to 1 and a
    far one, (x / m)^2 overflowing, 0, are renormalized over the kept
    windings.  The discarded share is exact: both families form one lattice
    x + m pi/2, whose Cauchy weights sum to 2 `periodized_cauchy`(2 x, 2 gamma),
    taken at the lattice's own nearest rotation x.  It is about
    sin^2(2 * dtheta) / (pi^2 * N_WINDINGS) for gamma << 1 (2.5e-4 at
    dtheta = pi/8), and approaches 2 * gamma / (pi^2 * N_WINDINGS) once gamma
    is of order 1 (1.0e-3 at gamma = 1).
    """
    d0 = float(spec.theta2) - float(spec.theta1)
    n = np.arange(-N_WINDINGS, N_WINDINGS + 1)
    rotations = np.concatenate([d0 + n * PI, d0 + HALF_PI + n * PI])
    nearest = float(rotations[np.argmin(np.abs(rotations))])
    unit = max(abs(nearest), spec.gamma)
    with np.errstate(over="ignore"):
        x = rotations / unit
        weights = 1.0 / (x * x + (spec.gamma / unit) ** 2)
    kept_weight = weights.sum()
    full = 2.0 * periodized_cauchy(2.0 * nearest, 2.0 * spec.gamma)
    # sum of gamma / (pi (x^2 + gamma^2)) from the weights in units of `unit`
    kept = spec.gamma / unit * float(kept_weight) / (PI * unit)
    return rotations, weights / kept_weight, max(0.0, 1.0 - kept / full)


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

    steps: int
    #: signed net rotation, bit-equal to an `endpoint_targets` rotation
    rotations: np.ndarray = field(repr=False)
    #: largest |increment|
    largest: np.ndarray = field(repr=False)
    #: step that holds the largest |increment|, in [0, steps), or -1 where
    #: two or more steps share it (an all-zero path included)
    kick_step: np.ndarray = field(repr=False)
    #: sum of |increment| in step order
    total: np.ndarray = field(repr=False)


def sample_bridges(spec: PathSpec, n_paths: int, rng: RngStream,
                   executor: Executor | None = None) -> BridgeKicks:
    """Sample n_paths boundary-conditioned kick paths, reduced as they are drawn.

    The endpoint (alignment family and winding) is drawn first from the
    normalized net-rotation weights; increments are then drawn from their
    exact conditional densities given the remaining rotation and remaining
    Cauchy width, and the last increment is the rotation left.  Each step's
    increments are folded into per-path running values as soon as they are
    drawn, so memory is a few vectors of n_paths whatever `steps` is.  A path
    whose largest |increment| is shared by two or more steps gets kick step -1.

    The paths are drawn in shards of BRIDGE_SHARD paths, the last cut short
    at n_paths: shard i holds rows [i * BRIDGE_SHARD, (i + 1) * BRIDGE_SHARD)
    and draws them from rng.substream(i), in order on the calling thread or
    as `executor` tasks with the same bits.  A step may take MAX_ROUNDS
    proposal rounds before it raises `BridgeSamplingError`, naming the step
    and the first failing shard.
    """
    steps = spec.steps
    d_step = spec.step_width
    targets, weights, _ = endpoint_targets(spec)
    rotations = np.empty(n_paths)
    largest = np.zeros(n_paths)
    kick_step = np.zeros(n_paths, dtype=np.intp)
    total = np.zeros(n_paths)

    def draw_shard(index: int, size: int) -> None:
        rows = slice(index * BRIDGE_SHARD, index * BRIDGE_SHARD + size)
        gen = rng.substream(index).generator
        residual = targets[gen.choice(targets.size, size=size, p=weights)]
        rotations[rows] = residual
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
            np.copyto(shard_step, -1, where=eps == shard_largest)
            np.copyto(shard_step, step, where=eps > shard_largest)
            np.maximum(shard_largest, eps, out=shard_largest)
    sizes = [min(BRIDGE_SHARD, n_paths - start) for start in range(0, n_paths, BRIDGE_SHARD)]
    list((executor.map if executor else map)(draw_shard, range(len(sizes)), sizes))
    return BridgeKicks(steps, rotations, largest, kick_step, total)


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
    #: paths left out because two or more steps share their largest |increment|
    excluded_paths: int
    #: share of counted paths whose max |increment| / |net rotation| exceeds
    #: DOMINANCE_THRESHOLD; None when no path is counted
    net_dominance_share: float | None
    #: q05, q50 and q95 of max |increment| / sum |increments| over the counted
    #: paths; None when no path is counted
    dominance_fraction_quantiles: dict[str, float] | None


def dominant_kick_stats(bridges: BridgeKicks) -> KickStats:
    """Dominance statistics over the paths one step of which holds the largest
    |increment|.  A bridge's increments are exchangeable, so that step is
    uniform over the flight and the kick-time histogram tests the sampler."""
    if bridges.rotations.size == 0:
        raise ValueError("empty path collection")
    counted = bridges.kick_step >= 0
    largest = bridges.largest[counted]
    share = quantiles = None
    if largest.size:
        with np.errstate(divide="ignore"):  # a zero net rotation counts as dominant
            net_dominance = largest / np.abs(bridges.rotations[counted])
        share = float(np.mean(net_dominance > DOMINANCE_THRESHOLD))
        fractions = np.quantile(largest / bridges.total[counted], (0.05, 0.50, 0.95))
        quantiles = dict(zip(("q05", "q50", "q95"), map(float, fractions)))
    return KickStats(
        kick_time_histogram=np.bincount(bridges.kick_step[counted], minlength=bridges.steps),
        excluded_paths=int(np.sum(~counted)),
        net_dominance_share=share,
        dominance_fraction_quantiles=quantiles,
    )


@dataclass(frozen=True)
class DominancePrediction:
    """Expected share of bridges whose largest kick exceeds a fraction of the
    net rotation, with an estimate of that expectation's error."""

    #: expected number of increments beyond the threshold, averaged over the
    #: sampler's winding weights; upper bound on the share of such paths
    value: float
    #: leading-order estimate of paths with two kicks beyond the threshold,
    #: by which `value` over-counts the share of paths.  An estimate, not a
    #: bound: at the gate spec's nearest winding it is 0.11% below the exact
    #: two-kick term, within its relative error of order gamma / |delta|
    overcount: float
    #: endpoint weight beyond the winding cut-off, discarded by `endpoint_targets`
    discarded_winding_mass: float

    @property
    def error_estimate(self) -> float:
        """Over-count estimate plus the largest shift the discarded windings could cause.

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


def expected_net_dominance(spec: PathSpec) -> DominancePrediction:
    """Expected share of `sample_bridges(spec, ...)` paths whose largest
    |increment| exceeds DOMINANCE_THRESHOLD * |net rotation| (the quantity
    `dominant_kick_stats(...).net_dominance_share` estimates).

    Averages `net_dominance_given_rotation` over the same truncated winding
    weights the sampler draws endpoints from.  That average counts kicks,
    not paths, so it over-counts paths with two kicks beyond the threshold.
    As the threshold exceeds 1/2, two same-sign kicks pass it together only
    if the other kicks offset their excess, which is of higher order; to
    leading order such pairs have opposite signs, x > (1 + threshold)|delta|
    and y = delta - x; summing the Cauchy tails a^2 / (pi^2 x^2 y^2) over the
    steps * (steps - 1) ordered pairs of kicks and dividing by
    C_gamma(delta) gives, to leading order in gamma/|delta|,

        (1 - 1/steps) gamma / (pi |delta|) * (1/u + 1/(u - 1) - 2 log(u / (u - 1))),
        u = 1 + DOMINANCE_THRESHOLD,

    which is reported as `overcount` together with the discarded winding mass.
    The prediction covers every path; `dominant_kick_stats` leaves out those
    whose largest kick two steps share, of probability zero except at one or
    two steps with a net rotation below an ulp of the kicks.  It refuses
    (`ValueError`) where that order no longer leads, gamma above
    DOMINANCE_DOMAIN * |delta| for the nearest target rotation delta (so
    always at delta = 0).
    """
    rotations, weights, discarded = endpoint_targets(spec)
    delta = np.abs(rotations)
    nearest = float(delta.min())
    if spec.gamma > DOMINANCE_DOMAIN * nearest:
        raise ValueError(f"gamma / |delta| = {spec.gamma:.6g} / {nearest:.6g} > {DOMINANCE_DOMAIN}")
    per_winding = net_dominance_given_rotation(rotations, spec.gamma, spec.steps)
    value = float(np.sum(weights * per_winding))

    u = 1.0 + DOMINANCE_THRESHOLD
    two_kick = 1.0 / u + 1.0 / (u - 1.0) - 2.0 * math.log(u / (u - 1.0))
    pair = (1.0 - 1.0 / spec.steps) * two_kick / PI * spec.gamma / delta
    overcount = float(np.sum(weights * pair))
    return DominancePrediction(value=value, overcount=overcount, discarded_winding_mass=discarded)
