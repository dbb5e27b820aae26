"""Hidden-variable models for the two-photon Bell experiment.

Every model supplies a (possibly setting-dependent) distribution for the
hidden polarization angle lambda together with one-sided outcome
probabilities, and the observable joint distribution is assembled through
the separability integral

    P(A, B) = integral dlam P(lam) * P(A | lam) * P(B | lam).

For every model here that integral is a finite sum over atoms or over
segments of a piecewise-constant density (`LambdaDistribution`), so joint
distributions are exact, with no quadrature.

Outcomes on the two sides are always drawn independently given lambda, so
lambda screens one wing from the other by construction.  The models that
reproduce quantum statistics do so by letting the lambda distribution
depend on both measurement settings.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .core import PI, PolAngle, RngStream, canonical_diff, outcome_axes
from .qm import JointDist


def _hall_plus(setting: float, lam: np.ndarray) -> np.ndarray:
    """Hall's deterministic outcome is +1: cos(2 setting - 2 lam) >= 0.  No
    double argument makes the cosine exactly 0, so `>` would give the same."""
    return np.cos(2.0 * (setting - np.asarray(lam, dtype=float))) >= 0.0


def _outcomes(plus: np.ndarray) -> np.ndarray:
    """+1 where ``plus`` is True and -1 elsewhere, as int8."""
    out = plus.view(np.int8) * np.int8(2)
    out -= 1
    return out


def hall_density(a: float, b: float, lam: np.ndarray | float) -> np.ndarray | float:
    """Setting-dependent hidden-angle density of the deterministic Hall model.

    Piecewise constant in lambda, between `hall_breakpoints`: one value where
    Hall's rule gives both sides the same outcome, another where it does not.
    A value on a set of measure zero is 0/0 and is given as 0.0: disagreement
    at a = b, and agreement at a perpendicular to b, which rounding reaches.
    """
    d = abs(canonical_diff(a, b))
    z = (2.0 / PI) * 2.0 * d
    c = math.cos(2.0 * d)
    den_same, den_diff = 1.0 + (1.0 - z), 1.0 - (1.0 - z)
    same = (1.0 + c) / (PI * den_same) if den_same else 0.0
    diff = (1.0 - c) / (PI * den_diff) if den_diff else 0.0
    return np.where(_hall_plus(a, lam) == _hall_plus(b, lam), same, diff)


def hall_breakpoints(a: float, b: float) -> tuple[float, ...]:
    """Interior discontinuity points of hall_density in [0, pi)."""
    pts = {
        (a + PI / 4.0) % PI,
        (a + 3.0 * PI / 4.0) % PI,
        (b + PI / 4.0) % PI,
        (b + 3.0 * PI / 4.0) % PI,
    }
    return tuple(sorted(p for p in pts if 0.0 < p < PI))


@dataclass(frozen=True)
class LambdaDistribution:
    """The hidden-angle distribution at one settings pair, in the finite form
    its separability integral sums exactly.

    Atoms (``edges`` is None): ``mass[i]`` sits on ``points[i]``.  Segments:
    ``mass[i]`` is spread uniformly over [edges[i], edges[i + 1]) and
    ``points[i]`` is that segment's midpoint, where outcome probabilities are
    evaluated.
    """

    points: np.ndarray
    mass: np.ndarray
    edges: np.ndarray | None = None

    def density_at(self, lam: np.ndarray) -> np.ndarray:
        """Segment density mass / length at each lam in [0, pi)."""
        index = np.searchsorted(self.edges, lam, side="right") - 1
        return (self.mass / np.diff(self.edges))[index]

    def sample(self, n: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
        """n hidden angles: an atom or segment by mass, then uniform within it.

        Returns ``(index, lams)``: ``index[i]`` is the atom or segment
        ``lams[i]`` was drawn from.
        """
        index = self.piece_index(n, rng)
        if self.edges is None:
            return index, self.points[index]
        lengths = np.diff(self.edges)
        return index, self.edges[index] + lengths[index] * rng.generator.random(n)

    def piece_index(self, n: int, rng: RngStream) -> np.ndarray:
        """n atom or segment indices drawn by mass, in the smallest unsigned dtype.

        The indices, and the stream position after them, are those of
        ``Generator.choice(mass.size, n, p=mass / mass.sum())``: one uniform
        per draw, and the number of CDF entries at or below it, which
        ``choice`` finds with ``searchsorted(cdf, u, side="right")``.  For a
        few pieces, adding ``u >= c`` per entry is faster.  The last entry,
        1.0, is never at or below u.
        """
        p = self.mass / self.mass.sum()
        cdf = p.cumsum()
        cdf /= cdf[-1]
        u = rng.generator.random(n)
        index = np.zeros(n, dtype=np.min_scalar_type(self.mass.size - 1))
        for c in cdf[:-1]:
            index += u >= c
        return index


class HiddenVariableModel(ABC):
    """Contract shared by all lambda-mediated models."""

    name: str

    # -- lambda distribution ------------------------------------------------

    @abstractmethod
    def lambda_distribution(self, a: float, b: float) -> LambdaDistribution:
        """The (a, b)-dependent hidden-angle distribution as atoms or segments."""

    @abstractmethod
    def sample_lambdas(
        self, a: float, b: float, n: int, rng: RngStream
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """Draw n hidden angles from the (a, b)-dependent distribution.

        Returns ``(index, lams)`` as `LambdaDistribution.sample` does where
        the outcome probabilities are constant on each atom or segment of
        ``lambda_distribution``, and ``(None, lams)`` where they are not.
        """

    # -- outcome model ------------------------------------------------------

    def outcome_prob(self, setting: float, lam: np.ndarray) -> np.ndarray:
        """P(outcome = +1 | setting, lam) on either side, vectorized over lam:
        Malus' law cos^2(setting - lam) unless a model states its own rule.
        A boolean rule gives the outcome itself, which `sample_outcomes`
        returns as is, drawing no uniforms."""
        return np.cos(setting - np.asarray(lam, dtype=float)) ** 2

    # -- derived ------------------------------------------------------------

    def joint_dist(self, a: float, b: float) -> JointDist:
        """Separability integral, summed exactly over the lambda distribution."""
        dist = self.lambda_distribution(a, b)
        p1 = self.outcome_prob(a, dist.points)
        p2 = self.outcome_prob(b, dist.points)
        # P(-1) = 1 - P(+1); the order is that of JointDist: ++, +-, -+, --
        probs = (
            float(np.sum(dist.mass * q1 * q2))
            for q1 in (p1, 1.0 - p1)
            for q2 in (p2, 1.0 - p2)
        )
        return JointDist(*probs).validate(atol=1e-9)

    def sample_outcomes(
        self, a: float, b: float, at: np.ndarray, rng: RngStream, index: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw whether A and B are +1 (booleans, one per run), independently
        given each lambda (screening).

        The outcome probabilities are evaluated at ``at``: each run's lambda,
        or with ``index`` (each run's atom or segment) the pieces' points,
        gathered onto the runs.  A run is +1 where its uniform falls below
        its probability, A's uniforms drawn before B's; a boolean rule is
        the outcome itself and draws none.
        """
        p1 = self.outcome_prob(a, at)
        p2 = self.outcome_prob(b, at)
        if index is not None:
            # np.take reads the uint8 index as it is; p1[index] first casts it to intp
            p1, p2 = np.take(p1, index), np.take(p2, index)
        if p1.dtype == bool:
            return p1, p2
        gen = rng.generator
        return gen.random(p1.size) < p1, gen.random(p2.size) < p2

    def count_disagreements(self, a: float, b: float, n: int, rng: RngStream) -> int:
        """How many of the n runs ``sample_runs(a, b, n, rng)`` draws have A != B.

        Draws what ``sample_runs`` draws, in order, except each lambda's
        position within its piece: the outcomes read only the piece's point.
        Skipping it moves no later draw: atoms have no position draw, and
        Hall's is the last, since a boolean rule draws no uniforms.  The
        local baseline, whose outcomes do read the position, overrides this.
        """
        dist = self.lambda_distribution(a, b)
        index = dist.piece_index(n, rng)
        a_plus, b_plus = self.sample_outcomes(a, b, dist.points, rng, index)
        return int(np.count_nonzero(a_plus != b_plus))

    def sample_runs(
        self, a: float, b: float, n: int, rng: RngStream
    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray, np.ndarray]:
        """n independent runs ``(index, lams, A, B)``, lambdas drawn first, A and
        B int8 (+-1); ``index`` is what `sample_lambdas` returned (None: local
        baseline)."""
        index, lams = self.sample_lambdas(a, b, n, rng)
        at = lams if index is None else self.lambda_distribution(a, b).points
        a_plus, b_plus = self.sample_outcomes(a, b, at, rng, index)
        return index, lams, _outcomes(a_plus), _outcomes(b_plus)


class DeltaMixtureModel(HiddenVariableModel):
    """Hidden angle aligned with one of the four detector axes.

    lambda is a, a + pi/2, b or b + pi/2 (mod pi) with probability 1/4
    each; coinciding atoms are merged.  Outcomes follow Malus' law.
    """

    name = "delta-mixture"

    def lambda_distribution(self, a, b):
        merged: dict[float, float] = {}
        for atom in (*outcome_axes(a), *outcome_axes(b)):
            merged[float(atom)] = merged.get(float(atom), 0.0) + 0.25
        atoms = np.array(sorted(merged))
        return LambdaDistribution(atoms, np.array([merged[x] for x in atoms]))

    def sample_lambdas(self, a, b, n, rng):
        return self.lambda_distribution(a, b).sample(n, rng)


class HallModel(HiddenVariableModel):
    """Deterministic-outcome model with an information-efficient lambda.

    The density trades the four delta atoms for a broad piecewise-constant
    distribution; outcomes are fixed by the sign of cos(2*setting - 2*lambda),
    so they are constant on each segment between the density's breakpoints.
    """

    name = "hall"

    def lambda_distribution(self, a, b):
        edges = np.array([0.0, *hall_breakpoints(a, b), PI])
        mids = 0.5 * (edges[:-1] + edges[1:])
        return LambdaDistribution(mids, hall_density(a, b, mids) * np.diff(edges), edges)

    def sample_lambdas(self, a, b, n, rng):
        return self.lambda_distribution(a, b).sample(n, rng)

    def outcome_prob(self, setting, lam):
        return _hall_plus(setting, lam)


class LocalBaselineModel(HiddenVariableModel):
    """Locally causal control model: uniform lambda, Malus outcomes.

    The lambda distribution ignores the settings, so this model obeys
    lambda-independence and its CHSH value is bounded by 2 (in fact the
    analytic correlator is cos(2a - 2b) / 2).
    """

    name = "local-baseline"

    def lambda_distribution(self, a, b):
        # Uniform lambda as three equal segments.  The midpoint sum is exact:
        # the Malus product is a trigonometric polynomial of degree 2 in
        # 2*lambda, which the three-point midpoint rule integrates exactly.
        edges = np.linspace(0.0, PI, 4)
        mids = 0.5 * (edges[:-1] + edges[1:])
        return LambdaDistribution(mids, np.full(3, 1.0 / 3.0), edges)

    def sample_lambdas(self, a, b, n, rng):
        # the three segments only make the exact sum finite; outcome
        # probabilities vary within them, so no piece index is returned
        return None, rng.generator.random(n) * PI

    def count_disagreements(self, a, b, n, rng):
        # outcome probabilities vary within a segment, so each run needs its lambda
        _, lams = self.sample_lambdas(a, b, n, rng)
        a_plus, b_plus = self.sample_outcomes(a, b, lams, rng, None)
        return int(np.count_nonzero(a_plus != b_plus))


def _box_input(side: int, setting: float, choices: tuple[PolAngle, PolAngle]) -> int:
    """The box input, 0 or 1, of one side's setting: its index in that side's
    two configured settings."""
    setting = PolAngle(setting)
    if setting not in choices:
        raise ValueError(f"side-{side} setting {float(setting)!r} not in the configured quadruple")
    return choices.index(setting)


class PRBoxModel:
    """Popescu-Rohrlich nonlocal box, saturating the algebraic CHSH maximum 4.

    There is no hidden mediator: outcomes are perfectly (anti)correlated
    directly.  Angle settings are mapped onto box inputs x, y in {0, 1} by
    matching against the configured CHSH quadruple (a, a', b, b'); the box
    anticorrelates exactly when x = y = 1.  Marginals stay uniform, so the
    box is signal-local despite being maximally Bell-violating.
    """

    name = "pr-box"

    def __init__(self, settings: tuple[float, float, float, float]) -> None:
        self.settings = tuple(PolAngle(s) for s in settings)
        for side, (x, y) in ((1, self.settings[:2]), (2, self.settings[2:])):
            if x == y:  # one angle could not stand for two box inputs
                raise ValueError(f"side-{side} settings coincide mod pi at {float(x)!r}")

    def box_inputs(self, a: float, b: float) -> tuple[int, int]:
        return _box_input(1, a, self.settings[:2]), _box_input(2, b, self.settings[2:])

    def joint_dist(self, a: float, b: float) -> JointDist:
        x, y = self.box_inputs(a, b)
        if x & y:
            return JointDist(0.0, 0.5, 0.5, 0.0)
        return JointDist(0.5, 0.0, 0.0, 0.5)

    def sample_runs(self, a, b, n, rng):
        x, y = self.box_inputs(a, b)
        a_out = _outcomes(rng.generator.random(n) < 0.5)
        b_out = -a_out if x & y else a_out.copy()
        return None, None, a_out, b_out

    def count_disagreements(self, a, b, n, rng):
        # the box anticorrelates exactly when x = y = 1, whatever its coin flips
        x, y = self.box_inputs(a, b)
        return n if x & y else 0


AnyModel = HiddenVariableModel | PRBoxModel


def joint_outcome_dist(model: AnyModel, a: float, b: float) -> JointDist:
    """Observable joint distribution of the model at settings (a, b)."""
    return model.joint_dist(a, b)


def sample_run(model: AnyModel, a: float, b: float, rng: RngStream):
    """One (lambda, A, B) realization; lambda is None for lambda-free models."""
    _, lams, a_out, b_out = model.sample_runs(a, b, 1, rng)
    lam = None if lams is None else PolAngle(lams[0])
    return lam, int(a_out[0]), int(b_out[0])
