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

from .core import HALF_PI, PI, PolAngle, RngStream, canonical_diff, outcome_axes
from .qm import JointDist

#: Runs per chunk of a `HiddenVariableModel.count_disagreements` shard: its
#: buffers, made once per shard, then stay in the CPU's caches.
CHUNK_SIZE = 8192


def _hall_plus(setting: float, lam: np.ndarray) -> np.ndarray:
    """Hall's deterministic outcome is +1: cos(2 setting - 2 lam) >= 0.  No
    double argument makes the cosine exactly 0, so `>` would give the same."""
    return np.cos(2.0 * (setting - np.asarray(lam, dtype=float))) >= 0.0


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

    def total_variation(self, other: LambdaDistribution) -> float:
        """Total-variation distance to ``other``, of the same form: half the mass
        gap summed over the union of the atoms, or over the cells between the
        union of the edges, where both densities are constant (read at midpoints)."""
        if self.edges is None:
            m_1 = dict(zip(self.points.tolist(), self.mass.tolist()))
            m_2 = dict(zip(other.points.tolist(), other.mass.tolist()))
            return 0.5 * sum(abs(m_1.get(x, 0.0) - m_2.get(x, 0.0)) for x in sorted(m_1 | m_2))
        edges = np.union1d(self.edges, other.edges)
        mids = 0.5 * (edges[:-1] + edges[1:])
        rho = [(d.mass / np.diff(d.edges))[np.searchsorted(d.edges, mids, side="right") - 1]
               for d in (self, other)]
        return 0.5 * float(np.sum(np.abs(rho[0] - rho[1]) * np.diff(edges)))

    def sample(self, n: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
        """n hidden angles: an atom or segment by mass, then uniform within it.

        Returns ``(index, lams)``: ``index[i]`` is the atom or segment
        ``lams[i]`` was drawn from.
        """
        u = np.empty(n)  # the piece uniforms, then `place`'s scratch
        index = self.piece_index(n, rng, u)
        if self.edges is None:
            return index, self.points[index]
        return index, self.place(index, rng.generator.random(n), u)

    def place(self, index: np.ndarray, u: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """Each uniform of ``u`` moved, in place, to its lambda in segment
        ``index``: edges[index] + width[index] * u, gathered through
        ``scratch``, a float buffer of u's size.  One segment needs neither
        the index nor the gather."""
        if self.mass.size == 1:
            u *= self.edges[1] - self.edges[0]
            u += self.edges[0]
            return u
        # mode="clip": the indices are in range, and "raise" would buffer the output
        np.multiply(u, np.take(np.diff(self.edges), index, out=scratch, mode="clip"), out=u)
        return np.add(u, np.take(self.edges, index, out=scratch, mode="clip"), out=u)

    def piece_index(self, n: int, rng: RngStream, u: np.ndarray | None = None) -> np.ndarray:
        """n atom or segment indices drawn by mass, in the smallest unsigned dtype.

        One piece draws no uniform.  Otherwise the indices, and the stream
        position after them, are those of
        ``Generator.choice(mass.size, n, p=mass / mass.sum())``: one uniform
        per draw, into ``u`` where a float buffer of n is given, and its
        piece by `index_of`.
        """
        index = np.zeros(n, dtype=self.index_dtype)
        if self.mass.size == 1:
            return index
        u = rng.generator.random(n, out=u)
        return self.index_of(u, self.cdf(), index, np.empty(n, dtype=bool))

    @property
    def index_dtype(self) -> np.dtype:
        """The smallest unsigned dtype that holds every piece index."""
        return np.min_scalar_type(self.mass.size - 1)

    def cdf(self) -> np.ndarray:
        """The cumulative masses, normalized as ``Generator.choice`` does, so
        that the last entry is 1.0."""
        cdf = (self.mass / self.mass.sum()).cumsum()
        cdf /= cdf[-1]
        return cdf

    @staticmethod
    def index_of(u: np.ndarray, cdf: np.ndarray, out: np.ndarray, above: np.ndarray) -> np.ndarray:
        """Each uniform's piece written into ``out``: the number of CDF entries
        at or below it, which ``choice`` finds with
        ``searchsorted(cdf, u, side="right")``.  For a few pieces, adding
        ``u >= c`` per entry is faster; ``above`` is a boolean buffer of u's
        size for it.  The last entry, 1.0, is never at or below u."""
        out.fill(0)
        for c in cdf[:-1]:
            np.add(out, np.greater_equal(u, c, out=above), out=out)
        return out


class HiddenVariableModel(ABC):
    """Contract shared by all lambda-mediated models."""

    name: str

    # -- lambda distribution ------------------------------------------------

    @abstractmethod
    def lambda_distribution(self, a: float, b: float) -> LambdaDistribution:
        """The (a, b)-dependent hidden-angle distribution as atoms or segments."""

    # -- outcome model ------------------------------------------------------

    def outcome_prob(self, setting: float, lam: np.ndarray) -> np.ndarray:
        """P(outcome = +1 | setting, lam) on either side, vectorized over lam:
        Malus' law cos^2(setting - lam) unless a model states its own rule.
        A boolean rule gives the outcome itself, which `sample_outcomes`
        returns as is, drawing no uniforms."""
        return np.cos(setting - np.asarray(lam, dtype=float)) ** 2

    # -- derived ------------------------------------------------------------

    def _per_piece(self, a: float, dist: LambdaDistribution) -> bool:
        """Whether outcomes are drawn once per piece of ``dist``, at its point,
        and not per lambda: where the pieces are atoms, or the rule is boolean
        (a model cuts its segments where such a rule changes).  Then no
        outcome reads a lambda's position within its segment."""
        return dist.edges is None or self.outcome_prob(a, dist.points).dtype == bool

    def joint_dist(self, a: float, b: float) -> JointDist:
        """Separability integral, summed exactly over the lambda distribution:
        at each piece's point where outcomes are drawn per piece, otherwise over
        each segment in closed form for Malus' law (NotImplementedError for any other)."""
        dist = self.lambda_distribution(a, b)
        # the order is that of JointDist: ++, +-, -+, --
        if self._per_piece(a, dist):
            p1 = self.outcome_prob(a, dist.points)
            p2 = self.outcome_prob(b, dist.points)
            cells = (dist.mass * q1 * q2 for q1 in (p1, 1.0 - p1) for q2 in (p2, 1.0 - p2))
        elif type(self).outcome_prob is not HiddenVariableModel.outcome_prob:
            raise NotImplementedError(f"{type(self).__name__}: segments integrate Malus' law only")
        else:
            # P(+-1 | lam) = (1 +- cos(2s - 2lam)) / 2.  Over a segment of length
            # L about m, cos(2s - 2lam) averages to cos(2s - 2m) sin(L) / L, and
            # cos(2a - 2lam) cos(2b - 2lam) to half of cos(2a - 2b) plus
            # cos(2a + 2b - 4m) sin(2L) / 2L.
            m, length = dist.points, np.diff(dist.edges)
            c1, c2 = (np.cos(2.0 * (s - m)) * np.sinc(length / PI) for s in (a, b))
            c12 = 0.5 * (math.cos(2.0 * (a - b))
                         + np.cos(2.0 * (a + b) - 4.0 * m) * np.sinc(2.0 * length / PI))
            cells = (0.25 * dist.mass * (1.0 + s1 * c1 + s2 * c2 + s1 * s2 * c12)
                     for s1 in (1, -1) for s2 in (1, -1))
        return JointDist(*(float(np.sum(c)) for c in cells)).validate(atol=1e-9)

    def sample_outcomes(
        self, a: float, b: float, at: np.ndarray, rng: RngStream, index: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw whether A and B are +1 (booleans, one per run), independently
        given each lambda (screening).

        The outcome probabilities are evaluated at ``at``: each run's lambda,
        or, where `_per_piece` holds, the pieces' points, gathered onto the
        runs by ``index`` (each run's atom or segment).  A run is +1 where
        its uniform falls below its probability, A's uniforms drawn before
        B's; a boolean rule is the outcome itself and draws none.
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

    def _draw_starts(self, a: float, dist: LambdaDistribution, n: int) -> list[int | None]:
        """Where each block of n doubles that ``sample_runs`` draws from the
        distribution ``dist`` starts in its stream, in the order it draws
        them: the piece uniforms, each lambda's position within its segment,
        A's uniforms and B's.  None stands for a block it does not draw: the
        piece uniforms of one piece, the positions of atoms, and A's and B's
        uniforms under a boolean rule."""
        boolean = self.outcome_prob(a, dist.points).dtype == bool
        starts, at = [], 0
        for drawn in (dist.mass.size > 1, dist.edges is not None, not boolean, not boolean):
            starts.append(at if drawn else None)
            at += n if drawn else 0
        return starts

    def count_disagreements(self, a: float, b: float, n: int, rng: RngStream) -> int:
        """How many of the n runs ``sample_runs(a, b, n, rng)`` draws from the
        start of ``rng``'s stream have A != B.

        Each draw is read at its address in the stream, which `_draw_starts`
        gives; where outcomes are drawn per piece, no position is read.  The
        runs are walked in chunks of `CHUNK_SIZE`, in buffers made once, with
        the outcome probabilities of the pieces, and for a boolean rule
        whether A and B differ on each, evaluated once.  ``rng.generator`` is
        neither read nor moved, so two counts on one stream read the same
        draws: each count needs a stream of its own, as each
        `estimate_correlator` shard has its substream.
        """
        dist = self.lambda_distribution(a, b)
        per_piece = self._per_piece(a, dist)
        pick, position, *draws = (None if at is None else rng.generator_at(at).random
                                  for at in self._draw_starts(a, dist, n))
        tables = [self.outcome_prob(s, dist.points) for s in (a, b)] if per_piece else [None] * 2
        piece_differs = tables[0] != tables[1] if draws[0] is None else None
        cdf = dist.cdf() if pick is not None else None
        size = min(n, CHUNK_SIZE)
        index_buf = np.zeros(size, dtype=dist.index_dtype)
        u_buf, p_buf, lam_buf = np.empty(size), np.empty(size), np.empty(size)
        a_buf, differ_buf = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
        disagreements = 0
        for start in range(0, n, CHUNK_SIZE):
            m = min(CHUNK_SIZE, n - start)
            u, p, index = u_buf[:m], p_buf[:m], index_buf[:m]
            a_plus, differ = a_buf[:m], differ_buf[:m]
            if pick is not None:
                dist.index_of(pick(out=u), cdf, index, differ)
            if piece_differs is not None:
                np.take(piece_differs, index, out=differ, mode="clip")  # "clip": see `place`
            else:
                lam = None if per_piece else dist.place(index, position(out=lam_buf[:m]), p)
                for setting, table, draw, plus in zip((a, b), tables, draws, (a_plus, differ)):
                    if per_piece:
                        prob = np.take(table, index, out=p, mode="clip")
                    else:
                        prob = self.outcome_prob(setting, lam)
                    np.less(draw(out=u), prob, out=plus)
                np.not_equal(a_plus, differ, out=differ)
            disagreements += np.count_nonzero(differ)
        return int(disagreements)

    def sample_lambdas(
        self, a: float, b: float, n: int, rng: RngStream
    ) -> tuple[LambdaDistribution, np.ndarray, np.ndarray]:
        """The (a, b) distribution and n hidden angles drawn from it:
        ``(dist, index, lams)``, as `LambdaDistribution.sample` draws them."""
        dist = self.lambda_distribution(a, b)
        return dist, *dist.sample(n, rng)

    def sample_runs(
        self, a: float, b: float, n: int, rng: RngStream
    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray, np.ndarray]:
        """n independent runs ``(index, lams, a_plus, b_plus)``: lambdas drawn
        first, then `sample_outcomes`; ``index`` is each run's piece where
        outcomes are drawn per piece, and None where they are drawn per lambda."""
        dist, index, lams = self.sample_lambdas(a, b, n, rng)
        if self._per_piece(a, dist):
            return index, lams, *self.sample_outcomes(a, b, dist.points, rng, index)
        return None, lams, *self.sample_outcomes(a, b, lams, rng, None)


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

    # its own attribute: perfbench/tracing.py times sample_lambdas per class
    sample_lambdas = HiddenVariableModel.sample_lambdas


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

    # its own attribute: perfbench/tracing.py times sample_lambdas per class
    sample_lambdas = HiddenVariableModel.sample_lambdas

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
        return LambdaDistribution(np.array([HALF_PI]), np.array([1.0]), np.array([0.0, PI]))

    # its own attribute: perfbench/tracing.py times sample_lambdas per class
    sample_lambdas = HiddenVariableModel.sample_lambdas


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
        a_plus = rng.generator.random(n) < 0.5
        b_plus = ~a_plus if x & y else a_plus.copy()
        # every run from the one piece, as `piece_index` gives it; no lambda
        return np.zeros(n, dtype=np.uint8), None, a_plus, b_plus

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
    _, lams, a_plus, b_plus = model.sample_runs(a, b, 1, rng)
    lam = None if lams is None else PolAngle(lams[0])
    return lam, 1 if a_plus[0] else -1, 1 if b_plus[0] else -1
