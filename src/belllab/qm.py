"""Closed-form quantum predictions for the spin-zero (polarization) Bell state.

Ground truth for every model comparison: the joint outcome distribution
p(A,B) = (1/4)[1 + A*B*cos(2a - 2b)] and its correlator cos(2a - 2b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import PI, PolAngle, canonical_diff, check_outcome

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class JointDist:
    """Joint distribution over the four (A, B) outcome pairs."""

    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float

    def prob(self, a_out: int, b_out: int) -> float:
        check_outcome(a_out)
        check_outcome(b_out)
        if a_out == +1:
            return self.p_pp if b_out == +1 else self.p_pm
        return self.p_mp if b_out == +1 else self.p_mm

    def correlator(self) -> float:
        return self.p_pp - self.p_pm - self.p_mp + self.p_mm

    def marginal_1(self) -> tuple[float, float]:
        """(P(A=+1), P(A=-1))."""
        return (self.p_pp + self.p_pm, self.p_mp + self.p_mm)

    def marginal_2(self) -> tuple[float, float]:
        """(P(B=+1), P(B=-1))."""
        return (self.p_pp + self.p_mp, self.p_pm + self.p_mm)

    def total(self) -> float:
        return self.p_pp + self.p_pm + self.p_mp + self.p_mm

    def max_abs_diff(self, other: "JointDist") -> float:
        return max(
            abs(self.p_pp - other.p_pp),
            abs(self.p_pm - other.p_pm),
            abs(self.p_mp - other.p_mp),
            abs(self.p_mm - other.p_mm),
        )

    def validate(self, atol: float = 1e-12) -> "JointDist":
        probs = (self.p_pp, self.p_pm, self.p_mp, self.p_mm)
        if min(probs) < -atol or abs(sum(probs) - 1.0) > atol:
            raise ValueError(f"not a probability distribution: {self}")
        return self


def qm_joint(a: float, b: float) -> JointDist:
    """Bell-state joint outcome probabilities (1/4)[1 + A*B*cos(2a-2b)]."""
    c = math.cos(2.0 * canonical_diff(a, b))
    same = 0.25 * (1.0 + c)
    diff = 0.25 * (1.0 - c)
    return JointDist(p_pp=same, p_pm=diff, p_mp=diff, p_mm=same)


def qm_correlator(a: float, b: float) -> float:
    """Bell-state correlator <AB> = cos(2a - 2b)."""
    return math.cos(2.0 * canonical_diff(a, b))


def tsirelson_settings() -> tuple[PolAngle, PolAngle, PolAngle, PolAngle]:
    """The (a, a', b, b') quadruple maximizing the quantum CHSH value.

    b' = -pi/8 is stored canonically as 7*pi/8.
    """
    return (
        PolAngle(0.0),
        PolAngle(PI / 4.0),
        PolAngle(PI / 8.0),
        PolAngle(-PI / 8.0),
    )


def chsh_pairs(settings: tuple[float, float, float, float]) -> tuple[tuple[float, float], ...]:
    """The four (side-1, side-2) settings pairs of a CHSH quadruple (a, a', b, b'),
    in the order of the combination <AB> + <A'B> + <AB'> - <A'B'>."""
    a, a_p, b, b_p = settings
    return (a, b), (a_p, b), (a, b_p), (a_p, b_p)


def chsh_value(c1: float, c2: float, c3: float, c4: float) -> float:
    """|c1 + c2 + c3 - c4|, the CHSH combination of four correlators taken
    at the `chsh_pairs` of a quadruple."""
    return abs(c1 + c2 + c3 - c4)
