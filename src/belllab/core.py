"""Angle arithmetic modulo pi, outcome conventions and reproducible random streams.

Polarization directions and polarizer settings live on a circle of
circumference pi: an angle and its pi-shifted partner describe the same
physical axis.  Everything downstream (Malus weights, the model densities,
the CHSH machinery) assumes the canonical representatives defined here.
"""

from __future__ import annotations

import math

import numpy as np

PI = math.pi
HALF_PI = math.pi / 2.0


class PolAngle(float):
    """An angle modulo pi, stored as its canonical representative in [0, pi).

    Subclasses float, so ordinary arithmetic works; results of arithmetic
    are plain floats and must be re-wrapped if canonical form is needed.
    Equality is exact on canonical representatives.
    """

    def __new__(cls, value: float) -> "PolAngle":
        v = float(value) % PI
        if v >= PI:  # float modulo can round a tiny negative up to pi itself
            v = 0.0
        return super().__new__(cls, v)

    def __repr__(self) -> str:
        return f"PolAngle({float(self)!r})"


def outcome_axes(setting: float) -> tuple[PolAngle, PolAngle]:
    """The axes a photon leaves a polarizer at ``setting`` on: the setting
    itself (outcome +1, aligned) and its perpendicular (outcome -1)."""
    return PolAngle(setting), PolAngle(setting + HALF_PI)


def canonical_diff(x: float, y: float) -> float:
    """Representative of (x - y) mod pi mapped into [-pi/2, pi/2).

    All |a - b| expressions in the models are evaluated through this so
    the modulo-pi identification is applied consistently.  Differences
    already in range are returned unchanged (no modulo roundoff).
    """
    d = float(x) - float(y)
    if -HALF_PI <= d < HALF_PI:
        return d
    return (d + HALF_PI) % PI - HALF_PI


class RngStream:
    """Deterministic splittable random stream.

    Counter-based (Philox) so that identical (seed, stream) pairs yield
    identical sample sequences and distinct stream indices yield
    statistically independent sequences, regardless of how many other
    streams exist.  A stream instance is stateful and must be owned by
    exactly one consumer at a time.
    """

    def __init__(self, seed: int, stream: int = 0) -> None:
        self.seed = int(seed)
        self.stream = int(stream)
        self.generator = np.random.Generator(np.random.Philox(
            key=np.array([self.seed % 2**64, self.stream % 2**64], dtype=np.uint64)
        ))

    def substream(self, index: int) -> "RngStream":
        """Derived independent stream; index must be < 2**32."""
        if not 0 <= index < 2**32:
            raise ValueError("substream index out of range")
        return RngStream(self.seed, (self.stream * 2**32 + index + 1) % 2**64)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"
