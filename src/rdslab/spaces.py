"""Metric state spaces: interval, circle, and real projective space.

Points are plain floats for the interval and the circle (circle coordinates
live in [0, 1) with the length-1 metric), and canonical-sign unit vectors
for projective space.  Suprema over a space are approximated by maxima over
deterministic grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Interval",
    "Circle",
    "Projective",
    "StateSpace",
    "RegionSet",
    "canonical_direction",
    "distance",
    "diameter",
    "grid",
    "circle_delta",
]

DEFAULT_GRID_RESOLUTION = 256


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"interval needs a < b, got [{self.a}, {self.b}]")


@dataclass(frozen=True)
class Circle:
    """Unit-circumference circle, coordinates in [0, 1)."""


@dataclass(frozen=True)
class Projective:
    """Real projective space of R^m, points as canonical-sign unit vectors."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("projective dimension must be >= 2")


StateSpace = Interval | Circle | Projective


def canonical_direction(v) -> np.ndarray:
    """Normalize v to unit length and fix the antipodal sign ambiguity.

    The representative has its first nonzero coordinate positive.
    """
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("zero vector has no direction")
    v = v / norm
    for c in v:
        if c != 0.0:
            if c < 0.0:
                v = -v
            break
    return v


def _wrap(x: float) -> float:
    return x - np.floor(x)


def circle_delta(x, y):
    """Signed circle displacement y - x reduced to (-1/2, 1/2]."""
    d = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    d = d - np.floor(d)
    return np.where(d > 0.5, d - 1.0, d)[()]


def distance(space: StateSpace, x, y) -> float:
    """Metric of the space.  Broadcasts over array-valued x, y for the
    one-dimensional spaces."""
    if isinstance(space, Interval):
        return np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))[()]
    if isinstance(space, Circle):
        d = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)) % 1.0
        return np.minimum(d, 1.0 - d)[()]
    if isinstance(space, Projective):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape or x.shape[-1] != space.m:
            raise ValueError("projective points must share the space dimension")
        dot = np.clip(np.abs(np.sum(x * y, axis=-1)), 0.0, 1.0)
        return np.sqrt(np.maximum(0.0, 1.0 - dot * dot))[()]
    raise TypeError(f"not a state space: {space!r}")


def diameter(space: StateSpace) -> float:
    if isinstance(space, Interval):
        return space.b - space.a
    if isinstance(space, Circle):
        return 0.5
    if isinstance(space, Projective):
        return 1.0
    raise TypeError(f"not a state space: {space!r}")


def grid(space: StateSpace, resolution: int):
    """Deterministic covering point set.

    Interval: uniform partition including both endpoints.  Circle: uniform
    points of [0, 1).  Projective(2): evenly spaced angles on [0, pi).
    Projective(m >= 3): a low-discrepancy Sobol net mapped to directions.
    """
    if resolution < 2:
        raise ValueError("grid resolution must be >= 2")
    if isinstance(space, Interval):
        return np.linspace(space.a, space.b, resolution)
    if isinstance(space, Circle):
        return np.arange(resolution) / resolution
    if isinstance(space, Projective):
        if space.m == 2:
            theta = np.pi * np.arange(resolution) / resolution
            pts = np.column_stack([np.cos(theta), np.sin(theta)])
        else:
            # imported here: scipy.stats is slow to load and only this branch uses it
            from scipy.stats import norm, qmc

            # scrambling (with a fixed seed, so still deterministic) keeps
            # every point away from the degenerate all-0.5 net point
            sampler = qmc.Sobol(d=space.m, scramble=True, seed=0)
            u = sampler.random(resolution)
            pts = norm.ppf(np.clip(u, 1e-12, 1.0 - 1e-12))
        return np.array([canonical_direction(p) for p in pts])
    raise TypeError(f"not a state space: {space!r}")


@dataclass(frozen=True)
class RegionSet:
    """Disjoint closed pieces of an interval or circle, each carrying a
    finite grid of representative points used to approximate suprema."""

    space: StateSpace
    pieces: tuple  # of (lo, hi) pairs
    resolution: int = DEFAULT_GRID_RESOLUTION
    grids: tuple = field(init=False)

    def __post_init__(self):
        if isinstance(self.space, Projective):
            raise ValueError("region sets are defined for interval and circle spaces")
        pieces = tuple((float(lo), float(hi)) for lo, hi in self.pieces)
        for lo, hi in pieces:
            if not lo < hi:
                raise ValueError(f"degenerate piece ({lo}, {hi})")
        for (lo1, hi1) in pieces:
            for (lo2, hi2) in pieces:
                if (lo1, hi1) != (lo2, hi2) and lo1 < hi2 and lo2 < hi1:
                    raise ValueError("region pieces must be pairwise disjoint")
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(
            self,
            "grids",
            tuple(np.linspace(lo, hi, self.resolution) for lo, hi in pieces),
        )
