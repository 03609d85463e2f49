"""Metric state spaces: interval, circle, and real projective space.

Points are plain floats for the interval and the circle (circle coordinates
live in [0, 1) with the length-1 metric), and canonical-sign unit vectors
for projective space.  :func:`distance` is the one metric: every pair sum,
correlation sum and diameter goes through it.  Suprema over a space are
approximated by maxima over deterministic grids.
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
    "require_one_dimensional",
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


def require_one_dimensional(space: StateSpace, caller: str):
    """ValueError unless ``space`` is an interval or the circle: the rule of
    every per-trial engine and scalar-orbit estimator, ``caller`` naming
    which one asks."""
    if isinstance(space, Projective):
        raise ValueError(f"{caller} needs a one-dimensional system, "
                         f"not a projective action on {space!r}")


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


def circle_delta(x, y):
    """Signed circle displacement y - x reduced to (-1/2, 1/2]."""
    d = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    d = d - np.floor(d)
    return np.where(d > 0.5, d - 1.0, d)[()]


def distance(space: StateSpace, x, y, out=None, scratch=None):
    """Metric of the space, broadcasting x against y (projective points lie
    along the last axis).  Circle coordinates are reduced mod 1 per point,
    then folded as min(D, 1 - D).  The projective dot is summed coordinate
    by coordinate, left to right (the bits of ``np.sum(x * y, axis=-1)`` for
    m < 8), with no BLAS call whose rounding could follow the thread count.
    ``out`` and ``scratch``, float arrays of the result shape, let block
    callers keep their buffers; they change no bit."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if isinstance(space, Projective):
        if x.shape[-1:] != (space.m,) or y.shape[-1:] != (space.m,):
            raise ValueError("projective points must share the space dimension")
        D = np.asarray(np.multiply(x[..., 0], y[..., 0], out=out))
        for j in range(1, space.m):
            D += np.multiply(x[..., j], y[..., j], out=scratch)
        np.clip(np.abs(D, out=D), 0.0, 1.0, out=D)
        np.maximum(0.0, np.subtract(1.0, np.multiply(D, D, out=scratch), out=D), out=D)
        return np.sqrt(D, out=D)[()]
    if isinstance(space, Circle):
        x, y = x % 1.0, y % 1.0
    elif not isinstance(space, Interval):
        raise TypeError(f"not a state space: {space!r}")
    D = np.asarray(np.subtract(x, y, out=out))
    np.abs(D, out=D)
    if isinstance(space, Circle):
        np.minimum(D, np.subtract(1.0, D, out=scratch), out=D)
    return D[()]


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
