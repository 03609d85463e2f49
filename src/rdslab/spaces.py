"""Metric state spaces: interval, circle, and real projective space.

Points are plain floats for the interval and the circle (circle coordinates
live in [0, 1) with the length-1 metric), and canonical-sign unit vectors
for projective space.  :func:`distance` is the one metric: every pair sum
and correlation sum goes through it, or through its two steps,
:func:`reduce_points` and :func:`pair_metric`, where a caller reuses the
reduced points.  Suprema over a space are approximated by maxima over
deterministic grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Interval",
    "Circle",
    "Projective",
    "StateSpace",
    "canonical_direction",
    "distance",
    "reduce_points",
    "pair_metric",
    "grid",
    "circle_delta",
    "require_one_dimensional",
]

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


def reduce_points(space: StateSpace, x):
    """The points of ``x`` as :func:`pair_metric` takes them: circle lifts
    reduced mod 1, other points as they are.  Reduce a point once: a tiny
    negative lift reduces to 1.0, which a second ``% 1.0`` would read as
    0.0."""
    x = np.asarray(x, dtype=float)
    return x % 1.0 if isinstance(space, Circle) else x


def pair_metric(space: StateSpace, x, y, out=None, scratch=None):
    """Metric of the space between points that :func:`reduce_points` gave,
    broadcasting x against y (projective points lie along the last axis).
    Circle coordinates are folded as min(D, 1 - D).  The projective dot is
    summed coordinate by coordinate, left to right (the bits of
    ``np.sum(x * y, axis=-1)`` for m < 8), with no BLAS call whose rounding
    could follow the thread count.  ``out`` and ``scratch``, float arrays of
    the result shape, let block callers keep their buffers; they change no
    bit."""
    if isinstance(space, Projective):
        if x.shape[-1:] != (space.m,) or y.shape[-1:] != (space.m,):
            raise ValueError("projective points must share the space dimension")
        D = np.asarray(np.multiply(x[..., 0], y[..., 0], out=out))
        for j in range(1, space.m):
            D += np.multiply(x[..., j], y[..., j], out=scratch)
        np.clip(np.abs(D, out=D), 0.0, 1.0, out=D)
        np.maximum(0.0, np.subtract(1.0, np.multiply(D, D, out=scratch), out=D), out=D)
        return np.sqrt(D, out=D)[()]
    if not isinstance(space, (Interval, Circle)):
        raise TypeError(f"not a state space: {space!r}")
    D = np.asarray(np.subtract(x, y, out=out))
    np.abs(D, out=D)
    if isinstance(space, Circle):
        np.minimum(D, np.subtract(1.0, D, out=scratch), out=D)
    return D[()]


def distance(space: StateSpace, x, y):
    """Metric of the space, broadcasting x against y: each point reduced by
    :func:`reduce_points` (circle lifts mod 1), then :func:`pair_metric`."""
    return pair_metric(space, reduce_points(space, x), reduce_points(space, y))


def grid(space: StateSpace, resolution: int):
    """Deterministic covering point set of a one-dimensional space.

    Interval: uniform partition including both endpoints.  Circle: uniform
    points of [0, 1).
    """
    require_one_dimensional(space, "grid")
    if resolution < 2:
        raise ValueError("grid resolution must be >= 2")
    if isinstance(space, Interval):
        return np.linspace(space.a, space.b, resolution)
    if isinstance(space, Circle):
        return np.arange(resolution) / resolution
    raise TypeError(f"not a state space: {space!r}")

