"""Trajectory simulation, coupled multi-start runs, and an exact
enumeration oracle over length-n words of a finite driving measure.

Composition is on the left: step k applies the k-th drawn map to the
current state, realizing f_n o ... o f_1.  One orbit is sequential, so only
its stepping runs one map at a time (``DrivingMeasure.orbit``, on plain
floats for scalar states); its log-derivatives, which need the points
alone, are then taken in one call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .maps import DrivingMeasure, apply_map, log_derivative, support_space, word_maps
from .spaces import StateSpace, distance
from .streams import as_generator

__all__ = [
    "Trajectory",
    "EnumerationGuardError",
    "simulate",
    "simulate_coupled",
    "enumerate_expectation",
    "coupled_distance",
    "draw_word",
]

ENUMERATION_GUARD = 10_000_000


class EnumerationGuardError(RuntimeError):
    """Word table would exceed the enumeration size guard."""


@dataclass
class Trajectory:
    space: StateSpace
    points: np.ndarray  # (n+1,) floats or (n+1, m) unit vectors
    log_derivative_sum: np.ndarray | None = None  # cumulative, length n
    map_ids: list | None = None  # drawn atom indices or parameters

    @property
    def n(self) -> int:
        return len(self.points) - 1


def draw_word(nu: DrivingMeasure, stream, n: int) -> np.ndarray:
    """Draw the n map labels of one realization: atom indices (intp) for
    finite measures, raw parameters (float64) for parametric ones.  The
    empty word (n = 0) takes no double from the stream."""
    rng = as_generator(stream)
    if nu.finite:
        return nu.sample_indices(rng, n)
    return nu.sample_params(rng, n)


def simulate(
    nu: DrivingMeasure,
    x0,
    n: int,
    stream,
    record_log_derivative: bool = False,
    record_maps: bool = False,
    space: StateSpace | None = None,
) -> Trajectory:
    """Run the chain n steps from x0 under one realization of the noise."""
    return simulate_coupled(
        nu,
        [x0],
        n,
        stream,
        record_log_derivative=record_log_derivative,
        record_maps=record_maps,
        space=space,
    )[0]


def simulate_coupled(
    nu: DrivingMeasure,
    starts,
    n: int,
    stream,
    record_log_derivative: bool = False,
    record_maps: bool = False,
    space: StateSpace | None = None,
) -> list[Trajectory]:
    """Draw ONE map sequence and run it from every start, so trajectories
    differ only through their starting point; ``space`` defaults to
    ``support_space(nu)``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    space = support_space(nu) if space is None else space
    word = draw_word(nu, stream, n)
    out = []
    for x0 in starts:
        points = nu.orbit(word, x0)
        logs = _log_derivative_sums(nu, word, points) if record_log_derivative else None
        out.append(Trajectory(space=space, points=points, log_derivative_sum=logs,
                              map_ids=list(word) if record_maps else None))
    return out


def _log_derivative_sums(nu: DrivingMeasure, word, points: np.ndarray) -> np.ndarray:
    """Running sums of log |f_k'(X_{k-1})|, k = 1..n, along one orbit.

    A scalar orbit takes all n log-derivatives in one call, on an (n, 1)
    column: a circle-chart ``v @ A.T`` is then a stack of 1-row products,
    which rounds as the call on one point does (a flat (n,) batch would
    not).  Vector states take them map by map.  The sums start from +0.0,
    so an orbit of zero log-derivatives sums to +0.0, not -0.0."""
    if points.ndim == 1:
        d = nu.log_derivative(word, points[:-1, None])[:, 0]
    else:
        d = [log_derivative(f, x) for f, x in zip(word_maps(nu, word), points[:-1])]
    sums = np.empty(len(points))
    sums[0] = 0.0
    sums[1:] = d
    return np.cumsum(sums)[1:]


def enumerate_expectation(nu: DrivingMeasure, n: int, functional) -> float:
    """Exact expectation of a per-word functional over all length-n words.

    ``functional`` receives the word's map list (in application order
    f_1, ..., f_n).
    """
    if not nu.finite:
        raise ValueError("word enumeration needs a finite driving measure")
    k = len(nu.atoms)
    if k**n > ENUMERATION_GUARD:
        raise EnumerationGuardError(f"{k}^{n} words exceed the enumeration guard")
    total = 0.0
    for word in itertools.product(range(k), repeat=n):
        p = math.prod(nu._weights[i] for i in word)
        total += p * float(functional([nu.atoms[i][0] for i in word]))
    return total


def coupled_distance(space: StateSpace, maps, x, y) -> float:
    """d(X_n^x, X_n^y) at the end of one explicit word of n maps."""
    for f in maps:
        x = apply_map(f, x)
        y = apply_map(f, y)
    return float(distance(space, x, y))

