"""Empirical measures and exact Kantorovich (Wasserstein-1) distances.

On an interval the distance is the L1 distance between distribution
functions (Dall'Aglio's representation), computed exactly from the merged
breakpoints.  On the circle the standard lifted-CDF reduction applies:
minimize the shifted CDF difference over the shift, with the optimum at a
weighted median.  Against a Gaussian the CDF-difference integral is
evaluated segment by segment in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import Circle, Interval, StateSpace

__all__ = [
    "EmpiricalMeasure",
    "kantorovich_interval",
    "kantorovich_circle",
    "kantorovich_rows",
    "kantorovich_gaussian",
]

# rows of samples merged at once by kantorovich_rows
MERGE_BLOCK = 32


@dataclass
class EmpiricalMeasure:
    """Weighted point set; ``space=None`` marks measures on the real line
    (Birkhoff-scaled values rather than state-space points)."""

    space: StateSpace | None
    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if len(self.positions) != len(self.weights) or len(self.weights) == 0:
            raise ValueError("positions and weights must be equal-length and nonempty")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")

    @classmethod
    def from_samples(cls, space, samples) -> "EmpiricalMeasure":
        samples = np.asarray(samples, dtype=float)
        # element-wise, so an empty sample meets the constructor's check, not 1/0
        return cls(space, samples, np.full(len(samples), 1.0) / len(samples))

    def mean(self) -> float:
        return float(np.sum(self.positions * self.weights))


def _check_same_kind(mu1: EmpiricalMeasure, mu2: EmpiricalMeasure, kind):
    if not isinstance(mu1.space, kind) or not isinstance(mu2.space, kind):
        raise ValueError(f"both measures must live on a {kind.__name__} space")
    if mu1.space != mu2.space:
        raise ValueError("measures live on different spaces")


def kantorovich_interval(mu1: EmpiricalMeasure, mu2: EmpiricalMeasure) -> float:
    """Exact integral of |H1 - H2| over the line (finite breakpoint sum)."""
    _check_same_kind(mu1, mu2, Interval)
    pts = np.concatenate([mu1.positions, mu2.positions])
    delta = np.concatenate([mu1.weights, -mu2.weights])
    order = np.argsort(pts, kind="stable")
    pts = pts[order]
    diff = np.cumsum(delta[order])
    return float(np.sum(np.abs(diff[:-1]) * np.diff(pts)))


def _merge(samples: np.ndarray, ref: np.ndarray, ref_delta: np.ndarray):
    """(point, mass) arrays of shape (rows, n + len(ref)): each row of
    ``samples`` sorted and merged into the sorted ``ref``, a row point
    weighing 1/n and ``ref[j]`` ``ref_delta[j]``.

    ``searchsorted(side="left")`` puts a row point ahead of the ``ref``
    points tied with it, as the stable sort of the row followed by the
    (stable-sorted) ``ref`` does; tied row points carry equal masses, so
    the sequences equal those of that sort."""
    o = np.sort(samples, axis=1, kind="stable")
    b, n = o.shape
    at = np.searchsorted(ref, o, side="left") + np.arange(n)
    mine = np.zeros((b, n + len(ref)), dtype=bool)
    mine[np.arange(b)[:, None], at] = True
    pts = np.empty(mine.shape)
    delta = np.empty(mine.shape)
    pts[mine] = o.ravel()
    delta[mine] = 1.0 / n
    theirs = ~mine
    pts[theirs] = np.tile(ref, b)
    delta[theirs] = np.tile(ref_delta, b)
    return pts, delta


def _circle_shift_cost(lengths: np.ndarray, values: np.ndarray) -> float:
    """min over t of sum len * |value - t| over the segments of positive
    length, attained at a weighted median of the values."""
    keep = lengths > 0
    lengths, values = lengths[keep], values[keep]
    order = np.argsort(values)
    values, lengths = values[order], lengths[order]
    cum = np.cumsum(lengths)
    t = values[np.searchsorted(cum, 0.5 * cum[-1])]
    return float(np.sum(lengths * np.abs(values - t)))


def kantorovich_circle(mu1: EmpiricalMeasure, mu2: EmpiricalMeasure) -> float:
    """min over shifts t of the lifted CDF-difference integral
    int_0^1 |H1 - H2 - t|."""
    _check_same_kind(mu1, mu2, Circle)
    pts = np.concatenate([mu1.positions % 1.0, mu2.positions % 1.0, [0.0, 1.0]])
    delta = np.concatenate([mu1.weights, -mu2.weights, [0.0, 0.0]])
    order = np.argsort(pts, kind="stable")
    pts = pts[order]
    diff = np.cumsum(delta[order])
    return _circle_shift_cost(np.diff(pts), diff[:-1])


def kantorovich_rows(samples: np.ndarray, mu: EmpiricalMeasure) -> np.ndarray:
    """``kantorovich_interval`` (``kantorovich_circle`` for ``mu`` on the
    circle) from the uniform measure on each row of ``samples`` to ``mu``,
    bit for bit: ``mu`` (on the circle mod 1, with sentinels 0 and 1) is
    stable-sorted once and each block of ``MERGE_BLOCK`` rows (likewise)
    merged into it (``_merge``).  The circle's weighted median sorts with
    an unstable sort, so it runs row by row on the pair function's arrays."""
    circle = isinstance(mu.space, Circle)
    if circle:
        ref = np.concatenate([mu.positions % 1.0, [0.0, 1.0]])
        ref_delta = np.concatenate([-mu.weights, [0.0, 0.0]])
    elif isinstance(mu.space, Interval):
        ref, ref_delta = mu.positions, -mu.weights
    else:
        raise ValueError("the reference must live on an Interval or Circle space")
    order = np.argsort(ref, kind="stable")
    ref, ref_delta = ref[order], ref_delta[order]
    out = np.empty(len(samples))
    for lo in range(0, len(samples), MERGE_BLOCK):
        block = samples[lo:lo + MERGE_BLOCK]
        pts, delta = _merge(block % 1.0 if circle else block, ref, ref_delta)
        # the pair functions' operations, in place
        diff = np.cumsum(delta, axis=1, out=delta)[:, :-1]
        gaps = np.diff(pts, axis=1)
        if circle:
            for r in range(len(pts)):
                out[lo + r] = _circle_shift_cost(gaps[r], diff[r])
        else:
            np.multiply(np.abs(diff, out=diff), gaps, out=gaps)
            out[lo:lo + len(pts)] = np.sum(gaps, axis=1)
    return out


def kantorovich_gaussian(mu: EmpiricalMeasure, sigma: float) -> float:
    """Distance between a measure on the line and N(0, sigma^2), from the
    exact piecewise CDF-difference integral.  sigma = 0 degenerates to the
    distance to the Dirac mass at 0.  The normal CDF and quantile are
    scipy's, bit for bit (``normal``), imported on first use."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0.0:
        return float(np.sum(mu.weights * np.abs(mu.positions)))
    from .normal import ndtr, ndtri

    def antiderivative(t):
        """Antiderivative of the N(0, sigma^2) CDF, vanishing at -inf."""
        z = t / sigma
        pdf = np.exp(-0.5 * z * z) / (sigma * np.sqrt(2.0 * np.pi))
        return t * ndtr(z) + sigma * sigma * pdf

    order = np.argsort(mu.positions, kind="stable")
    x = mu.positions[order]
    c = np.cumsum(mu.weights[order])
    psi = antiderivative(x)

    total = psi[0]  # left tail: int_{-inf}^{x_0} Phi
    total += antiderivative(-x[-1])  # right tail of 1 - Phi
    if len(x) > 1:
        a, b = x[:-1], x[1:]
        level = np.clip(c[:-1], 1e-300, 1.0 - 1e-16)
        cross = np.clip(sigma * ndtri(level), a, b)
        psi_a, psi_b = psi[:-1], psi[1:]
        psi_c = antiderivative(cross)
        # on [a, cross] the CDF is below the level, above it on [cross, b]
        below = level * (cross - a) - (psi_c - psi_a)
        above = (psi_b - psi_c) - level * (b - cross)
        total += np.sum(np.abs(below) + np.abs(above))
    return float(total)
