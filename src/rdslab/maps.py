"""Map families and driving measures.

The built-in families:

* ``MoebiusDecay(alpha)`` -- h(x) = x / (1 + alpha x) on [0, 1], alpha >= 1.
  Compositions stay in the family: parameters add.
* ``PolynomialDecay(alpha)`` -- h(x) = x - x**alpha on [0, 1],
  alpha in [5/4, 3/2].
* ``Affine(slope, offset)`` on an interval.
* ``ProjectiveAction(A)`` -- f(x) = A x / ||A x|| on projective space for
  det A = 1, or the induced circle map through the half-angle chart when
  ``chart="circle"``.

A :class:`DrivingMeasure` is either a finite weighted family or a
parametric family drawn uniformly from a range, and its maps fix the
space a system lives on (:func:`support_space`).  Only this module evaluates
maps: :func:`apply_map`, :func:`derivative`, :func:`log_derivative`, the
per-trial kernels ``DrivingMeasure.step`` / ``.log_derivative`` and the
single-orbit stepper ``DrivingMeasure.orbit`` share one formula per family.
The per-trial kernels gather each trial's parameters by its label and call
that formula once when the support is one scalar family (or parametric);
other finite supports apply each atom under a mask.  ``orbit`` steps one
scalar start on plain floats through the same formula, taking the labels'
parameters as Python floats, so a step is a few float operations instead
of a map descriptor and a handful of 0-d array calls; other supports and
vector states step through :func:`apply_map`.  Finite measures draw their
labels as ``Generator.choice`` does, from one uniform each, but count the
cumulative weights each uniform reaches instead of binary-searching them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .spaces import Circle, Interval, Projective, StateSpace, canonical_direction, distance, grid

__all__ = [
    "MoebiusDecay",
    "PolynomialDecay",
    "Affine",
    "ProjectiveAction",
    "MapDescriptor",
    "DrivingMeasure",
    "SingularDerivativeError",
    "cocycle_matrices",
    "word_maps",
    "apply_map",
    "derivative",
    "log_derivative",
    "gee_diameter_sup",
]

_DERIVATIVE_FLOOR = 1e-300


class SingularDerivativeError(ValueError):
    """Raised when a log-derivative is requested at a critical point."""


def _log_abs(d, what):
    """log |d|, raising at a critical point (|d| below the floor)."""
    d = np.abs(d)
    if np.any(d < _DERIVATIVE_FLOOR):
        raise SingularDerivativeError(f"vanishing derivative of {what}")
    return np.log(d)


class _ScalarFamily:
    """Families of maps of the line with scalar parameters, the dataclass
    fields.  The formulas ``image``, ``deriv`` and ``log_deriv`` take the
    parameters, then the state; each parameter is a scalar or an array
    broadcasting against the state (one parameter per trial)."""

    @cached_property
    def params(self) -> tuple:
        """The parameters in field order: the formulas' leading arguments
        (cached, as ``apply_map`` reads them on every orbit step)."""
        return tuple(getattr(self, f.name) for f in fields(self))

    @classmethod
    def log_deriv(cls, *params_and_x):
        return _log_abs(cls.deriv(*params_and_x), cls.__name__)


class _DecayFamily(_ScalarFamily):
    """One-parameter families on [0, 1]."""

    def __post_init__(self):
        lo, hi = self.ALPHA_RANGE
        if not lo <= self.alpha <= hi:
            raise ValueError(f"{type(self).__name__} needs alpha in [{lo}, {hi}]")


@dataclass(frozen=True)
class MoebiusDecay(_DecayFamily):
    alpha: float

    ALPHA_RANGE = (1.0, np.inf)

    @staticmethod
    def image(alpha, x):
        return x / (1.0 + alpha * x)

    @staticmethod
    def deriv(alpha, x):
        return 1.0 / (1.0 + alpha * x) ** 2

    @staticmethod
    def log_deriv(alpha, x):
        # positive slope on [0, inf): no critical point to check
        return -2.0 * np.log1p(alpha * x)


@dataclass(frozen=True)
class PolynomialDecay(_DecayFamily):
    alpha: float

    ALPHA_RANGE = (1.25, 1.5)

    @staticmethod
    def image(alpha, x):
        # np.power, not **: on the plain floats of DrivingMeasure.orbit, **
        # would call libm pow, which rounds differently from numpy's power
        return x - np.power(x, alpha)

    @staticmethod
    def deriv(alpha, x):
        # limit 1 as x -> 0+ since alpha > 1; float_power, as ``**`` swaps in
        # sqrt for a scalar exponent 0.5 but not for per-trial exponents
        return np.where(x > 0.0, 1.0 - alpha * np.float_power(x, alpha - 1.0), 1.0)


_FAMILIES = {"moebius": MoebiusDecay, "polynomial": PolynomialDecay}


@dataclass(frozen=True)
class Affine(_ScalarFamily):
    slope: float
    offset: float

    @staticmethod
    def image(slope, offset, x):
        return slope * x + offset

    @staticmethod
    def deriv(slope, offset, x):
        return np.broadcast_to(slope, np.shape(x)) + 0.0


class ProjectiveAction:
    """Unit-determinant matrix acting on directions.

    chart="projective" acts on Projective(m) points (unit vectors);
    chart="circle" (m = 2 only) acts on the circle through theta |->
    angle(A (cos pi theta, sin pi theta)) / pi mod 1, turning hyperbolic
    SL(2, R) matrices into smooth circle maps.
    """

    def __init__(self, matrix, chart: str = "projective"):
        A = np.array(matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 2:
            raise ValueError("matrix must be square, size >= 2")
        if abs(np.linalg.det(A) - 1.0) > 1e-9:
            raise ValueError("matrix must have determinant 1")
        if chart not in ("projective", "circle"):
            raise ValueError(f"unknown chart {chart!r}")
        if chart == "circle" and A.shape[0] != 2:
            raise ValueError("circle chart needs a 2x2 matrix")
        self.matrix = A
        self.chart = chart
        self.m = A.shape[0]

    def __repr__(self):
        return f"ProjectiveAction({self.matrix.tolist()}, chart={self.chart!r})"

    def __eq__(self, other):
        return (
            isinstance(other, ProjectiveAction)
            and self.chart == other.chart
            and np.array_equal(self.matrix, other.matrix)
        )


MapDescriptor = MoebiusDecay | PolynomialDecay | Affine | ProjectiveAction


def _circle_direction(theta):
    u = np.pi * np.asarray(theta, dtype=float)
    v = np.empty(u.shape + (2,))
    np.cos(u, out=v[..., 0])
    np.sin(u, out=v[..., 1])
    return v


def apply_map(f: MapDescriptor, x):
    """Image of x under f.  Broadcasts over arrays for 1-D families."""
    if isinstance(f, ProjectiveAction):
        if f.chart == "circle":
            v = _circle_direction(x)
            w = v @ f.matrix.T
            theta = np.arctan2(w[..., 1], w[..., 0]) / np.pi
            return (theta % 1.0)[()]
        return canonical_direction(f.matrix @ np.asarray(x, dtype=float))
    if isinstance(f, _ScalarFamily):
        return f.image(*f.params, np.asarray(x, dtype=float))[()]
    raise TypeError(f"not a map descriptor: {f!r}")


def derivative(f: MapDescriptor, x):
    """Pointwise derivative of the 1-D (or circle-chart) realization of f."""
    if isinstance(f, ProjectiveAction) and f.chart == "circle":
        # angle-chart derivative of an SL(2,R) projective action:
        # d(theta') / d(theta) = det A / ||A v||^2 = 1 / ||A v||^2
        v = _circle_direction(x)
        w = v @ f.matrix.T
        return (1.0 / np.sum(w * w, axis=-1))[()]
    if isinstance(f, _ScalarFamily):
        return f.deriv(*f.params, np.asarray(x, dtype=float))[()]
    raise TypeError(f"{f!r} has no one-dimensional derivative")


def log_derivative(f: MapDescriptor, x):
    """log |f'(x)| for 1-D kinds; log ||A x|| for the projective norm cocycle."""
    if isinstance(f, ProjectiveAction) and f.chart == "projective":
        return float(np.log(np.linalg.norm(f.matrix @ np.asarray(x, dtype=float))))
    if isinstance(f, _ScalarFamily):
        return f.log_deriv(*f.params, np.asarray(x, dtype=float))[()]
    return _log_abs(derivative(f, x), f)[()]


def _steps(step, params, x) -> np.ndarray:
    """x and its images under ``step(*p, x)`` for each p in turn."""
    pts = [x]
    for p in params:
        x = step(*p, x)
        pts.append(x)
    return np.array(pts)


@dataclass(frozen=True)
class DrivingMeasure:
    """Law of one random map draw.

    Exactly one of ``atoms`` (finite support: list of (map, weight)) or
    ``family``/``sampler`` (parametric support) is set.  The sampler is
    ("uniform", lo, hi).
    """

    atoms: tuple | None = None
    family: str | None = None  # "moebius" | "polynomial"
    sampler: tuple | None = None

    def __post_init__(self):
        if (self.atoms is None) == (self.family is None):
            raise ValueError("specify either atoms or a parametric family")
        if self.atoms is not None:
            atoms = tuple((m, float(w)) for m, w in self.atoms)
            if not atoms:
                raise ValueError("finite driving measure needs at least one atom")
            if any(w <= 0 for _, w in atoms):
                raise ValueError("atom weights must be positive")
            if abs(sum(w for _, w in atoms) - 1.0) > 1e-12:
                raise ValueError("atom weights must sum to 1")
            object.__setattr__(self, "atoms", atoms)
            # not fields: eq and hash stay on the atoms
            weights = np.array([w for _, w in atoms])
            cdf = weights.cumsum()
            cdf /= cdf[-1]
            # one scalar family: per-atom parameter columns, gathered by
            # label in _per_label; otherwise the mask loop
            kind = type(atoms[0][0])
            if not (issubclass(kind, _ScalarFamily) and all(type(m) is kind for m, _ in atoms)):
                kind = None
            table = None if kind is None else tuple(
                np.array(col) for col in zip(*(m.params for m, _ in atoms)))
            object.__setattr__(self, "_weights", weights)
            object.__setattr__(self, "_cdf", cdf)
            object.__setattr__(self, "_kind", kind)
            object.__setattr__(self, "_table", table)
        else:
            if self.family not in _FAMILIES:
                raise ValueError(f"unknown parametric family {self.family!r}")
            if self.sampler[0] != "uniform":
                raise ValueError(f"unknown sampler kind {self.sampler[0]!r}")
            lo, hi = float(self.sampler[1]), float(self.sampler[2])
            vlo, vhi = _FAMILIES[self.family].ALPHA_RANGE
            if not vlo <= lo <= hi <= vhi:
                raise ValueError(f"sampler needs {vlo} <= lo <= hi <= {vhi}, got lo {lo}, hi {hi}")
            object.__setattr__(self, "_kind", _FAMILIES[self.family])
            object.__setattr__(self, "_table", None)

    @property
    def finite(self) -> bool:
        return self.atoms is not None

    def make_map(self, param: float) -> MapDescriptor:
        return _FAMILIES[self.family](param)

    def orbit(self, word: np.ndarray, x0) -> np.ndarray:
        """The n + 1 points x0, f_1(x0), ..., f_n o ... o f_1(x0) of the
        maps that ``word`` (n labels of ``draw_word``) names.

        A scalar start on a one-family or parametric support stays a Python
        float and steps through the family ``image`` with each label's
        parameters as Python floats: ``+ - * /`` round as numpy's do, and
        the formulas call numpy for anything else.  Other supports, and
        vector states, step through :func:`apply_map`."""
        x = np.asarray(x0, dtype=float) if np.ndim(x0) else float(x0)
        if self._kind is not None and not np.ndim(x0):
            cols = (word,) if self._table is None else [col[word] for col in self._table]
            try:
                return _steps(self._kind.image, zip(*(col.tolist() for col in cols)), x)
            except ZeroDivisionError:
                # a Python float divides by zero where numpy gives inf or nan
                # (a Moebius map at x = -1/alpha, a start outside [0, 1])
                pass
        return _steps(apply_map, zip(word_maps(self, word)), x)

    def step(self, labels: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Image of each trial's states under its drawn map."""
        return self._per_label(apply_map, "image", labels, X)

    def log_derivative(self, labels: np.ndarray, X: np.ndarray) -> np.ndarray:
        """log |f'(x)| of each trial's drawn map at its states; raises
        :class:`SingularDerivativeError` at a critical point."""
        return self._per_label(log_derivative, "log_deriv", labels, X)

    def _per_label(self, per_map, formula, labels, X):
        """``labels`` hold one draw_word entry per trial and X has shape
        (trials, ...).  The family ``formula`` takes each trial's parameters:
        the drawn ones of a parametric measure, or, when every atom is of
        one scalar family, the atoms' table gathered by label.  Other finite
        measures take the mask loop."""
        if self._kind is None:
            return self._masked(per_map, labels, X)
        at = labels.reshape(labels.shape + (1,) * (X.ndim - 1))
        params = (at,) if self._table is None else [col[at] for col in self._table]
        return getattr(self._kind, formula)(*params, X)

    def _masked(self, per_map, labels, X):
        """``per_map`` applied atom by atom to the trials that drew it: the
        path of mixed and matrix supports, and the oracle of the gather."""
        out = np.empty_like(X)
        for idx, (m, _) in enumerate(self.atoms):
            mask = labels == idx
            if np.any(mask):
                out[mask] = per_map(m, X[mask])
        return out

    def order_preserving(self, space: StateSpace) -> bool:
        """True when every map of the support is nondecreasing along every
        orbit from the interval ``space``, so coupled orbits never cross.

        Affine maps with slope >= 0 are nondecreasing on the whole line.
        Moebius maps are increasing on [0, inf), which they map into itself,
        so with them in the support the interval and the affine images must
        stay inside [0, inf).  PolynomialDecay is not monotone (f'(1) < 0)."""
        if not isinstance(space, Interval):
            return False
        if not self.finite:
            return self.family == "moebius" and space.a >= 0.0
        maps = [m for m, _ in self.atoms]
        if not all(isinstance(m, MoebiusDecay) or (isinstance(m, Affine) and m.slope >= 0.0)
                   for m in maps):
            return False
        if any(isinstance(m, MoebiusDecay) for m in maps):
            return space.a >= 0.0 and all(m.offset >= 0.0 for m in maps if isinstance(m, Affine))
        return True

    def sample_params(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Vectorized parameter draws (parametric measures only)."""
        return rng.uniform(self.sampler[1], self.sampler[2], size=size)

    def sample_indices(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Vectorized atom-index draws (finite measures only), equal to
        ``rng.choice(len(atoms), size, p=weights)`` and taking the same
        doubles: one uniform u per label, whose label is the number of
        cumulative weights c at or below it, ``searchsorted(cdf, u,
        "right")`` as ``choice`` computes it.  The label is counted as the
        sum of ``u >= c`` over the weights, which is that search by
        definition, ties included; the last weight is 1 > u and never
        counts.  One vector compare per atom costs more than the search
        only for many atoms, which no benchmark system has."""
        u, cdf = rng.random(size), self._cdf
        labels = (u >= cdf[0]).astype(np.intp)  # all 0 for one atom: cdf[0] = 1
        for c in cdf[1:-1]:
            labels += u >= c
        return labels


def cocycle_matrices(nu: DrivingMeasure) -> np.ndarray:
    """The (G, m, m) stack of a matrix cocycle's atom matrices; ValueError
    unless ``nu`` is a finite measure over ProjectiveAction matrices of one
    size."""
    maps = [f for f, _ in nu.atoms] if nu.finite else []
    if (not maps or not all(isinstance(f, ProjectiveAction) for f in maps)
            or len({f.m for f in maps}) > 1):
        raise ValueError("a matrix cocycle needs a finite measure over "
                         "ProjectiveAction matrices of one size")
    return np.stack([f.matrix for f in maps])


def word_maps(nu: DrivingMeasure, word) -> list[MapDescriptor]:
    """The map descriptors that the labels ``word`` name."""
    if nu.finite:
        return [nu.atoms[int(i)][0] for i in word]
    return [nu.make_map(float(p)) for p in word]


def gee_diameter_sup(nu: DrivingMeasure, space: StateSpace, resolution: int) -> float:
    """Grid lower bound for the sup-metric diameter of a finite support on
    a one-dimensional space: max over map pairs of max over grid points of
    d(f(x), g(x))."""
    if not nu.finite:
        raise ValueError("the sup-diameter needs a finite driving measure")
    maps = [f for f, _ in nu.atoms]
    pts = grid(space, resolution)
    images = np.array([apply_map(f, pts) for f in maps])
    i, j = np.triu_indices(len(maps), 1)
    return float(np.max(distance(space, images[i], images[j]), initial=0.0))


def space_of(f: MapDescriptor) -> StateSpace:
    """Natural state space of a map descriptor."""
    if isinstance(f, (MoebiusDecay, PolynomialDecay)):
        return Interval(0.0, 1.0)
    if isinstance(f, ProjectiveAction):
        return Circle() if f.chart == "circle" else Projective(f.m)
    raise ValueError(f"{f!r} has no canonical space; supply one explicitly")


def support_space(nu: DrivingMeasure) -> StateSpace:
    """The space a system driven by ``nu`` lives on when none is named: that
    of the first map of the support, and [0, 1] for affine maps, which name
    none.  A chart matrix acts on its own chart's space alone."""
    f = nu.atoms[0][0] if nu.finite else nu.make_map(float(nu.sampler[1]))
    return Interval(0.0, 1.0) if isinstance(f, Affine) else space_of(f)
