"""Config-driven Monte Carlo experiment runner.

Estimates tail probabilities of orbit observables, evaluates the matching
closed-form bound, and performs dominance checks with confidence
intervals folded into the margin.

Every ``rdslab`` command is a ``run_*`` function here that takes an
``ExperimentConfig`` and returns rows for ``rows_to_csv`` (``run_tail``: a
report).  They share one start check (``orbit_start``), one single orbit
(``_orbit``), one reference measure and one bound ladder.

Determinism contract: identical config + seed yields byte-identical
reports, because the draw order is fixed:

* trials are partitioned into chunks of ``CHUNK`` and chunk i draws from
  substream i of the experiment stream: the chunk is the unit of
  determinism;
* up to ``GROUP`` chunks are stepped as one vector: the group is only the
  width of the numpy calls, and no chunk's draws depend on it.  Orbit
  observables at large n take fewer, and systems with circle-chart
  matrices one chunk at a time (see ``_group_chunks``);
* the step engines, like every trial-batched loop, draw labels through
  ``estimators.step_labels``: step-major (step k's labels for every trial
  of the chunk follow step k-1's), in blocks of at most
  ``estimators.LABEL_BLOCK`` labels;
* the cocycle engine draws trial-major (trial i's n labels follow trial
  i-1's), one chunk after another.

Chunks run in order in one thread; the ``threads`` field (``--threads``)
is accepted and has no effect.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import bounds as B
from .chains import simulate
from .estimators import (
    correlation_dimension,
    correlation_sum,
    lambda_n,
    log_averaged_measure_from_values,
    lyapunov_1d,
    lyapunov_projective,
    lyapunov_projective_trials,
    phi0,
    sigma2_estimate,
    stationary_approx,
    step_labels,
)
from .bounds import _integral, _number
from .maps import (Affine, DrivingMeasure, MoebiusDecay, PolynomialDecay, ProjectiveAction,
                   cocycle_matrices, space_of, support_space)
from .measures import (
    EmpiricalMeasure,
    kantorovich_circle_rows,
    kantorovich_gaussian,
    kantorovich_interval_rows,
)
from .observables import get_observable
from .spaces import Circle, Interval, Projective, distance, require_one_dimensional
from .streams import SeededStream

__all__ = [
    "ExperimentConfig",
    "TailReport",
    "SystemSpec",
    "build_system",
    "run_tail",
    "run_lambda_survey",
    "run_asclt",
    "run_simulate",
    "run_corrdim",
    "run_lyap",
    "run_bounds",
    "report_to_csv",
    "report_to_json",
]

# trials of a chunk, which draws from its own substream: the unit of
# determinism
CHUNK = 256
# most chunks stepped as one vector: the width of every numpy call, which
# bounds the memory of a group whatever the number of trials
GROUP = 32
# most orbit points held at once by an observable of ORBIT_KINDS, which
# keeps every point of its group, so its groups narrow as n grows
ORBIT_POINTS = 1 << 20

# observables of the matrix cocycle, which start from a vector
COCYCLE_KINDS = ("lyap-projective", "lyap-matrix-norm")
# observables reduced from whole orbits (``_orbits``)
ORBIT_KINDS = ("kappa-to-stationary", "kappa-interval", "corr-sum")


# ---------------------------------------------------------------------------
# system construction


@dataclass
class SystemSpec:
    nu: DrivingMeasure
    space: object
    analytic: dict = field(default_factory=dict)  # known constants by name


def _map_from_dict(d: dict):
    kind = d["kind"]
    if kind == "moebius":
        return MoebiusDecay(float(d["alpha"]))
    if kind == "polynomial":
        return PolynomialDecay(float(d["alpha"]))
    if kind == "affine":
        return Affine(float(d["slope"]), float(d["offset"]))
    if kind == "projective":
        return ProjectiveAction(d["matrix"], chart=d.get("chart", "projective"))
    raise ValueError(f"unknown map kind {kind!r}")


def build_system(spec: dict) -> SystemSpec:
    """Instantiate a named or explicit system from its config block.

    Named systems carry their analytic constants; explicit atom lists do
    not, and bound inputs must then be supplied in the config.  An atoms
    system lives on its ``space`` block, which each chart matrix must fit,
    or else where its maps act (``maps.support_space``).
    """
    kind = spec["kind"]
    if kind == "halving-ifs":
        nu = DrivingMeasure(
            atoms=((Affine(0.5, 0.0), 0.5), (Affine(0.5, 0.5), 0.5))
        )
        # coupled orbits contract by exactly 1/2 per step: lambda = sum 2^-k = 2
        return SystemSpec(nu, Interval(0.0, 1.0),
                          analytic={"lambda_nu": 2.0, "gee_inf": 0.5, "stationary": "lebesgue"})
    if kind == "moebius-uniform":
        lo, hi = float(spec.get("lo", 1.0)), float(spec.get("hi", 2.0))
        nu = DrivingMeasure(family="moebius", sampler=("uniform", lo, hi))
        return SystemSpec(nu, Interval(0.0, 1.0),
                          analytic={"lambda_cap": "1+log(n+1)", "gee_rho": 0.5})
    if kind == "moebius-two-atom":
        a1, a2 = float(spec.get("alpha1", 1.0)), float(spec.get("alpha2", 2.0))
        w1 = float(spec.get("weight1", 0.5))
        nu = DrivingMeasure(atoms=((MoebiusDecay(a1), w1), (MoebiusDecay(a2), 1.0 - w1)))
        return SystemSpec(nu, Interval(0.0, 1.0),
                          analytic={"lambda_cap": "1+log(n+1)", "gee_rho": 0.5})
    if kind == "identity":
        nu = DrivingMeasure(atoms=((Affine(1.0, 0.0), 1.0),))
        return SystemSpec(nu, Interval(0.0, 1.0))
    if kind == "atoms":
        nu = DrivingMeasure(atoms=tuple((_map_from_dict(m), float(w)) for m, w in spec["atoms"]))
        if spec.get("space") is None:
            return SystemSpec(nu, support_space(nu))
        space = _space_from_dict(spec["space"])
        for f, _ in nu.atoms:
            if isinstance(f, ProjectiveAction) and space != space_of(f):
                raise ValueError(f"system 'space' {space!r} does not fit {f!r}, "
                                 f"which acts on {space_of(f)!r}")
        return SystemSpec(nu, space)
    raise ValueError(f"unknown system kind {kind!r}")


def _space_from_dict(d):
    kind = d["kind"]
    if kind == "interval":
        return Interval(float(d.get("a", 0.0)), float(d.get("b", 1.0)))
    if kind == "circle":
        return Circle()
    if kind == "projective":
        return Projective(_count(d, "m", 2, 2, where="space"))
    raise ValueError(f"unknown space kind {kind!r}")


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    system: dict
    observable: str = "birkhoff"
    params: dict = field(default_factory=dict)
    n: int = 100
    t_ladder: list = field(default_factory=lambda: [0.1, 0.2, 0.3])
    trials: int = 1000
    seed: int = 0
    bound: str = "lln"
    inputs: dict = field(default_factory=dict)
    threads: int = 1  # accepted and ignored: chunks run in order in one thread

    def __post_init__(self):
        self.n = _count(vars(self), "n", None, 1, where="config")
        self.trials = _count(vars(self), "trials", None, 1, where="config")
        self.seed = _count(vars(self), "seed", None, 0, where="config")
        if self.trials < 100 and self.observable != "asclt-kappa":
            raise ValueError("tail experiments need at least 100 trials")
        t = list(self.t_ladder)
        if any(b <= a for a, b in zip(t, t[1:])):
            raise ValueError("t-ladder must be strictly increasing")


# the columns of a tail report's rows, in CSV order
TAIL_COLUMNS = ("t", "p_hat", "ci_lo", "ci_hi", "bound", "threshold", "verdict")


@dataclass
class TailReport:
    rows: list  # dicts with the keys TAIL_COLUMNS
    center: float
    center_halfwidth: float
    provenance: dict
    config: ExperimentConfig
    runtime: float


# ---------------------------------------------------------------------------
# per-trial observable engines (vectorized across a group of chunks)


def _reference_measure(sys_spec: SystemSpec, ref, stream: SeededStream, samples: int = 2000):
    """(measure, provenance) named by a ``params.reference`` value; "auto"
    is Lebesgue where the system's law is known to be, else simulated."""
    if ref == "auto":
        ref = {"kind": "lebesgue"} if sys_spec.analytic.get("stationary") == "lebesgue" else {
            "kind": "simulate"}
    kind = ref.get("kind") if isinstance(ref, dict) else None
    if kind not in ("lebesgue", "simulate"):
        raise ValueError(f"params 'reference' needs kind 'lebesgue' or 'simulate', got {ref!r}")
    if kind == "lebesgue":
        # k midpoints of the interval, or of [0, 1) for the circle's coordinates
        k = _count(ref, "atoms", 512, 1, where="params 'reference'")
        pts = (np.arange(k) + 0.5) / k
        if isinstance(sys_spec.space, Interval):
            a, b = sys_spec.space.a, sys_spec.space.b
            pts = a + (b - a) * pts
        return EmpiricalMeasure.from_samples(sys_spec.space, pts), "analytic"
    approx = stationary_approx(
        sys_spec.nu,
        sys_spec.space,
        burn_in=_count(ref, "burn_in", 1000, 0, where="params 'reference'"),
        samples=_count(ref, "samples", samples, 1, where="params 'reference'"),
        stride=_count(ref, "stride", 1, 1, where="params 'reference'"),
        seed=stream,
    )
    return approx.measure, "estimated"


def orbit_start(sys_spec: SystemSpec, cfg: ExperimentConfig):
    """Start of every orbit of an experiment, checked before any draw:
    ``params.start`` (default e_1), a nonzero finite vector, on projective
    systems and for matrix-cocycle rates; ``params.x0`` (default 0.5), a
    finite number inside an interval (any circle lift), otherwise."""
    space = sys_spec.space
    if isinstance(space, Projective) or cfg.observable in COCYCLE_KINDS:
        m = cocycle_matrices(sys_spec.nu).shape[1]
        start = cfg.params.get("start", [1.0] + [0.0] * (m - 1))
        if not (isinstance(start, (list, tuple, np.ndarray)) and len(start) == m
                and all(map(_number, start)) and any(start)):
            raise ValueError(f"params 'start' must be {m} finite numbers, not all 0, "
                             f"got {start!r}")
        return np.asarray(start, dtype=float)
    x0 = cfg.params.get("x0", 0.5)
    if not _in_space(space, x0):
        raise ValueError(f"params 'x0' must be a finite number in {space!r}, got {x0!r}")
    return float(x0)


def _orbit(cfg: ExperimentConfig, sys_spec: SystemSpec, stream: SeededStream, n: int,
           record_log_derivative: bool = False):
    """One orbit of n steps from the experiment's start, drawn from
    ``stream``: the orbit of every single-orbit command."""
    return simulate(sys_spec.nu, orbit_start(sys_spec, cfg), n, stream,
                    record_log_derivative=record_log_derivative, space=sys_spec.space)


def _birkhoff(cfg, sys_spec, ctx, gens, counts):
    nu, h = sys_spec.nu, ctx["h"]
    X = np.full(sum(counts), ctx["start"])
    acc = np.zeros(X.shape)
    for labels in step_labels(nu, gens, cfg.n, counts):
        acc += h(X)
        X = nu.step(labels, X)
    return acc / cfg.n


def _lyap_1d(cfg, sys_spec, ctx, gens, counts):
    nu = sys_spec.nu
    X = np.full(sum(counts), ctx["start"])
    acc = np.zeros(X.shape)
    for labels in step_labels(nu, gens, cfg.n, counts):
        acc += nu.log_derivative(labels, X)
        X = nu.step(labels, X)
    return acc / cfg.n


def _sync(cfg, sys_spec, ctx, gens, counts):
    nu, space = sys_spec.nu, sys_spec.space
    Bset = [float(b) for b in cfg.params["B"]]
    X = np.full(sum(counts), ctx["start"])
    Y = np.tile(np.asarray(Bset), (len(X), 1))
    acc = np.zeros(Y.shape)
    for labels in step_labels(nu, gens, cfg.n, counts):
        acc += distance(space, X[:, None], Y)
        X = nu.step(labels, X)
        Y = nu.step(labels, Y)
    return acc.min(axis=1) / cfg.n


def _orbits(cfg, sys_spec, ctx, gens, counts):
    """The first n points of each trial's orbit, shape (trials, n)."""
    nu = sys_spec.nu
    X = np.full(sum(counts), ctx["start"])
    orbit = np.empty((len(X), cfg.n))
    for k, labels in enumerate(step_labels(nu, gens, cfg.n, counts)):
        orbit[:, k] = X
        X = nu.step(labels, X)
    return orbit


def _kappa(cfg, sys_spec, ctx, gens, counts):
    space, ref = sys_spec.space, ctx["reference"]
    rows = kantorovich_circle_rows if isinstance(space, Circle) else kantorovich_interval_rows
    return rows(_orbits(cfg, sys_spec, ctx, gens, counts), ref)


def _corr_sum(cfg, sys_spec, ctx, gens, counts):
    eps = float(cfg.params["epsilon"])
    return np.array([correlation_sum(sys_spec.space, o, eps, phi0).value
                     for o in _orbits(cfg, sys_spec, ctx, gens, counts)])


def _cocycle_rate(row):
    """Engine of one cocycle rate (0: vector, 1: norm): all trials of a
    chunk stepped together, each trial's word drawn trial-major."""
    def values(cfg, sys_spec, ctx, gens, counts):
        return np.concatenate([
            lyapunov_projective_trials(sys_spec.nu, ctx["start"], cfg.n, count, rng)[row]
            for rng, count in zip(gens, counts)])
    return values


@dataclass(frozen=True)
class Engine:
    """A tail observable: ``values(cfg, sys_spec, ctx, gens, counts)`` gives
    one value per trial of a group of chunks, chunk i holding ``counts[i]``
    trials and drawing only from ``gens[i]``; ``params`` maps each
    ``cfg.params`` key it reads without a default to a (description, test)
    rule for its value."""

    values: Callable
    params: dict = field(default_factory=dict)


def _count(mapping: dict, key: str, default: int, minimum: int, where: str = "params") -> int:
    """``mapping[key]`` (default ``default``) as an int; a ValueError naming
    the key unless it is an integral number, not a bool, >= ``minimum``."""
    value = mapping.get(key, default)
    if not _integral(value, minimum):
        raise ValueError(f"{where} {key!r} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _n_ladder(cfg: ExperimentConfig, command: str, default: list, minimum: int) -> list[int]:
    """``params.n_ladder``: a nonempty list of integers >= ``minimum``."""
    ladder = cfg.params.get("n_ladder", default)
    if not (isinstance(ladder, (list, tuple)) and ladder
            and all(_integral(n, minimum) for n in ladder)):
        raise ValueError(f"{command} needs params 'n_ladder', a nonempty list of integers "
                         f">= {minimum}, got {ladder!r}")
    return [int(n) for n in ladder]


def _in_space(space, v) -> bool:
    """A finite JSON number inside an interval, or any finite circle lift."""
    return _number(v) and not (isinstance(space, Interval) and not space.a <= v <= space.b)


_NONEMPTY_POINTS = ("a nonempty list of points of the space", lambda v, space: (
    isinstance(v, list) and len(v) > 0 and all(_in_space(space, b) for b in v)))
_POSITIVE = ("a positive number", lambda v, space: _number(v) and v > 0)

ENGINES = {
    "birkhoff": Engine(_birkhoff),
    "lyap-1d": Engine(_lyap_1d),
    "sync": Engine(_sync, {"B": _NONEMPTY_POINTS}),
    "kappa-to-stationary": Engine(_kappa),
    "kappa-interval": Engine(_kappa),
    "corr-sum": Engine(_corr_sum, {"epsilon": _POSITIVE}),
    "lyap-projective": Engine(_cocycle_rate(0)),
    "lyap-matrix-norm": Engine(_cocycle_rate(1)),
}


def _check_observable(cfg: ExperimentConfig, sys_spec: SystemSpec):
    """Fail with a ValueError, before any draw, when the observable is
    unknown, misses a parameter or has one of the wrong value, or cannot
    run on the system: the cocycle rates need a finite measure over
    matrices of one size, every other engine a one-dimensional system."""
    kind, nu, space = cfg.observable, sys_spec.nu, sys_spec.space
    if kind not in ENGINES:
        raise ValueError(f"unknown observable kind {kind!r}")
    for key, (what, valid) in ENGINES[kind].params.items():
        if key not in cfg.params or not valid(cfg.params[key], space):
            raise ValueError(f"observable {kind!r} on {space!r} needs params {key!r}, {what}")
    if kind in COCYCLE_KINDS:
        cocycle_matrices(nu)
    else:
        require_one_dimensional(space, f"observable {kind!r}")


def _group_values(cfg: ExperimentConfig, sys_spec: SystemSpec, ctx: dict,
                  streams: list, counts: list) -> np.ndarray:
    """Observable value of each trial of a group of chunks, one noise
    realization per trial: chunk i holds ``counts[i]`` trials, all drawing
    from ``streams[i]``, and the group is stepped as one vector."""
    gens = [s.generator() for s in streams]
    return ENGINES[cfg.observable].values(cfg, sys_spec, ctx, gens, counts)


def _group_chunks(cfg: ExperimentConfig, sys_spec: SystemSpec) -> int:
    """Chunks stepped as one vector: ``GROUP``, or fewer for an orbit
    observable whose group would hold more than ``ORBIT_POINTS`` points.
    Circle-chart matrices take one: their ``apply_map`` rounds a 1-row
    batch differently from a larger one, so an atom's trials must keep
    their per-chunk batches."""
    nu = sys_spec.nu
    if nu.finite and any(isinstance(f, ProjectiveAction) and f.chart == "circle"
                         for f, _ in nu.atoms):
        return 1
    if cfg.observable in ORBIT_KINDS:
        return max(1, min(GROUP, ORBIT_POINTS // (CHUNK * cfg.n)))
    return GROUP


def _run_trials(cfg: ExperimentConfig, sys_spec: SystemSpec, ctx: dict,
                stream: SeededStream) -> np.ndarray:
    """All per-trial observable values; chunk i draws from substream i, and
    up to ``GROUP`` chunks are stepped together."""
    counts = [min(CHUNK, cfg.trials - lo) for lo in range(0, cfg.trials, CHUNK)]
    width = _group_chunks(cfg, sys_spec)
    return np.concatenate([
        _group_values(cfg, sys_spec, ctx,
                      [stream.substream(i) for i in range(g, min(g + width, len(counts)))],
                      counts[g:g + width])
        for g in range(0, len(counts), width)])


# ---------------------------------------------------------------------------
# runners


def _build_context(cfg: ExperimentConfig, sys_spec: SystemSpec, stream: SeededStream):
    ctx = {"start": orbit_start(sys_spec, cfg)}
    prov = {}
    if cfg.observable == "birkhoff":
        ctx["h"] = get_observable(cfg.params.get("h", "coordinate"))
    if cfg.observable in ("kappa-to-stationary", "kappa-interval"):
        ctx["reference"], prov["reference"] = _reference_measure(
            sys_spec, cfg.params.get("reference", "auto"), stream.substream(10_000_001))
    return ctx, prov


def run_tail(cfg: ExperimentConfig) -> TailReport:
    """Tail-dominance experiment: pilot run for centering, main run for the
    empirical tail, closed-form bound per t, dominance verdict per row.

    The pilot confidence-interval halfwidth is folded into the deviation
    margin (deviations are compared against t minus the halfwidth), which
    only increases the empirical tail and keeps the check conservative.
    """
    t0 = time.perf_counter()
    sys_spec = build_system(cfg.system)
    ladder, results, prov = _bound_ladder(cfg, sys_spec)
    _check_observable(cfg, sys_spec)
    stream = SeededStream(cfg.seed)
    ctx, ctx_prov = _build_context(cfg, sys_spec, stream)
    prov.update(ctx_prov)

    pilot_stream, main_stream = stream.substream(1), stream.substream(2)
    pilot = _run_trials(cfg, sys_spec, ctx, pilot_stream)
    values = _run_trials(cfg, sys_spec, ctx, main_stream)

    center = float(pilot.mean())
    halfwidth = float(1.959963984540054 * pilot.std(ddof=1) / np.sqrt(len(pilot)))
    dev = np.abs(values - center) if B.BOUNDS[cfg.bound].two_sided else values - center

    rows = []
    for t, res in zip(ladder, results):
        t_eff = t - halfwidth
        if not res.applicable or t_eff <= 0:
            rows.append({"t": t, "p_hat": float("nan"), "ci_lo": float("nan"),
                         "ci_hi": float("nan"), "bound": res.value,
                         "threshold": res.threshold, "verdict": "not-applicable"})
            continue
        k = int(np.count_nonzero(dev > t_eff))
        p_hat = k / cfg.trials
        lo, hi = B.wilson_interval(k, cfg.trials)
        verdict = "pass" if hi <= res.value else "fail"
        if res.vacuous and verdict == "pass":
            verdict = "pass-vacuous"
        rows.append({"t": t, "p_hat": p_hat, "ci_lo": lo, "ci_hi": hi,
                     "bound": res.value, "threshold": res.threshold, "verdict": verdict})
    return TailReport(rows=rows, center=center, center_halfwidth=halfwidth,
                      provenance=prov, config=cfg, runtime=time.perf_counter() - t0)


def _bound_ladder(cfg: ExperimentConfig, sys_spec: SystemSpec):
    """(ladder, results, provenance) of the bound along the t-ladder; every
    bound error, an empty ladder or a missing input included, surfaces
    here, before any simulation."""
    inputs, prov = B.resolve_inputs(cfg.bound, cfg.inputs, sys_spec.analytic)
    ladder = [float(t) for t in cfg.t_ladder]
    if not ladder:
        raise ValueError("the bound needs 't_ladder', a nonempty list of deviations")
    return ladder, [B.evaluate(cfg.bound, cfg.n, t, inputs) for t in ladder], prov


def run_bounds(cfg: ExperimentConfig) -> list[dict]:
    """The bound and its validity threshold at each t, with no simulation."""
    ladder, results, _ = _bound_ladder(cfg, build_system(cfg.system))
    return [{"t": t, "bound": res.value, "threshold": res.threshold,
             "applicable": res.applicable, "vacuous": res.vacuous}
            for t, res in zip(ladder, results)]


def run_simulate(cfg: ExperimentConfig) -> list[dict]:
    """The n + 1 points of one orbit, as ``x`` or ``x1``…``xm``."""
    sys_spec = build_system(cfg.system)
    points = _orbit(cfg, sys_spec, SeededStream(cfg.seed), cfg.n).points
    if points.ndim == 2:
        return [{"k": k, **{f"x{i}": float(c) for i, c in enumerate(x, start=1)}}
                for k, x in enumerate(points)]
    return [{"k": k, "x": float(x)} for k, x in enumerate(np.atleast_1d(points))]


def run_corrdim(cfg: ExperimentConfig) -> list[dict]:
    """Correlation sums of n orbit points at ``epsilon0`` · 2^-j, j <
    ``rungs``, with the fitted log-log slope and intercept."""
    sys_spec = build_system(cfg.system)
    eps0 = cfg.params.get("epsilon0", 0.1)
    if not (_number(eps0) and eps0 > 0):
        raise ValueError(f"corr-dim needs params 'epsilon0', a positive number, got {eps0!r}")
    rungs = _count(cfg.params, "rungs", 5, 3)
    ladder = [float(eps0) * 2.0**-j for j in range(rungs)]
    points = _orbit(cfg, sys_spec, SeededStream(cfg.seed), cfg.n).points[:-1]
    slope, intercept, table = correlation_dimension(sys_spec.space, points, ladder)
    return [{"epsilon": e, "K": k, "slope": slope, "intercept": intercept} for e, k in table]


def run_lyap(cfg: ExperimentConfig) -> list[dict]:
    """Finite-time Lyapunov rate of one orbit (vector and norm rates for a
    matrix cocycle)."""
    sys_spec = build_system(cfg.system)
    stream = SeededStream(cfg.seed)
    if cfg.observable in COCYCLE_KINDS:
        v, w = lyapunov_projective(sys_spec.nu, orbit_start(sys_spec, cfg), cfg.n,
                                   stream.generator())
        return [{"n": cfg.n, "vector_rate": v, "norm_rate": w}]
    traj = _orbit(cfg, sys_spec, stream, cfg.n, record_log_derivative=True)
    return [{"n": cfg.n, "rate": lyapunov_1d(traj)}]


def run_lambda_survey(cfg: ExperimentConfig) -> list[dict]:
    """Grid-max contraction-sum estimates along an n-ladder, with the
    analytic cap column for library families and a divergence marker."""
    sys_spec = build_system(cfg.system)
    ladder = _n_ladder(cfg, "lambda", [10, 100], 0)
    resolution = _count(cfg.params, "grid", 64, 2)
    given = cfg.params.get("ceiling")
    if "ceiling" in cfg.params and not (_number(given) and given > 0):
        raise ValueError(f"lambda needs params 'ceiling', a positive number, got {given!r}")
    out = []
    for i, n in enumerate(ladder):
        cap = _analytic_cap(sys_spec, n)
        ceiling = cfg.params.get("ceiling", 10.0 * cap if cap is not None else 100.0)
        est = lambda_n(sys_spec.nu, sys_spec.space, n, cfg.trials,
                       SeededStream(cfg.seed).substream(i),
                       resolution=resolution, ceiling=float(ceiling))
        out.append({"n": n, "lambda_hat": est.value, "stderr": est.stderr,
                    "analytic_cap": cap if cap is not None else float("nan"),
                    "diverged": est.diverged})
    return out


def _analytic_cap(sys_spec: SystemSpec, n: int):
    if sys_spec.analytic.get("lambda_cap") == "1+log(n+1)":
        return 1.0 + float(np.log(n + 1))
    if "lambda_nu" in sys_spec.analytic:
        return float(sys_spec.analytic["lambda_nu"])
    return None


def run_asclt(cfg: ExperimentConfig) -> list[dict]:
    """Log-averaged scaled Birkhoff sums of one incrementally extended
    orbit, compared against the Gaussian with the estimated limit
    variance along a powers-of-2 ladder."""
    sys_spec = build_system(cfg.system)
    h = get_observable(cfg.params.get("h", "centered"))
    ladder = _n_ladder(cfg, "asclt", [2**k for k in range(6, 15)], 1)
    sigma_n = _count(cfg.params, "sigma_n", 200, 1)
    sigma_trials = _count(cfg.params, "sigma_trials", 4000, 1)
    require_one_dimensional(sys_spec.space, "asclt")
    stream = SeededStream(cfg.seed)
    # one orbit, its start checked before any draw; every rung is a prefix
    traj = _orbit(cfg, sys_spec, stream.substream(3), max(ladder))
    eta, _ = _reference_measure(sys_spec, "auto", stream.substream(1), samples=4000)
    s2 = sigma2_estimate(sys_spec.nu, sys_spec.space, sigma_n, sigma_trials,
                         eta, h, stream.substream(2))
    sigma = float(np.sqrt(max(0.0, s2.value)))
    degenerate = s2.value <= 0.0

    hvals = np.asarray(h(traj.points[:-1]), dtype=float) - s2.centering_offset
    out = []
    for n in ladder:
        mu = log_averaged_measure_from_values(hvals, n)
        kappa = kantorovich_gaussian(mu, 0.0 if degenerate else sigma)
        out.append({"n": n, "kappa": kappa, "sigma2": s2.value,
                    "degenerate": degenerate})
    return out


# ---------------------------------------------------------------------------
# serialization


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


# '%.17g' % x is format(x, '.17g'), nan, inf and -0 included
_FLOATS, _INTS = {float, np.float64}, {int, np.int64}


def _column(values: list) -> tuple[str, list]:
    """(spec, cells) of one CSV column with the bytes of ``_fmt``."""
    types = set(map(type, values))
    if types <= _FLOATS:
        return "%.17g", values
    if types <= _INTS:
        return "%d", values
    return "%s", [_fmt(v) for v in values]


def rows_to_csv(rows: list[dict], keys=None) -> str:
    """One CSV line per row under the header ``keys`` (default: row 0's)."""
    keys = list(keys or (rows[0] if rows else ()))
    if not keys:
        return "\n" * (len(rows) + 1)
    specs, columns = zip(*(_column([r[k] for r in rows]) for k in keys))
    line = ",".join(specs)
    return "\n".join([",".join(keys)] + [line % cells for cells in zip(*columns)]) + "\n"


def report_to_csv(report: TailReport) -> str:
    return rows_to_csv(report.rows, TAIL_COLUMNS)


def report_to_json(report: TailReport) -> str:
    doc = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "rows": report.rows,
        "center": report.center,
        "center_halfwidth": report.center_halfwidth,
        "provenance": report.provenance,
        "config": asdict(report.config),
        "runtime_seconds": report.runtime,
    }
    return json.dumps(doc, indent=2, default=float) + "\n"
