"""Config-driven Monte Carlo experiment runner.

Estimates tail probabilities of orbit observables, evaluates the matching
closed-form bound, and performs dominance checks with confidence
intervals folded into the margin.

Every ``rdslab`` command is a ``run_*`` function here that takes an
``ExperimentConfig`` and returns rows for ``rows_to_csv`` (``run_tail``: a
report).  They share one start check (``orbit_start``), one single orbit
(``_orbit``), one reference measure and one bound ladder, and read every
config block by ``config`` before any draw.

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
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bounds as B
from .chains import simulate
from .estimators import (
    CorrelationDimensionError,
    correlation_dimension,
    correlation_sum,
    lambda_n,
    log_averaged_measure_from_values,
    lyapunov_1d,
    lyapunov_projective,
    lyapunov_projective_trials,
    sigma2_estimate,
    stationary_approx,
    step_labels,
)
from .config import (MAPS, PAIR, PARAMS, POINT, REAL, REFERENCES, SPACES, START, SYSTEMS,
                     ConfigError, ExperimentConfig, check, checked, one_of, read, read_kind)
from .maps import (Affine, DrivingMeasure, MoebiusDecay, PolynomialDecay, ProjectiveAction,
                   SingularDerivativeError, cocycle_matrices, space_of, support_space)
from .measures import EmpiricalMeasure, kantorovich_gaussian, kantorovich_rows
from .spaces import (Circle, Interval, Projective, canonical_direction, distance,
                     require_one_dimensional)
from .streams import SeededStream

__all__ = [
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


def _atom(atom, i: int) -> tuple:
    """The (map, weight) of entry i of an ``atoms`` list: a [map, weight]
    pair, the map an object read by ``MAPS``."""
    where = f"system 'atoms' entry {i}"
    m, w = check(PAIR, atom, where)
    kind, v = read_kind(m, MAPS, where, "map")
    make = {"moebius": MoebiusDecay, "polynomial": PolynomialDecay, "affine": Affine,
            "projective": ProjectiveAction}[kind]
    return checked(where, lambda: make(**v)), check(REAL, w, f"system 'atoms' weight of entry {i}")


def build_system(spec: dict) -> SystemSpec:
    """Instantiate a named or explicit system from its config block.

    Named systems carry their analytic constants; explicit atom lists do
    not, and bound inputs must then be supplied in the config.  An atoms
    system lives on its ``space`` block, which each chart matrix must fit,
    or else where its maps act (``maps.support_space``).
    """
    kind, v = read_kind(spec, SYSTEMS, "config 'system'", "system")
    where = f"system {kind!r}"
    if kind == "halving-ifs":
        nu = DrivingMeasure(atoms=((Affine(0.5, 0.0), 0.5), (Affine(0.5, 0.5), 0.5)))
        # coupled orbits contract by exactly 1/2 per step: lambda = sum 2^-k = 2
        return SystemSpec(nu, Interval(0.0, 1.0),
                          analytic={"lambda_nu": 2.0, "gee_inf": 0.5, "stationary": "lebesgue"})
    if kind == "moebius-uniform":
        nu = checked(where, lambda: DrivingMeasure(
            family="moebius", sampler=("uniform", v["lo"], v["hi"])))
        return SystemSpec(nu, Interval(0.0, 1.0),
                          analytic={"lambda_cap": "1+log(n+1)", "gee_rho": 0.5})
    if kind == "moebius-two-atom":
        w1 = v["weight1"]
        nu = checked(where, lambda: DrivingMeasure(atoms=((MoebiusDecay(v["alpha1"]), w1),
                                                          (MoebiusDecay(v["alpha2"]), 1.0 - w1))))
        return SystemSpec(nu, Interval(0.0, 1.0),
                          analytic={"lambda_cap": "1+log(n+1)", "gee_rho": 0.5})
    if kind == "identity":
        nu = DrivingMeasure(atoms=((Affine(1.0, 0.0), 1.0),))
        return SystemSpec(nu, Interval(0.0, 1.0))
    atoms = tuple(_atom(a, i) for i, a in enumerate(v["atoms"]))
    nu = checked(where, lambda: DrivingMeasure(atoms=atoms))
    if v["space"] is None:
        return SystemSpec(nu, support_space(nu))
    kind, s = read_kind(v["space"], SPACES, "system 'space'", "space")
    make = {"interval": Interval, "circle": Circle, "projective": Projective}[kind]
    space = checked("system 'space'", lambda: make(**s))
    for f, _ in nu.atoms:
        if isinstance(f, ProjectiveAction) and space != space_of(f):
            raise ConfigError(f"system 'space' {space!r} does not fit {f!r}, "
                              f"which acts on {space_of(f)!r}")
    return SystemSpec(nu, space)


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


def _reference_measure(sys_spec: SystemSpec, ref, stream: SeededStream, simulated=None):
    """(measure, provenance) of a reference block read by ``REFERENCES``;
    "auto" is Lebesgue where the system's law is known to be, else the
    ``simulated`` block (default: the simulate kind's defaults)."""
    if ref == "auto":
        lebesgue = sys_spec.analytic.get("stationary") == "lebesgue"
        ref = {"kind": "lebesgue"} if lebesgue else simulated or {"kind": "simulate"}
    kind, v = read_kind(ref, REFERENCES, "params 'reference'", "reference")
    if kind == "lebesgue":
        # k midpoints of the interval, or of [0, 1) for the circle's coordinates
        k = v["atoms"]
        pts = (np.arange(k) + 0.5) / k
        if isinstance(sys_spec.space, Interval):
            a, b = sys_spec.space.a, sys_spec.space.b
            pts = a + (b - a) * pts
        return EmpiricalMeasure.from_samples(sys_spec.space, pts), "analytic"
    return stationary_approx(sys_spec.nu, sys_spec.space, seed=stream, **v).measure, "estimated"


def orbit_start(sys_spec: SystemSpec, cfg: ExperimentConfig):
    """Start of every orbit of an experiment, checked before any draw:
    ``params.start`` (default e_1, rule ``START``) on projective systems
    and for matrix-cocycle rates, as its point of projective space
    (``canonical_direction``), and ``params.x0`` (default 0.5, rule
    ``POINT``) otherwise."""
    space = sys_spec.space
    if isinstance(space, Projective) or cfg.observable in COCYCLE_KINDS:
        m = checked("system", lambda: cocycle_matrices(sys_spec.nu)).shape[1]
        start = {"start": (START, [1.0] + [0.0] * (m - 1))}
        return canonical_direction(read(cfg.params, start, "params", Projective(m))["start"])
    return read(cfg.params, {"x0": (POINT, 0.5)}, "params", space)["x0"]


def _orbit(cfg: ExperimentConfig, sys_spec: SystemSpec, stream: SeededStream, n: int,
           record_log_derivative: bool = False):
    """One orbit of n steps from the experiment's start, drawn from
    ``stream``: the orbit of every single-orbit command.  An orbit that
    leaves the reals (a map's pole) is refused."""
    traj = simulate(sys_spec.nu, orbit_start(sys_spec, cfg), n, stream,
                    record_log_derivative=record_log_derivative, space=sys_spec.space)
    bad = np.flatnonzero(~np.isfinite(traj.points.reshape(n + 1, -1)).all(axis=1))
    if len(bad):
        raise ConfigError(f"params 'x0': the orbit's point at step {bad[0]} is not finite")
    return traj


def _step_mean(term):
    """Engine of the mean over the n steps of ``term(nu, ctx, labels, X)``,
    taken at each trial's state before its step."""
    def values(cfg, sys_spec, ctx, gens, counts):
        nu = sys_spec.nu
        X = np.full(sum(counts), ctx["start"])
        acc = np.zeros(X.shape)
        for labels in step_labels(nu, gens, cfg.n, counts):
            acc += term(nu, ctx, labels, X)
            X = nu.step(labels, X)
        return acc / cfg.n
    return values


def _sync(cfg, sys_spec, ctx, gens, counts):
    nu, space = sys_spec.nu, sys_spec.space
    X = np.full(sum(counts), ctx["start"])
    Y = np.tile(np.asarray(ctx["B"]), (len(X), 1))
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
    return kantorovich_rows(_orbits(cfg, sys_spec, ctx, gens, counts), ctx["reference"])


def _corr_sum(cfg, sys_spec, ctx, gens, counts):
    return np.array([correlation_sum(sys_spec.space, o, ctx["epsilon"], "phi0")
                     for o in _orbits(cfg, sys_spec, ctx, gens, counts)])


def _cocycle_rate(row):
    """Engine of one cocycle rate (0: vector, 1: norm): all trials of a
    chunk stepped together, each trial's word drawn trial-major."""
    def values(cfg, sys_spec, ctx, gens, counts):
        return np.concatenate([
            lyapunov_projective_trials(sys_spec.nu, ctx["start"], cfg.n, count, rng)[row]
            for rng, count in zip(gens, counts)])
    return values


# the tail observables: ``ENGINES[kind](cfg, sys_spec, ctx, gens, counts)``
# gives one value per trial of a group of chunks, chunk i holding
# ``counts[i]`` trials and drawing only from ``gens[i]``; ``ctx`` holds the
# params that ``PARAMS[kind]`` reads (``_build_context``)
ENGINES = {
    "birkhoff": _step_mean(lambda nu, ctx, labels, X: ctx["h"](X)),
    "lyap-1d": _step_mean(lambda nu, ctx, labels, X: nu.log_derivative(labels, X)),
    "sync": _sync,
    "kappa-to-stationary": _kappa,
    "kappa-interval": _kappa,
    "corr-sum": _corr_sum,
    "lyap-projective": _cocycle_rate(0),
    "lyap-matrix-norm": _cocycle_rate(1),
}


def _check_observable(cfg: ExperimentConfig, sys_spec: SystemSpec) -> dict:
    """The observable's params, read by ``PARAMS`` before any draw; a
    ConfigError when the observable is unknown or cannot run on the system:
    the cocycle rates need a finite measure over matrices of one size,
    every other engine a one-dimensional system."""
    kind, space = cfg.observable, sys_spec.space
    check(one_of(ENGINES), kind, "config 'observable'")
    params = read(cfg.params, PARAMS.get(kind, {}), f"{kind} params", space)
    if kind == "corr-sum" and cfg.n < 2:
        raise ConfigError("corr-sum needs 'n' >= 2")
    checked("system", lambda: cocycle_matrices(sys_spec.nu) if kind in COCYCLE_KINDS
            else require_one_dimensional(space, f"observable {kind!r}"))
    return params


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
    engine, width = ENGINES[cfg.observable], _group_chunks(cfg, sys_spec)
    return np.concatenate([
        engine(cfg, sys_spec, ctx,
               [stream.substream(i).generator() for i in range(g, min(g + width, len(counts)))],
               counts[g:g + width])
        for g in range(0, len(counts), width)])


# ---------------------------------------------------------------------------
# runners


def _build_context(cfg: ExperimentConfig, sys_spec: SystemSpec, stream: SeededStream,
                   params: dict):
    """(ctx, provenance) of the engine: its ``params``, the orbit start and
    the kappa observables' reference measure."""
    ctx, prov = dict(params, start=orbit_start(sys_spec, cfg)), {}
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
    if cfg.trials < 100:
        raise ConfigError("tail experiments need 'trials' >= 100")
    sys_spec = build_system(cfg.system)
    results, prov = _bound_ladder(cfg, sys_spec)
    params = _check_observable(cfg, sys_spec)
    stream = SeededStream(cfg.seed)
    ctx, ctx_prov = _build_context(cfg, sys_spec, stream, params)
    prov.update(ctx_prov)

    runs = []
    for i, run in ((1, "pilot"), (2, "main")):  # no nan reaches a verdict
        runs.append(checked("params 'x0'", lambda: _run_trials(
            cfg, sys_spec, ctx, stream.substream(i)), SingularDerivativeError))
        bad = np.count_nonzero(~np.isfinite(runs[-1]))
        if bad:
            raise ConfigError(f"params 'x0': {bad} of {cfg.trials} {run} trials are not finite")
    pilot, values = runs

    center = float(pilot.mean())
    halfwidth = float(B.Z95 * pilot.std(ddof=1) / np.sqrt(len(pilot)))
    dev = np.abs(values - center) if B.BOUNDS[cfg.bound].two_sided else values - center

    rows = []
    for t, res in zip(cfg.t_ladder, results):
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
    """(results, provenance) of the bound along the t-ladder.  Every bound
    error surfaces here, before any simulation, so ``tail`` and ``bounds``
    refuse alike.  An input that restates the run must agree with it:
    ``m_dim`` on a matrix cocycle is the size of its matrices, and
    ``epsilon`` on a corr-sum is the params' kernel width."""
    inputs, prov = B.resolve_inputs(cfg.bound, cfg.inputs, sys_spec.analytic)
    if "epsilon" in inputs and cfg.observable == "corr-sum":
        eps = read(cfg.params, PARAMS["corr-sum"], "corr-sum params")["epsilon"]
        if inputs["epsilon"] != eps:
            raise ConfigError(f"bound {cfg.bound!r} input 'epsilon' {inputs['epsilon']} is not "
                              f"the corr-sum params 'epsilon' {eps}")
    if "m_dim" in inputs:
        try:
            size = len(cocycle_matrices(sys_spec.nu)[0])
        except ValueError:  # not a matrix cocycle: no size to check against
            size = inputs["m_dim"]
        if inputs["m_dim"] != size:
            raise ConfigError(f"bound {cfg.bound!r} input 'm_dim' {inputs['m_dim']} is not "
                              f"the size {size} of the system's matrices")
    return [B.evaluate(cfg.bound, cfg.n, t, inputs) for t in cfg.t_ladder], prov


def run_bounds(cfg: ExperimentConfig) -> list[dict]:
    """The bound and its validity threshold at each t, with no simulation."""
    results, _ = _bound_ladder(cfg, build_system(cfg.system))
    return [{"t": t, "bound": res.value, "threshold": res.threshold,
             "applicable": res.applicable, "vacuous": res.vacuous}
            for t, res in zip(cfg.t_ladder, results)]


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
    p = read(cfg.params, PARAMS["corr-dim"], "corr-dim params")
    ladder = [p["epsilon0"] * 2.0**-j for j in range(p["rungs"])]
    if not all(a > b > 0 for a, b in zip(ladder, ladder[1:])):
        raise ConfigError(f"corr-dim params 'epsilon0' underflows in {p['rungs']} rungs")
    if cfg.n < 2:
        raise ConfigError("corr-dim needs 'n' >= 2")
    points = _orbit(cfg, sys_spec, SeededStream(cfg.seed), cfg.n).points[:-1]
    slope, intercept, table = checked("corr-dim params 'epsilon0'", lambda: correlation_dimension(
        sys_spec.space, points, ladder), CorrelationDimensionError)
    return [{"epsilon": e, "K": k, "slope": slope, "intercept": intercept} for e, k in table]


def run_lyap(cfg: ExperimentConfig) -> list[dict]:
    """Finite-time Lyapunov rate of one orbit (vector and norm rates for a
    matrix cocycle, the only rates of a projective system)."""
    sys_spec = build_system(cfg.system)
    if isinstance(sys_spec.space, Projective) and cfg.observable not in COCYCLE_KINDS:
        raise ConfigError(f"config 'observable' {cfg.observable!r}: a projective "
                          f"system's rates are {COCYCLE_KINDS}")
    stream = SeededStream(cfg.seed)
    if cfg.observable in COCYCLE_KINDS:
        v, w = lyapunov_projective(sys_spec.nu, orbit_start(sys_spec, cfg), cfg.n,
                                   stream.generator())
        return [{"n": cfg.n, "vector_rate": v, "norm_rate": w}]
    traj = checked("params 'x0'", lambda: _orbit(cfg, sys_spec, stream, cfg.n, True),
                   SingularDerivativeError)
    rate = lyapunov_1d(traj)
    if not np.isfinite(rate):
        raise ConfigError(f"params 'x0': the orbit's rate {rate} is not finite")
    return [{"n": cfg.n, "rate": rate}]


def run_lambda_survey(cfg: ExperimentConfig) -> list[dict]:
    """Grid-max contraction-sum estimates along an n-ladder, with the
    analytic cap column for library families and a divergence marker: a nan
    estimate, or one above ``params.ceiling`` (default 10 x the cap, else
    100)."""
    sys_spec = build_system(cfg.system)
    p = read(cfg.params, PARAMS["lambda"], "lambda params")
    checked("system", lambda: require_one_dimensional(sys_spec.space, "lambda"))
    out = []
    for i, n in enumerate(p["n_ladder"]):
        cap = _analytic_cap(sys_spec, n)
        ceiling = p["ceiling"] or (10.0 * cap if cap is not None else 100.0)
        est = lambda_n(sys_spec.nu, sys_spec.space, n, cfg.trials,
                       SeededStream(cfg.seed).substream(i), resolution=p["grid"])
        out.append({"n": n, "lambda_hat": est.value, "stderr": est.stderr,
                    "analytic_cap": cap if cap is not None else float("nan"),
                    "diverged": not est.value <= ceiling})
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
    p = read(cfg.params, PARAMS["asclt"], "asclt params")
    ladder, h = p["n_ladder"], p["h"]
    checked("system", lambda: require_one_dimensional(sys_spec.space, "asclt"))
    stream = SeededStream(cfg.seed)
    # one orbit, its start checked before any draw; every rung is a prefix
    traj = _orbit(cfg, sys_spec, stream.substream(3), max(ladder))
    eta, _ = _reference_measure(sys_spec, "auto", stream.substream(1),
                                {"kind": "simulate", "samples": 4000})
    s2 = sigma2_estimate(sys_spec.nu, sys_spec.space, p["sigma_n"], p["sigma_trials"],
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


def _json_safe(x):
    """``x`` with every non-finite float as None, which JSON writes null."""
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    return None if isinstance(x, float) and not np.isfinite(x) else x


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
    return json.dumps(_json_safe(doc), indent=2, default=float) + "\n"
