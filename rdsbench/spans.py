"""Per-layer tracing of rdslab from outside the program.

The rdslab modules bind each other's functions with ``from .x import y``,
so a call crosses a layer boundary at the name the *caller* looks up.  The
probes here replace those names, in every module's namespace, with
wrappers that open a span for the callee's layer.  A span opens only when
the innermost open span on the calling thread belongs to another layer,
so calls inside one layer add no spans.  Work counts are taken from the
arguments of a few functions at every site that names them, including the
home module itself (``chains.simulate_coupled`` calling ``draw_word``).

Spans stay in memory; :func:`layer_metrics` folds them into per-layer
call counts and self times.  A span's self time is its duration minus the
union of its children's intervals, so children that overlap (chunks run
by pool threads) are not subtracted twice.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import math
import sys
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

LAYERS = ("spaces", "streams", "maps", "chains", "observables", "measures",
          "estimators", "bounds", "harness", "cli")

# work counts and the unit costs derived from them: count -> unit-cost name
UNIT_COSTS = {
    "chains.draws": "chains.ns_per_draw",
    "chains.orbit_steps": "chains.ns_per_orbit_step",
    "maps.points": "maps.ns_per_point",
    "estimators.state_steps": "estimators.ns_per_state_step",
    "estimators.pair_steps": "estimators.ns_per_pair_step",
    "estimators.corr_pairs": "estimators.ns_per_corr_pair",
    "estimators.cocycle_steps": "estimators.ns_per_cocycle_step",
    "measures.atoms": "measures.ns_per_atom",
}
PLAIN_COUNTS = ("streams.generators", "bounds.evaluations", "harness.chunks",
                "harness.trials", "cli.output_bytes")

# class methods that are layer entry points: (layer, class, method)
METHOD_PROBES = (
    ("streams", "SeededStream", "generator"),
    ("streams", "SeededStream", "substream"),
    ("maps", "DrivingMeasure", "sample_indices"),
    ("maps", "DrivingMeasure", "sample_params"),
    ("observables", "Observable", "__call__"),
)


@dataclass
class Span:
    id: int
    layer: str
    parent: int | None
    start: float
    end: float = math.nan


class Tracer:
    """In-memory span and work-count recorder, safe to use from threads."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.unit_time: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, parent: Span | None = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            span = Span(len(self.spans), layer, None if parent is None else parent.id,
                        self.clock())
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span):
        span.end = self.clock()
        self._stack().pop()

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def add(self, units: list[tuple[str, int]], seconds: float):
        with self._lock:
            for name, n in units:
                self.counts[name] += n
                self.unit_time[name] += seconds

    def call(self, layer: str, fn, args, kwargs, counter=None):
        """Run fn, inside a new span when the caller is in another layer."""
        top = self.current()
        span = self.open(layer) if top is None or top.layer != layer else None
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - t0
            if span is not None:
                self.close(span)
            if counter is not None:
                self.add(counter(*args, **kwargs), elapsed)


# ---------------------------------------------------------------------------
# self-time arithmetic


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: ``calls`` (spans entered from another layer or from
    outside) and ``self_s`` (summed span durations minus covered child
    time, clipped to the parent's interval)."""
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        m = out.setdefault(s.layer, {"calls": 0, "self_s": 0.0})
        parent = by_id.get(s.parent)
        if parent is None or parent.layer != s.layer:
            m["calls"] += 1
        covered = _union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.id] if min(c.end, s.end) > max(c.start, s.start))
        m["self_s"] += (s.end - s.start) - covered
    return out


# ---------------------------------------------------------------------------
# work counters: each receives the call's arguments and returns
# [(count name, units)]


def _points(f, x, *_, **__):
    n = int(np.size(x))
    if getattr(f, "chart", None) == "projective":
        n //= f.m
    return [("maps.points", n)]


def _draws(nu, stream, n, *_, **__):
    return [("chains.draws", int(n))]


def _orbit_steps(nu, starts, n, *_, **__):
    return [("chains.orbit_steps", int(n) * len(starts))]


def _state_steps(nu, labels, X, *_, **__):
    return [("estimators.state_steps", int(X.size))]


def _pair_steps(nu, space, n, trials, seed=None, resolution=64, region=None, **_):
    sizes = [len(g) for g in region.grids] if region is not None else [resolution]
    return [("estimators.pair_steps", sum(g * g for g in sizes) * int(trials) * int(n))]


def _corr_pairs_ladder(space, points, epsilon_ladder, *_, **__):
    return [("estimators.corr_pairs", len(points) ** 2 * len(epsilon_ladder))]


def _corr_pairs_single(space, points, *_, **__):
    return [("estimators.corr_pairs", len(points) ** 2)]


def _kernel_values(y, *_, **__):
    # the harness corr-sum observable evaluates the kernel on its own
    # dense pair matrix (and once more on the diagonal value)
    return [("estimators.corr_pairs", int(np.size(y)))]


def _cocycle_steps(nu, x, n, *_, **__):
    return [("estimators.cocycle_steps", int(n))]


def _atoms_pair(mu1, mu2, *_, **__):
    return [("measures.atoms", len(mu1.positions) + len(mu2.positions))]


def _atoms_one(mu, *_, **__):
    return [("measures.atoms", len(mu.positions))]


def _one(name):
    def counter(*_, **__):
        return [(name, 1)]
    return counter


def _tail_trials(chunk):
    def counter(cfg, *_, **__):
        per_run = int(cfg.trials)
        return [("harness.trials", 2 * per_run),
                ("harness.chunks", 2 * math.ceil(per_run / chunk))]
    return counter


def _counters(chunk: int) -> dict:
    """Counters keyed by the wrapped function's ``module.qualname``."""
    c = {
        "rdslab.chains.draw_word": _draws,
        "rdslab.chains.simulate_coupled": _orbit_steps,
        "rdslab.maps.apply_map": _points,
        "rdslab.maps.derivative": _points,
        "rdslab.estimators._vector_step": _state_steps,
        "rdslab.estimators.lambda_n": _pair_steps,
        "rdslab.estimators.correlation_dimension": _corr_pairs_ladder,
        "rdslab.estimators.correlation_sum": _corr_pairs_single,
        "rdslab.estimators.phi0": _kernel_values,
        "rdslab.estimators.lyapunov_projective": _cocycle_steps,
        "rdslab.measures.kantorovich_interval": _atoms_pair,
        "rdslab.measures.kantorovich_circle": _atoms_pair,
        "rdslab.measures.kantorovich_gaussian": _atoms_one,
        "rdslab.streams.SeededStream.generator": _one("streams.generators"),
        "rdslab.harness.run_tail": _tail_trials(chunk),
    }
    bounds = importlib.import_module("rdslab.bounds")
    for name in dir(bounds):
        if name.endswith("_bound"):
            c[f"rdslab.bounds.{name}"] = _one("bounds.evaluations")
    return c


# ---------------------------------------------------------------------------
# installing and removing probes


def _layer(module_name: str) -> str | None:
    parts = module_name.split(".")
    if len(parts) == 2 and parts[0] == "rdslab" and parts[1] in LAYERS:
        return parts[1]
    return None


def _layer_of(fn) -> str | None:
    return _layer(getattr(fn, "__module__", None) or "")


def _key(fn) -> str:
    return f"{fn.__module__}.{fn.__qualname__}"


class _ModuleView:
    """Stand-in for a module bound by ``from . import x as y``: function
    attributes come back wrapped, everything else unchanged."""

    def __init__(self, module, wrap):
        self._module = module
        self._wrap = wrap
        self._cache = {}

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if isinstance(value, types.FunctionType) and _layer_of(value):
            if name not in self._cache:
                self._cache[name] = self._wrap(value)
            return self._cache[name]
        return value


class Probes:
    """Installs the wrappers for one tracer and restores every patched
    name on :meth:`remove`."""

    def __init__(self, tracer: Tracer, extra_sites=()):
        self.tracer = tracer
        harness = importlib.import_module("rdslab.harness")
        self.counters = _counters(int(getattr(harness, "CHUNK", 256)))
        self.extra_sites = list(extra_sites)
        self.patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, fn, layer=None):
        layer = layer or _layer_of(fn)
        counter = self.counters.get(_key(fn))
        call = self.tracer.call

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            return call(layer, fn, args, kwargs, counter)

        return probe

    def _patch(self, owner, name, value):
        self.patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _patch_namespace(self, namespace, site: str | None):
        for name, value in list(vars(namespace).items()):
            if isinstance(value, types.FunctionType):
                home = _layer_of(value)
                if home and (home != site or _key(value) in self.counters):
                    self._patch(namespace, name, self.wrap(value))
            elif isinstance(value, types.ModuleType) and _layer(value.__name__):
                self._patch(namespace, name, _ModuleView(value, self.wrap))
            elif value is concurrent.futures.ThreadPoolExecutor:
                self._patch(namespace, name, _executor_class(self.tracer))

    def install(self) -> "Probes":
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"rdslab.{layer}")
            except ModuleNotFoundError:
                self.missing.append(f"rdslab.{layer}")
                continue
            self._patch_namespace(module, layer)
        for namespace in self.extra_sites:
            self._patch_namespace(namespace, None)
        for layer, cls_name, meth in METHOD_PROBES:
            cls = getattr(sys.modules.get(f"rdslab.{layer}"), cls_name, None)
            fn = getattr(cls, "__dict__", {}).get(meth)
            if not isinstance(fn, types.FunctionType):
                self.missing.append(f"rdslab.{layer}.{cls_name}.{meth}")
                continue
            self._patch(cls, meth, self.wrap(fn, layer))
        return self

    def remove(self):
        for owner, name, original in reversed(self.patched):
            setattr(owner, name, original)
        self.patched.clear()


def _executor_class(tracer: Tracer):
    """ThreadPoolExecutor whose tasks run in a span of the submitting
    span's layer, parented to it, so pool work is attributed to its caller."""

    class TracedExecutor(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()
            if parent is None:
                return super().submit(fn, *args, **kwargs)

            def task():
                span = tracer.open(parent.layer, parent=parent)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(span)

            return super().submit(task)

    return TracedExecutor


def span_metric_units() -> list[tuple[str, str]]:
    """(name, unit) of the metrics :func:`pass_metrics` reports."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    for count, cost in UNIT_COSTS.items():
        out += [(count, "count"), (cost, "ns")]
    out += [(c, "B" if c == "cli.output_bytes" else "count") for c in PLAIN_COUNTS]
    return out


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (counts, unit costs, calls and
    self times); layers or counts the pass never reached read 0."""
    out = {}
    layers = layer_metrics(tracer.spans)
    for layer in LAYERS:
        m = layers.get(layer, {"calls": 0, "self_s": 0.0})
        out[f"{layer}.calls"] = m["calls"]
        out[f"{layer}.self_s"] = m["self_s"]
    for count, cost in UNIT_COSTS.items():
        n = tracer.counts.get(count, 0)
        out[count] = n
        out[cost] = 1e9 * tracer.unit_time.get(count, 0.0) / n if n else 0.0
    for count in PLAIN_COUNTS:
        out[count] = tracer.counts.get(count, 0)
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds spent importing each rdslab module, from ``-X importtime``
    output: the module's cumulative time minus that of the rdslab modules
    it imports, so third-party imports land on the module that first
    pulls them in."""
    nodes = []  # post-order (depth, name, cumulative_us, children)
    pending = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        raw = fields[2]
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        node = (depth, name, int(fields[1]), [])
        while pending and pending[-1][0] > depth:
            node[3].insert(0, pending.pop())
        pending.append(node)
        nodes.append(node)

    def nested_rdslab(node):
        total = 0
        for child in node[3]:
            total += child[2] if child[1].startswith("rdslab") else nested_rdslab(child)
        return total

    out = {}
    for node in nodes:
        parts = node[1].split(".")
        if len(parts) == 2 and parts[0] == "rdslab" and parts[1] in LAYERS:
            out[parts[1]] = (node[2] - nested_rdslab(node)) * 1e-6
    return out
