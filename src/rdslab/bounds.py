"""Closed-form concentration bounds, validity thresholds, and the two
inequality utilities used by the proofs.

Conventions shared by every routine here:

* bounds above 1 are returned unchanged and flagged vacuous — they are
  still valid upper bounds and dominance tests must not clip them;
* theorems with a validity threshold return a :class:`BoundResult` whose
  ``applicable`` flag is False below the threshold, and callers must not
  compare empirical tails against out-of-regime bounds;
* a degenerate zero denominator (possible only when the contraction and
  diameter inputs are both 0) yields bound 0 for t > 0.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "BoundInputs",
    "BoundResult",
    "beta_n",
    "main_tail_bound",
    "refined_alpha",
    "refined_tail_bound",
    "sync_bound",
    "lln_bound",
    "empirical_kappa_bound",
    "interval_kappa_bound",
    "corrdim_bound",
    "circle_lyap_bound",
    "projective_lyap_bound",
    "matrix_norm_bound",
    "appendix_checks",
    "wilson_interval",
    "BOUNDS",
    "resolve_inputs",
    "evaluate",
]


@dataclass
class BoundInputs:
    """Shared ingredient bundle for the bound formulas.

    gamma may be given explicitly (length n+1) or through uniform_c, the
    shorthand for the constant ladder gamma_i = c / n.
    """

    n: int
    gamma: list | None = None
    uniform_c: float | None = None
    gee_diameter: float = 0.0
    lam: float = 0.0
    u: list | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if (self.gamma is None) == (self.uniform_c is None):
            raise ValueError("give exactly one of gamma or uniform_c")
        if self.gamma is None:
            self.gamma = [self.uniform_c / self.n] * (self.n + 1)
        self.gamma = [float(g) for g in self.gamma]
        if len(self.gamma) != self.n + 1:
            raise ValueError("gamma must have n + 1 entries")
        if any(g < 0 for g in self.gamma) or not any(g > 0 for g in self.gamma):
            raise ValueError("gamma must be nonnegative with at least one positive entry")
        if self.gee_diameter < 0 or self.lam < 0:
            raise ValueError("diameter and contraction inputs must be nonnegative")


@dataclass(frozen=True)
class BoundResult:
    """A bound value together with its validity gate."""

    value: float
    threshold: float = 0.0
    applicable: bool = True

    @property
    def vacuous(self) -> bool:
        return self.applicable and self.value > 1.0


def _gate(threshold: float, value: float, t: float, strict: bool) -> BoundResult:
    ok = (t > threshold) if strict else (t >= threshold)
    return BoundResult(value=value, threshold=threshold, applicable=ok)


def beta_n(inputs: BoundInputs) -> float:
    """n * (diameter + contraction sum) * max gamma."""
    return inputs.n * (inputs.gee_diameter + inputs.lam) * max(inputs.gamma)


def main_tail_bound(n: int, t: float, beta: float) -> float:
    """One-sided tail bound exp(-n t^2 / (12 beta^2))."""
    if t <= 0:
        raise ValueError("t must be positive")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if beta == 0.0:
        return 0.0
    return float(np.exp(-n * t * t / (12.0 * beta * beta)))


def refined_alpha(inputs: BoundInputs):
    """Per-index weights alpha_k = gamma_k * diameter
    + sum_j gamma_{k+j} u_{j-1}, and their squared sum."""
    if inputs.u is None or len(inputs.u) != inputs.n:
        raise ValueError("need the n coupled means u_0 .. u_{n-1}")
    g = np.asarray(inputs.gamma)
    u = np.asarray([float(v) for v in inputs.u])
    n = inputs.n
    alpha = np.empty(n + 1)
    for k in range(n + 1):
        alpha[k] = g[k] * inputs.gee_diameter + float(np.dot(g[k + 1 :], u[: n - k]))
    return list(alpha), float(np.sum(alpha * alpha))


def refined_tail_bound(t: float, alpha_sq: float) -> float:
    """One-sided tail bound exp(-t^2 / (12 alpha_sq))."""
    if t <= 0:
        raise ValueError("t must be positive")
    if alpha_sq < 0:
        raise ValueError("alpha_sq must be nonnegative")
    if alpha_sq == 0.0:
        return 0.0
    return float(np.exp(-t * t / (12.0 * alpha_sq)))


def sync_bound(n: int, t: float, gee_inf: float, lambda_nu: float, muB: float) -> BoundResult:
    """Tracking-distance tail bound with its mass-dependent threshold."""
    if not 0.0 < muB <= 1.0:
        raise ValueError("muB must lie in (0, 1]")
    s = gee_inf + lambda_nu
    threshold = 8.0 * s * np.sqrt(np.log(1.0 / muB)) / np.sqrt(n) + lambda_nu / n
    value = float(np.exp(-n * t * t / (48.0 * s * s))) if s > 0 else 0.0
    return _gate(float(threshold), value, t, strict=False)


def lln_bound(n: int, t: float, L_h: float, gee_inf: float, lambda_nu: float) -> BoundResult:
    """Two-sided Birkhoff-average tail bound (prefactor 2)."""
    if L_h <= 0:
        raise ValueError("L_h must be positive")
    s = lambda_nu + gee_inf
    threshold = 2.0 * lambda_nu * L_h / n
    value = 2.0 * float(np.exp(-n * t * t / (48.0 * L_h * L_h * s * s))) if s > 0 else 0.0
    return _gate(threshold, value, t, strict=True)


def empirical_kappa_bound(n: int, t: float, gee_inf: float, lambda_nu: float) -> BoundResult:
    """Two-sided tail bound for the Kantorovich distance of the empirical
    measure from its mean."""
    s = gee_inf + lambda_nu
    # the threshold uses L = 1 for the Kantorovich functional
    threshold = 2.0 * lambda_nu / n
    value = 2.0 * float(np.exp(-n * t * t / (12.0 * s * s))) if s > 0 else 0.0
    return _gate(threshold, value, t, strict=True)


def interval_kappa_bound(
    n: int, t: float, a: float, b: float, gee_inf: float, lambda_nu: float
) -> BoundResult:
    """One-sided interval empirical-measure bound with the quarter-power
    threshold."""
    if b <= a:
        raise ValueError("need b > a")
    s = gee_inf + lambda_nu
    threshold = (b - a) * (1.0 + 8.0 * lambda_nu) ** 0.25 / n**0.25
    value = float(np.exp(-n * t * t / (48.0 * s * s))) if s > 0 else 0.0
    return _gate(threshold, value, t, strict=False)


def corrdim_bound(
    n: int, t: float, eps: float, L_phi: float, sup_phi: float, gee_inf: float, lambda_nu: float
) -> BoundResult:
    """Two-sided smoothed correlation-sum bound 2 exp(-c n t^2 eps^2)."""
    if eps <= 0 or L_phi <= 0:
        raise ValueError("eps and L_phi must be positive")
    s = gee_inf + lambda_nu
    threshold = 8.0 * L_phi * lambda_nu / (eps * n) + sup_phi / n
    if s == 0:
        return _gate(threshold, 0.0, t, strict=True)
    c = 1.0 / (192.0 * L_phi * L_phi * s * s)
    value = 2.0 * float(np.exp(-c * n * t * t * eps * eps))
    return _gate(threshold, value, t, strict=True)


def circle_lyap_bound(
    n: int, t: float, m_nu: float, M_nu: float, gee_c1: float, lam: float
) -> float:
    """Two-sided circle Lyapunov-exponent tail bound.  Its threshold, twice
    the abstract threshold sequence, is the ``circle-lyap`` selector's."""
    if not 0.0 < m_nu <= M_nu:
        raise ValueError("need 0 < m_nu <= M_nu")
    if t <= 0:
        raise ValueError("t must be positive")
    s = gee_c1 + lam
    if s == 0:
        return 0.0
    return 2.0 * float(np.exp(-n * t * t * m_nu * m_nu / (48.0 * M_nu * M_nu * s * s)))


def projective_lyap_bound(t: float, C: float, lambda_nu: float) -> float:
    """Vector-growth tail bound exp(-t^2 / (192 C^4 (lambda + C)^2)).

    As stated there is no n factor in the exponent; the bound is weaker
    than its finite-n analogues but valid, and is reported as-is.
    """
    if C < 1.0:
        raise ValueError("need C >= 1 (unit determinant forces norm >= 1)")
    if t <= 0:
        raise ValueError("t must be positive")
    s = lambda_nu + C
    return float(np.exp(-t * t / (192.0 * C**4 * s * s)))


def matrix_norm_bound(n: int, t: float, m_dim: int, C: float, lambda_nu: float):
    """Matrix-norm growth bound 2m exp(-t^2 / (768 C^4 (lambda + C)^2)).

    Returns (threshold_log_part, bound): the (2/n) log m threshold term;
    the ``matrix-norm`` selector adds the remaining 2 t_n part.
    """
    if C < 1.0:
        raise ValueError("need C >= 1")
    if m_dim < 1:
        raise ValueError("need m_dim >= 1")
    if t <= 0:
        raise ValueError("t must be positive")
    s = lambda_nu + C
    value = 2.0 * m_dim * float(np.exp(-t * t / (768.0 * C**4 * s * s)))
    return (2.0 / n) * float(np.log(m_dim)), value


# ---------------------------------------------------------------------------
# the config selectors


class Bound(NamedTuple):
    """A config selector of :data:`BOUNDS`: whether the deviations it bounds
    are two-sided, and its formula call.  The formula's parameters after
    (n, t) are the inputs it reads, by key; a parameter's default is the
    input's default."""

    two_sided: bool
    formula: Callable[..., BoundResult]


# further keys an input is read from, in order: gee_rho stands in for the
# sup-diameter G, and the C^1 diameter gee_c1 falls back on G
_ALTERNATIVES = {"gee_inf": ("gee_inf", "gee_rho"), "gee_c1": ("gee_c1", "gee_inf", "gee_rho")}


def _number(v) -> bool:
    """A JSON number that is finite as a double."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _integral(v, minimum: int) -> bool:
    """A JSON number that is an integer >= minimum, such as 3 or 3.0."""
    return _number(v) and float(v).is_integer() and v >= minimum


# A rule of a config value is (what, test(value, space), convert): the
# values ``test`` accepts, on the system's space where that matters (which
# ``what`` names as ``{space}``), and what ``convert`` reads from them.
# ``_read`` reads every config block by its table of key -> (rule, default).
REAL = ("a finite number", lambda v, space: _number(v), float)
POSITIVE = ("a positive number", lambda v, space: _number(v) and v > 0, float)
TEXT = ("a string", lambda v, space: isinstance(v, str), str)
OBJECT = ("an object", lambda v, space: isinstance(v, dict), lambda v: v)


def integer(minimum: int) -> tuple:
    """The rule of an integral number >= ``minimum`` (3 or 3.0), read as an int."""
    return f"an integer >= {minimum}", lambda v, space: _integral(v, minimum), int


def one_of(names, convert=str) -> tuple:
    """The rule of a string among ``names``, read by ``convert``."""
    return f"one of {', '.join(names)}", lambda v, space: isinstance(v, str) and v in names, convert


def list_of(rule: tuple, least: int = 0) -> tuple:
    """The rule of a list of at least ``least`` entries, each read by ``rule``."""
    what, test, convert = rule
    return (f"a {'nonempty ' if least else ''}list, each entry {what}",
            lambda v, space: isinstance(v, (list, tuple)) and len(v) >= least
            and all(test(x, space) for x in v), lambda v: [convert(x) for x in v])


def _value(rule: tuple, value, name: str, space=None):
    """``value`` read by ``rule``; a ValueError naming ``name`` unless the
    rule accepts it."""
    what, test, convert = rule
    if not test(value, space):
        raise ValueError(f"{name} must be {what.format(space=space)}, got {value!r}")
    return convert(value)


def _read(block: dict, keys: dict, where: str, space=None) -> dict:
    """The value of each key of ``keys`` (key -> (rule, default)) in
    ``block``, which ``where`` names: a key the block leaves out takes its
    default, which None leaves out and ``...`` makes needed.  Keys not in
    ``keys`` are ignored."""
    out = {}
    for key, (rule, default) in keys.items():
        value = block.get(key, default)
        if value is ...:
            raise ValueError(f"{where} needs {key!r}")
        out[key] = None if value is None and key not in block else _value(
            rule, value, f"{where} {key!r}", space)
    return out


def _kind(block, table: dict, where: str, label: str, space=None) -> tuple:
    """(kind, values) of an object whose ``kind`` is a key of ``table``,
    its values read by ``table[kind]``."""
    kind = _value(OBJECT, block, where).get("kind")
    if not (isinstance(kind, str) and kind in table):
        raise ValueError(f"{where} needs a {label} 'kind' of {', '.join(table)}, got {kind!r}")
    return kind, _read(block, table[kind], f"{where}: {label} kind {kind!r}", space)


# the rules of the inputs that are not finite numbers
_INPUTS = {"m_dim": integer(1), "u": list_of(REAL)}


def _past_t_n(t, value, t_n_hat, log_part=-0.0):
    # the Lyapunov bounds hold for t > 2 t_n (plus the theorem's fixed term),
    # t_n being the input t_n_hat; x + -0.0 is x for every x, signed zeros too
    return _gate(2.0 * t_n_hat + log_part, value, t, strict=True)


def _theorem_a(n, t, lambda_nu, gee_inf, uniform_c=1.0):
    bi = BoundInputs(n=n, uniform_c=uniform_c, gee_diameter=gee_inf, lam=lambda_nu)
    return BoundResult(value=main_tail_bound(n, t, beta_n(bi)))


def _refined(n, t, gee_inf, u, uniform_c=1.0):
    _, alpha_sq = refined_alpha(BoundInputs(n=n, uniform_c=uniform_c, gee_diameter=gee_inf, u=u))
    return BoundResult(value=refined_tail_bound(t, alpha_sq))


def _matrix_norm(n, t, lambda_nu, C, m_dim=2, t_n_hat=0.0):
    log_part, value = matrix_norm_bound(n, t, m_dim, C, lambda_nu)
    return _past_t_n(t, value, t_n_hat, log_part)


BOUNDS = {
    "theorem-a": Bound(False, _theorem_a),
    "refined": Bound(False, _refined),
    "lln": Bound(True, lambda n, t, lambda_nu, gee_inf, lipschitz_L=1.0:
                 lln_bound(n, t, lipschitz_L, gee_inf, lambda_nu)),
    "sync": Bound(False, lambda n, t, lambda_nu, gee_inf, muB=1.0:
                  sync_bound(n, t, gee_inf, lambda_nu, muB)),
    "empirical-kappa": Bound(True, lambda n, t, lambda_nu, gee_inf:
                             empirical_kappa_bound(n, t, gee_inf, lambda_nu)),
    "interval-kappa": Bound(False, lambda n, t, lambda_nu, gee_inf, a=0.0, b=1.0:
                            interval_kappa_bound(n, t, a, b, gee_inf, lambda_nu)),
    "corrdim": Bound(True, lambda n, t, lambda_nu, gee_inf, epsilon, lipschitz_L=1.0, sup_norm=1.0:
                     corrdim_bound(n, t, epsilon, lipschitz_L, sup_norm, gee_inf, lambda_nu)),
    "circle-lyap": Bound(True, lambda n, t, lambda_nu, gee_c1, m_nu, M_nu, t_n_hat=0.0: _past_t_n(
        t, circle_lyap_bound(n, t, m_nu, M_nu, gee_c1, lambda_nu), t_n_hat)),
    "projective-lyap": Bound(False, lambda n, t, lambda_nu, C, t_n_hat=0.0: _past_t_n(
        t, projective_lyap_bound(t, C, lambda_nu), t_n_hat)),
    "matrix-norm": Bound(True, _matrix_norm),
}


def resolve_inputs(selector: str, config: dict, analytic: dict):
    """(inputs, provenance) of the bound ``selector``: each input from
    ``config``, else the system's ``analytic`` constants, else its default,
    with ``config``, ``analytic`` or ``default`` recorded under the key
    read.  A missing required input, or one its rule (``_INPUTS``, else
    ``REAL``) rejects, raises ValueError naming its key."""
    if selector not in BOUNDS:
        raise ValueError(f"unknown bound selector {selector!r}; one of {', '.join(BOUNDS)}")
    inputs, provenance = {}, {}
    for name, param in list(inspect.signature(BOUNDS[selector].formula).parameters.items())[2:]:
        keys = _ALTERNATIVES.get(name, (name,))
        found = [(key, origin, src[key]) for key in keys
                 for origin, src in (("config", config), ("analytic", analytic)) if key in src]
        if not found and param.default is param.empty:
            alternatives = "".join(f" (or {k!r})" for k in keys[1:])
            raise ValueError(f"bound {selector!r} needs input {name!r}{alternatives}")
        key, origin, value = found[0] if found else (name, "default", param.default)
        inputs[name] = _value(_INPUTS.get(name, REAL), value, f"bound {selector!r} input {key!r}")
        provenance[key] = origin
    return inputs, provenance


def evaluate(selector: str, n: int, t: float, inputs: dict) -> BoundResult:
    """The bound ``selector`` at deviation t after n steps, on resolved inputs."""
    return BOUNDS[selector].formula(n, t, **inputs)


def appendix_checks(seed: int = 0, random_cases: int = 1000) -> dict:
    """Grid check of 1 + (u^2 e^u)/2 <= e^{3 u^2} on u in [0, 10] and a
    randomized check of the truncated second-moment inequality
    E[1_{(K, inf)}(Z) Z] <= E[Z^2] / K for positive discrete Z."""
    u = np.arange(0.0, 10.0 + 1e-9, 1e-3)
    # compare in log space: log(1 + u^2 e^u / 2) <= 3 u^2 avoids overflow
    lhs_log = np.logaddexp(0.0, 2.0 * np.log(np.maximum(u, 1e-300)) + u - np.log(2.0))
    lhs_log[u == 0.0] = 0.0
    margins = 3.0 * u * u - lhs_log
    exp_ok = bool(np.all(margins >= -1e-12))

    rng = np.random.default_rng(seed)
    trunc_ok = True
    worst = np.inf
    for _ in range(random_cases):
        k = int(rng.integers(1, 8))
        z = rng.uniform(0.0, 10.0, size=k)
        w = rng.dirichlet(np.ones(k))
        K = float(rng.uniform(0.05, 10.0))
        lhs = float(np.sum(w * z * (z > K)))
        rhs = float(np.sum(w * z * z)) / K
        margin = rhs - lhs
        worst = min(worst, margin)
        if margin < -1e-12:
            trunc_ok = False
    return {
        "exponential_inequality": exp_ok,
        "exponential_min_margin": float(np.min(margins)),
        "truncated_moment": trunc_ok,
        "truncated_moment_min_margin": worst,
        "passed": exp_ok and trunc_ok,
    }


def wilson_interval(successes: int, trials: int, confidence: float = 0.95):
    """95% score interval for a binomial proportion; at the 0/n and n/n
    boundaries the exact (Clopper-Pearson) limit is used so that the
    reported limit is never anti-conservative there."""
    if trials <= 0 or not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials, trials > 0")
    from scipy.special import ndtri

    alpha = 1.0 - confidence
    z = float(ndtri(1.0 - alpha / 2.0))
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo, hi = center - half, center + half
    if successes == 0:
        lo, hi = 0.0, 1.0 - (alpha / 2.0) ** (1.0 / trials)
    elif successes == trials:
        lo, hi = (alpha / 2.0) ** (1.0 / trials), 1.0
    return max(0.0, float(lo)), min(1.0, float(hi))
