"""Closed-form concentration bounds and the two inequality utilities used
by the proofs.

Each config selector of :data:`BOUNDS` is one formula, a public
``*_bound(n, t, ...)`` function whose parameters after (n, t) are the
inputs it reads, by key and with their defaults.  Every formula returns a
:class:`BoundResult`, with ``applicable`` False below the theorem's
validity threshold; callers must not compare empirical tails against
out-of-regime bounds.  The range of each input is its rule in
:data:`_INPUTS`, which :func:`resolve_inputs` applies before any
simulation; a formula checks only what relates two inputs.

* bounds above 1 are returned unchanged and flagged vacuous: they are
  still valid upper bounds and dominance tests must not clip them;
* a zero denominator (the contraction and diameter inputs both 0) yields
  bound 0.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .config import NONNEGATIVE, POSITIVE, REAL, ConfigError, check, integer, list_of, number

__all__ = [
    "BoundResult",
    "theorem_a_bound",
    "refined_bound",
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


@dataclass(frozen=True)
class BoundResult:
    """A bound value together with its validity gate."""

    value: float
    threshold: float = 0.0
    applicable: bool = True

    @property
    def vacuous(self) -> bool:
        return self.applicable and self.value > 1.0


# ---------------------------------------------------------------------------
# the formulas: G is the diameter input, lambda the contraction sum


def theorem_a_bound(n, t, lambda_nu, gee_inf, uniform_c=1.0) -> BoundResult:
    """One-sided tail bound exp(-n t^2 / (12 beta^2)), beta = n (G + lambda)
    max gamma on the constant ladder gamma_i = c / n."""
    beta = n * (gee_inf + lambda_nu) * (uniform_c / n)
    return BoundResult(float(np.exp(-n * t * t / (12.0 * beta * beta))) if beta else 0.0)


def refined_bound(n, t, gee_inf, u, uniform_c=1.0) -> BoundResult:
    """One-sided tail bound exp(-t^2 / (12 sum alpha_k^2)) from the n
    coupled means u_0 .. u_{n-1}: alpha_k = gamma_k G + sum_j gamma_{k+j}
    u_{j-1} on the ladder gamma_i = c / n."""
    if len(u) != n:
        raise ConfigError(f"bound 'refined' input 'u' needs n = {n} values, got {len(u)}")
    g, u = np.full(n + 1, uniform_c / n), np.asarray(u, dtype=float)
    alpha = np.array([g[k] * gee_inf + float(np.dot(g[k + 1:], u[:n - k])) for k in range(n + 1)])
    alpha_sq = float(np.sum(alpha * alpha))
    return BoundResult(float(np.exp(-t * t / (12.0 * alpha_sq))) if alpha_sq else 0.0)


def sync_bound(n, t, lambda_nu, gee_inf, muB=1.0) -> BoundResult:
    """Tracking-distance tail bound, past a threshold set by the mass muB
    of the candidate set."""
    s = gee_inf + lambda_nu
    threshold = float(8.0 * s * np.sqrt(np.log(1.0 / muB)) / np.sqrt(n) + lambda_nu / n)
    value = float(np.exp(-n * t * t / (48.0 * s * s))) if s > 0 else 0.0
    return BoundResult(value, threshold, t >= threshold)


def lln_bound(n, t, lambda_nu, gee_inf, lipschitz_L=1.0) -> BoundResult:
    """Two-sided Birkhoff-average tail bound (prefactor 2) of an
    L-Lipschitz observable."""
    s, L = lambda_nu + gee_inf, lipschitz_L
    threshold = 2.0 * lambda_nu * L / n
    value = 2.0 * float(np.exp(-n * t * t / (48.0 * L * L * s * s))) if s > 0 else 0.0
    return BoundResult(value, threshold, t > threshold)


def empirical_kappa_bound(n, t, lambda_nu, gee_inf) -> BoundResult:
    """Two-sided tail bound for the Kantorovich distance of the empirical
    measure from its mean."""
    s = gee_inf + lambda_nu
    threshold = 2.0 * lambda_nu / n  # L = 1 for the Kantorovich functional
    value = 2.0 * float(np.exp(-n * t * t / (12.0 * s * s))) if s > 0 else 0.0
    return BoundResult(value, threshold, t > threshold)


def interval_kappa_bound(n, t, lambda_nu, gee_inf, a=0.0, b=1.0) -> BoundResult:
    """One-sided empirical-measure bound on [a, b], with the quarter-power
    threshold."""
    if b <= a:
        raise ConfigError(f"bound 'interval-kappa' needs 'a' < 'b', got a {a}, b {b}")
    s = gee_inf + lambda_nu
    threshold = (b - a) * (1.0 + 8.0 * lambda_nu) ** 0.25 / n**0.25
    value = float(np.exp(-n * t * t / (48.0 * s * s))) if s > 0 else 0.0
    return BoundResult(value, threshold, t >= threshold)


def corrdim_bound(n, t, lambda_nu, gee_inf, epsilon, lipschitz_L=1.0,
                  sup_norm=1.0) -> BoundResult:
    """Two-sided smoothed correlation-sum bound 2 exp(-c n t^2 eps^2) of a
    kernel with Lipschitz constant L and sup norm ``sup_norm``."""
    s, L, eps = gee_inf + lambda_nu, lipschitz_L, epsilon
    threshold = 8.0 * L * lambda_nu / (eps * n) + sup_norm / n
    value = 0.0
    if s > 0:
        c = 1.0 / (192.0 * L * L * s * s)
        value = 2.0 * float(np.exp(-c * n * t * t * eps * eps))
    return BoundResult(value, threshold, t > threshold)


def circle_lyap_bound(n, t, lambda_nu, gee_c1, m_nu, M_nu, t_n_hat=0.0) -> BoundResult:
    """Two-sided circle Lyapunov-exponent tail bound, for t past twice the
    threshold sequence t_n."""
    if m_nu > M_nu:
        raise ConfigError(f"bound 'circle-lyap' needs 'm_nu' <= 'M_nu', got m_nu {m_nu}, "
                          f"M_nu {M_nu}")
    s, m, M = gee_c1 + lambda_nu, m_nu, M_nu
    value = 2.0 * float(np.exp(-n * t * t * m * m / (48.0 * M * M * s * s))) if s > 0 else 0.0
    return BoundResult(value, 2.0 * t_n_hat, t > 2.0 * t_n_hat)


def projective_lyap_bound(n, t, lambda_nu, C, t_n_hat=0.0) -> BoundResult:
    """Vector-growth tail bound exp(-t^2 / (192 C^4 (lambda + C)^2)), for t
    past 2 t_n.  As stated there is no n in the exponent: the bound is
    weaker than its finite-n analogues but valid, and reported as-is."""
    s = lambda_nu + C
    value = float(np.exp(-t * t / (192.0 * C**4 * s * s)))
    return BoundResult(value, 2.0 * t_n_hat, t > 2.0 * t_n_hat)


def matrix_norm_bound(n, t, lambda_nu, C, m_dim=2, t_n_hat=0.0) -> BoundResult:
    """Matrix-norm growth bound 2m exp(-t^2 / (768 C^4 (lambda + C)^2)), for
    t past 2 t_n + (2/n) log m."""
    s = lambda_nu + C
    value = 2.0 * m_dim * float(np.exp(-t * t / (768.0 * C**4 * s * s)))
    threshold = 2.0 * t_n_hat + (2.0 / n) * float(np.log(m_dim))
    return BoundResult(value, threshold, t > threshold)


# the rule of each bound input, which ``resolve_inputs`` applies to the key
# it reads (gee_inf's to gee_rho too)
_INPUTS = {
    **dict.fromkeys(("lambda_nu", "gee_inf", "gee_c1", "t_n_hat", "sup_norm"), NONNEGATIVE),
    **dict.fromkeys(("uniform_c", "lipschitz_L", "epsilon", "m_nu", "M_nu"), POSITIVE),
    "a": REAL, "b": REAL, "u": list_of(NONNEGATIVE), "m_dim": integer(1),
    "muB": number("a number in (0, 1]", lambda v: 0 < v <= 1),
    "C": number("a number >= 1", lambda v: v >= 1),
}
# further keys an input is read from, in order: gee_rho stands in for the
# sup-diameter G, and the C^1 diameter gee_c1 falls back on G
_ALTERNATIVES = {"gee_inf": ("gee_inf", "gee_rho"), "gee_c1": ("gee_c1", "gee_inf", "gee_rho")}


class Bound(NamedTuple):
    """A config selector of :data:`BOUNDS`: whether the deviations it bounds
    are two-sided, and its formula."""

    two_sided: bool
    formula: Callable[..., BoundResult]


BOUNDS = {
    "theorem-a": Bound(False, theorem_a_bound),
    "refined": Bound(False, refined_bound),
    "lln": Bound(True, lln_bound),
    "sync": Bound(False, sync_bound),
    "empirical-kappa": Bound(True, empirical_kappa_bound),
    "interval-kappa": Bound(False, interval_kappa_bound),
    "corrdim": Bound(True, corrdim_bound),
    "circle-lyap": Bound(True, circle_lyap_bound),
    "projective-lyap": Bound(False, projective_lyap_bound),
    "matrix-norm": Bound(True, matrix_norm_bound),
}


def resolve_inputs(selector: str, config: dict, analytic: dict):
    """(inputs, provenance) of the bound ``selector``: each input from
    ``config``, else the system's ``analytic`` constants, else its default,
    with ``config``, ``analytic`` or ``default`` recorded under the key
    read.  A missing required input, or one its rule in ``_INPUTS``
    rejects, raises ConfigError naming its key."""
    if selector not in BOUNDS:
        raise ConfigError(f"unknown bound selector {selector!r}; one of {', '.join(BOUNDS)}")
    inputs, provenance = {}, {}
    for name, param in list(inspect.signature(BOUNDS[selector].formula).parameters.items())[2:]:
        keys = _ALTERNATIVES.get(name, (name,))
        found = [(key, origin, src[key]) for key in keys
                 for origin, src in (("config", config), ("analytic", analytic)) if key in src]
        if not found and param.default is param.empty:
            alternatives = "".join(f" (or {k!r})" for k in keys[1:])
            raise ConfigError(f"bound {selector!r} needs input {name!r}{alternatives}")
        key, origin, value = found[0] if found else (name, "default", param.default)
        inputs[name] = check(_INPUTS[name], value, f"bound {selector!r} input {key!r}")
        provenance[key] = origin
    return inputs, provenance


def evaluate(selector: str, n: int, t: float, inputs: dict) -> BoundResult:
    """The bound ``selector`` at deviation t after n steps, on resolved inputs."""
    return BOUNDS[selector].formula(n, t, **inputs)


def appendix_checks() -> dict:
    """Grid check of 1 + (u^2 e^u)/2 <= e^{3 u^2} on u in [0, 10] and a
    check of the truncated second-moment inequality
    E[1_{(K, inf)}(Z) Z] <= E[Z^2] / K on 1000 positive discrete Z drawn
    from seed 0 in one batch, one case per row."""
    u = np.arange(0.0, 10.0 + 1e-9, 1e-3)
    # compare in log space: log(1 + u^2 e^u / 2) <= 3 u^2 avoids overflow
    lhs_log = np.logaddexp(0.0, 2.0 * np.log(np.maximum(u, 1e-300)) + u - np.log(2.0))
    lhs_log[u == 0.0] = 0.0
    margins = 3.0 * u * u - lhs_log
    exp_ok = bool(np.all(margins >= -1e-12))

    worst = float(np.min(_truncated_moment_cases()[0]))
    trunc_ok = worst >= -1e-12
    return {
        "exponential_inequality": exp_ok,
        "exponential_min_margin": float(np.min(margins)),
        "truncated_moment": trunc_ok,
        "truncated_moment_min_margin": worst,
        "passed": exp_ok and trunc_ok,
    }


def _truncated_moment_cases():
    """(margin, k, z, w, K): the 1000 truncated-moment cases drawn from
    seed 0 as arrays, and the margin E[Z^2] / K - E[1_{(K, inf)}(Z) Z] of
    each.  Case i is Z on the k[i] in 1..7 points z[i, :k[i]], uniform on
    [0, 10), with Dirichlet(1, ..., 1) weights w[i, :k[i]] (standard
    exponentials normalized over the row; its other weights are 0), and a
    level K[i] uniform on [0.05, 10)."""
    rng = np.random.default_rng(0)
    k = rng.integers(1, 8, 1000)
    z = rng.uniform(0.0, 10.0, (1000, 7))
    e = np.where(np.arange(7) < k[:, None], rng.standard_exponential((1000, 7)), 0.0)
    w = e / e.sum(axis=1, keepdims=True)
    K = rng.uniform(0.05, 10.0, 1000)
    margin = np.sum(w * z * z, axis=1) / K - np.sum(w * z * (z > K[:, None]), axis=1)
    return margin, k, z, w, K


def wilson_interval(successes: int, trials: int):
    """95% score interval for a binomial proportion; at the 0/n and n/n
    boundaries the exact (Clopper-Pearson) limit is used so that the
    reported limit is never anti-conservative there."""
    if trials <= 0 or not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials, trials > 0")
    from scipy.special import ndtri

    alpha = 1.0 - 0.95
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
