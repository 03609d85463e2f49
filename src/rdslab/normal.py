"""The standard normal distribution function and its inverse, ``ndtr`` and
``ndtri``, as Cephes computes them (scipy.special runs the same routines).

Each is a line-for-line port: the same rational approximations, evaluated
in the same Horner order with a separate IEEE multiply and add (no fused
multiply-add), the same branch thresholds, and libm's ``exp`` and ``log``
called through ``math`` on the elements of the branches that need them.
numpy's vectorized ``exp`` and ``log`` round apart from libm's on some
doubles and CPUs, so the port calls neither.  A 0-d input runs as a 1-element
array and returns a float.  ``tests/test_normal.py`` checks both functions
against scipy bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr", "ndtri"]

SQRTH = 7.07106781186547524401e-1  # sqrt(1/2)
MAXLOG = 7.09782712893383996843e2  # log(2**1024): exp(-x*x) underflows past it
EXP_M2 = 0.13533528323661269189  # exp(-2), where ndtri's tails begin
S2PI = 2.50662827463100050242  # sqrt(2 pi)

# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8
P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
     4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
     9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
     9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
     1.65666309194161350182e3, 5.57535340817727675546e2)
# erfc(x) = exp(-x^2) R(x) / S(x) for x >= 8
R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
     6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
     1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# erf(x) = x T(x^2) / U(x^2) for |x| <= 1
T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
     7.00332514112805075473e3, 5.55923013010394962768e4)
U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
     2.26290000613890934246e4, 4.92673942608635921086e4)
# ndtri(y) for exp(-2) < y <= 1 - exp(-2), in y - 1/2
P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
      1.39312609387279679503e1, -1.23916583867381258016e0)
Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
      -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
      1.59056225126211695515e1, -1.18331621121330003142e0)
# ndtri's tails in z = 1/x, x = sqrt(-2 log y): P1/Q1 for x < 8, P2/Q2 past it
P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
      4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
      -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
      1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
      -3.80806407691578277194e-2, -9.33259480895457427372e-4)
P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
      1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
      3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
      2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
      2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _rational(c, x, num, den):
    """c * polevl(x, num) / p1evl(x, den), Cephes' Horner loops: the
    denominator's leading coefficient is an implicit 1.  Takes floats or
    arrays."""
    top = num[0]
    for k in num[1:]:
        top = top * x + k
    bottom = x + den[0]
    for k in den[1:]:
        bottom = bottom * x + k
    return c * top / bottom


def _libm(f, x: np.ndarray) -> np.ndarray:
    """libm's ``f`` (``math.exp`` or ``math.log``) on each element of ``x``."""
    return np.fromiter(map(f, x.tolist()), float, x.size)


def _erf(x):
    """erf(x) for |x| <= 1."""
    return _rational(x, x * x, T, U)


def _ndtri_mid(y):
    """ndtri(y) for exp(-2) < y <= 1 - exp(-2)."""
    y = y - 0.5
    y2 = y * y
    return (y + y * _rational(y2, y2, P0, Q0)) * S2PI


def _ndtri_tail(x, log_x, num, den):
    """-ndtri(y) for y <= exp(-2), from x = sqrt(-2 log y) and log(x)."""
    z = 1.0 / x
    return x - log_x / x - _rational(z, z, num, den)


def _erfc(x: np.ndarray) -> np.ndarray:
    """erfc(x) on each element of a 1-d array with x >= sqrt(1/2), the
    arguments ndtr passes."""
    y = np.zeros(x.shape)  # exp(-x*x) underflows
    near = x < 1.0
    y[near] = 1.0 - _erf(x[near])
    with np.errstate(over="ignore"):  # -x*x of a huge x is -inf, below -MAXLOG
        z = -x * x
    far = ~near & (z >= -MAXLOG)
    for part, num, den in ((far & (x < 8.0), P, Q), (far & (x >= 8.0), R, S)):
        y[part] = _rational(_libm(math.exp, z[part]), x[part], num, den)
    return y


def ndtr(a):
    """The standard normal distribution function at each element of ``a``."""
    a = np.asarray(a, dtype=float)
    x = np.atleast_1d(a) * SQRTH
    z = np.abs(x)
    y = np.full(x.shape, np.nan)
    small = z < SQRTH
    y[small] = 0.5 + 0.5 * _erf(x[small])
    large = z >= SQRTH
    half = 0.5 * _erfc(z[large])
    y[large] = np.where(x[large] > 0, 1.0 - half, half)
    return float(y[0]) if a.ndim == 0 else y


def ndtri(y0):
    """The standard normal quantile at each element of ``y0``: -inf at 0,
    inf at 1, nan outside [0, 1]."""
    y0 = np.asarray(y0, dtype=float)
    p = np.atleast_1d(y0)
    x = np.full(p.shape, np.nan)
    x[p == 0.0] = -np.inf
    x[p == 1.0] = np.inf
    inside = (0.0 < p) & (p < 1.0)
    y = p[inside]
    upper = y > 1.0 - EXP_M2
    y = np.where(upper, 1.0 - y, y)
    out = np.empty(y.shape)
    mid = y > EXP_M2
    out[mid] = _ndtri_mid(y[mid])
    tails = ~mid
    r = np.sqrt(-2.0 * _libm(math.log, y[tails]))
    log_r = _libm(math.log, r)
    t = np.empty(r.shape)
    for part, num, den in ((r < 8.0, P1, Q1), (r >= 8.0, P2, Q2)):
        t[part] = _ndtri_tail(r[part], log_r[part], num, den)
    out[tails] = np.where(upper[tails], t, -t)
    x[inside] = out
    return float(x[0]) if y0.ndim == 0 else x
