"""Observables and statistical estimators along random orbits.

Monte Carlo loops are vectorized across trials for the one-dimensional
families through the per-label kernel ``DrivingMeasure.step`` (single
orbits through ``simulate_coupled``); every trial (or fixed-size trial
chunk) owns its own stream, so results do not depend on scheduling.

Draw order: every trial-batched loop draws its labels through
:func:`step_labels`, step-major (step k's labels for every trial follow
step k-1's) in blocks of at most ``LABEL_BLOCK`` labels.  A chunk of trials
with its own generator is the unit of determinism; ``step_labels`` may join
a group of chunks into one row per step, and the group is only the width of
the vector: each chunk's labels are those it draws alone.  The cocycle kernel
``lyapunov_projective_trials`` draws trial-major (trial i's n labels follow
trial i-1's).

Every pair distance, in the coupled pair profiles, the dense pair sums and
the correlation sums, goes through :func:`rdslab.spaces.distance`, or
through its two steps where the dense pair sums reduce each step's states
once and the correlation sums their points once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .chains import Trajectory, draw_word, simulate_coupled
from .maps import DrivingMeasure, apply_map, cocycle_matrices, derivative, word_maps
from .measures import EmpiricalMeasure, kantorovich_circle, kantorovich_interval
from .observables import Observable
from .spaces import (Circle, StateSpace, circle_delta, distance, grid, pair_metric,
                     reduce_points, require_one_dimensional)
from .streams import SeededStream, as_generator

__all__ = [
    "LambdaEstimate",
    "Sigma2Estimate",
    "StationaryApprox",
    "step_labels",
    "pair_distance_profile",
    "lambda_n",
    "sigma2_estimate",
    "phi0",
    "correlation_sum",
    "correlation_dimension",
    "lyapunov_1d",
    "lyapunov_projective",
    "lyapunov_projective_trials",
    "nonexpansive_fixed_points",
    "stationary_approx",
    "correlation_coefficient_pj",
]

# most labels a trial-batched loop draws in one draw_word call
LABEL_BLOCK = 1 << 16

# steps between QR re-factorizations of a cocycle product
QR_PERIOD = 32

TRIAL_CHUNK = 128

# float64 elements (512 KB) kept in cache while reread: the size of the
# dense pair kernel's trial blocks and of the correlation sums' tree nodes
_NODE = 1 << 16


def step_labels(nu: DrivingMeasure, rng, n: int, count):
    """The labels of n steps of ``count`` trials, one (count,) row per step.

    They are drawn step-major in blocks of at most ``LABEL_BLOCK`` labels.
    Each label takes one double of the stream, so the rows equal n
    successive draws of ``count`` labels, and memory does not grow with n.

    ``rng`` may also be a sequence of chunk generators and ``count`` their
    trial counts.  Each row then joins the chunks' rows side by side, chunk
    i drawing only from ``rng[i]``, and a block holds
    ``max(1, LABEL_BLOCK // sum(count))`` steps of the whole group: each
    chunk's rows are those it draws alone, whatever the block size."""
    if np.ndim(count) == 0:
        rng, count = (rng,), (count,)
    if min(count) < 1:
        raise ValueError("trials must be >= 1")
    total = sum(count)
    steps = max(1, LABEL_BLOCK // total)
    for lo in range(0, n, steps):
        k = min(steps, n - lo)
        # one chunk's labels at a time, written into the joined rows
        rows = np.empty((k, total), dtype=int if nu.finite else float)
        at = 0
        for g, c in zip(rng, count):
            rows[:, at:at + c] = draw_word(nu, g, k * c).reshape(k, c)
            at += c
        yield from rows


# ---------------------------------------------------------------------------
# coupled pair profiles and the contraction functional


def pair_distance_profile(
    nu: DrivingMeasure,
    space: StateSpace,
    x: float,
    y: float,
    n: int,
    trials: int,
    seed: int | SeededStream,
):
    """Means and standard errors of d(X_k^x, X_k^y), k = 0..n, under
    coupled noise.  The k = 0 entry is exact."""
    require_one_dimensional(space, "pair_distance_profile")
    X = np.full(trials, float(x))
    Y = np.full(trials, float(y))
    means = np.empty(n + 1)
    errs = np.empty(n + 1)
    means[0], errs[0] = float(distance(space, x, y)), 0.0
    for k, labels in enumerate(step_labels(nu, as_generator(seed), n, trials), start=1):
        X = nu.step(labels, X)
        Y = nu.step(labels, Y)
        d = distance(space, X, Y)
        means[k] = d.mean()
        errs[k] = d.std(ddof=1) / np.sqrt(trials) if trials > 1 else 0.0
    return list(zip(means, errs))


@dataclass
class LambdaEstimate:
    """Grid-max Monte Carlo estimate of the coupled contraction sum."""

    value: float
    stderr: float
    argmax_pair: tuple
    table: np.ndarray
    table_stderr: np.ndarray


def _circulant(XX):
    """The (..., G//2 + 1, G) view of a doubled row XX = [X, X] whose row k
    holds X[..., (i + k) % G] at column i: with X itself subtracted, row k
    pairs each start i with the start k places on, so the rows cover every
    unordered pair of starts once (row G/2 of an even G twice, from both
    ends) and row 0 is the diagonal."""
    G = XX.shape[-1] // 2
    return sliding_window_view(XX, G, axis=-1)[..., :G // 2 + 1, :]


def _aligned(shape):
    """An uninitialized float array whose data starts on a 64-byte cache
    line.  The dense kernel passes over its tables several times per step;
    at the 16- to 48-byte offsets that malloc may give them, one call of the
    benchmark's polynomial job took 10-20 % longer (2-core Xeon, numpy 2.4)."""
    size = math.prod(shape)
    raw = np.empty(size + 7)
    at = (-raw.ctypes.data % 64) // 8
    return raw[at:at + size].reshape(shape)


def _dense_sums(nu, space, x, n, c, rng):
    """Orbit sums S[t, k, i] = sum_{m=0}^n d(X_m^i, X_m^{(i+k) % G}) of c
    coupled trials from the G starts x, in the layout of :func:`_circulant`:
    G (G//2 + 1) pair distances per step instead of G^2.

    The general kernel.  Each step moves all c trials in one ``nu.step``
    (a circle-chart batch rounds by its size), reduces the states once
    (``reduce_points``) into a doubled row and takes the pair metric of its
    circulant view against the states b = ``_NODE`` // ((G//2 + 1) G) trials
    at a time (31 at G = 64; within [1, c]), so a block stays in cache; its
    two buffers of b rows are allocated once.  No bit depends on b.  The
    diagonal row stays, so a non-finite orbit sums to what the full G x G
    block gives.  The buffers start on cache lines (:func:`_aligned`)."""
    G = len(x)
    xx = np.tile(reduce_points(space, x), 2)
    S = _aligned((c, G // 2 + 1, G))
    S[:] = pair_metric(space, _circulant(xx), xx[:G])
    b = min(c, max(1, _NODE // ((G // 2 + 1) * G)))
    D = _aligned((b,) + S.shape[1:])
    W = _aligned(D.shape) if isinstance(space, Circle) else None
    X = np.tile(x, (c, 1))
    XX = _aligned((c, 2 * G))
    rows = _circulant(XX)
    for labels in step_labels(nu, rng, n, c):
        X = nu.step(labels, X)
        XX[:, :G] = XX[:, G:] = reduce_points(space, X)
        for lo in range(0, c, b):
            k = min(b, c - lo)
            S[lo:lo + k] += pair_metric(space, rows[lo:lo + k], XX[lo:lo + k, None, :G],
                                        out=D[:k], scratch=None if W is None else W[:k])
    return S


def _ordered_sums(nu, space, x, n, c, rng):
    """The same orbit sums, in the same layout, for order-preserving maps on
    an interval, at O(G) work per step.

    Coupled orbits never cross, so d(X_k^i, X_k^j) = |X_k^j - X_k^i| with a
    sign fixed by the starts, and each pair's sum is a difference of
    per-start sums.  Those are kept as offsets from start 0: differences of
    exact dyadics stay exact (the halving system gets stderr exactly 0), and
    the (first, last) pair accumulates exactly as in the dense kernel."""
    X = np.tile(x, (c, 1))
    Dsum = X - X[:, :1]
    for labels in step_labels(nu, rng, n, c):
        X = nu.step(labels, X)
        Dsum += X - X[:, :1]
    S = _circulant(np.concatenate([Dsum, Dsum], axis=1)) - Dsum[:, None, :]
    return np.abs(S, out=S)


def _unfold(half):
    """The symmetric G x G table of a (G//2 + 1, G) circulant table."""
    G = half.shape[1]
    i = np.arange(G)
    j = (i + np.arange(len(half))[:, None]) % G
    full = np.empty((G, G))
    full[i, j] = full[j, i] = half
    return full


def _pair_sum_stats(nu, space, starts, n, trials, stream):
    """Per-pair mean and stderr, as G x G tables, of
    sum_{k=0}^n d(X_k^x, X_k^y) over a common grid of starts, trials
    chunked with independent streams per chunk.

    Both kernels give each chunk's sums in the circulant layout, and the
    statistics run on it before one symmetric scatter into the G x G
    tables.  Chunk variances are merged pairwise (Chan et al.), so a pair
    whose sum is the same in every trial gets a stderr at rounding level,
    not the square root of it."""
    sums = _ordered_sums if nu.order_preserving(space) else _dense_sums
    x = np.asarray(starts, dtype=float)
    total = np.zeros((len(x) // 2 + 1, len(x)))
    m2 = np.zeros_like(total)
    done = 0
    for chunk_idx, lo in enumerate(range(0, trials, TRIAL_CHUNK)):
        c = min(TRIAL_CHUNK, trials - lo)
        # step-major draws keep the n-step word a prefix of the
        # (n+1)-step word at fixed seed, so the estimate is pathwise
        # nondecreasing in n
        S = sums(nu, space, x, n, c, stream.substream(chunk_idx).generator())
        # axis 0 adds trial by trial, as on the G x G block: the same bits
        s = S.sum(axis=0)
        S -= s / c
        np.square(S, out=S)
        m2 += S.sum(axis=0)
        if done:
            delta = s / c - total / done
            m2 += delta * delta * (done * c / (done + c))
        total += s
        done += c
    mean = total / trials
    stderr = np.sqrt(m2 / trials / trials) if trials > 1 else np.zeros_like(mean)
    return _unfold(mean), _unfold(stderr)


def lambda_n(
    nu: DrivingMeasure,
    space: StateSpace,
    n: int,
    trials: int,
    seed: int | SeededStream,
    resolution: int = 64,
) -> LambdaEstimate:
    """Maximum over grid pairs of the Monte Carlo mean of
    sum_{k=0}^n d(X_k^x, X_k^y).

    The reported value is a grid lower bound of the underlying supremum.
    Trial chunk i draws from substream i of substream 0 of ``seed``.

    On an interval whose maps all preserve order (Moebius maps, affine maps
    with slope >= 0, the parametric Moebius family) coupled orbits never
    cross, and the G x G pair table comes from G per-start orbit sums at
    O(G) work per step.  Every other system (polynomial maps, negative
    slopes, circles) steps G (G//2 + 1) pair distances, each unordered pair
    of starts once in a circulant layout; the full G x G table is the
    symmetric unfolding of its statistics, bit for bit what the dense
    G^2 sums of the tests give.
    """
    require_one_dimensional(space, "lambda_n")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    stream = seed if isinstance(seed, SeededStream) else SeededStream(seed)
    starts = grid(space, resolution)
    mean, stderr = _pair_sum_stats(nu, space, starts, n, trials, stream.substream(0))
    i, j = np.unravel_index(int(np.argmax(mean)), mean.shape)
    return LambdaEstimate(
        value=float(mean[i, j]),
        stderr=float(stderr[i, j]),
        argmax_pair=(float(starts[i]), float(starts[j])),
        table=mean,
        table_stderr=stderr,
    )


# ---------------------------------------------------------------------------
# log-averaged measures and the limit variance


def _log_weights(n: int) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1)
    return w / w.sum()


def log_averaged_measure_from_values(values: np.ndarray, n: int) -> EmpiricalMeasure:
    """Log-weighted measure of scaled Birkhoff sums: atoms S_k / sqrt(k)
    with weights proportional to 1/k, k = 1..n, from the per-step
    observable values h(X_0..X_{n-1})."""
    values = np.asarray(values, dtype=float)[:n]
    if len(values) < n or n < 1:
        raise ValueError("need n observable values")
    k = np.arange(1, n + 1)
    scaled = np.cumsum(values) / np.sqrt(k)
    return EmpiricalMeasure(None, scaled, _log_weights(n))


@dataclass
class Sigma2Estimate:
    value: float
    stderr: float
    centering_offset: float  # mean of h under the eta sample, subtracted


def sigma2_estimate(
    nu: DrivingMeasure,
    space: StateSpace,
    n: int,
    trials: int,
    eta_sample: EmpiricalMeasure,
    h: Observable,
    seed: int | SeededStream,
) -> Sigma2Estimate:
    """Monte Carlo limit-variance estimate: (1/n) E_eta[ S_n(h_centered)^2 ],
    starts drawn from the eta sample and h centered by its eta-sample mean."""
    require_one_dimensional(space, "sigma2_estimate")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = as_generator(seed)
    offset = float(np.sum(eta_sample.weights * h(eta_sample.positions)))
    X = rng.choice(eta_sample.positions, size=trials, p=eta_sample.weights)
    S = np.zeros(trials)
    for labels in step_labels(nu, rng, n, trials):
        S += h(X) - offset
        X = nu.step(labels, X)
    sq = S * S / n
    return Sigma2Estimate(
        value=float(sq.mean()),
        stderr=float(sq.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0,
        centering_offset=offset,
    )


# ---------------------------------------------------------------------------
# correlation sums and dimension


def phi0(y):
    """Piecewise-linear Lipschitz approximation to the Heaviside step:
    0 below -1/2, affine on [-1/2, 1/2], 1 above.  L = 1, sup = 1."""
    y = np.asarray(y, dtype=float)
    return np.clip(y + 0.5, 0.0, 1.0)[()]


def correlation_sum(space, points, epsilon: float, kernel="heaviside") -> float:
    """(1/n^2) sum over ordered pairs i != j of the kernel response.

    ``kernel`` "heaviside" counts d <= epsilon (ties included); "phi0" sums
    :func:`phi0` at 1 - d/epsilon.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    # a single block keeps the summation order of one sum over the pair matrix
    return float(_correlation_sums_chunked(space, points, [epsilon], kernel,
                                           chunk=len(points))[0])


class CorrelationDimensionError(RuntimeError):
    pass


def _tree_sum(lo, size, leaf):
    """``leaf(lo, size)`` of each node of at most ``_NODE`` elements of
    numpy's pairwise-sum tree on ``size`` elements from ``lo``, added in
    the tree's order.

    For a contiguous float64 array of length L > 128, ``np.sum`` adds the
    sums of its first h = L//2 - (L//2 mod 8) elements and of the rest,
    each by the same rule (``test_np_sum_is_the_pairwise_tree`` pins it).
    So when ``leaf`` returns ``np.sum`` of its node, the result is ``np.sum``
    of the whole run, bit for bit."""
    if size <= _NODE:
        return leaf(lo, size)
    half = size // 2
    half -= half % 8
    return _tree_sum(lo, half, leaf) + _tree_sum(lo + half, size - half, leaf)


def _mantissa_groups(epsilons) -> dict:
    """The rungs by the mantissa m of eps = m * 2**e, 1 <= m < 2, as
    {m: [(rung index, e), ...]}.  A rung with e outside [-900, 900] keeps
    m = eps and e = 0."""
    groups = {}
    for i, eps in enumerate(epsilons):
        m, e = math.frexp(eps)
        m, e = (2.0 * m, e - 1) if -900 <= e - 1 <= 900 else (eps, 0)
        groups.setdefault(m, []).append((i, e))
    return groups


def _correlation_sums_chunked(space, points, epsilons, kernel, chunk=512):
    """K values of ``kernel`` ("heaviside" or "phi0") for several epsilons
    without materializing the full pair matrix; diagonal (i = j)
    contributions are removed.

    The pair matrix is summed in blocks of ``chunk`` rows, each block's sum
    ``np.sum`` of its C-ordered kernel values, evaluated node by node along
    numpy's pairwise-sum tree (:func:`_tree_sum`): each node gets the
    distance rows that cover it, and every rung reads them while they are
    in cache.

    phi0 rungs eps = m * 2**e that share a mantissa m share one quotient
    Q = D / m per node (Q = D when eps is a power of two), and each sums
    clip(1.5 * 2**e - Q, 0, 2**e) scaled by 2**-e: the bits of
    phi0(1 - D / eps).  Rounding commutes with power-of-two scaling away
    from the subnormal range (a quotient that small clips to the top either
    way), and every clipped value is a multiple of 2**(e - 53), so the
    scaled sum adds along the same tree with the same roundings; the
    exponent guard of :func:`_mantissa_groups` keeps 2**(e - 53) normal and
    2**e finite."""
    if kernel not in ("heaviside", "phi0"):
        raise ValueError(f"kernel must be 'heaviside' or 'phi0', not {kernel!r}")
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n < 2:
        raise ValueError("need at least two points")
    P = reduce_points(space, points)
    groups = list(_mantissa_groups(epsilons).items())
    # the distance rows of one node, a scratch for pair_metric and then for
    # each rung's kernel values, and a quotient for each mantissa but the
    # last (which divides D in place): allocated once per call
    rows = min(chunk, n, _NODE // n + 2)
    D_buf = np.empty(rows * n)
    T_buf = np.empty_like(D_buf)
    Q_buf = np.empty_like(D_buf) if len(groups) > 1 else None

    def node(lo, size):
        # lo counts elements of the full n x n pair matrix in C order
        r0, r1 = lo // n, -(-(lo + size) // n)
        at = lo - r0 * n
        k = (r1 - r0) * n
        pair_metric(space, P[r0:r1, None], P[None, :],
                    out=D_buf[:k].reshape(-1, n), scratch=T_buf[:k].reshape(-1, n))
        D = D_buf[at : at + size]
        if kernel == "heaviside":
            return np.array([np.count_nonzero(D <= eps) for eps in epsilons])
        out = np.empty(len(epsilons))
        for g, (m, rungs) in enumerate(groups):
            # the last mantissa divides D in place, and its last rung
            # overwrites the quotient
            last = g == len(groups) - 1
            Q = D if m == 1.0 else np.divide(D, m, out=D if last else Q_buf[at : at + size])
            for r, (e_idx, e) in enumerate(rungs):
                Y = Q if last and r == len(rungs) - 1 else T_buf[at : at + size]
                # phi0(1 - Q) is clip(1.5 - Q, 0, 1): 1.5 - Q is exact on
                # [0.5, 2], and both forms clip to the same end outside it
                np.subtract(math.ldexp(1.5, e), Q, out=Y)
                np.clip(Y, 0.0, math.ldexp(1.0, e), out=Y)
                out[e_idx] = math.ldexp(np.sum(Y), -e)
        return out

    sums = np.zeros(len(epsilons))
    for lo in range(0, n, chunk):
        sums += _tree_sum(lo * n, min(chunk, n - lo) * n, node)
    # phi0(1) = 1: each kernel gives the diagonal n
    return (sums - n) / n**2


def correlation_dimension(space, points, epsilon_ladder):
    """Least-squares log-log slope of the phi0-smoothed correlation sum along
    a decreasing epsilon ladder.  Zero rungs are dropped; fewer than three
    survivors is an error.

    Returns (slope, intercept, table) with per-rung (epsilon, K) rows.
    """
    ladder = [float(e) for e in epsilon_ladder]
    if (len(ladder) < 3 or any(b >= a for a, b in zip(ladder, ladder[1:]))
            or not all(0.0 < e < np.inf for e in ladder)):
        raise ValueError("ladder must be >= 3 strictly decreasing positive finite rungs")
    K = _correlation_sums_chunked(space, points, ladder, "phi0")
    table = list(zip(ladder, K))
    keep = K > 0
    if keep.sum() < 3:
        raise CorrelationDimensionError("fewer than 3 rungs with positive correlation sum")
    eps = np.array(ladder)[keep]
    slope, intercept = np.polyfit(np.log(eps), np.log(K[keep]), 1)
    return float(slope), float(intercept), table


# ---------------------------------------------------------------------------
# Lyapunov estimators


def lyapunov_1d(traj: Trajectory) -> float:
    """Finite-time exponent (1/n) log |G_n'(x0)| from the recorded chain-rule
    sums."""
    if traj.log_derivative_sum is None:
        raise ValueError("trajectory lacks a log-derivative record")
    n = traj.n
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return float(traj.log_derivative_sum[-1]) / n


def lyapunov_projective(nu: DrivingMeasure, x, n: int, stream):
    """Finite-time rates of a matrix cocycle.

    vector_rate: (1/n) log ||A_n x||, the step-order sum of the log-norms.
    norm_rate: (1/n) log of the spectral norm of the full product, kept
    readable by periodic QR re-factorization with the scale split off.

    ``A.dot`` is the BLAS call of ``@``, and ``math.sqrt(w.dot(w))`` what
    ``np.linalg.norm`` returns; plain floats would round apart (no FMA).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    mats = list(cocycle_matrices(nu))
    m = len(mats[0])
    v = np.asarray(x, dtype=float)
    if v.shape != (m,):
        raise ValueError("start vector dimension mismatch")
    v = v / np.linalg.norm(v)
    # norms[0] = 1 logs to the sum's start, 0.0
    norms = np.ones(n + 1)
    Z = np.eye(m)
    log_scale = 0.0
    for step, idx in enumerate(draw_word(nu, stream, n).tolist(), start=1):
        A = mats[idx]
        w = A.dot(v)
        r = math.sqrt(w.dot(w))
        norms[step] = r
        v = w / r
        Z = A.dot(Z)
        if step % QR_PERIOD == 0:
            Q, R = np.linalg.qr(Z)
            scale = np.max(np.abs(np.diag(R)))
            log_scale += np.log(scale)
            Z = Q @ (R / scale)
    # a running sum in step order: np.sum would add pairwise
    acc = np.cumsum(np.log(norms))[-1]
    norm_rate = (log_scale + np.log(np.linalg.norm(Z, 2))) / n
    return float(acc / n), float(norm_rate)


def lyapunov_projective_trials(nu: DrivingMeasure, x, n: int, trials: int, stream):
    """Both rates of ``trials`` independent cocycle orbits from x, as a
    (2, trials) array: row 0 the vector rates, row 1 the norm rates.

    Trial i's word is the n labels drawn after trial i-1's, so column i is
    bit for bit ``lyapunov_projective(nu, x, n, rng)`` of the i-th of
    ``trials`` calls on the same generator.  Trials step together in
    sub-batches of at most LABEL_BLOCK labels, drawn in one piece (one
    trial's word, if longer, in pieces of LABEL_BLOCK).  Stacked ``matmul``
    and batched ``np.linalg.qr`` round as the per-vector products and norms
    do; an ``einsum`` or a ``sum(W * W)`` would not.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    mats = cocycle_matrices(nu)
    m = mats.shape[1]
    v = np.asarray(x, dtype=float)
    if v.shape != (m,):
        raise ValueError("start vector dimension mismatch")
    v = v / np.linalg.norm(v)
    rng = as_generator(stream)
    out = np.zeros((2, trials))
    per_batch = max(1, LABEL_BLOCK // n)
    # steps per draw: all n whenever b > 1, since then b * n <= LABEL_BLOCK
    steps = min(n, LABEL_BLOCK)
    for lo in range(0, trials, per_batch):
        b = min(per_batch, trials - lo)
        columns = (c for k in range(0, n, steps)
                   for c in draw_word(nu, rng, b * min(steps, n - k)).reshape(b, -1).T)
        V = np.tile(v, (b, 1))
        Z = np.tile(np.eye(m), (b, 1, 1))
        acc, log_scale = np.zeros(b), np.zeros(b)
        for step, labels in enumerate(columns, start=1):
            A = mats[labels]
            W = (A @ V[:, :, None])[:, :, 0]
            r = np.sqrt((W[:, None, :] @ W[:, :, None])[:, 0, 0])
            acc += np.log(r)
            V = W / r[:, None]
            Z = A @ Z
            if step % QR_PERIOD == 0:
                Q, R = np.linalg.qr(Z)
                scale = np.max(np.abs(np.diagonal(R, axis1=1, axis2=2)), axis=1)
                log_scale += np.log(scale)
                Z = Q @ (R / scale[:, None, None])
        out[0, lo:lo + b] = acc / n
        out[1, lo:lo + b] = (log_scale + np.log(np.linalg.norm(Z, 2, axis=(1, 2)))) / n
    return out


# ---------------------------------------------------------------------------
# non-expansive fixed points of the composed circle map


def _composed_circle(maps, theta):
    """The image and derivative at theta of the composition that applies
    the last map of ``maps`` first."""
    deriv = np.ones_like(np.asarray(theta, dtype=float))
    for f in reversed(maps):
        deriv = deriv * derivative(f, theta)
        theta = apply_map(f, theta)
    return theta, deriv


def nonexpansive_fixed_points(nu: DrivingMeasure, n: int, stream):
    """Fixed points of the composed circle map with |derivative| <= 1.

    The drawn word is composed in reverse, the last draw applied first: the
    product whose derivative appears in the fixed-point analysis.  Sign
    changes of the displacement on a 4096-point grid are bisected to within
    1e-10, all cells at once on a (k, 1) column (a stack of one-row
    circle-chart products, which round as one point does), and a multiplier
    up to 1 + 1e-9 counts as non-expansive.

    Returns a list of (point, multiplier) pairs in grid order; empty when
    the composed map has no non-expansive fixed point.
    """
    maps = word_maps(nu, draw_word(nu, stream, n))
    resolution = 4096

    def displacement(theta):
        g, _ = _composed_circle(maps, theta)
        return circle_delta(theta, g)

    thetas = np.arange(resolution) / resolution
    disp = np.atleast_1d(displacement(thetas))

    if np.max(np.abs(disp)) < 1e-12:
        _, derivs = _composed_circle(maps, thetas)
        return [(float(t), float(d)) for t, d in zip(thetas, np.atleast_1d(derivs))]

    # a root at the cell's left end, or a sign change that is no wrap artifact
    fb = np.roll(disp, -1)
    zero = np.abs(disp) < 1e-15
    bracket = ~zero & ~((disp * fb >= 0) | (np.abs(disp - fb) > 0.5))
    a, fa = thetas[bracket, None], disp[bracket, None]
    b = a + 1.0 / resolution
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = displacement(mid % 1.0)
        left = fa * fm <= 0
        b = np.where(left, mid, b)
        a, fa = np.where(left, a, mid), np.where(left, fa, fm)
        # every width is 2^-12 halved exactly, so all cells stop together
        if np.all(b - a < 1e-10):
            break

    roots = thetas % 1.0
    roots[bracket] = ((0.5 * (a + b)) % 1.0)[:, 0]
    roots = roots[zero | bracket]
    _, derivs = _composed_circle(maps, roots[:, None])
    return [(float(r), float(d)) for r, d in zip(roots, derivs[:, 0])
            if abs(d) <= 1.0 + 1e-9]


# ---------------------------------------------------------------------------
# stationary measure and correlation coefficients


@dataclass
class StationaryApprox:
    measure: EmpiricalMeasure
    self_check_distance: float  # first half vs second half Kantorovich


def stationary_approx(
    nu: DrivingMeasure,
    space,
    burn_in: int,
    samples: int,
    stride: int,
    seed: int | SeededStream,
) -> StationaryApprox:
    """Empirical approximation of the stationary law from one long run
    started at 0.5, with a first-half / second-half Kantorovich
    self-check."""
    require_one_dimensional(space, "stationary_approx")
    if burn_in < 0 or samples < 1 or stride < 1:
        raise ValueError("need burn_in >= 0, samples >= 1, stride >= 1")
    total = burn_in + samples * stride
    orbit = simulate_coupled(nu, [0.5], total, as_generator(seed), space=space)[0]
    kept = orbit.points[burn_in + stride :: stride]
    measure = EmpiricalMeasure.from_samples(space, kept)
    half = samples // 2
    if half >= 1 and samples - half >= 1:
        m1 = EmpiricalMeasure.from_samples(space, kept[:half])
        m2 = EmpiricalMeasure.from_samples(space, kept[half:])
        kant = kantorovich_circle if isinstance(space, Circle) else kantorovich_interval
        check = kant(m1, m2)
    else:
        check = float("nan")
    return StationaryApprox(measure=measure, self_check_distance=check)


def correlation_coefficient_pj(
    nu: DrivingMeasure,
    space,
    eta_sample: EmpiricalMeasure,
    j: int,
    trials: int,
    seed: int | SeededStream,
):
    """Monte Carlo estimate of the double eta-average of E[d(X_j^x, X_j^y)]
    under coupled noise.  Returns (value, stderr)."""
    require_one_dimensional(space, "correlation_coefficient_pj")
    rng = as_generator(seed)
    X = rng.choice(eta_sample.positions, size=trials, p=eta_sample.weights)
    Y = rng.choice(eta_sample.positions, size=trials, p=eta_sample.weights)
    for labels in step_labels(nu, rng, j, trials):
        X = nu.step(labels, X)
        Y = nu.step(labels, Y)
    d = distance(space, X, Y)
    err = float(d.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return float(d.mean()), err
