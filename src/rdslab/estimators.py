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

Every pair distance, in the dense pair sums, the correlation sums and the
tracking distances, goes through :func:`rdslab.spaces.distance`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import Trajectory, draw_word, simulate_coupled, word_maps
from .maps import DrivingMeasure, apply_map, cocycle_matrices, derivative
from .measures import EmpiricalMeasure, kantorovich_circle, kantorovich_interval
from .observables import Observable
from .spaces import (Circle, RegionSet, StateSpace, circle_delta, distance, grid,
                     require_one_dimensional)
from .streams import SeededStream, as_generator

__all__ = [
    "LambdaEstimate",
    "CorrelationSum",
    "Sigma2Estimate",
    "StationaryApprox",
    "step_labels",
    "pair_distance_profile",
    "lambda_n",
    "birkhoff_average",
    "empirical_measure",
    "sigma2_estimate",
    "phi0",
    "correlation_sum",
    "correlation_dimension",
    "synchronization",
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
        if len(count) == 1:
            yield from draw_word(nu, rng[0], k * total).reshape(k, total)
            continue
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
    diverged: bool = False


def _dense_sums(nu, space, x, n, c, rng):
    """Orbit sums S[t, i, j] = sum_{k=0}^n d(X_k^i, X_k^j) of c coupled
    trials from the starts x, at O(G^2) work per step.

    The general kernel, and the test oracle of the order-preserving one.
    The pair block of each step goes through ``distance`` in two buffers
    allocated once."""
    X = np.tile(x, (c, 1))
    S = np.tile(distance(space, x[:, None], x[None, :]), (c, 1, 1))
    D = np.empty_like(S)
    W = np.empty_like(S) if isinstance(space, Circle) else None
    for labels in step_labels(nu, rng, n, c):
        X = nu.step(labels, X)
        S += distance(space, X[:, :, None], X[:, None, :], out=D, scratch=W)
    return S


def _ordered_sums(nu, space, x, n, c, rng):
    """The same orbit sums for order-preserving maps on an interval, at O(G)
    work per step.

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
    S = Dsum[:, None, :] - Dsum[:, :, None]
    return np.abs(S, out=S)


def _pair_sum_stats(nu, space, starts, n, trials, stream):
    """Per-pair mean and stderr of sum_{k=0}^n d(X_k^x, X_k^y) over a common
    grid of starts, trials chunked with independent streams per chunk.

    Chunk variances are merged pairwise (Chan et al.), so a pair whose sum
    is the same in every trial gets a stderr at rounding level, not the
    square root of it."""
    sums = _ordered_sums if nu.order_preserving(space) else _dense_sums
    x = np.asarray(starts, dtype=float)
    total = np.zeros((len(x), len(x)))
    m2 = np.zeros_like(total)
    done = 0
    for chunk_idx, lo in enumerate(range(0, trials, TRIAL_CHUNK)):
        c = min(TRIAL_CHUNK, trials - lo)
        # step-major draws keep the n-step word a prefix of the
        # (n+1)-step word at fixed seed, so the estimate is pathwise
        # nondecreasing in n
        S = sums(nu, space, x, n, c, stream.substream(chunk_idx).generator())
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
    return mean, stderr


def lambda_n(
    nu: DrivingMeasure,
    space: StateSpace,
    n: int,
    trials: int,
    seed: int | SeededStream,
    resolution: int = 64,
    region: RegionSet | None = None,
    ceiling: float | None = None,
) -> LambdaEstimate:
    """Maximum over grid pairs of the Monte Carlo mean of
    sum_{k=0}^n d(X_k^x, X_k^y).

    With ``region`` set, pairs are confined to each piece and the outer
    maximum runs over pieces.  The reported value is a grid lower bound of
    the underlying supremum.

    On an interval whose maps all preserve order (Moebius maps, affine maps
    with slope >= 0, the parametric Moebius family) coupled orbits never
    cross, and the G x G pair table comes from G per-start orbit sums at
    O(G) work per step.  Every other system (polynomial maps, negative
    slopes, circles) steps all G^2 pair distances; that dense path is the
    test oracle of the fast one.
    """
    require_one_dimensional(space, "lambda_n")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    stream = seed if isinstance(seed, SeededStream) else SeededStream(seed)
    if region is not None:
        grids = [g for g in region.grids]
    else:
        grids = [grid(space, resolution)]
    if any(len(g) == 0 for g in grids) or not grids:
        raise ValueError("empty grid")

    best = None
    for piece_idx, starts in enumerate(grids):
        mean, stderr = _pair_sum_stats(nu, space, starts, n, trials, stream.substream(piece_idx))
        flat = int(np.argmax(mean))
        i, j = np.unravel_index(flat, mean.shape)
        cand = (float(mean[i, j]), float(stderr[i, j]),
                (float(starts[i]), float(starts[j])), mean, stderr)
        if best is None or cand[0] > best[0]:
            best = cand
    value, err, pair, table, table_err = best
    return LambdaEstimate(
        value=value,
        stderr=err,
        argmax_pair=pair,
        table=table,
        table_stderr=table_err,
        diverged=ceiling is not None and value > ceiling,
    )


# ---------------------------------------------------------------------------
# Birkhoff sums, empirical and log-averaged measures


def birkhoff_average(traj: Trajectory, h: Observable) -> float:
    """Time average of h over the first n orbit points."""
    if traj.n < 1:
        raise ValueError("trajectory must have at least one step")
    return float(np.mean(h(traj.points[:-1])))


def empirical_measure(traj: Trajectory) -> EmpiricalMeasure:
    """Equal-weight atoms at the first n orbit points."""
    return EmpiricalMeasure.from_samples(traj.space, traj.points[:-1])


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


@dataclass
class CorrelationSum:
    n: int
    epsilon: float
    kernel: str
    value: float


def correlation_sum(space, points, epsilon: float, kernel="heaviside") -> CorrelationSum:
    """(1/n^2) sum over ordered pairs i != j of the kernel response.

    heaviside counts d <= epsilon (ties included); a callable kernel phi is
    evaluated at 1 - d/epsilon.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n < 2:
        raise ValueError("need at least two points")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    name = "heaviside" if kernel == "heaviside" else getattr(kernel, "__name__", "smoothed")
    # a single block keeps the summation order of one sum over the pair matrix
    K = _correlation_sums_chunked(space, points, [epsilon], kernel, chunk=n)
    return CorrelationSum(n=n, epsilon=epsilon, kernel=name, value=float(K[0]))


class CorrelationDimensionError(RuntimeError):
    pass


def _correlation_sums_chunked(space, points, epsilons, kernel, chunk=512):
    """K values for several epsilons without materializing the full pair
    matrix; diagonal (i = j) contributions are removed."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    sums = np.zeros(len(epsilons))
    # the distance block D and one scratch block T (1 - D/eps when several
    # rungs share D) are allocated once: per-orbit calls that freed more
    # temporaries ran 3x slower on fresh pages
    D_buf = np.empty((min(chunk, n), n))
    T_buf = np.empty_like(D_buf)
    for lo in range(0, n, chunk):
        block = points[lo : lo + chunk]
        D, T = D_buf[: len(block)], T_buf[: len(block)]
        distance(space, block[:, None], points[None, :], out=D, scratch=T)
        Y = D if len(epsilons) == 1 else T
        for e_idx, eps in enumerate(epsilons):
            if kernel == "heaviside":
                sums[e_idx] += np.count_nonzero(D <= eps)
            else:
                np.divide(D, eps, out=Y)
                if kernel is phi0:
                    # phi0(1 - Q) bit for bit: 1 - Q is exact on [0.5, 2], and
                    # both forms clip to the same end outside it
                    np.subtract(1.5, Y, out=Y)
                    np.clip(Y, 0.0, 1.0, out=Y)
                    sums[e_idx] += float(np.sum(Y))
                else:
                    np.subtract(1.0, Y, out=Y)
                    sums[e_idx] += float(np.sum(kernel(Y)))
    diag = float(n) if kernel == "heaviside" else float(n) * float(kernel(1.0))
    return (sums - diag) / n**2


def correlation_dimension(space, points, epsilon_ladder, kernel=phi0):
    """Least-squares log-log slope of the smoothed correlation sum along a
    decreasing epsilon ladder.  Zero rungs are dropped; fewer than three
    survivors is an error.

    Returns (slope, intercept, table) with per-rung (epsilon, K) rows.
    """
    ladder = [float(e) for e in epsilon_ladder]
    if (len(ladder) < 3 or any(b >= a for a, b in zip(ladder, ladder[1:]))
            or not all(0.0 < e < np.inf for e in ladder)):
        raise ValueError("ladder must be >= 3 strictly decreasing positive finite rungs")
    K = _correlation_sums_chunked(space, points, ladder, kernel)
    table = list(zip(ladder, K))
    keep = K > 0
    if keep.sum() < 3:
        raise CorrelationDimensionError("fewer than 3 rungs with positive correlation sum")
    eps = np.array(ladder)[keep]
    slope, intercept = np.polyfit(np.log(eps), np.log(K[keep]), 1)
    return float(slope), float(intercept), table


# ---------------------------------------------------------------------------
# synchronization and Lyapunov estimators


def synchronization(nu: DrivingMeasure, space, x, B, n: int, stream) -> float:
    """Best coupled time-averaged tracking distance between the orbit of x
    and orbits started in the finite candidate set B."""
    B = list(B)
    if not B:
        raise ValueError("candidate set B must be nonempty")
    trajs = simulate_coupled(nu, [x] + B, n - 1, stream, space=space)
    ref = trajs[0].points
    best = np.inf
    for t in trajs[1:]:
        avg = float(np.mean(distance(space, ref, t.points)))
        best = min(best, avg)
    return best


def lyapunov_1d(traj: Trajectory) -> float:
    """Finite-time exponent (1/n) log |G_n'(x0)| from the recorded chain-rule
    sums."""
    if traj.log_derivative_sum is None:
        raise ValueError("trajectory lacks a log-derivative record")
    n = traj.n
    return float(traj.log_derivative_sum[-1]) / n


def lyapunov_projective(nu: DrivingMeasure, x, n: int, stream):
    """Finite-time rates of a matrix cocycle.

    vector_rate: (1/n) log ||A_n x||, the step-order sum of the log-norms.
    norm_rate: (1/n) log of the spectral norm of the full product, kept
    readable by periodic QR re-factorization with the scale split off.

    ``A.dot`` is the BLAS call of ``@``, and ``math.sqrt(w.dot(w))`` what
    ``np.linalg.norm`` returns; plain floats would round apart (no FMA).
    """
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
    if n == 0:
        return 0.0, 0.0
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
    sub-batches of at most LABEL_BLOCK labels (one trial's word, if longer,
    is drawn in pieces of LABEL_BLOCK).  Stacked ``matmul`` and batched
    ``np.linalg.qr`` round as the per-vector products and norms do; an
    ``einsum`` or a ``sum(W * W)`` would not.
    """
    mats = cocycle_matrices(nu)
    m = mats.shape[1]
    v = np.asarray(x, dtype=float)
    if v.shape != (m,):
        raise ValueError("start vector dimension mismatch")
    v = v / np.linalg.norm(v)
    rng = as_generator(stream)
    out = np.zeros((2, trials))
    if n == 0:
        return out
    per_batch = max(1, LABEL_BLOCK // n)
    for lo in range(0, trials, per_batch):
        b = min(per_batch, trials - lo)
        if b > 1:
            columns = draw_word(nu, rng, b * n).reshape(b, n).T
        else:
            columns = step_labels(nu, rng, n, 1)
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


def _composed_circle(maps, theta, order: str):
    seq = list(reversed(maps)) if order == "reversed" else list(maps)
    deriv = np.ones_like(np.asarray(theta, dtype=float))
    for f in seq:
        deriv = deriv * derivative(f, theta)
        theta = apply_map(f, theta)
    return theta, deriv


def nonexpansive_fixed_points(
    nu: DrivingMeasure,
    n: int,
    stream,
    resolution: int = 4096,
    order: str = "reversed",
    multiplier_slack: float = 1e-9,
    root_tol: float = 1e-10,
):
    """Fixed points of the composed circle map with |derivative| <= 1.

    order selects the composition direction of the drawn word: "reversed"
    applies the last draw first (the product whose derivative appears in
    the fixed-point analysis), "forward" the usual chain order.

    Returns a list of (point, multiplier) pairs; empty when the composed
    map has no non-expansive fixed point.
    """
    if order not in ("forward", "reversed"):
        raise ValueError("order must be 'forward' or 'reversed'")
    word = draw_word(nu, stream, n)
    maps = word_maps(nu, word)

    def displacement(theta):
        g, _ = _composed_circle(maps, theta, order)
        return circle_delta(theta, g)

    thetas = np.arange(resolution) / resolution
    disp = np.atleast_1d(displacement(thetas))

    if np.max(np.abs(disp)) < 1e-12:
        _, derivs = _composed_circle(maps, thetas, order)
        return [(float(t), float(d)) for t, d in zip(thetas, np.atleast_1d(derivs))]

    roots = []
    for i in range(resolution):
        j = (i + 1) % resolution
        a, b = thetas[i], thetas[i] + 1.0 / resolution
        fa, fb = disp[i], disp[j]
        if abs(fa) < 1e-15:
            roots.append(float(a % 1.0))
            continue
        if fa * fb >= 0 or abs(fa - fb) > 0.5:  # same sign, or a wrap artifact
            continue
        for _ in range(200):
            mid = 0.5 * (a + b)
            fm = float(displacement(mid % 1.0))
            if fa * fm <= 0:
                b, fb = mid, fm
            else:
                a, fa = mid, fm
            if b - a < root_tol:
                break
        roots.append(float((0.5 * (a + b)) % 1.0))

    out = []
    for r in roots:
        _, d = _composed_circle(maps, r, order)
        mult = float(np.abs(d))
        if mult <= 1.0 + multiplier_slack:
            out.append((r, float(d)))
    return out


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
    x0: float = 0.5,
) -> StationaryApprox:
    """Empirical approximation of the stationary law from one long run,
    with a first-half / second-half Kantorovich self-check."""
    require_one_dimensional(space, "stationary_approx")
    if burn_in < 0 or samples < 1 or stride < 1:
        raise ValueError("need burn_in >= 0, samples >= 1, stride >= 1")
    total = burn_in + samples * stride
    orbit = simulate_coupled(nu, [float(x0)], total, as_generator(seed), space=space)[0]
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
