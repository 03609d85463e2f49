import functools
import json
import math
import operator
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rdslab import estimators as E
from rdslab.chains import (
    coupled_distance,
    draw_word,
    enumerate_expectation,
    simulate,
)
from rdslab.estimators import (
    CorrelationDimensionError,
    correlation_coefficient_pj,
    correlation_dimension,
    correlation_sum,
    lambda_n,
    log_averaged_measure_from_values,
    lyapunov_1d,
    lyapunov_projective,
    lyapunov_projective_trials,
    nonexpansive_fixed_points,
    pair_distance_profile,
    phi0,
    sigma2_estimate,
    stationary_approx,
)
from rdslab.maps import Affine, DrivingMeasure, MoebiusDecay, PolynomialDecay, ProjectiveAction
from rdslab.measures import EmpiricalMeasure, kantorovich_interval
from rdslab.observables import OBSERVABLES
from rdslab.spaces import Circle, Interval, Projective, distance
from rdslab.streams import SeededStream

TWO_ATOM = DrivingMeasure(atoms=((MoebiusDecay(1.0), 0.5), (MoebiusDecay(2.0), 0.5)))
HALVING = DrivingMeasure(atoms=((Affine(0.5, 0.0), 0.5), (Affine(0.5, 0.5), 0.5)))
SP = Interval(0.0, 1.0)


class TestPairDistanceProfile:
    def test_k0_exact(self):
        prof = pair_distance_profile(TWO_ATOM, SP, 0.0, 1.0, 3, 100, 0)
        assert prof[0] == (1.0, 0.0)

    def test_matches_enumeration(self):
        prof = pair_distance_profile(TWO_ATOM, SP, 0.0, 1.0, 3, 50_000, 1)
        for k in (1, 2, 3):
            exact = enumerate_expectation(
                TWO_ATOM, k, lambda maps: coupled_distance(SP, maps, 0.0, 1.0)
            )
            mean, err = prof[k]
            assert abs(mean - exact) <= 4 * err


class TestLambdaN:
    def test_halving_geometric_limit(self):
        # coupled gap halves each step: sum_k 2^-k |x-y| -> 2 at the corners
        est = lambda_n(HALVING, SP, 30, 50, 0, resolution=8)
        assert est.value == pytest.approx(2.0, abs=1e-6)

    def test_monotone_in_n(self):
        vals = [lambda_n(TWO_ATOM, SP, n, 100, 7, resolution=8).value for n in (2, 5, 10)]
        assert vals[0] <= vals[1] <= vals[2]

    @pytest.mark.parametrize("n, trials, message", [(-1, 10, "n must be >= 0"),
                                                    (5, 0, "trials must be >= 1")])
    def test_rejects_negative_n_and_no_trials(self, n, trials, message):
        with mock.patch("rdslab.estimators.draw_word") as draw, \
                pytest.raises(ValueError, match=message):
            lambda_n(HALVING, SP, n, trials, 0, resolution=4)
        draw.assert_not_called()


def _dense_lambda(*args, **kwargs):
    """lambda_n forced onto the dense kernel, the oracle of the ordered one."""
    with mock.patch.object(DrivingMeasure, "order_preserving", lambda nu, space: False):
        return lambda_n(*args, **kwargs)


def _with_tables(run, *args, **kwargs):
    """(``run(*args, **kwargs)``, the (mean, stderr) half tables that its
    ``_pair_sum_stats`` returned, stacked)."""
    tables, stats = [], E._pair_sum_stats
    with mock.patch.object(E, "_pair_sum_stats", lambda *a: tables.append(stats(*a)) or tables[-1]):
        est = run(*args, **kwargs)
    return est, np.stack(tables[0])


def _fold(full):
    """The (G//2 + 1, G) circulant half table of a (..., G, G) table: entry
    (k, i) is full[..., i, (i + k) % G]."""
    G = full.shape[-1]
    i = np.arange(G)
    return full[..., i, (i + np.arange(G // 2 + 1)[:, None]) % G]


def _unfold(half):
    """The symmetric G x G table of a (G//2 + 1, G) circulant half table."""
    G = half.shape[1]
    i = np.arange(G)
    j = (i + np.arange(len(half))[:, None]) % G
    full = np.empty((G, G))
    full[i, j] = full[j, i] = half
    return full


_ordered_atom = st.one_of(
    # slope in [0, 1], offset keeping [0, 1] inside itself
    st.builds(lambda s, u: Affine(s, u * (1.0 - s)), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.builds(MoebiusDecay, st.floats(1.0, 10.0)),
)
_ordered_measure = st.one_of(
    st.lists(_ordered_atom, min_size=1, max_size=3).map(
        lambda ms: DrivingMeasure(atoms=tuple((m, 1.0 / len(ms)) for m in ms))),
    st.builds(lambda lo, w: DrivingMeasure(family="moebius", sampler=("uniform", lo, lo + w)),
              st.floats(1.0, 5.0), st.floats(0.0, 3.0)),
)


class TestPairSumKernels:
    @settings(max_examples=60, deadline=None)
    @given(nu=_ordered_measure, G=st.integers(2, 16), n=st.integers(0, 30),
           trials=st.sampled_from([1, 2, 129]), seed=st.integers(0, 2**16))
    def test_ordered_kernel_matches_dense_oracle(self, nu, G, n, trials, seed):
        # 129 trials cross the 128-trial chunk boundary
        assert nu.order_preserving(SP)
        fast, fast_tables = _with_tables(lambda_n, nu, SP, n, trials, seed, resolution=G)
        slow, slow_tables = _with_tables(_dense_lambda, nu, SP, n, trials, seed, resolution=G)
        np.testing.assert_allclose(fast_tables[0], slow_tables[0], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(fast_tables[1], slow_tables[1], rtol=0.0, atol=1e-9)
        assert fast.value == slow.value

    @pytest.mark.parametrize("nu, space, expected", [
        (HALVING, SP, True),
        (TWO_ATOM, SP, True),
        (DrivingMeasure(family="moebius", sampler=("uniform", 1.0, 2.0)), SP, True),
        (DrivingMeasure(atoms=((Affine(0.0, 0.3), 1.0),)), SP, True),
        (DrivingMeasure(atoms=((Affine(-0.5, 1.0), 1.0),)), SP, False),
        (DrivingMeasure(atoms=((PolynomialDecay(1.25), 0.5), (PolynomialDecay(1.5), 0.5))), SP, False),
        (DrivingMeasure(family="polynomial", sampler=("uniform", 1.25, 1.5)), SP, False),
        (DrivingMeasure(atoms=((ProjectiveAction([[2.0, 1.0], [1.0, 1.0]], chart="circle"), 1.0),)),
         Circle(), False),
        (HALVING, Circle(), False),
        # Moebius maps are monotone only on [0, inf)
        (TWO_ATOM, Interval(-1.0, 1.0), False),
        (DrivingMeasure(atoms=((MoebiusDecay(1.0), 0.5), (Affine(1.0, -0.5), 0.5))), SP, False),
    ])
    def test_order_preserving_truth_table(self, nu, space, expected):
        assert nu.order_preserving(space) is expected

    @pytest.mark.parametrize("n", [0, 1, 10, 40])
    @pytest.mark.parametrize("trials", [1, 129])
    def test_halving_exact(self, n, trials):
        est = lambda_n(HALVING, SP, n, trials, 3, resolution=64)
        assert est.stderr == 0.0
        assert abs(est.value - sum(2.0**-k for k in range(n + 1))) <= 1e-15

    @pytest.mark.parametrize("run", [lambda_n, _dense_lambda], ids=["ordered", "dense"])
    def test_n0_is_the_start_distance(self, run):
        est = run(HALVING, SP, 0, 10, 0, resolution=4)
        assert (est.value, est.stderr) == (1.0, 0.0)

    @pytest.mark.parametrize("G", range(2, 20))
    def test_pick_is_argmax_of_unfolded_table(self, G):
        # np.argmax on the symmetric G x G tables: the first maximum, or the
        # first nan, in row-major order; few distinct means force ties, and
        # every pair has its own stderr, so a wrong tie-mate shows
        rng = np.random.default_rng(G)
        K = G // 2 + 1
        cases = [rng.choice([0.0, 1.0, 2.0, np.inf, -np.inf], size=(K, G),
                            p=[0.3, 0.3, 0.3, 0.05, 0.05]) for _ in range(200)]
        for mean in cases[::2]:
            mean[rng.random((K, G)) < 0.05] = np.nan
        cases += [np.full((K, G), np.nan), np.full((K, G), -np.inf), np.zeros((K, G))]
        for mean in cases:
            stderr = rng.permutation(mean.size).reshape(K, G).astype(float)
            if G % 2 == 0:  # row G/2 holds each pair twice, with equal bits
                mean[-1, G // 2:], stderr[-1, G // 2:] = mean[-1, :G // 2], stderr[-1, :G // 2]
            full_mean, full_stderr = _unfold(mean), _unfold(stderr)
            at = np.unravel_index(np.argmax(full_mean), full_mean.shape)
            with mock.patch.object(E, "_pair_sum_stats", return_value=(mean, stderr)):
                est = lambda_n(HALVING, SP, 0, 1, 0, resolution=G)
            assert np.array_equal([est.value, est.stderr], [full_mean[at], full_stderr[at]],
                                  equal_nan=True)


CIRCLE_CHART = DrivingMeasure(atoms=(
    (ProjectiveAction([[2.0, 1.0], [1.0, 1.0]], chart="circle"), 0.5),
    (ProjectiveAction([[0.6, -0.8], [0.8, 0.6]], chart="circle"), 0.5)))
BLOCK_SYSTEMS = {
    "halving": (HALVING, SP),
    "moebius-uniform": (DrivingMeasure(family="moebius", sampler=("uniform", 1.0, 2.0)), SP),
    "circle-chart": (CIRCLE_CHART, Circle()),
}


def _oracle_sums(nu, space, x, n, c, rng):
    """The dense O(G^2) orbit sums: the full G x G block of pair distances,
    S[t, i, j] = sum_{k=0}^n d(X_k^i, X_k^j), stepped one draw per step.
    Also the states X_0..X_n, shape (n + 1, c, G)."""
    states = [np.tile(x, (c, 1))]
    S = np.tile(distance(space, x[:, None], x[None, :]), (c, 1, 1))
    for _ in range(n):
        X = nu.step(draw_word(nu, rng, c), states[-1])
        S += distance(space, X[:, :, None], X[:, None, :])
        states.append(X)
    return S, np.stack(states)


def _oracle_lambda(nu, space, n, trials, seed, resolution=64):
    """lambda_n on the dense G x G sums, chunk by chunk with the same streams
    and the same Chan merge: (the estimate at np.argmax, the G x G mean and
    stderr tables), the oracle of the circulant half tables, which must
    match them bit for bit."""
    stream = SeededStream(seed).substream(0)
    x = E.grid(space, resolution)
    total, m2, done = 0.0, 0.0, 0
    for chunk, lo in enumerate(range(0, trials, E.TRIAL_CHUNK)):
        c = min(E.TRIAL_CHUNK, trials - lo)
        S = _oracle_sums(nu, space, x, n, c, stream.substream(chunk).generator())[0]
        s = S.sum(axis=0)
        S -= s / c
        m2 = m2 + np.square(S).sum(axis=0)
        if done:
            delta = s / c - total / done
            m2 += delta * delta * (done * c / (done + c))
        total = total + s
        done += c
    mean = total / trials
    stderr = np.sqrt(m2 / trials / trials) if trials > 1 else np.zeros_like(mean)
    at = np.unravel_index(int(np.argmax(mean)), mean.shape)
    return E.LambdaEstimate(float(mean[at]), float(stderr[at])), np.stack([mean, stderr])


def _assert_same_estimate(got, want):
    """``got`` and ``want`` are (estimate, tables) of ``_with_tables`` and
    ``_oracle_lambda``: the half tables are the oracle's folded, bit for bit."""
    (est, half), (oracle, full) = got, want
    assert np.array_equal(half, _fold(full), equal_nan=True)
    assert np.array_equal([est.value, est.stderr], [oracle.value, oracle.stderr], equal_nan=True)


# circle lifts that leave [0, 1): 0.5 + 0.5 lands on 1.0, and a start of 0
# shifted by -1e-20 reduces to 1.0, which a second reduction reads as 0.0
CIRCLE_LIFTS = DrivingMeasure(atoms=((Affine(1.0, 0.5), 0.3), (Affine(2.0, 0.25), 0.2),
                                     (Affine(-1.0, 0.75), 0.2), (Affine(1.0, -1e-20), 0.3)))
DENSE_SYSTEMS = {
    "polynomial-atoms": (DrivingMeasure(atoms=((PolynomialDecay(1.25), 0.5),
                                               (PolynomialDecay(1.5), 0.5))), SP),
    "polynomial-family": (DrivingMeasure(family="polynomial", sampler=("uniform", 1.25, 1.5)), SP),
    "negative-slope": (DrivingMeasure(atoms=((Affine(-0.5, 1.0), 0.5), (Affine(0.5, 0.0), 0.5))),
                       SP),
    "circle-chart": (CIRCLE_CHART, Circle()),
    "circle-lifts": (CIRCLE_LIFTS, Circle()),
}


class TestDenseKernelOracle:
    """The dense kernel steps each unordered pair of starts once, in the
    circulant half table; the dense G x G sums are its oracle, bit for bit."""

    @pytest.mark.parametrize("name", sorted(DENSE_SYSTEMS))
    @pytest.mark.parametrize("G", [2, 3, 8, 13])
    @pytest.mark.parametrize("trials", [1, 2, 129])
    def test_lambda_equals_dense_oracle(self, name, G, trials):
        nu, space = DENSE_SYSTEMS[name]
        assert not nu.order_preserving(space)
        got = _with_tables(lambda_n, nu, space, 12, trials, 5, resolution=G)
        _assert_same_estimate(got, _oracle_lambda(nu, space, 12, trials, 5, resolution=G))

    def test_full_grid_equals_dense_oracle(self):
        nu, space = DENSE_SYSTEMS["circle-chart"]
        got = _with_tables(lambda_n, nu, space, 20, 130, 0, resolution=64)
        _assert_same_estimate(got, _oracle_lambda(nu, space, 20, 130, 0, resolution=64))

    @pytest.mark.parametrize("trials", [1, 2, 129])
    def test_overflow_to_inf_equals_dense_oracle(self, trials):
        # |slope| 1e200 overflows in two steps; inf - inf makes the diagonal nan
        nu = DrivingMeasure(atoms=((Affine(-1e200, 0.5), 0.5), (Affine(1e200, 0.0), 0.5)))
        assert not nu.order_preserving(SP)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _with_tables(lambda_n, nu, SP, 4, trials, 1, resolution=5)
            want = _oracle_lambda(nu, SP, 4, trials, 1, resolution=5)
        assert np.isnan(want[1][0]).any() and np.isinf(want[1][0]).any()
        _assert_same_estimate(got, want)

    @pytest.mark.parametrize("G", [1, 2, 5, 6])
    def test_dense_circle_fold_matches_distance(self, G):
        # each trial's half table is the G x G block of distance, folded
        x = np.array([0.0, 0.25, 0.5, 0.9, 1.0, 0.75])[:G]
        n, c = 8, 7
        S = E._dense_sums(CIRCLE_LIFTS, Circle(), x, n, c, SeededStream(2).generator())
        expected, states = _oracle_sums(CIRCLE_LIFTS, Circle(), x, n, c, SeededStream(2).generator())
        assert S.shape == (c, G // 2 + 1, G)
        assert np.array_equal(S, _fold(expected))
        if G >= 5:
            assert np.any(states < 0.0) and np.any(states > 1.0)
            assert np.any(states % 1.0 == 1.0)
            # starts 0.0 and 1.0 are the same circle point; dyadic lifts stay exact
            assert np.all(expected[:, 0, 4] == 0.0)


OVERFLOW = DrivingMeasure(atoms=((Affine(-1e200, 0.5), 0.5), (Affine(1e200, 0.0), 0.5)))


class TestDenseTrialBlocks:
    """The dense kernel takes its pair metric b = ``_NODE`` // ((G//2 + 1) G)
    trials at a time.  At the tests' small G that is the whole chunk, so
    ``_NODE`` is lowered to give b = 1, and b = 3, which divides neither a
    7-trial chunk nor a 128-trial one: the oracle's bits either way."""

    @staticmethod
    def _record(monkeypatch):
        """The shapes the kernel passes to ``_aligned``, as it allocates."""
        shapes, aligned = [], E._aligned
        monkeypatch.setattr(E, "_aligned", lambda shape: shapes.append(shape) or aligned(shape))
        return shapes

    def _run(self, monkeypatch, node, nu, space, G, trials, n=12, seed=5):
        """(lambda_n, the dense oracle, the shapes of the 3-d tables the
        kernel allocated), with ``_NODE`` set to ``node``."""
        monkeypatch.setattr(E, "_NODE", node)
        shapes = self._record(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _with_tables(lambda_n, nu, space, n, trials, seed, resolution=G)
            want = _oracle_lambda(nu, space, n, trials, seed, resolution=G)
        return got, want, [s for s in shapes if len(s) == 3]

    @staticmethod
    def _tables(space, G, trials, b):
        """Per chunk: S of c rows, then D and, on the circle, W of b rows."""
        half = (G // 2 + 1, G)
        buffers = 2 if isinstance(space, Circle) else 1
        return [shape for lo in range(0, trials, E.TRIAL_CHUNK)
                for c in [min(E.TRIAL_CHUNK, trials - lo)]
                for shape in [(c, *half)] + [(min(b, c), *half)] * buffers]

    @pytest.mark.parametrize("node, b", [(40, 1), (3 * 40, 3), (1, 1)],
                             ids=["one", "three", "below-one-row"])
    @pytest.mark.parametrize("name", sorted(DENSE_SYSTEMS))
    @pytest.mark.parametrize("trials", [7, 129])
    def test_blocks_equal_dense_oracle(self, monkeypatch, node, b, name, trials):
        nu, space = DENSE_SYSTEMS[name]
        got, want, tables = self._run(monkeypatch, node, nu, space, 8, trials)
        _assert_same_estimate(got, want)
        assert tables == self._tables(space, 8, trials, b)

    @pytest.mark.parametrize("node, b", [(15, 1), (3 * 15, 3)], ids=["one", "three"])
    @pytest.mark.parametrize("trials", [7, 129])
    def test_overflow_to_inf_blocks_equal_dense_oracle(self, monkeypatch, node, b, trials):
        got, want, tables = self._run(monkeypatch, node, OVERFLOW, SP, 5, trials, n=4, seed=1)
        assert np.isnan(want[1][0]).any() and np.isinf(want[1][0]).any()
        _assert_same_estimate(got, want)
        assert tables == self._tables(SP, 5, trials, b)

    @pytest.mark.parametrize("space", [SP, Circle()], ids=["interval", "circle"])
    def test_benchmark_grid_takes_31_trials(self, monkeypatch, space):
        # G = 64: 33 x 64 elements a trial, 31 of them within 2**16
        shapes = self._record(monkeypatch)
        E._dense_sums(HALVING, space, E.grid(space, 64), 0, 128, SeededStream(0).generator())
        assert [s for s in shapes if len(s) == 3] == self._tables(space, 64, 128, 31)


@pytest.mark.parametrize("shape", [(1,), (3, 5), (2, 33, 64)])
def test_aligned_buffers_start_on_cache_lines(shape):
    a = E._aligned(shape)
    assert a.shape == shape and a.flags.c_contiguous and a.ctypes.data % 64 == 0


def _loop_outputs(nu, space):
    """Every library loop that draws through step_labels, as arrays:
    25 steps of 37 trials (lambda_n with both pair-sum kernels)."""
    eta = EmpiricalMeasure.from_samples(space, (np.arange(64) + 0.5) / 64)
    s2 = sigma2_estimate(nu, space, 25, 37, eta, OBSERVABLES["centered"], 1)
    out = {"profile": np.array(pair_distance_profile(nu, space, 0.1, 0.8, 25, 37, 2)),
           "sigma2": np.array([s2.value, s2.stderr, s2.centering_offset]),
           "pj": np.array(correlation_coefficient_pj(nu, space, eta, 25, 37, 3))}
    for kernel, run in (("lambda", lambda_n), ("lambda-dense", _dense_lambda)):
        out[kernel] = _with_tables(run, nu, space, 25, 37, 4, resolution=6)[1]
    return out


class TestLabelBlocks:
    """The library loops draw through step_labels.  At LABEL_BLOCK = 1 that
    is one draw_word call per step, the draw order of the per-step loops, so
    the outputs must be bit-identical at any block."""

    @pytest.mark.parametrize("n, count, block", [(25, 37, 1), (25, 37, 100), (3, 5, 1 << 16),
                                                 (0, 4, 10)])
    def test_rows_are_successive_draws(self, n, count, block):
        nu = BLOCK_SYSTEMS["moebius-uniform"][0]
        with mock.patch.object(E, "LABEL_BLOCK", block), \
                mock.patch("rdslab.estimators.draw_word", wraps=draw_word) as draws:
            rows = list(E.step_labels(nu, SeededStream(5).generator(), n, count))
        rng = SeededStream(5).generator()
        assert len(rows) == n
        assert all(np.array_equal(row, draw_word(nu, rng, count)) for row in rows)
        sizes = [c.args[2] for c in draws.call_args_list]
        assert sum(sizes) == n * count and max(sizes, default=0) <= max(block, count)
        if block == 1:
            assert sizes == [count] * n

    def test_needs_a_trial(self):
        with pytest.raises(ValueError, match="trials"):
            next(E.step_labels(HALVING, SeededStream(0).generator(), 3, 0))

    @pytest.mark.parametrize("name", sorted(BLOCK_SYSTEMS))
    # the default block, and a block of two steps with a short last block
    @pytest.mark.parametrize("block", [E.LABEL_BLOCK, 100])
    def test_matches_one_draw_per_step(self, name, block):
        nu, space = BLOCK_SYSTEMS[name]
        with mock.patch.object(E, "LABEL_BLOCK", block):
            got = _loop_outputs(nu, space)
        with mock.patch.object(E, "LABEL_BLOCK", 1):
            expect = _loop_outputs(nu, space)
        for key in expect:
            assert np.array_equal(got[key], expect[key]), key


class TestLogAveragedMeasure:
    def test_n1_single_atom(self):
        mu = log_averaged_measure_from_values([0.7], 1)
        assert mu.positions[0] == pytest.approx(0.7)
        assert mu.weights[0] == 1.0

    def test_n2_weights(self):
        # a_2 = 3/2: weights 2/3 and 1/3; atoms x0 and (x0+x1)/sqrt(2)
        mu = log_averaged_measure_from_values([0.4, 0.2], 2)
        np.testing.assert_allclose(mu.weights, [2.0 / 3.0, 1.0 / 3.0])
        assert mu.positions[0] == pytest.approx(0.4)
        assert mu.positions[1] == pytest.approx(0.6 / np.sqrt(2.0))


class TestSigma2:
    def test_zero_observable(self):
        eta = EmpiricalMeasure.from_samples(SP, np.linspace(0, 1, 32))
        est = sigma2_estimate(HALVING, SP, 50, 500, eta, OBSERVABLES["zero"], 0)
        assert est.value == 0.0

    def test_halving_stable_across_n(self):
        eta = EmpiricalMeasure.from_samples(SP, (np.arange(256) + 0.5) / 256)
        h = OBSERVABLES["coordinate"]
        ests = [sigma2_estimate(HALVING, SP, n, 4000, eta, h, 1) for n in (256, 512)]
        for e in ests:
            assert e.value > 0
        gap = abs(ests[0].value - ests[1].value)
        assert gap <= 3 * (ests[0].stderr + ests[1].stderr)

    def test_centering_offset_reported(self):
        eta = EmpiricalMeasure.from_samples(SP, np.linspace(0, 1, 32))
        est = sigma2_estimate(HALVING, SP, 10, 200, eta, OBSERVABLES["coordinate"], 0)
        assert est.centering_offset == pytest.approx(0.5)

    @pytest.mark.parametrize("n", [0, -2])
    def test_rejects_n_below_one(self, n):
        eta = EmpiricalMeasure.from_samples(SP, np.linspace(0, 1, 32))
        with pytest.raises(ValueError, match="n must be >= 1"):
            sigma2_estimate(HALVING, SP, n, 200, eta, OBSERVABLES["coordinate"], 0)


class TestCorrelationSum:
    def test_heaviside_checkpoint(self):
        assert correlation_sum(SP, [0.0, 0.1, 0.5], 0.2) == pytest.approx(2.0 / 9.0)

    def test_phi0_checkpoint(self):
        assert correlation_sum(SP, [0.0, 0.1, 0.5], 0.2, kernel="phi0") == pytest.approx(2.0 / 9.0)

    def test_large_epsilon_counts_all(self):
        pts = np.random.default_rng(0).uniform(0, 1, 10)
        assert correlation_sum(SP, pts, 10.0) == pytest.approx(1.0 - 1.0 / 10.0)

    def test_ties_count(self):
        assert correlation_sum(SP, [0.0, 0.2], 0.2) == pytest.approx(0.5)

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("estimate", [
        lambda pts: correlation_sum(SP, pts, 0.1),
        lambda pts: correlation_dimension(SP, pts, [0.3, 0.2, 0.1]),
    ], ids=["sum", "dimension"])
    def test_too_few_points(self, estimate, n):
        with pytest.raises(ValueError, match="need at least two points"):
            estimate(np.full(n, 0.5))

    @pytest.mark.parametrize("kernel", [phi0, "gaussian", None], ids=["function", "other", "none"])
    def test_kernel_is_named(self, kernel):
        with pytest.raises(ValueError, match="'heaviside' or 'phi0'"):
            correlation_sum(SP, [0.0, 0.1, 0.5], 0.2, kernel)

    @pytest.mark.parametrize("space, pts", [
        (SP, np.random.default_rng(2).uniform(0, 1, 60)),
        # lifts outside [0, 1) and pairs across the wrap
        (Circle(), np.random.default_rng(3).uniform(-1.5, 2.5, 60)),
        (Projective(3), (lambda v: v / np.linalg.norm(v, axis=1, keepdims=True))(
            np.random.default_rng(4).normal(size=(60, 3)))),
    ])
    def test_matches_pairwise_loop(self, space, pts):
        n = len(pts)
        d = np.array([[float(distance(space, pts[i], pts[j])) for j in range(n)]
                      for i in range(n)])
        off = ~np.eye(n, dtype=bool)
        for eps in (0.05, 0.3):
            heavi = np.count_nonzero((d <= eps) & off) / n**2
            smooth = float(np.sum(phi0(1.0 - d[off] / eps))) / n**2
            assert correlation_sum(space, pts, eps) == pytest.approx(heavi, abs=1e-12)
            assert correlation_sum(space, pts, eps, kernel="phi0") == pytest.approx(
                smooth, rel=1e-12)

    @given(st.floats(min_value=-4, max_value=4, allow_nan=False))
    def test_phi0_heaviside_sandwich(self, y):
        # theta(1-2y) <= phi0(1-y) <= theta(1-y/2)
        theta = lambda s: 1.0 if s >= 0 else 0.0
        assert theta(1 - 2 * y) <= phi0(1 - y) + 1e-12
        assert phi0(1 - y) <= theta(1 - y / 2) + 1e-12

    def test_kernel_sandwich_random_sets(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pts = rng.uniform(0, 1, int(rng.integers(2, 50)))
            for eps in (0.05, 0.1, 0.3):
                lo = correlation_sum(SP, pts, eps / 2)
                mid = correlation_sum(SP, pts, eps, kernel="phi0")
                hi = correlation_sum(SP, pts, 2 * eps)
                assert lo <= mid + 1e-12 <= hi + 2e-12


def _blockwise_sums(space, pts, ladder, kernel, chunk):
    """Per-block pair sums through ``distance``, in the chunked routine's
    order, with ``kernel`` "heaviside" or "phi0" evaluated as :func:`phi0`."""
    n = len(pts)
    sums = np.zeros(len(ladder))
    for lo in range(0, n, chunk):
        D = distance(space, pts[lo : lo + chunk, None], pts[None, :])
        for i, eps in enumerate(ladder):
            if kernel == "heaviside":
                sums[i] += np.count_nonzero(D <= eps)
            else:
                sums[i] += float(np.sum(phi0(1.0 - D / eps)))
    return (sums - n) / n**2


CORR_POINTS = {
    "interval": (SP, np.random.default_rng(11).uniform(0, 1, 100)),
    # lifts outside [0, 1) and pairs across the wrap
    "circle": (Circle(), np.random.default_rng(12).uniform(-1.5, 2.5, 100)),
    "projective-2": (Projective(2), (lambda t: np.column_stack([np.cos(t), np.sin(t)]))(
        np.random.default_rng(13).uniform(0, np.pi, 100))),
    "projective-3": (Projective(3), (lambda v: v / np.linalg.norm(v, axis=1, keepdims=True))(
        np.random.default_rng(14).normal(size=(100, 3)))),
}


def _corr_points(name, n):
    """n points of CORR_POINTS' kind ``name``, at a seed of their own."""
    rng = np.random.default_rng(n)
    if name == "interval":
        return SP, rng.uniform(0, 1, n)
    if name == "circle":
        return Circle(), rng.uniform(-1.5, 2.5, n)
    m = int(name[-1])
    v = rng.normal(size=(n, m))
    return Projective(m), v / np.linalg.norm(v, axis=1, keepdims=True)


LADDER_5 = [0.1 * 2.0**-j for j in range(5)]
# ladders of the shared-quotient rule: two mantissas (1.2 and 1.6), powers
# of two (no division) and rungs past the exponent guard (m = eps, e = 0)
MIXED = [0.3, 0.2, 0.15, 0.1, 0.075]
POWERS = [0.5, 0.25, 0.125]
GUARD = [1e300, 1.0, 1e-300]
WIDE = [3.0, 1.0, 1e-300]


class TestCorrelationSumBlocks:
    """Both kernels against block sums through ``distance``: equal bits, one
    rung and several, one block and several with a short last block.
    Blocks of more than ``E._NODE`` elements are summed node by node along
    numpy's pairwise tree; at n = 700, 1501 and 3000 node edges fall
    mid-row."""

    @pytest.mark.parametrize("kernel", ["heaviside", "phi0"])
    @pytest.mark.parametrize("chunk", [512, 100, 33, 7, 1])
    @pytest.mark.parametrize("ladder", [[0.2], [0.2, 0.1, 0.05, 0.025], WIDE, MIXED, POWERS,
                                        GUARD],
                             ids=["one", "four", "wide", "mixed", "powers", "guard"])
    @pytest.mark.parametrize("name", sorted(CORR_POINTS))
    def test_matches_blockwise_distance(self, name, ladder, chunk, kernel):
        space, pts = CORR_POINTS[name]
        assert np.array_equal(E._correlation_sums_chunked(space, pts, ladder, kernel, chunk=chunk),
                              _blockwise_sums(space, pts, ladder, kernel, chunk))

    @pytest.mark.parametrize("kernel", ["heaviside", "phi0"])
    @pytest.mark.parametrize("n, ladder", [(700, [0.05]), (700, LADDER_5), (1501, LADDER_5),
                                           (700, MIXED), (700, GUARD)],
                             ids=["700-one", "700-five", "1501-five", "700-mixed", "700-guard"])
    @pytest.mark.parametrize("name", sorted(CORR_POINTS))
    def test_nodes_match_blockwise_distance(self, name, n, ladder, kernel):
        space, pts = _corr_points(name, n)
        assert n * 512 > E._NODE
        assert np.array_equal(E._correlation_sums_chunked(space, pts, ladder, kernel),
                              _blockwise_sums(space, pts, ladder, kernel, 512))

    @pytest.mark.parametrize("name, kernel", [("interval", "phi0"), ("projective-3", "heaviside")],
                             ids=["interval-phi0", "projective-3-heaviside"])
    def test_benchmark_size_matches_blockwise_distance(self, name, kernel):
        # corrdim-interval's n: six blocks, the last of 440 rows
        space, pts = _corr_points(name, 3000)
        assert np.array_equal(E._correlation_sums_chunked(space, pts, LADDER_5, kernel),
                              _blockwise_sums(space, pts, LADDER_5, kernel, 512))

    @pytest.mark.parametrize("kernel", ["heaviside", "phi0"])
    @pytest.mark.parametrize("name", sorted(CORR_POINTS))
    def test_correlation_sum_single_block(self, name, kernel):
        space, pts = _corr_points(name, 1000)
        assert correlation_sum(space, pts, 0.05, kernel) == \
            _blockwise_sums(space, pts, [0.05], kernel, 1000)[0]


@pytest.mark.parametrize("ladder, groups", [
    (LADDER_5, {1.6: [(0, -4), (1, -5), (2, -6), (3, -7), (4, -8)]}),
    (MIXED, {1.2: [(0, -2), (2, -3), (4, -4)], 1.6: [(1, -3), (3, -4)]}),
    (POWERS, {1.0: [(0, -1), (1, -2), (2, -3)]}),
    (GUARD, {1e300: [(0, 0)], 1.0: [(1, 0)], 1e-300: [(2, 0)]}),
], ids=["ladder-5", "mixed", "powers", "guard"])
def test_mantissa_groups(ladder, groups):
    assert E._mantissa_groups(ladder) == groups


def _pairwise_model(a, lo, size):
    """numpy's pairwise float64 sum of a[lo:lo + size], in plain floats.

    Below 8 elements a running sum from 0.0; up to 128 eight running sums
    over strided elements, added as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) +
    (r6 + r7)), then the remainder one by one; above 128 the sums of the
    first h = L//2 - (L//2 mod 8) elements and of the rest."""
    if size < 8:
        return functools.reduce(operator.add, a[lo:lo + size], 0.0)
    if size <= 128:
        m = lo + size - size % 8
        r = [functools.reduce(operator.add, a[lo + j:m:8]) for j in range(8)]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return functools.reduce(operator.add, a[m:lo + size], res)
    half = size // 2
    half -= half % 8
    return _pairwise_model(a, lo, half) + _pairwise_model(a, lo + half, size - half)


@pytest.mark.parametrize("shape", [(512, 3000), (440, 3000), (512, 2000), (7, 13), (100_003,)])
def test_np_sum_is_the_pairwise_tree(shape):
    # the rule _correlation_sums_chunked rests on: a numpy release that sums
    # otherwise fails here by name, not by moving a correlation sum's bits
    rng = np.random.default_rng(sum(shape))
    A = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6, size=shape)
    flat = A.ravel().tolist()
    assert np.sum(A) == _pairwise_model(flat, 0, len(flat))
    if len(flat) > 128:
        # the data tells orders apart: one running sum gives other bits
        assert np.sum(A) != functools.reduce(operator.add, flat)


def _neighbours(x, k=64):
    """The k floats below x, x and the k floats above it."""
    below = [x]
    for _ in range(k):
        below.append(np.nextafter(below[-1], -np.inf))
    above = [x]
    for _ in range(k):
        above.append(np.nextafter(above[-1], np.inf))
    return below[::-1] + above[1:]


def test_phi0_is_one_clip_of_one_and_a_half_minus_q():
    # the in-place phi0 path computes phi0(1 - Q) as clip(1.5 - Q, 0, 1)
    tiny = np.finfo(float).tiny
    q = np.concatenate([
        *(_neighbours(x) for x in (0.5, 1.0, 1.5, 2.0)),
        _neighbours(0.0)[64:], [tiny, tiny / 2, 5e-324, 2.5e-310],
        [np.inf, np.nan, 3.0, 1e300, np.finfo(float).max],
        np.random.default_rng(3).uniform(0.0, 4.0, 100_000),
        np.random.default_rng(4).uniform(0.49, 2.01, 100_000),
    ])
    assert np.all(np.isnan(q) | (q >= 0))
    got = np.clip(1.5 - q, 0.0, 1.0)
    assert got.tobytes() == phi0(1.0 - q).tobytes()
    # the shared-quotient form for eps = m * 2**e: clip(1.5 * 2**e - d / m,
    # 0, 2**e) scaled by 2**-e, element by element and summed
    for eps in LADDER_5:
        d = np.concatenate([*(_neighbours(x * eps) for x in (0.5, 1.0, 1.5)),
                            np.random.default_rng(5).uniform(0.0, 2.0 * eps, 10_000)])
        ((m, [(_, e)]),) = E._mantissa_groups([eps]).items()
        scaled = np.clip(math.ldexp(1.5, e) - d / m, 0.0, math.ldexp(1.0, e))
        want = phi0(1.0 - d / eps)
        assert np.ldexp(scaled, -e).tobytes() == want.tobytes()
        assert math.ldexp(np.sum(scaled), -e) == np.sum(want)


class TestCorrelationDimension:
    def test_uniform_slope_near_one(self):
        pts = np.random.default_rng(0).uniform(0, 1, 4000)
        slope, _, table = correlation_dimension(SP, pts, [0.1 * 2.0**-j for j in range(5)])
        assert slope == pytest.approx(1.0, abs=0.1)
        assert len(table) == 5

    def test_point_mass_slope_zero(self):
        pts = np.full(200, 0.5)
        slope, _, _ = correlation_dimension(SP, pts, [0.1, 0.05, 0.025])
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_circle_uniform_slope_near_one(self):
        pts = np.random.default_rng(1).uniform(0, 1, 4000)
        slope, _, _ = correlation_dimension(Circle(), pts, [0.1 * 2.0**-j for j in range(5)])
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_too_few_surviving_rungs(self):
        pts = np.array([0.0, 0.5, 1.0])  # all gaps exceed every rung
        with pytest.raises(CorrelationDimensionError):
            correlation_dimension(SP, pts, [0.3, 0.2, 0.1])

    def test_nondecreasing_ladder_rejected(self):
        with pytest.raises(ValueError):
            correlation_dimension(SP, np.linspace(0, 1, 50), [0.1, 0.2, 0.05])

    @pytest.mark.parametrize("ladder", [[0.1, 0.05, 0.025, 0.0], [0.1, 0.05, -0.025],
                                        [np.inf, 0.1, 0.05], [0.1, np.nan, 0.05, 0.025],
                                        [0.1, 0.05, np.nan]])
    def test_rungs_must_be_positive_and_finite(self, ladder):
        with mock.patch.object(E, "_correlation_sums_chunked") as sums, \
                pytest.raises(ValueError, match="positive finite"):
            correlation_dimension(SP, np.linspace(0, 1, 50), ladder)
        sums.assert_not_called()


# the benchmark's projective correlation dimension (PROJECTIVE_2, n = 1500,
# 5 rungs) at a seed whose bytes followed the BLAS thread count while the
# dot products went through a matrix product
BLAS_THREADS_RUN = """
import json
import numpy as np
from rdslab.chains import simulate
from rdslab.estimators import correlation_dimension
from rdslab.harness import build_system
from rdslab.streams import SeededStream
spec = build_system({"kind": "atoms", "space": {"kind": "projective", "m": 2}, "atoms": [
    [{"kind": "projective", "matrix": [[2.0, 1.0], [1.0, 1.0]]}, 0.5],
    [{"kind": "projective", "matrix": [[0.6, -0.8], [0.8, 0.6]]}, 0.5]]})
traj = simulate(spec.nu, np.array([1.0, 0.0]), 1500, SeededStream(364522461), space=spec.space)
slope, intercept, table = correlation_dimension(spec.space, traj.points[:-1],
                                                [0.1 * 2.0**-j for j in range(5)])
print(json.dumps([slope.hex(), intercept.hex(), [float(k).hex() for _, k in table]]))
"""


def _under_blas_threads(args) -> list[str]:
    """Standard output of ``python args`` under 1 and under 2 OpenBLAS threads."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(E.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outputs.append(proc.stdout)
    return outputs


def test_projective_correlation_dimension_ignores_blas_threads():
    outputs = _under_blas_threads(["-c", BLAS_THREADS_RUN])
    assert outputs[0] == outputs[1]


def test_projective_lyap_ignores_blas_threads(tmp_path):
    # ``rdslab lyap`` on the benchmark's PROJECTIVE_2 at its full n
    doc = {"system": {"kind": "atoms", "space": {"kind": "projective", "m": 2}, "atoms": [
        [{"kind": "projective", "matrix": [[2.0, 1.0], [1.0, 1.0]]}, 0.5],
        [{"kind": "projective", "matrix": [[0.6, -0.8], [0.8, 0.6]]}, 0.5]]},
        "observable": "lyap-projective", "n": 20000, "seed": 2}
    cfg = tmp_path / "lyap.json"
    cfg.write_text(json.dumps(doc))
    outputs = _under_blas_threads(["-m", "rdslab.cli", "lyap", "--config", str(cfg)])
    assert outputs[0].startswith("n,vector_rate,norm_rate\n20000,")
    assert outputs[0] == outputs[1]


class TestLyapunov1d:
    def test_affine_contraction(self):
        nu = DrivingMeasure(atoms=((Affine(0.5, 0.0), 1.0),))
        traj = simulate(nu, 0.8, 12, SeededStream(0), record_log_derivative=True, space=SP)
        assert lyapunov_1d(traj) == pytest.approx(-np.log(2.0))

    def test_moebius_checkpoint(self):
        nu = DrivingMeasure(atoms=((MoebiusDecay(1.0), 1.0),))
        traj = simulate(nu, 1.0, 2, SeededStream(0), record_log_derivative=True)
        assert lyapunov_1d(traj) == pytest.approx(-0.5 * np.log(9.0), abs=1e-12)

    def test_missing_record(self):
        traj = simulate(HALVING, 0.5, 5, SeededStream(0), space=SP)
        with pytest.raises(ValueError):
            lyapunov_1d(traj)

    def test_zero_steps_refused(self):
        # the rate of no step is 0 / 0: refused, as sigma2_estimate's n = 0
        traj = simulate(HALVING, 0.3, 0, SeededStream(0), record_log_derivative=True, space=SP)
        with pytest.raises(ValueError, match="n must be >= 1"):
            lyapunov_1d(traj)


class TestLyapunovProjective:
    def test_diagonal_eigendirection(self):
        nu = DrivingMeasure(atoms=((ProjectiveAction([[2.0, 0.0], [0.0, 0.5]]), 1.0),))
        v, w = lyapunov_projective(nu, [1.0, 0.0], 100, SeededStream(0).generator())
        assert v == pytest.approx(np.log(2.0), abs=1e-12)
        assert w == pytest.approx(np.log(2.0), abs=1e-9)

    def test_rotation_rates_zero(self):
        th = 2.0 ** -0.5
        R = ProjectiveAction([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        nu = DrivingMeasure(atoms=((R, 1.0),))
        v, w = lyapunov_projective(nu, [1.0, 0.0], 100, SeededStream(0).generator())
        assert abs(v) < 1e-9 and abs(w) < 1e-9

    def test_generic_start_closed_form(self):
        nu = DrivingMeasure(atoms=((ProjectiveAction([[2.0, 0.0], [0.0, 0.5]]), 1.0),))
        n = 20
        v, _ = lyapunov_projective(nu, [2.0 ** -0.5, 2.0 ** -0.5], n, SeededStream(0).generator())
        exact = np.log(np.sqrt(4.0**n + 4.0**-n) / np.sqrt(2.0)) / n
        assert v == pytest.approx(exact, abs=1e-10)
        assert abs(v - np.log(2.0)) < 0.05


def _matrix_measure(a, b):
    return DrivingMeasure(atoms=((ProjectiveAction(a), 0.5), (ProjectiveAction(b), 0.5)))


HYPERBOLIC_ROTATION = {
    2: _matrix_measure([[2.0, 1.0], [1.0, 1.0]], [[0.6, -0.8], [0.8, 0.6]]),
    3: _matrix_measure([[2.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                       [[1.0, 0.0, 0.0], [0.0, 0.6, -0.8], [0.0, 0.8, 0.6]]),
}


def _lyapunov_projective_loop(nu, x, n, stream):
    """The per-step cocycle loop, ``@``, ``np.linalg.norm`` and a running
    ``np.log`` sum: the oracle of ``lyapunov_projective``."""
    v = np.asarray(x, dtype=float)
    v = v / np.linalg.norm(v)
    word = draw_word(nu, stream, n)
    acc, log_scale, Z = 0.0, 0.0, np.eye(len(v))
    for step, idx in enumerate(word, start=1):
        A = nu.atoms[int(idx)][0].matrix
        w = A @ v
        r = np.linalg.norm(w)
        acc += np.log(r)
        v = w / r
        Z = A @ Z
        if step % E.QR_PERIOD == 0:
            Q, R = np.linalg.qr(Z)
            scale = np.max(np.abs(np.diag(R)))
            log_scale += np.log(scale)
            Z = Q @ (R / scale)
    norm_rate = (log_scale + np.log(np.linalg.norm(Z, 2))) / n
    return float(acc / n), float(norm_rate)


# unnormalised starts off e_1, one per seed
COCYCLE_STARTS = {2: ([3.0, -4.0], [0.1, 2.5], [-1e-3, 7.0]),
                  3: ([1.0, 2.0, 3.0], [0.0, -5.0, 0.25], [-2.0, 1e-3, 9.0])}


class TestLyapunovProjectiveOracle:
    """The lean cocycle step against the per-step loop, bit for bit."""

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 20_000])
    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_per_step_loop(self, m, n):
        nu = HYPERBOLIC_ROTATION[m]
        for seed, x in enumerate(COCYCLE_STARTS[m]):
            got = lyapunov_projective(nu, x, n, SeededStream(seed).generator())
            assert got == _lyapunov_projective_loop(nu, x, n, SeededStream(seed).generator())

    def test_leaves_the_generator_where_the_loop_does(self):
        nu, x = HYPERBOLIC_ROTATION[2], COCYCLE_STARTS[2][0]
        fast, slow = SeededStream(9).generator(), SeededStream(9).generator()
        for n in (1, 5, 40):
            assert lyapunov_projective(nu, x, n, fast) == _lyapunov_projective_loop(nu, x, n, slow)
        assert fast.random() == slow.random()

    def test_zero_steps_refused(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            lyapunov_projective(HYPERBOLIC_ROTATION[2], [1.0, 0.0], 0, SeededStream(0))


class TestLyapunovProjectiveTrials:
    """The trial-batched cocycle against a loop of ``lyapunov_projective``
    on one generator, bit for bit."""

    @staticmethod
    def _loop(nu, x, n, trials, seed):
        rng = SeededStream(seed).generator()
        return np.array([lyapunov_projective(nu, x, n, rng) for _ in range(trials)]).T

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 65])
    @pytest.mark.parametrize("trials", [1, 3, 256])
    def test_matches_per_trial_loop(self, m, n, trials):
        nu = HYPERBOLIC_ROTATION[m]
        x = np.eye(m)[0]
        got = lyapunov_projective_trials(nu, x, n, trials, SeededStream(n).generator())
        assert np.array_equal(got, self._loop(nu, x, n, trials, n))

    @pytest.mark.parametrize("m", [2, 3])
    def test_non_e1_start(self, m):
        nu, x = HYPERBOLIC_ROTATION[m], np.arange(1.0, m + 1.0)
        got = lyapunov_projective_trials(nu, x, 65, 20, SeededStream(2).generator())
        assert np.array_equal(got, self._loop(nu, x, 65, 20, 2))

    @pytest.mark.parametrize("n, block", [(33, 100), (65, 64), (65, 10)])
    def test_sub_batches(self, n, block):
        # 3 trials per sub-batch (3 + 3 + 1), each sub-batch's word drawn at
        # once; then one trial per sub-batch, whose 65-label word the same
        # path draws in pieces of 64 + 1 or of 10 labels
        nu = HYPERBOLIC_ROTATION[2]
        with mock.patch.object(E, "LABEL_BLOCK", block):
            got = lyapunov_projective_trials(nu, [1.0, 0.0], n, 7, SeededStream(4).generator())
        assert np.array_equal(got, self._loop(nu, [1.0, 0.0], n, 7, 4))

    def test_rejects_start_of_wrong_dimension(self):
        nu = HYPERBOLIC_ROTATION[2]
        with pytest.raises(ValueError, match="dimension"):
            lyapunov_projective_trials(nu, [1.0, 0.0, 0.0], 5, 2, SeededStream(0))

    def test_zero_steps_refused(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            lyapunov_projective_trials(HYPERBOLIC_ROTATION[2], [1.0, 0.0], 0, 3, SeededStream(0))

    @pytest.mark.parametrize("nu", [
        DrivingMeasure(atoms=((Affine(0.5, 0.0), 1.0),)),
        DrivingMeasure(atoms=((ProjectiveAction(np.eye(2)), 0.5), (ProjectiveAction(np.eye(3)), 0.5))),
    ], ids=["affine", "mixed-sizes"])
    def test_one_cocycle_check(self, nu):
        # both kernels and the harness read cocycle_matrices
        for run in (lambda: lyapunov_projective(nu, [1.0, 0.0], 5, SeededStream(0).generator()),
                    lambda: lyapunov_projective_trials(nu, [1.0, 0.0], 5, 2, SeededStream(0))):
            with pytest.raises(ValueError, match="ProjectiveAction matrices of one size"):
                run()


def per_cell_fixed_points(nu, n, stream):
    """(points, bisected cells) of the per-cell scalar loop that
    ``nonexpansive_fixed_points`` ran before it bisected every cell at once:
    the oracle of the batched bisection."""
    maps = E.word_maps(nu, draw_word(nu, stream, n))
    resolution = 4096

    def displacement(theta):
        g, _ = E._composed_circle(maps, theta)
        return E.circle_delta(theta, g)

    thetas = np.arange(resolution) / resolution
    disp = np.atleast_1d(displacement(thetas))

    if np.max(np.abs(disp)) < 1e-12:
        _, derivs = E._composed_circle(maps, thetas)
        return [(float(t), float(d)) for t, d in zip(thetas, np.atleast_1d(derivs))], 0

    roots, bisected = [], 0
    for i in range(resolution):
        j = (i + 1) % resolution
        a, b = thetas[i], thetas[i] + 1.0 / resolution
        fa, fb = disp[i], disp[j]
        if abs(fa) < 1e-15:
            roots.append(float(a % 1.0))
            continue
        if fa * fb >= 0 or abs(fa - fb) > 0.5:  # same sign, or a wrap artifact
            continue
        bisected += 1
        for _ in range(200):
            mid = 0.5 * (a + b)
            fm = float(displacement(mid % 1.0))
            if fa * fm <= 0:
                b, fb = mid, fm
            else:
                a, fa = mid, fm
            if b - a < 1e-10:
                break
        roots.append(float((0.5 * (a + b)) % 1.0))

    out = []
    for r in roots:
        _, d = E._composed_circle(maps, r)
        if float(np.abs(d)) <= 1.0 + 1e-9:
            out.append((r, float(d)))
    return out, bisected


def random_sl2(rng):
    a, b, c = rng.uniform(-2.0, 2.0, 3)
    a += np.copysign(0.5, a)  # det = a d - b c = 1
    return [[a, b], [c, (1.0 + b * c) / a]]


class TestNonexpansiveFixedPoints:
    NU = DrivingMeasure(atoms=((ProjectiveAction([[4.0, 0.0], [0.0, 0.25]], chart="circle"), 1.0),))

    def test_batched_bisection_equals_per_cell_loop(self):
        rng = np.random.default_rng(30)
        cases = [(self.NU, 1), (self.NU, 2),
                 (DrivingMeasure(atoms=((ProjectiveAction(np.eye(2), chart="circle"), 1.0),)), 1)]
        for _ in range(100):
            k = int(rng.integers(1, 4))
            cases.append((DrivingMeasure(atoms=tuple(
                (ProjectiveAction(random_sl2(rng), chart="circle"), 1.0 / k) for _ in range(k))),
                int(rng.integers(1, 6))))
        bisected = 0
        for seed, (nu, n) in enumerate(cases):
            got = nonexpansive_fixed_points(nu, n, SeededStream(seed).generator())
            expect, cells = per_cell_fixed_points(nu, n, SeededStream(seed).generator())
            assert ([(r.hex(), d.hex()) for r, d in got]
                    == [(r.hex(), d.hex()) for r, d in expect])
            bisected += cells > 0
        assert bisected >= 50

    def test_attracting_direction_found(self):
        pts = nonexpansive_fixed_points(self.NU, 1, SeededStream(0).generator())
        assert len(pts) == 1
        theta, mult = pts[0]
        assert abs(mult - 1.0 / 16.0) < 1e-6
        # a two-map word composes the map twice: multiplier 16^-2
        pts = nonexpansive_fixed_points(self.NU, 2, SeededStream(0).generator())
        assert len(pts) == 1 and abs(pts[0][1] - 16.0**-2) < 1e-6

    def test_expanding_direction_omitted(self):
        pts = nonexpansive_fixed_points(self.NU, 1, SeededStream(0).generator())
        assert all(abs(m) <= 1 + 1e-9 for _, m in pts)

    def test_identity_returns_grid(self):
        ident = DrivingMeasure(atoms=((ProjectiveAction(np.eye(2), chart="circle"), 1.0),))
        pts = nonexpansive_fixed_points(ident, 1, SeededStream(0).generator())
        assert [t for t, _ in pts] == list(np.arange(4096) / 4096)
        assert all(m == pytest.approx(1.0) for _, m in pts)

    def test_irrational_rotation_empty(self):
        th = 1.2345
        R = ProjectiveAction(
            [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], chart="circle"
        )
        nu = DrivingMeasure(atoms=((R, 1.0),))
        assert nonexpansive_fixed_points(nu, 1, SeededStream(0).generator()) == []


class TestStationaryApprox:
    def test_halving_mean_half(self):
        approx = stationary_approx(HALVING, SP, 1000, 20_000, 1, 0)
        assert approx.measure.mean() == pytest.approx(0.5, abs=0.01)
        assert approx.self_check_distance < 0.05

    def test_moebius_collapses_to_zero(self):
        nu = DrivingMeasure(atoms=((MoebiusDecay(1.0), 1.0),))
        approx = stationary_approx(nu, SP, 1000, 100, 1, 0)
        assert approx.measure.mean() <= 0.01

    def test_single_contraction_fixed_point(self):
        nu = DrivingMeasure(atoms=((Affine(0.5, 0.25), 1.0),))
        approx = stationary_approx(nu, SP, 60, 50, 1, 0)
        np.testing.assert_allclose(approx.measure.positions, 0.5, atol=1e-6)

    def test_one_step_pushforward_near_invariant(self):
        approx = stationary_approx(HALVING, SP, 500, 4000, 1, 3)
        before = approx.measure
        rng = SeededStream(99).generator()
        labels = HALVING.sample_indices(rng, len(before.positions))
        pushed = np.where(labels == 0, before.positions * 0.5, before.positions * 0.5 + 0.5)
        after = EmpiricalMeasure(SP, pushed, before.weights)
        d = kantorovich_interval(before, after)
        assert d <= 2 * approx.self_check_distance + 0.02


class TestCorrelationCoefficient:
    ETA = EmpiricalMeasure.from_samples(SP, (np.arange(512) + 0.5) / 512)

    def test_j0_mean_pairwise(self):
        val, err = correlation_coefficient_pj(HALVING, SP, self.ETA, 0, 40_000, 0)
        assert abs(val - 1.0 / 3.0) <= 4 * err + 1e-3

    def test_halving_decay(self):
        for j in (1, 3):
            val, err = correlation_coefficient_pj(HALVING, SP, self.ETA, j, 40_000, j)
            assert abs(val - 2.0**-j / 3.0) <= 4 * err + 1e-3

    def test_identity_constant(self):
        identity = DrivingMeasure(atoms=((Affine(1.0, 0.0), 1.0),))
        v0, _ = correlation_coefficient_pj(identity, SP, self.ETA, 0, 5000, 5)
        v3, _ = correlation_coefficient_pj(identity, SP, self.ETA, 3, 5000, 5)
        assert v0 == pytest.approx(v3, abs=0.02)
