"""The Cephes port in ``rdslab.normal`` against scipy.special, its oracle,
bit for bit: ``ndtr`` and ``ndtri`` on a million random doubles per range,
on every double within 2000 ulps of each branch threshold, and on 0-d
inputs, signed zeros, infinities, nan, subnormals and quantile arguments
outside [0, 1].  Then ``kantorovich_gaussian`` on random measures, against
itself with scipy's functions."""

import math

import numpy as np
import pytest
from scipy.special import ndtr as scipy_ndtr, ndtri as scipy_ndtri

from rdslab.measures import EmpiricalMeasure, kantorovich_gaussian
from rdslab import normal
from rdslab.normal import MAXLOG, ndtr, ndtri

SIZE = 2**20
TINY = 5e-324  # the least subnormal


def assert_bits_equal(got, expect):
    got, expect = np.asarray(got, dtype=float), np.asarray(expect, dtype=float)
    assert got.shape == expect.shape
    both_nan = np.isnan(got) & np.isnan(expect)  # scipy does not fix a nan's payload
    moved = (got.view(np.uint64) != expect.view(np.uint64)) & ~both_nan
    assert np.count_nonzero(moved) == 0, (got[moved][:5], expect[moved][:5])


def ulps_around(t: float, k: int = 2000) -> np.ndarray:
    """The 2k + 1 doubles from k below ``t`` to k above it."""
    return (np.float64(t).view(np.int64) + np.arange(-k, k + 1)).view(np.float64)


@pytest.mark.parametrize("half_width", [0.5, 1.5, 12.0, 40.0, 1e3])
def test_ndtr_on_random_doubles(half_width):
    a = np.random.default_rng(int(half_width * 10)).uniform(-half_width, half_width, SIZE)
    assert_bits_equal(ndtr(a), scipy_ndtr(a))


@pytest.mark.parametrize("draw", [
    lambda rng: rng.uniform(0.0, 1.0, SIZE),
    lambda rng: np.exp(-rng.uniform(0.0, 40.0, SIZE)),
    lambda rng: 1.0 - np.exp(-rng.uniform(0.0, 36.0, SIZE)),
    lambda rng: np.exp(-rng.uniform(30.0, 744.0, SIZE)),
], ids=["uniform", "lower-tail", "upper-tail", "far-tail"])
def test_ndtri_on_random_doubles(draw):
    y = draw(np.random.default_rng(5))
    assert_bits_equal(ndtri(y), scipy_ndtri(y))


# ndtr's own split (|a| = 1), erfc's 1 - erf split, its two fits and its underflow
NDTR_THRESHOLDS = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * MAXLOG)]
# ndtri's reflection, its central fit and its two tail fits
NDTRI_THRESHOLDS = [math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0)]


@pytest.mark.parametrize("t", NDTR_THRESHOLDS + [-t for t in NDTR_THRESHOLDS])
def test_ndtr_around_each_threshold(t):
    a = ulps_around(t)
    assert_bits_equal(ndtr(a), scipy_ndtr(a))


@pytest.mark.parametrize("t", NDTRI_THRESHOLDS)
def test_ndtri_around_each_threshold(t):
    y = ulps_around(t)
    assert_bits_equal(ndtri(y), scipy_ndtri(y))


SPECIAL_A = [0.0, -0.0, np.inf, -np.inf, np.nan, TINY, -TINY, 2.2e-308, -2.2e-308, 0.3, -0.3,
             1.0, -1.0, 5.0, -5.0, 20.0, -20.0, 37.5, -37.5, 38.5, -38.5, 1e300, -1e300]
SPECIAL_Y = [0.0, -0.0, 1.0, np.nan, np.inf, -np.inf, -TINY, -0.5, 1.0 + 2**-52, 2.0,
             TINY, 1e-310, 2.2e-308, 1e-300, 1e-20, 0.5, 0.975, 0.025, 1.0 - 2**-53,
             1.0 - 1e-16]


@pytest.mark.parametrize("a", SPECIAL_A)
def test_ndtr_on_a_0d_input(a):
    got = ndtr(np.float64(a))
    assert type(got) is float
    assert_bits_equal(got, scipy_ndtr(a))
    assert_bits_equal(ndtr(np.array(a)), scipy_ndtr(a))


@pytest.mark.parametrize("y", SPECIAL_Y)
def test_ndtri_on_a_0d_input(y):
    got = ndtri(y)
    assert type(got) is float
    assert_bits_equal(got, scipy_ndtri(y))


def test_special_values_in_arrays():
    a = np.array(SPECIAL_A).reshape(-1, 1) * np.ones(3)  # 2-d, shapes kept
    assert_bits_equal(ndtr(a), scipy_ndtr(a))
    y = np.array(SPECIAL_Y)
    assert_bits_equal(ndtri(y), scipy_ndtri(y))
    assert ndtr(np.empty(0)).shape == ndtri(np.empty(0)).shape == (0,)


def test_kantorovich_gaussian_equals_it_with_scipys_functions(monkeypatch):
    rng = np.random.default_rng(31)
    cases = []
    for case in range(400):
        n = int(rng.integers(1, 300))
        positions = rng.standard_normal(n) * rng.uniform(0.1, 5.0) + rng.uniform(-2.0, 2.0)
        if case % 3 == 0:  # ties, and crossings on a breakpoint
            positions = np.round(positions, 1)
        weights = rng.dirichlet(np.full(n, rng.uniform(0.2, 5.0)))
        if np.all(weights > 0.0):
            mu = EmpiricalMeasure(None, positions, weights / weights.sum())
            cases.append((mu, float(rng.uniform(0.05, 5.0))))
    got = [kantorovich_gaussian(mu, sigma) for mu, sigma in cases]
    monkeypatch.setattr(normal, "ndtr", scipy_ndtr)  # imported on each call
    monkeypatch.setattr(normal, "ndtri", scipy_ndtri)
    assert got == [kantorovich_gaussian(mu, sigma) for mu, sigma in cases]
