"""Verdicts that can fail: one in-regime ``rdslab tail`` row per selector
whose bound can sit far below 1 at a size a test can afford, with the
halving system's analytic constants (lambda 2, G 0.5).

Each row reads ``pass`` with a bound <= 0.5.  With the exponent of its
formula multiplied by 100 the bound falls below the Wilson upper limit of
an empty tail (about 3.7 / trials), so the same row must read ``fail``:
the dominance check can tell a bound that is too small.  No check of this
kind can tell a bound that is too loose."""

import functools
from unittest import mock

import numpy as np
import pytest

from rdslab import bounds as B
from rdslab.config import ExperimentConfig
from rdslab.harness import run_tail

IN_REGIME = {
    "lln": dict(observable="birkhoff", params={"h": "coordinate"}, n=1400, t_ladder=[0.6]),
    "sync": dict(observable="sync", params={"B": [0.0, 0.5, 1.0], "x0": 0.25}, n=700,
                 t_ladder=[0.6]),
    "empirical-kappa": dict(observable="kappa-to-stationary", n=450, t_ladder=[0.5]),
    "interval-kappa": dict(observable="kappa-interval", n=600, t_ladder=[0.6]),
}


def _row(selector):
    cfg = ExperimentConfig(system={"kind": "halving-ifs"}, trials=100, seed=0, bound=selector,
                           **IN_REGIME[selector])
    (row,) = run_tail(cfg).rows
    return row


class _Exp100:
    """numpy, but with exp(x) read as exp(100 x)."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def exp(x):
        return np.exp(100.0 * x)


def _exponent_times_100(formula):
    # wraps keeps the signature that resolve_inputs reads the inputs from
    @functools.wraps(formula)
    def mutated(n, t, **inputs):
        with mock.patch.object(B, "np", _Exp100()):
            return formula(n, t, **inputs)
    return mutated


@pytest.mark.parametrize("selector", sorted(IN_REGIME))
def test_in_regime_row_passes(selector):
    row = _row(selector)
    assert row["verdict"] == "pass" and row["bound"] <= 0.5


@pytest.mark.parametrize("selector", sorted(IN_REGIME))
def test_shrunken_bound_fails(monkeypatch, selector):
    bound = B.BOUNDS[selector]
    monkeypatch.setitem(B.BOUNDS, selector,
                        bound._replace(formula=_exponent_times_100(bound.formula)))
    row = _row(selector)
    assert row["verdict"] == "fail" and row["bound"] < row["ci_hi"]
