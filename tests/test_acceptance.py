"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every test is self-timed and asserts both its numerical claim and its
runtime budget.
"""

import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from rdslab.bounds import appendix_checks, wilson_interval
from rdslab.chains import coupled_distance, enumerate_expectation, simulate
from rdslab.cli import main as cli_main
from rdslab.estimators import (
    correlation_dimension,
    correlation_sum,
    lyapunov_projective,
    nonexpansive_fixed_points,
    pair_distance_profile,
)
from rdslab.harness import ExperimentConfig, run_asclt, run_lambda_survey, run_tail
from rdslab.maps import DrivingMeasure, MoebiusDecay, ProjectiveAction, apply_map
from rdslab.measures import EmpiricalMeasure, kantorovich_interval
from rdslab.spaces import Interval, circle_delta
from rdslab.streams import SeededStream

SP = Interval(0.0, 1.0)
TWO_ATOM = DrivingMeasure(atoms=((MoebiusDecay(1.0), 0.5), (MoebiusDecay(2.0), 0.5)))


class _Gate:
    def __init__(self, number, name, budget):
        self.number, self.name, self.budget = number, name, budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {self.name}: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"runtime {elapsed:.2f}s over {self.budget}s budget"
        return False


def test_01_closed_form_iterates():
    with _Gate(1, "closed-form-iterates", 5.0):
        nu = DrivingMeasure(family="moebius", sampler=("uniform", 1.0, 2.0))
        rng = np.random.default_rng(0)
        for trial in range(1000):
            x = float(rng.uniform(0.0, 1.0))
            n = int(rng.integers(1, 101))
            traj = simulate(nu, x, n, SeededStream(int(rng.integers(2**32))),
                            record_maps=True)
            total = float(np.sum(traj.map_ids))
            assert abs(traj.points[-1] - x / (1.0 + total * x)) <= 1e-12


def test_02_lambda_growth():
    with _Gate(2, "lambda-growth", 60.0):
        cfg = ExperimentConfig(system={"kind": "moebius-uniform", "lo": 1.0, "hi": 2.0},
                               params={"n_ladder": [10, 100, 1000], "grid": 64},
                               trials=2000, seed=11, t_ladder=[0.1])
        rows = run_lambda_survey(cfg)
        for r in rows:
            cap = 1.0 + np.log(r["n"] + 1)
            assert r["lambda_hat"] <= cap + 3.0 * r["stderr"]
            assert not r["diverged"]


def test_03_oracle_equivalence():
    with _Gate(3, "mc-vs-enumeration", 30.0):
        prof = pair_distance_profile(TWO_ATOM, SP, 0.0, 1.0, 6, 100_000, 2)
        exact = [
            enumerate_expectation(TWO_ATOM, k,
                                  lambda maps: coupled_distance(SP, maps, 0.0, 1.0))
            for k in range(1, 7)
        ]
        assert exact[0] == pytest.approx(5.0 / 12.0, abs=1e-12)
        assert exact[1] == pytest.approx(31.0 / 120.0, abs=1e-12)
        for k in range(1, 7):
            mean, err = prof[k]
            assert abs(mean - exact[k - 1]) <= 4.0 * err


def test_04_dall_aglio_assignment_oracle():
    with _Gate(4, "interval-kantorovich-oracle", 10.0):
        rng = np.random.default_rng(3)
        for _ in range(500):
            k = int(rng.integers(1, 21))
            xs = rng.uniform(0.0, 1.0, k)
            ys = rng.uniform(0.0, 1.0, k)
            got = kantorovich_interval(EmpiricalMeasure.from_samples(SP, xs),
                                       EmpiricalMeasure.from_samples(SP, ys))
            cost = np.abs(np.subtract.outer(xs, ys))
            r, c = linear_sum_assignment(cost)
            assert abs(got - cost[r, c].sum() / k) <= 1e-9


def test_05_kernel_sandwich():
    with _Gate(5, "kernel-sandwich", 20.0):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            pts = rng.uniform(0.0, 1.0, int(rng.integers(2, 201)))
            for eps in (0.02, 0.05, 0.1, 0.2):
                lo = correlation_sum(SP, pts, eps / 2.0)
                mid = correlation_sum(SP, pts, eps, kernel="phi0")
                hi = correlation_sum(SP, pts, 2.0 * eps)
                assert lo <= mid + 1e-12
                assert mid <= hi + 1e-12


def test_06_correlation_dimension_lebesgue():
    with _Gate(6, "corrdim-lebesgue", 20.0):
        pts = np.random.default_rng(5).uniform(0.0, 1.0, 10_000)
        slope, _, _ = correlation_dimension(SP, pts, [0.1 * 2.0**-j for j in range(5)])
        assert abs(slope - 1.0) <= 0.1


def test_07_lln_dominance():
    with _Gate(7, "lln-dominance", 60.0):
        cfg = ExperimentConfig(system={"kind": "halving-ifs"}, observable="birkhoff",
                               params={"h": "coordinate", "x0": 0.5}, n=200,
                               t_ladder=[0.15, 0.2, 0.3], trials=10_000, seed=7,
                               bound="lln")
        report = run_tail(cfg)
        in_regime = [r for r in report.rows if r["verdict"] != "not-applicable"]
        assert in_regime, "no in-regime rungs"
        for r in in_regime:
            expect = 2.0 * np.exp(-200.0 * r["t"] ** 2 / 300.0)
            assert r["bound"] == pytest.approx(expect, rel=1e-12)
            assert r["ci_hi"] <= r["bound"]
        assert report.center == pytest.approx(0.5, abs=0.01)


def test_08_lyapunov_exactness():
    with _Gate(8, "lyapunov-exactness", 1.0):
        diag = DrivingMeasure(atoms=((ProjectiveAction([[2.0, 0.0], [0.0, 0.5]]), 1.0),))
        v, w = lyapunov_projective(diag, [1.0, 0.0], 100, SeededStream(0).generator())
        assert abs(v - np.log(2.0)) <= 1e-12
        assert abs(w - np.log(2.0)) <= 1e-9
        th = 0.7
        R = ProjectiveAction([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        rot = DrivingMeasure(atoms=((R, 1.0),))
        v, w = lyapunov_projective(rot, [1.0, 0.0], 100, SeededStream(0).generator())
        assert abs(v) <= 1e-9 and abs(w) <= 1e-9


def _random_hyperbolic_circle_map(rng):
    s = float(rng.uniform(1.05, 1.3))
    th = float(rng.uniform(0.0, np.pi))
    c, si = np.cos(th), np.sin(th)
    R = np.array([[c, -si], [si, c]])
    A = R @ np.diag([s, 1.0 / s]) @ R.T  # conjugate: trace s + 1/s > 2
    return ProjectiveAction(A, chart="circle")


def test_09_circle_chain_rule_vs_finite_difference():
    with _Gate(9, "chain-rule-vs-fd", 30.0):
        rng = np.random.default_rng(6)
        for _ in range(100):
            maps = [_random_hyperbolic_circle_map(rng) for _ in range(2)]
            nu = DrivingMeasure(atoms=((maps[0], 0.5), (maps[1], 0.5)))
            n = int(rng.integers(1, 21))
            x0 = float(rng.uniform(0.0, 1.0))
            traj = simulate(nu, x0, n, SeededStream(int(rng.integers(2**32))),
                            record_log_derivative=True, record_maps=True)
            chain = float(traj.log_derivative_sum[-1])
            word = [nu.atoms[int(i)][0] for i in traj.map_ids]

            def comp(x):
                for f in word:
                    x = apply_map(f, x)
                return x

            eps = 1e-6
            delta = float(circle_delta(comp((x0 - eps) % 1.0), comp((x0 + eps) % 1.0)))
            fd = np.log(delta / (2.0 * eps))
            assert abs(chain - fd) <= 1e-5 * max(1.0, abs(chain))


def test_10_nonexpansive_fixed_point_detection():
    with _Gate(10, "nonexpansive-fixed-points", 1.0):
        nu = DrivingMeasure(
            atoms=((ProjectiveAction([[4.0, 0.0], [0.0, 0.25]], chart="circle"), 1.0),)
        )
        pts = nonexpansive_fixed_points(nu, 1, SeededStream(0).generator())
        mults = [m for _, m in pts]
        assert any(abs(m - 1.0 / 16.0) <= 1e-6 for m in mults)
        assert all(abs(m) <= 1.0 + 1e-9 for m in mults)  # the multiplier-16 point is omitted


def test_11_asclt_trend():
    with _Gate(11, "asclt-trend", 120.0):
        cfg = ExperimentConfig(system={"kind": "halving-ifs"}, observable="asclt-kappa",
                               params={"h": "centered", "n_ladder": [2**6, 2**14]},
                               trials=100, seed=0, t_ladder=[0.1])
        rows = run_asclt(cfg)
        k6, k14 = rows[0]["kappa"], rows[1]["kappa"]
        assert k14 < k6
        assert k14 < 0.2


def test_12_appendix_property_suite():
    with _Gate(12, "appendix-and-wilson", 5.0):
        report = appendix_checks()
        assert report["passed"]
        _, hi = wilson_interval(0, 100)
        assert abs(hi - 0.036217) <= 1e-4


def test_13_determinism_and_thread_invariance(tmp_path):
    with _Gate(13, "selftest-determinism", 120.0):
        outs = {}
        for name, args in {
            "a": ["selftest", "--seed", "42", "--threads", "1"],
            "b": ["selftest", "--seed", "42", "--threads", "1"],
            "c": ["selftest", "--seed", "42", "--threads", "8"],
        }.items():
            path = tmp_path / f"{name}.csv"
            assert cli_main(args + ["--out", str(path)]) == 0
            outs[name] = path.read_bytes()
        assert outs["a"] == outs["b"] == outs["c"]
