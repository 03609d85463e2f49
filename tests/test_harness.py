import contextlib
import dataclasses
import functools
import json
import sys
from unittest import mock

import numpy as np
import pytest

from rdslab import estimators as E
from rdslab import harness as H
from rdslab.chains import draw_word, simulate_coupled
from rdslab.estimators import correlation_dimension, correlation_sum, lyapunov_projective
from rdslab.harness import (
    ExperimentConfig,
    build_system,
    report_to_csv,
    report_to_json,
    rows_to_csv,
    run_asclt,
    run_lambda_survey,
    run_tail,
)
from rdslab.maps import (
    Affine,
    DrivingMeasure,
    MoebiusDecay,
    PolynomialDecay,
    ProjectiveAction,
    SingularDerivativeError,
    apply_map,
    log_derivative,
    word_maps,
)
from rdslab.measures import EmpiricalMeasure, kantorovich_circle, kantorovich_interval
from rdslab.spaces import Circle, Interval, distance
from rdslab.streams import SeededStream


def halving_cfg(**kw):
    base = dict(
        system={"kind": "halving-ifs"},
        observable="birkhoff",
        params={"h": "coordinate"},
        n=100,
        t_ladder=[0.1, 0.2],
        trials=500,
        seed=11,
        bound="lln",
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_trials_floor(self):
        # the floor is the tail run's: other runners take any trials >= 1
        cfg = halving_cfg(trials=50)
        with pytest.raises(ValueError, match="'trials' >= 100"):
            run_tail(cfg)

    def test_ladder_must_increase(self):
        with pytest.raises(ValueError):
            halving_cfg(t_ladder=[0.2, 0.1])

    def test_json_roundtrip(self):
        cfg = halving_cfg()
        back = ExperimentConfig(**json.loads(json.dumps(dataclasses.asdict(cfg))))
        assert back == cfg


class TestBuildSystem:
    def test_halving_analytic_constants(self):
        sys_spec = build_system({"kind": "halving-ifs"})
        assert sys_spec.analytic["lambda_nu"] == 2.0
        assert sys_spec.analytic["gee_inf"] == 0.5

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_system({"kind": "nope"})

    def test_explicit_atoms(self):
        sys_spec = build_system(
            {"kind": "atoms",
             "atoms": [[{"kind": "affine", "slope": 0.5, "offset": 0.0}, 1.0]]}
        )
        assert sys_spec.nu.finite


class TestRunTail:
    def test_deterministic(self):
        r1 = run_tail(halving_cfg())
        r2 = run_tail(halving_cfg())
        assert report_to_csv(r1) == report_to_csv(r2)

    def test_deterministic_system_zero_tail(self):
        cfg = halving_cfg(
            system={"kind": "atoms",
                    "atoms": [[{"kind": "affine", "slope": 0.5, "offset": 0.25}, 1.0]]},
            inputs={"lambda_nu": 2.0, "gee_inf": 0.0},
        )
        report = run_tail(cfg)
        for row in report.rows:
            if row["verdict"] != "not-applicable":
                assert row["p_hat"] == 0.0

    def test_below_threshold_not_applicable(self):
        cfg = halving_cfg(t_ladder=[0.01, 0.2])  # threshold 2*2/100 = 0.04
        report = run_tail(cfg)
        assert report.rows[0]["verdict"] == "not-applicable"
        assert np.isnan(report.rows[0]["p_hat"])

    def test_center_near_half(self):
        report = run_tail(halving_cfg(trials=2000))
        assert report.center == pytest.approx(0.5, abs=0.02)

    def test_provenance_analytic(self):
        report = run_tail(halving_cfg())
        assert report.provenance["lambda_nu"] == "analytic"

    def test_config_override_wins(self):
        report = run_tail(halving_cfg(inputs={"lambda_nu": 3.0}))
        assert report.provenance["lambda_nu"] == "config"

    def test_kappa_observable_runs(self):
        cfg = halving_cfg(observable="kappa-to-stationary", bound="empirical-kappa",
                          n=50, trials=200, t_ladder=[0.3, 0.5])
        report = run_tail(cfg)
        assert all(r["verdict"] in ("pass", "pass-vacuous") for r in report.rows
                   if r["verdict"] != "not-applicable")

    def test_lyap_1d_observable(self):
        cfg = halving_cfg(observable="lyap-1d", bound="circle-lyap",
                          inputs={"m_nu": 0.5, "M_nu": 0.5, "gee_c1": 0.5, "lambda_nu": 2.0},
                          t_ladder=[0.05, 0.1], trials=200)
        report = run_tail(cfg)
        # derivative is exactly 1/2 everywhere: zero deviation
        for row in report.rows:
            if row["verdict"] != "not-applicable":
                assert row["p_hat"] == 0.0

    def test_sync_observable(self):
        cfg = halving_cfg(observable="sync", bound="sync",
                          params={"B": [0.0, 1.0], "x0": 0.5},
                          t_ladder=[0.2, 0.4], trials=200, n=50)
        report = run_tail(cfg)
        assert len(report.rows) == 2


class TestCSVFormat:
    def test_header_and_precision(self):
        text = report_to_csv(run_tail(halving_cfg()))
        lines = text.strip().split("\n")
        assert lines[0] == "t,p_hat,ci_lo,ci_hi,bound,threshold,verdict"
        assert len(lines) == 3
        # 17 significant digits serialize 0.1 with its full binary expansion
        assert lines[1].startswith("0.10000000000000001,")

    def test_json_includes_config_echo(self):
        doc = json.loads(report_to_json(run_tail(halving_cfg())))
        assert doc["config"]["system"] == {"kind": "halving-ifs"}
        assert "timestamp" in doc and "provenance" in doc


def _fmt_cell(x) -> str:
    """One cell as the cell-by-cell writer formatted it."""
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _cell_csv(rows, keys=None) -> str:
    """The cell-by-cell writer: the oracle of ``rows_to_csv``."""
    keys = list(keys or (rows[0] if rows else ()))
    lines = [",".join(keys)] + [",".join(_fmt_cell(r[k]) for k in keys) for r in rows]
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 0.1, 1 / 3,
               1e300, -2.5e-310, 1.0, 20000.0]


class TestRowsToCSV:
    """``rows_to_csv`` formats column by column with the bytes of the
    cell-by-cell writer."""

    @pytest.mark.parametrize("column", [
        EDGE_FLOATS,
        [np.float64(v) for v in EDGE_FLOATS],
        [float(v) if i % 2 else np.float64(v) for i, v in enumerate(EDGE_FLOATS)],
        [True, False, True],
        [np.bool_(True), np.bool_(False)],
        [0, -1, 7, 2**62, -(2**63)],
        [np.int64(3), np.int64(-4), 5],
        [np.int32(3), np.uint64(2**64 - 1)],
        ["pass", "fail", "not-applicable", "50%"],
        [1.5, 2, float("nan")],
        [0, True, 0.5],
        [np.float32(0.1), 0.1],
    ], ids=["float", "float64", "float-and-float64", "bool", "numpy-bool", "int", "int64",
            "other-numpy-ints", "str", "float-and-int", "int-bool-float", "float32"])
    def test_one_column_matches_cells(self, column):
        rows = [{"k": k, "v": v} for k, v in enumerate(column)]
        assert rows_to_csv(rows) == _cell_csv(rows)

    def test_every_column_kind_together(self):
        rows = [{"t": t, "n": i, "ok": i % 2 == 0, "verdict": "pass", "mixed": [1, 0.5][i % 2]}
                for i, t in enumerate(EDGE_FLOATS)]
        assert rows_to_csv(rows) == _cell_csv(rows)
        keys = ("verdict", "t", "n")
        assert rows_to_csv(rows, keys) == _cell_csv(rows, keys)

    @pytest.mark.parametrize("rows, keys, text", [
        ([], None, "\n"),
        ([], ("a", "b"), "a,b\n"),
        ([{}], None, "\n\n"),
        ([{}, {}], None, "\n\n\n"),
    ], ids=["no-rows", "no-rows-with-keys", "one-empty-row", "two-empty-rows"])
    def test_empty(self, rows, keys, text):
        assert rows_to_csv(rows, keys) == _cell_csv(rows, keys) == text

    def test_none_cell_raises_as_the_cell_writer_does(self):
        rows = [{"x": 0.5}, {"x": None}]
        for write in (rows_to_csv, _cell_csv):
            with pytest.raises(TypeError):
                write(rows)

    def test_missing_key_raises(self):
        rows = [{"x": 0.5}, {"y": 0.5}]
        for write in (rows_to_csv, _cell_csv):
            with pytest.raises(KeyError):
                write(rows)

    def test_orbit_of_the_benchmark_size(self):
        x = np.random.default_rng(5).uniform(0, 1, 20001)
        x[[0, 7, 100]] = [0.0, 1.0, 0.5]
        rows = [{"k": k, "x": float(v)} for k, v in enumerate(x)]
        assert rows_to_csv(rows) == _cell_csv(rows)


class TestLambdaSurvey:
    def test_halving_approaches_two(self):
        cfg = ExperimentConfig(system={"kind": "halving-ifs"},
                               params={"n_ladder": [30], "grid": 8},
                               trials=200, seed=0, t_ladder=[0.1])
        rows = run_lambda_survey(cfg)
        assert rows[0]["lambda_hat"] == pytest.approx(2.0, abs=1e-6)
        assert rows[0]["analytic_cap"] == 2.0

    def test_moebius_under_cap(self):
        cfg = ExperimentConfig(system={"kind": "moebius-uniform"},
                               params={"n_ladder": [10, 50], "grid": 16},
                               trials=300, seed=1, t_ladder=[0.1])
        rows = run_lambda_survey(cfg)
        for r in rows:
            assert r["lambda_hat"] <= r["analytic_cap"] + 3 * r["stderr"]
            assert not r["diverged"]

    def test_identity_diverges(self):
        cfg = ExperimentConfig(system={"kind": "identity"},
                               params={"n_ladder": [500], "grid": 4, "ceiling": 100.0},
                               trials=100, seed=0, t_ladder=[0.1])
        rows = run_lambda_survey(cfg)
        assert rows[0]["diverged"]

    def test_ceiling_marks_divergence(self):
        # a constant gap of 1 sums to 51 over k = 0..50, above the ceiling 20
        cfg = ExperimentConfig(system={"kind": "identity"},
                               params={"n_ladder": [50], "grid": 4, "ceiling": 20.0},
                               trials=10, seed=0, t_ladder=[0.1])
        row, = run_lambda_survey(cfg)
        assert row["lambda_hat"] == pytest.approx(51.0)
        assert row["diverged"] is True

    def test_nan_estimate_diverged(self):
        # build_system refuses the Moebius map on an interval around its
        # pole that gave a nan estimate: a patched lambda_n gives one
        def nan_estimate(*args, **kwargs):
            return dataclasses.replace(E.lambda_n(*args, **kwargs), value=float("nan"))

        cfg = ExperimentConfig(system={"kind": "halving-ifs"},
                               params={"n_ladder": [5, 10], "grid": 4},
                               trials=20, seed=0, t_ladder=[0.1])
        with mock.patch("rdslab.harness.lambda_n", nan_estimate):
            rows = run_lambda_survey(cfg)
        for row in rows:
            assert np.isnan(row["lambda_hat"]) and row["diverged"] is True


class TestASCLT:
    def test_zero_observable_degenerate(self):
        cfg = ExperimentConfig(system={"kind": "halving-ifs"}, observable="asclt-kappa",
                               params={"h": "zero", "n_ladder": [64]},
                               trials=100, seed=0, t_ladder=[0.1])
        rows = run_asclt(cfg)
        assert rows[0]["degenerate"]
        assert rows[0]["kappa"] == pytest.approx(0.0)

    def test_n1_single_atom(self):
        cfg = ExperimentConfig(system={"kind": "halving-ifs"}, observable="asclt-kappa",
                               params={"h": "centered", "n_ladder": [1]},
                               trials=100, seed=0, t_ladder=[0.1])
        rows = run_asclt(cfg)
        assert np.isfinite(rows[0]["kappa"])

    def test_trend_toward_gaussian(self):
        cfg = ExperimentConfig(system={"kind": "halving-ifs"}, observable="asclt-kappa",
                               params={"h": "centered", "n_ladder": [2**6, 2**12]},
                               trials=100, seed=0, t_ladder=[0.1])
        rows = run_asclt(cfg)
        assert rows[1]["kappa"] < rows[0]["kappa"] * 1.2  # 20% slack on the trend


HYPERBOLIC = [[2.0, 1.0], [1.0, 1.0]]
ROTATION = [[0.6, -0.8], [0.8, 0.6]]


class TestVectorLogDerivative:
    """``DrivingMeasure.step`` / ``.log_derivative`` against the scalar path."""

    CRITICAL = (2.0 / 3.0) ** 2  # 1 - 1.5 sqrt(x) = 0 for alpha = 1.5
    X = np.array([0.3, CRITICAL, 0.7])

    def test_finite_branch_raises_at_critical_point(self):
        nu = DrivingMeasure(atoms=((PolynomialDecay(1.5), 1.0),))
        with pytest.raises(SingularDerivativeError):
            log_derivative(PolynomialDecay(1.5), self.CRITICAL)
        with pytest.raises(SingularDerivativeError):
            nu.log_derivative(np.zeros(3, dtype=int), self.X)

    def test_parametric_branch_raises_at_critical_point(self):
        nu = DrivingMeasure(family="polynomial", sampler=("uniform", 1.25, 1.5))
        with pytest.raises(SingularDerivativeError):
            nu.log_derivative(np.full(3, 1.5), self.X)

    @pytest.mark.parametrize("nu, labels", [
        (DrivingMeasure(atoms=((PolynomialDecay(1.25), 0.5), (PolynomialDecay(1.5), 0.5))),
         [0, 1, 1]),
        (DrivingMeasure(family="polynomial", sampler=("uniform", 1.25, 1.5)),
         [1.25, 1.3, 1.5]),
        (DrivingMeasure(atoms=((MoebiusDecay(1.0), 0.5), (MoebiusDecay(2.7), 0.5))), [0, 1]),
        (DrivingMeasure(family="moebius", sampler=("uniform", 1.0, 2.0)), [1.0, 1.37, 2.0]),
        (DrivingMeasure(atoms=((Affine(0.5, 0.0), 0.5), (Affine(-0.3, 0.9), 0.5))), [0, 1]),
        (DrivingMeasure(atoms=((ProjectiveAction(HYPERBOLIC, chart="circle"), 0.5),
                               (ProjectiveAction([[1.0, 1.0], [0.0, 1.0]], chart="circle"), 0.5))),
         [0, 1]),
    ])
    def test_regular_points_match_scalar_path(self, nu, labels):
        x, labels = self._points(labels)
        maps = word_maps(nu, labels)
        images = np.array([apply_map(f, xi) for f, xi in zip(maps, x)])
        logs = np.array([log_derivative(f, xi) for f, xi in zip(maps, x)])
        assert np.array_equal(nu.step(labels, x), images)
        assert np.array_equal(nu.log_derivative(labels, x), logs)

    def test_non_dyadic_circle_matrix_agrees_to_rounding(self):
        # matmul rounds the batched v @ A.T of a matrix with non-dyadic
        # entries differently from the per-point product, so the two paths
        # agree to rounding only
        nu = DrivingMeasure(atoms=((ProjectiveAction(HYPERBOLIC, chart="circle"), 0.5),
                                   (ProjectiveAction(ROTATION, chart="circle"), 0.5)))
        x, labels = self._points([0, 1])
        maps = word_maps(nu, labels)
        images = np.array([apply_map(f, xi) for f, xi in zip(maps, x)])
        logs = np.array([log_derivative(f, xi) for f, xi in zip(maps, x)])
        np.testing.assert_allclose(nu.step(labels, x), images, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(nu.log_derivative(labels, x), logs, rtol=1e-14, atol=1e-15)

    @staticmethod
    def _points(labels):
        """0, 1, points just below 1 (the circle wrap-around) and random
        points, with the labels repeated along them."""
        x = np.concatenate([[0.0, 1.0, 1.0 - 2.0**-53, 1.0 - 1e-12, 0.1, 0.25, 0.9],
                            SeededStream(0).generator().random(40)])
        return x, np.resize(np.asarray(labels), len(x))


def per_step_values(cfg, sys_spec, ctx, rng, count):
    """The step engines as they drew before block draws: one draw_word call
    of ``count`` labels per step (the orbit engine returns the orbit)."""
    nu, space, n, kind = sys_spec.nu, sys_spec.space, cfg.n, cfg.observable
    X = np.full(count, ctx["start"])
    if kind == "birkhoff":
        acc = np.zeros(count)
        for _ in range(n):
            acc += ctx["h"](X)
            X = nu.step(draw_word(nu, rng, count), X)
        return acc / n
    if kind == "lyap-1d":
        acc = np.zeros(count)
        for _ in range(n):
            labels = draw_word(nu, rng, count)
            acc += nu.log_derivative(labels, X)
            X = nu.step(labels, X)
        return acc / n
    if kind == "sync":
        Y = np.tile(np.asarray(cfg.params["B"], dtype=float), (count, 1))
        acc = np.zeros(Y.shape)
        for _ in range(n):
            acc += np.asarray(distance(space, X[:, None], Y))
            labels = draw_word(nu, rng, count)
            X = nu.step(labels, X)
            Y = nu.step(labels, Y)
        return acc.min(axis=1) / n
    orbit = np.empty((count, n))
    for k in range(n):
        orbit[:, k] = X
        X = nu.step(draw_word(nu, rng, count), X)
    return orbit


PROJECTIVE_SYSTEM = {"kind": "atoms", "space": {"kind": "projective", "m": 2},
                     "atoms": [[{"kind": "projective", "matrix": HYPERBOLIC}, 0.5],
                               [{"kind": "projective", "matrix": ROTATION}, 0.5]]}
ENGINE_CASES = [
    ("birkhoff", {"kind": "halving-ifs"}, {"h": "coordinate"}),
    ("birkhoff", {"kind": "moebius-uniform"}, {"h": "coordinate"}),
    ("lyap-1d", {"kind": "moebius-two-atom"}, {}),
    ("lyap-1d", {"kind": "moebius-uniform"}, {}),
    ("sync", {"kind": "halving-ifs"}, {"B": [0.0, 0.5, 1.0], "x0": 0.25}),
    ("corr-sum", {"kind": "halving-ifs"}, {"epsilon": 0.5}),
    ("corr-sum", {"kind": "moebius-uniform"}, {"epsilon": 0.5}),
]


class TestChunkEngines:
    """Block-drawn engines against the per-step oracle, bit for bit."""

    @staticmethod
    def _compare(kind, system, params, n, count):
        cfg = halving_cfg(observable=kind, system=system, params=params, n=n)
        sys_spec = build_system(system)
        ctx, _ = H._build_context(cfg, sys_spec, SeededStream(0),
                                  H._check_observable(cfg, sys_spec))
        rng = SeededStream(9).generator
        if kind == "corr-sum":  # the orbit engine
            got = H._orbits(cfg, sys_spec, ctx, [rng()], [count])
        else:
            got = H.ENGINES[kind](cfg, sys_spec, ctx, [rng()], [count])
        assert np.array_equal(got, per_step_values(cfg, sys_spec, ctx, rng(), count))

    @pytest.mark.parametrize("kind, system, params", ENGINE_CASES)
    def test_one_block(self, kind, system, params):
        self._compare(kind, system, params, 30, 256)

    @pytest.mark.parametrize("kind, system, params", ENGINE_CASES)
    @pytest.mark.parametrize("block", [100, 20])
    def test_across_blocks(self, kind, system, params, block):
        # 37 trials: two steps per block of 100 labels with a short last
        # block, or one step per draw when the block is below the count
        with mock.patch.object(E, "LABEL_BLOCK", block):
            self._compare(kind, system, params, 25, 37)

    @pytest.mark.parametrize("kind, n", [("birkhoff", 500), ("lyap-projective", 130)])
    def test_draws_stay_within_block(self, kind, n):
        # label memory per draw is bounded by the block, however long the
        # orbit: a cocycle word longer than the block is drawn in pieces
        system = {"kind": "halving-ifs"} if kind == "birkhoff" else PROJECTIVE_SYSTEM
        cfg = halving_cfg(observable=kind, system=system, n=n)
        sys_spec = build_system(system)
        ctx, _ = H._build_context(cfg, sys_spec, SeededStream(0),
                                  H._check_observable(cfg, sys_spec))
        with mock.patch.object(E, "LABEL_BLOCK", 50), \
                mock.patch("rdslab.estimators.draw_word", wraps=draw_word) as draws:
            H.ENGINES[kind](cfg, sys_spec, ctx, [SeededStream(9).generator()], [37])
        sizes = [c.args[2] for c in draws.call_args_list]
        assert max(sizes) <= 50 and sum(sizes) == n * 37

    @pytest.mark.parametrize("kind, row", [("lyap-projective", 0), ("lyap-matrix-norm", 1)])
    @pytest.mark.parametrize("block", [1 << 16, 50])
    def test_cocycle_engine(self, kind, row, block):
        cfg = halving_cfg(observable=kind, system=PROJECTIVE_SYSTEM, n=40)
        sys_spec = build_system(PROJECTIVE_SYSTEM)
        ctx, _ = H._build_context(cfg, sys_spec, SeededStream(0),
                                  H._check_observable(cfg, sys_spec))
        with mock.patch.object(E, "LABEL_BLOCK", block):
            got = H.ENGINES[kind](cfg, sys_spec, ctx, [SeededStream(9).generator()], [5])
        rng = SeededStream(9).generator()
        expect = [lyapunov_projective(sys_spec.nu, ctx["start"], 40, rng)[row] for _ in range(5)]
        assert np.array_equal(got, expect)


def synchronization(nu, space, x, B, n, stream) -> float:
    """Best coupled time-averaged tracking distance between the orbit of x
    and orbits started in the finite candidate set B, from one coupled
    ``simulate_coupled`` run: the oracle of the ``sync`` engine."""
    B = list(B)
    if not B:
        raise ValueError("candidate set B must be nonempty")
    trajs = simulate_coupled(nu, [x] + B, n - 1, stream, space=space)
    ref = trajs[0].points
    return min(float(np.mean(distance(space, ref, t.points))) for t in trajs[1:])


class TestSynchronization:
    HALVING = DrivingMeasure(atoms=((Affine(0.5, 0.0), 0.5), (Affine(0.5, 0.5), 0.5)))
    SP = Interval(0.0, 1.0)

    def test_x_in_B_zero(self):
        val = synchronization(self.HALVING, self.SP, 0.3, [0.8, 0.3], 20, SeededStream(0))
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_identity_single_candidate(self):
        identity = DrivingMeasure(atoms=((Affine(1.0, 0.0), 1.0),))
        val = synchronization(identity, self.SP, 0.2, [0.9], 10, SeededStream(0))
        assert val == pytest.approx(0.7)

    def test_halving_geometric_decay(self):
        x, y, n = 0.0, 1.0, 50
        val = synchronization(self.HALVING, self.SP, x, [y], n, SeededStream(1))
        expect = sum(0.5**i for i in range(n)) / n
        assert val == pytest.approx(expect, abs=1e-12)
        assert val <= 2.0 * abs(x - y) / n

    def test_empty_B(self):
        with pytest.raises(ValueError):
            synchronization(self.HALVING, self.SP, 0.5, [], 10, SeededStream(0))


SYNC_SYSTEMS = {
    "halving": {"kind": "halving-ifs"},
    "moebius-two-atom": {"kind": "moebius-two-atom"},
    "moebius-uniform": {"kind": "moebius-uniform"},
    "polynomial": {"kind": "atoms", "atoms": [[{"kind": "polynomial", "alpha": 1.25}, 0.5],
                                              [{"kind": "polynomial", "alpha": 1.5}, 0.5]]},
    "circle-chart": {"kind": "atoms", "space": {"kind": "circle"},
                     "atoms": [[{"kind": "projective", "matrix": HYPERBOLIC, "chart": "circle"}, 0.5],
                               [{"kind": "projective", "matrix": ROTATION, "chart": "circle"}, 0.5]]},
}


@pytest.mark.parametrize("name", sorted(SYNC_SYSTEMS))
@pytest.mark.parametrize("n", [1, 7, 64, 500])
def test_one_trial_sync_engine_matches_synchronization(name, n):
    # one trial draws the word of simulate_coupled plus one label it never
    # uses; the sums run in another order (largest relative gaps measured:
    # 3.1e-15 on the interval systems, 6.2e-13 on the circle chart)
    B, x0 = [0.1, 0.5, 0.9], 0.3
    cfg = halving_cfg(observable="sync", system=SYNC_SYSTEMS[name], params={"B": B}, n=n)
    sys_spec = build_system(SYNC_SYSTEMS[name])
    rtol = 2e-12 if name == "circle-chart" else 1e-14
    for seed in range(4):
        got = H._sync(cfg, sys_spec, {"start": x0, "B": B}, [SeededStream(seed).generator()],
                     [1])
        expect = synchronization(sys_spec.nu, sys_spec.space, x0, B, n, SeededStream(seed))
        np.testing.assert_allclose(got, [expect], rtol=rtol, atol=0.0)


def per_chunk_run(cfg, sys_spec, ctx, stream):
    """``_run_trials`` as it ran one chunk at a time: each chunk stepped
    alone by the per-step oracle, its orbits reduced trial by trial."""
    space, out = sys_spec.space, []
    for i, lo in enumerate(range(0, cfg.trials, H.CHUNK)):
        count = min(H.CHUNK, cfg.trials - lo)
        values = per_step_values(cfg, sys_spec, ctx, stream.substream(i).generator(), count)
        if cfg.observable == "corr-sum":
            eps = float(cfg.params["epsilon"])
            values = [correlation_sum(space, o, eps, "phi0") for o in values]
        elif cfg.observable.startswith("kappa"):
            kant = kantorovich_circle if isinstance(space, Circle) else kantorovich_interval
            w = np.full(cfg.n, 1.0 / cfg.n)
            values = [kant(EmpiricalMeasure(space, o, w), ctx["reference"]) for o in values]
        out.append(values)
    return np.concatenate(out)


SMALL_REFERENCE = {"reference": {"kind": "simulate", "burn_in": 50, "samples": 200}}
GROUP_CASES = ENGINE_CASES + [
    ("kappa-to-stationary", {"kind": "moebius-two-atom"}, SMALL_REFERENCE),
]
CIRCLE_CASES = [
    ("sync", SYNC_SYSTEMS["circle-chart"], {"B": [0.1, 0.5, 0.9], "x0": 0.3}),
    ("kappa-interval", SYNC_SYSTEMS["circle-chart"], dict(SMALL_REFERENCE, x0=0.3)),
]


class TestGroupedRuns:
    """Chunks stepped as one vector against the per-chunk loop, bit for bit:
    the group is the width of the vector, the chunk the unit of draws."""

    @staticmethod
    def _setup(kind, system, params, trials):
        cfg = halving_cfg(observable=kind, system=system, params=params, n=12, trials=trials)
        sys_spec = build_system(system)
        ctx, _ = H._build_context(cfg, sys_spec, SeededStream(0),
                                  H._check_observable(cfg, sys_spec))
        return cfg, sys_spec, ctx

    @pytest.mark.parametrize("kind, system, params", GROUP_CASES)
    @pytest.mark.parametrize("trials", [100, 257, 3 * 256 + 5])
    @pytest.mark.parametrize("block", [50, 1000])
    @pytest.mark.parametrize("group", [2, H.GROUP])
    def test_equals_per_chunk_loop(self, kind, system, params, trials, block, group):
        cfg, sys_spec, ctx = self._setup(kind, system, params, trials)
        with mock.patch.object(E, "LABEL_BLOCK", block), mock.patch.object(H, "GROUP", group):
            got = H._run_trials(cfg, sys_spec, ctx, SeededStream(9))
        assert np.array_equal(got, per_chunk_run(cfg, sys_spec, ctx, SeededStream(9)))

    @pytest.mark.parametrize("kind, system, params", CIRCLE_CASES)
    def test_circle_chart_runs_chunk_by_chunk(self, kind, system, params):
        # a chunk of 257 trials leaves one trial in the second chunk: its
        # atom masks select single rows, which circle-chart matrices round
        # differently from larger batches
        cfg, sys_spec, ctx = self._setup(kind, system, params, 257)
        assert H._group_chunks(cfg, sys_spec) == 1
        got = H._run_trials(cfg, sys_spec, ctx, SeededStream(9))
        assert np.array_equal(got, per_chunk_run(cfg, sys_spec, ctx, SeededStream(9)))

    @pytest.mark.parametrize("kind, system, params", GROUP_CASES)
    def test_orbit_groups_narrow_with_n(self, kind, system, params):
        # an orbit observable holds every point of its group
        cfg, sys_spec, _ = self._setup(kind, system, params, 100)
        for n in (60, 1000, 5000):
            cfg.n = n
            width = H._group_chunks(cfg, sys_spec)
            if kind in H.ORBIT_KINDS:
                assert width * H.CHUNK * n <= max(H.ORBIT_POINTS, H.CHUNK * n)
                assert width == H.GROUP or (width + 1) * H.CHUNK * n > H.ORBIT_POINTS
            else:
                assert width == H.GROUP

    @pytest.mark.parametrize("kind, system, params", GROUP_CASES)
    @pytest.mark.parametrize("block", [50, 1000])
    def test_draws_stay_within_block(self, kind, system, params, block):
        trials = 3 * 256 + 5
        cfg, sys_spec, ctx = self._setup(kind, system, params, trials)
        with mock.patch.object(E, "LABEL_BLOCK", block), \
                mock.patch("rdslab.estimators.draw_word", wraps=draw_word) as draws:
            H._run_trials(cfg, sys_spec, ctx, SeededStream(9))
        sizes = [c.args[2] for c in draws.call_args_list]
        assert max(sizes) <= max(block, H.CHUNK) and sum(sizes) == cfg.n * trials


def test_phi0_wrappers_leave_the_correlation_sums_alone():
    # a tracer wraps phi0 once in each rdslab namespace that binds it, one
    # wrapper per namespace: the corr-sum engine and correlation_dimension
    # name their kernel, so they keep their bits and call no wrapper
    cfg, sys_spec, ctx = TestGroupedRuns._setup("corr-sum", {"kind": "halving-ifs"},
                                                {"epsilon": 0.5}, 300)
    pts = np.random.default_rng(0).uniform(0, 1, 500)
    ladder = [0.1 * 2.0**-j for j in range(5)]

    def run():
        return (H._run_trials(cfg, sys_spec, ctx, SeededStream(9)),
                correlation_dimension(Interval(0.0, 1.0), pts, ladder))

    calls = []

    def wrapped(fn):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return probe

    plain = run()
    owners = [m for name, m in list(sys.modules.items())
              if name.split(".")[0] == "rdslab" and vars(m).get("phi0") is E.phi0]
    assert E in owners
    with contextlib.ExitStack() as stack:
        for m in owners:
            stack.enter_context(mock.patch.object(m, "phi0", wrapped(E.phi0)))
        traced = run()
    assert calls == []
    assert traced[0].tobytes() == plain[0].tobytes()
    assert traced[1] == plain[1]


class Recording(dict):
    """A params block that records every key a reader asks it for."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


CIRCLE_SYSTEM = SYNC_SYSTEMS["circle-chart"]
SIMULATED = {"kind": "simulate", "burn_in": 50, "samples": 200}
MATRIX_INPUTS = {"lambda_nu": 2.0, "C": 3.0}
# (runner, its PARAMS entry, config): the benchmark's jobs at small sizes
DECLARED_CASES = [
    (H.run_simulate, "simulate", {"system": {"kind": "moebius-uniform"}, "n": 50,
                                  "params": {"x0": 0.5}}),
    (H.run_lambda_survey, "lambda", {"system": SYNC_SYSTEMS["polynomial"], "trials": 128,
                                     "params": {"n_ladder": [4, 8], "grid": 16}}),
    (H.run_corrdim, "corr-dim", {"system": CIRCLE_SYSTEM, "n": 300,
                                 "params": {"epsilon0": 0.1, "rungs": 4, "x0": 0.3}}),
    (H.run_asclt, "asclt", {"system": {"kind": "moebius-two-atom"}, "observable": "asclt-kappa",
                            "trials": 100, "params": {"h": "centered", "n_ladder": [64, 128],
                                                      "sigma_n": 20, "sigma_trials": 100}}),
    (H.run_lyap, "lyap", {"system": CIRCLE_SYSTEM, "observable": "lyap-1d", "n": 200,
                          "params": {"x0": 0.3}}),
    (H.run_lyap, "lyap", {"system": PROJECTIVE_SYSTEM, "observable": "lyap-projective",
                          "n": 200}),
    (H.run_bounds, "bounds", {"system": {"kind": "halving-ifs"}, "params": {"h": "coordinate"}}),
    (run_tail, "birkhoff", {"system": {"kind": "halving-ifs"}, "params": {"h": "coordinate"}}),
    (run_tail, "lyap-1d", {"system": {"kind": "moebius-uniform"}, "observable": "lyap-1d",
                           "bound": "circle-lyap", "t_ladder": [0.01],
                           "inputs": {"lambda_nu": 2.0, "m_nu": 0.1, "M_nu": 1.0}}),
    (run_tail, "kappa-to-stationary", {"system": {"kind": "moebius-two-atom"},
                                       "observable": "kappa-to-stationary",
                                       "bound": "empirical-kappa",
                                       "params": {"reference": SIMULATED}}),
    (run_tail, "kappa-interval", {"system": CIRCLE_SYSTEM, "observable": "kappa-interval",
                                  "bound": "interval-kappa", "inputs": {"lambda_nu": 0.1},
                                  "params": {"x0": 0.3, "reference": SIMULATED}}),
    (run_tail, "sync", {"system": {"kind": "halving-ifs"}, "observable": "sync",
                        "bound": "sync", "params": {"B": [0.0, 0.5, 1.0], "x0": 0.25}}),
    (run_tail, "corr-sum", {"system": {"kind": "halving-ifs"}, "observable": "corr-sum",
                            "bound": "corrdim", "inputs": {"epsilon": 0.5},
                            "params": {"epsilon": 0.5}}),
    (run_tail, "lyap-projective", {"system": PROJECTIVE_SYSTEM, "observable": "lyap-projective",
                                   "bound": "projective-lyap", "inputs": MATRIX_INPUTS}),
    (run_tail, "lyap-matrix-norm", {"system": PROJECTIVE_SYSTEM,
                                    "observable": "lyap-matrix-norm", "bound": "matrix-norm",
                                    "inputs": MATRIX_INPUTS}),
]


@pytest.mark.parametrize("runner, name, doc", DECLARED_CASES,
                         ids=[f"{r.__name__}-{name}" for r, name, _ in DECLARED_CASES])
def test_runners_read_declared_params_only(runner, name, doc):
    # every params key a runner or engine reads is declared in PARAMS, and
    # each declared key is read; the start and the reference have readers
    # of their own
    params = Recording(doc.get("params", {}))
    base = {"n": 40, "trials": 100, "t_ladder": [0.1, 0.2],
            "inputs": {"lambda_nu": 2.0, "gee_inf": 0.5}}
    inputs = dict(base["inputs"], **doc.get("inputs", {}))
    runner(ExperimentConfig(**dict(base, **dict(doc, inputs=inputs, params=params))))
    declared = set(H.PARAMS.get(name, {}))
    assert declared <= params.read <= declared | {"x0", "start", "reference"}
