import json

import numpy as np
import pytest

from rdslab.chains import word_maps
from rdslab.harness import (
    ExperimentConfig,
    build_system,
    report_to_csv,
    report_to_json,
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
)
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
        with pytest.raises(ValueError):
            halving_cfg(trials=50)

    def test_ladder_must_increase(self):
        with pytest.raises(ValueError):
            halving_cfg(t_ladder=[0.2, 0.1])

    def test_json_roundtrip(self):
        cfg = halving_cfg()
        back = ExperimentConfig.from_json(json.dumps(cfg.to_dict()))
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

    def test_thread_invariance(self):
        r1 = run_tail(halving_cfg(trials=2000, threads=1))
        r8 = run_tail(halving_cfg(trials=2000, threads=8))
        assert report_to_csv(r1) == report_to_csv(r8)

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
