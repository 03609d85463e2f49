import inspect
import json
from unittest import mock

import numpy as np
import pytest

from rdslab import bounds as B
from rdslab import cli as CLI
from rdslab import config as C
from rdslab import harness as H
from rdslab.cli import main
from rdslab.maps import DrivingMeasure
from rdslab.spaces import Interval, canonical_direction


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def fails_before_drawing(tmp_path, capsys, command, doc, named, flags=()):
    """Exit 2 naming the key, with no output and no draw."""
    out = tmp_path / "rows.csv"
    with mock.patch("rdslab.chains.draw_word") as orbit_draw, \
            mock.patch("rdslab.estimators.draw_word") as draw:
        assert main([command, "--config", write_cfg(tmp_path, doc), "--out", str(out),
                     *flags]) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == "" and not out.exists()
    orbit_draw.assert_not_called()
    draw.assert_not_called()


TAIL_DOC = {
    "system": {"kind": "halving-ifs"},
    "observable": "birkhoff",
    "params": {"h": "coordinate"},
    "n": 50,
    "t_ladder": [0.1, 0.2],
    "trials": 200,
    "seed": 4,
    "bound": "lln",
}


class TestExitCodes:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_missing_config_file(self):
        assert main(["tail", "--config", "/nonexistent.json"]) == 2

    def test_malformed_config(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["tail", "--config", str(p)]) == 2

    def test_invalid_config_values(self, tmp_path):
        doc = dict(TAIL_DOC, trials=10)
        assert main(["tail", "--config", write_cfg(tmp_path, doc)]) == 2

    @pytest.mark.parametrize("command", ["tail", "simulate"])
    def test_unwritable_out(self, tmp_path, capsys, monkeypatch, command):
        # the runner raises if it runs: the path is refused before any draw
        def refuse(*args):
            raise AssertionError("the runner ran")

        monkeypatch.setattr(CLI, "run_tail", refuse)
        monkeypatch.setitem(CLI._COMMANDS, "simulate", refuse)
        cfg = write_cfg(tmp_path, TAIL_DOC)
        for out in (tmp_path / "missing" / "r.csv", tmp_path):
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
            assert f"cannot write output {out}" in capsys.readouterr().err

    def test_out_check_touches_no_file(self, tmp_path):
        # a bad config after the check leaves a new path absent and an
        # existing output as it was
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_text("kept\n")
        assert main(["tail", "--config", str(bad), "--out", str(new)]) == 2
        assert main(["tail", "--config", str(bad), "--out", str(old)]) == 2
        assert not new.exists() and old.read_text() == "kept\n"


class TestTail:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["tail", "--config", write_cfg(tmp_path, TAIL_DOC), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,p_hat,ci_lo,ci_hi,bound,threshold,verdict"
        assert len(lines) == 3

    def test_json_format(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["tail", "--config", write_cfg(tmp_path, TAIL_DOC),
                     "--out", str(out), "--format", "json"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 2

    def test_json_writes_null_for_nan(self, tmp_path):
        # t = 0.01 is below the lln threshold 2 lambda / n = 0.08
        out = tmp_path / "r.json"
        doc = dict(TAIL_DOC, t_ladder=[0.01, 0.2])
        assert main(["tail", "--config", write_cfg(tmp_path, doc), "--out", str(out),
                     "--format", "json"]) == 0

        def refuse(name):
            raise ValueError(f"not JSON: {name}")

        row = json.loads(out.read_text(), parse_constant=refuse)["rows"][0]
        assert row["verdict"] == "not-applicable"
        assert row["p_hat"] is row["ci_lo"] is row["ci_hi"] is None

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_cfg(tmp_path, TAIL_DOC)
        o1, o2, o3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        main(["tail", "--config", cfg, "--seed", "1", "--out", str(o1)])
        main(["tail", "--config", cfg, "--seed", "1", "--out", str(o2)])
        main(["tail", "--config", cfg, "--seed", "2", "--out", str(o3)])
        assert o1.read_text() == o2.read_text()
        assert o1.read_text() != o3.read_text()


class TestOtherCommands:
    def test_simulate(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["simulate", "--config", write_cfg(tmp_path, TAIL_DOC),
                     "--out", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 52  # header + n+1 points

    def test_simulate_interval_columns(self, tmp_path):
        out = tmp_path / "t.csv"
        doc = dict(TAIL_DOC, n=2, params={"x0": 0.25})
        assert main(["simulate", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        lines = out.read_text().split("\n")
        assert lines[0] == "k,x" and lines[1] == "0,0.25" and lines[-1] == ""

    def test_projective_starts(self, tmp_path):
        matrices = ([[2.0, 1.0], [1.0, 1.0]], [[0.6, -0.8], [0.8, 0.6]])
        system = {"kind": "atoms", "space": {"kind": "projective", "m": 2},
                  "atoms": [[{"kind": "projective", "matrix": a}, 0.5] for a in matrices]}
        doc = dict(TAIL_DOC, system=system, n=300, params={"epsilon0": 0.2, "rungs": 3})
        cfg = write_cfg(tmp_path, doc)
        sim, corr = tmp_path / "s.csv", tmp_path / "c.csv"
        assert main(["simulate", "--config", cfg, "--out", str(sim)]) == 0
        lines = sim.read_text().strip().split("\n")
        assert lines[0] == "k,x1,x2" and lines[1] == "0,1,0"  # default start e_1
        assert len(lines) == 302
        points = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        np.testing.assert_allclose(np.linalg.norm(points, axis=1), 1.0, rtol=1e-12)
        assert main(["corr-dim", "--config", cfg, "--out", str(corr)]) == 0
        assert corr.read_text().startswith("epsilon,K,slope,intercept\n")
        start = write_cfg(tmp_path, dict(doc, params={"start": [0.0, 1.0]}), "start.json")
        assert main(["simulate", "--config", start, "--out", str(sim)]) == 0
        assert sim.read_text().split("\n")[1] == "0,0,1"
        lyap = write_cfg(tmp_path, dict(doc, observable="lyap-projective"), "lyap.json")
        assert main(["lyap", "--config", lyap, "--out", str(sim)]) == 0
        assert sim.read_text().startswith("n,vector_rate,norm_rate\n")

    def test_lambda(self, tmp_path):
        doc = dict(TAIL_DOC, params={"n_ladder": [10], "grid": 8})
        out = tmp_path / "l.csv"
        assert main(["lambda", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        assert "lambda_hat" in out.read_text()

    def test_corr_dim(self, tmp_path):
        doc = dict(TAIL_DOC, n=2000, params={"epsilon0": 0.1, "rungs": 4})
        out = tmp_path / "c.csv"
        assert main(["corr-dim", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        assert "slope" in out.read_text()

    def test_lyap(self, tmp_path):
        out = tmp_path / "y.csv"
        assert main(["lyap", "--config", write_cfg(tmp_path, TAIL_DOC), "--out", str(out)]) == 0
        assert "rate" in out.read_text()

    def test_asclt(self, tmp_path):
        doc = dict(TAIL_DOC, observable="asclt-kappa",
                   params={"h": "centered", "n_ladder": [64, 128]})
        out = tmp_path / "a.csv"
        assert main(["asclt", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        assert "kappa" in out.read_text()

    @pytest.mark.parametrize("command, params, named", [
        pytest.param("asclt", {"n_ladder": [64, 128], "sigma_n": 0}, "'sigma_n'",
                     id="asclt-sigma_n"),
        pytest.param("asclt", {"n_ladder": [64, 128], "sigma_trials": -1}, "'sigma_trials'",
                     id="asclt-sigma_trials"),
        pytest.param("lambda", {"n_ladder": [-3, 0]}, "'n_ladder'", id="lambda-first-rung"),
        # a bad rung after good ones still fails before the first is run
        pytest.param("lambda", {"n_ladder": [0, 10, -3], "grid": 8}, "'n_ladder'",
                     id="lambda-last-rung"),
        pytest.param("lambda", {"n_ladder": []}, "'n_ladder'", id="lambda-empty-ladder"),
        pytest.param("asclt", {"n_ladder": []}, "'n_ladder'", id="asclt-empty-ladder"),
        pytest.param("corr-dim", {"rungs": 2}, "'rungs'", id="corr-dim-two-rungs"),
        pytest.param("corr-dim", {"rungs": -1}, "'rungs'", id="corr-dim-negative-rungs"),
        *[pytest.param("corr-dim", {"epsilon0": e}, "'epsilon0'", id=f"corr-dim-epsilon0-{tag}")
          for tag, e in (("zero", 0), ("negative", -0.1), ("nan", float("nan")),
                         ("inf", float("inf")), ("string", "0.1"), ("bool", True))],
    ])
    @pytest.mark.parametrize("system", [{"kind": "halving-ifs"}, {"kind": "moebius-uniform"}],
                             ids=["halving", "moebius-uniform"])
    def test_ladder_checks_fail_before_drawing(self, tmp_path, capsys, command, params, named,
                                               system):
        doc = dict(TAIL_DOC, system=system, observable="asclt-kappa", params=params)
        fails_before_drawing(tmp_path, capsys, command, doc, named)

    def test_lambda_without_trials(self, tmp_path, capsys):
        doc = dict(TAIL_DOC, trials=0, params={"n_ladder": [5]})
        fails_before_drawing(tmp_path, capsys, "lambda", doc, "'trials' must be an integer >= 1")

    def test_lambda_with_two_trials(self, tmp_path):
        # the 100-trial floor is the tail command's: lambda_n takes any trials >= 1
        doc = {"system": {"kind": "halving-ifs"}, "trials": 2,
               "params": {"n_ladder": [5], "grid": 8}}
        out = tmp_path / "l.csv"
        assert main(["lambda", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        assert out.read_text().startswith("n,lambda_hat,stderr,analytic_cap,diverged\n5,")

    def test_tail_needs_100_trials(self, tmp_path, capsys):
        fails_before_drawing(tmp_path, capsys, "tail", dict(TAIL_DOC, trials=99),
                             "'trials' >= 100")

    def test_lambda_n0_rung(self, tmp_path):
        doc = dict(TAIL_DOC, params={"n_ladder": [0], "grid": 8})
        out = tmp_path / "l.csv"
        assert main(["lambda", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].startswith("0,1,0,")

    def test_bounds_no_simulation(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["bounds", "--config", write_cfg(tmp_path, TAIL_DOC),
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "bound" in text and "threshold" in text


class TestSelftest:
    def test_exit_zero_and_deterministic(self, tmp_path):
        o1, o2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(["selftest", "--seed", "3", "--out", str(o1)]) == 0
        assert main(["selftest", "--seed", "3", "--out", str(o2)]) == 0
        assert o1.read_text() == o2.read_text()

    def test_thread_invariance(self, tmp_path):
        o1, o8 = tmp_path / "t1.csv", tmp_path / "t8.csv"
        assert main(["selftest", "--seed", "5", "--threads", "1", "--out", str(o1)]) == 0
        assert main(["selftest", "--seed", "5", "--threads", "8", "--out", str(o8)]) == 0
        assert o1.read_text() == o8.read_text()


MATRICES_2 = ([[2.0, 1.0], [1.0, 1.0]], [[0.6, -0.8], [0.8, 0.6]])
MATRICES_3 = ([[2.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
              [[1.0, 0.0, 0.0], [0.0, 0.6, -0.8], [0.0, 0.8, 0.6]])


MATRIX_INPUTS = {"lambda_nu": 2.0, "C": 3.0}


def projective_system(matrices):
    return {"kind": "atoms", "space": {"kind": "projective", "m": len(matrices[0])},
            "atoms": [[{"kind": "projective", "matrix": a}, 0.5] for a in matrices]}


CIRCLE_CHART = {"kind": "atoms", "space": {"kind": "circle"},
                "atoms": [[{"kind": "projective", "matrix": a, "chart": "circle"}, 0.5]
                          for a in MATRICES_2]}


POLYNOMIAL_ATOMS = {"kind": "atoms", "atoms": [[{"kind": "polynomial", "alpha": 1.25}, 0.5],
                                               [{"kind": "polynomial", "alpha": 1.5}, 0.5]]}


LYAP_DOC = {
    "observable": "lyap-1d", "n": 30, "trials": 300, "t_ladder": [0.001, 0.002, 0.004],
    "seed": 7, "bound": "circle-lyap",
    "inputs": {"lambda_nu": 2.0, "gee_inf": 0.5, "m_nu": 1.0 / 9.0, "M_nu": 1.0, "gee_c1": 1.0},
}
BOUND_COLUMNS = ("1.9999999982853223,0,pass-vacuous\n", "1.9999999931412895,0,pass-vacuous\n",
                 "1.9999999725651578,0,pass-vacuous\n")


TAIL_JSON = """{
  "rows": [
    {
      "t": 0.1,
      "p_hat": 0.15,
      "ci_lo": 0.10713593562241995,
      "ci_hi": 0.20605579284166659,
      "bound": 1.9966694429018774,
      "threshold": 0.08,
      "verdict": "pass-vacuous"
    },
    {
      "t": 0.2,
      "p_hat": 0.01,
      "ci_lo": 0.0027466581335444384,
      "ci_hi": 0.0357217617161768,
      "bound": 1.9867110125100689,
      "threshold": 0.08,
      "verdict": "pass-vacuous"
    }
  ],
  "center": 0.5047002041412497,
  "center_halfwidth": 0.009202662083560418,
  "provenance": {
    "lambda_nu": "analytic",
    "gee_inf": "analytic",
    "lipschitz_L": "default"
  },
  "config": {
    "system": {
      "kind": "halving-ifs"
    },
    "observable": "birkhoff",
    "params": {
      "h": "coordinate"
    },
    "n": 50,
    "t_ladder": [
      0.1,
      0.2
    ],
    "trials": 200,
    "seed": 4,
    "bound": "lln",
    "inputs": {}
  },
}
"""


TWO_SLOPES_LAMBDA = ("n,lambda_hat,stderr,analytic_cap,diverged\n"
                     "0,1,0,nan,false\n"
                     "3,1.585703125,0.014010745692968913,nan,false\n"
                     "40,1.5892647748849791,0.015345974309218989,nan,false\n")


class TestPinnedOutput:
    """Full CSV text, byte for byte, of runs whose bytes must not move."""

    def test_selftest_seed_0(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["selftest", "--seed", "0", "--out", str(out)]) == 0
        assert out.read_text() == (
            "t,p_hat,ci_lo,ci_hi,bound,threshold,verdict\n"
            "0.14999999999999999,0.00025000000000000001,4.4132501957676274e-05,"
            "0.0014148310660989595,1.9702238792061253,0.02,pass-vacuous\n"
            "0.20000000000000001,0,0,0.0009217947494830625,1.94737149870629,0.02,pass-vacuous\n"
            "0.29999999999999999,0,0,0.0009217947494830625,1.8835290671684974,0.02,pass-vacuous\n"
        )

    # rung i of ``rdslab lambda`` draws trial chunk c from substream c of
    # substream 0 of substream i of the seed.  These systems step by dyadic
    # slopes and offsets, so the bytes do not follow the CPU's numpy kernels.
    # The halving CSV is the same at every seed (every step halves every
    # gap); the two-slope CSVs follow the stream, through the dense kernel
    # (a negative slope) and the order-preserving one.
    @pytest.mark.parametrize("affine, text", [
        pytest.param(None, "n,lambda_hat,stderr,analytic_cap,diverged\n"
                           "10,1.9990234375,0,2,false\n"
                           "100,2,0,2,false\n", id="halving-ifs"),
        pytest.param(((0.5, 0.0), (-0.25, 0.75)), TWO_SLOPES_LAMBDA, id="two-slopes-dense"),
        pytest.param(((0.5, 0.0), (0.25, 0.5)), TWO_SLOPES_LAMBDA, id="two-slopes-ordered"),
    ])
    def test_lambda_seed_0(self, tmp_path, affine, text):
        out = tmp_path / "l.csv"
        argv = ["lambda", "--seed", "0", "--out", str(out)]
        if affine is not None:
            atoms = [[{"kind": "affine", "slope": a, "offset": b}, 0.5] for a, b in affine]
            doc = {"system": {"kind": "atoms", "atoms": atoms}, "trials": 200,
                   "params": {"n_ladder": [0, 3, 40], "grid": 5}}
            argv += ["--config", write_cfg(tmp_path, doc)]
        assert main(argv) == 0
        assert out.read_text() == text

    @pytest.mark.parametrize("system, cells", [
        # parametric family: per-trial parameters through the family formula
        ("moebius-uniform", ("0.001,0.76000000000000001,0.70857881191546357,0.80484684304777254,",
                             "0.002,0.37666666666666665,0.3237203650702255,0.43273156783182909,",
                             "0.0040000000000000001,0.063333333333333339,0.040916882383915276,"
                             "0.096791312485521613,")),
        # finite measure: per-atom masks
        ("moebius-two-atom", ("0.001,0.83666666666666667,0.79062683256987487,0.87419356680559734,",
                              "0.002,0.51333333333333331,0.45696401676183918,0.56936550400550612,",
                              "0.0040000000000000001,0.31333333333333335,0.26348439755985531,"
                              "0.36790231169730847,")),
    ])
    def test_tail_lyap_1d(self, tmp_path, system, cells):
        out = tmp_path / "t.csv"
        cfg = write_cfg(tmp_path, dict(LYAP_DOC, system={"kind": system}))
        assert main(["tail", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text() == "t,p_hat,ci_lo,ci_hi,bound,threshold,verdict\n" + "".join(
            c + b for c, b in zip(cells, BOUND_COLUMNS))


    @pytest.mark.parametrize("kind, matrices, bound, ladder, inputs, body", [
        # 2 chunks (256 + 44 trials) of the trial-batched cocycle
        ("lyap-projective", MATRICES_2, "projective-lyap", [0.02, 0.05, 0.1], MATRIX_INPUTS,
         "0.02,0.46666666666666667,0.41099110566704244,0.52318509241459388,"
         "0.9999999989711934,0,pass\n"
         "0.050000000000000003,0.34000000000000002,0.28872020409649268,0.39532554669536202,"
         "0.99999999356995883,0,pass\n"
         "0.10000000000000001,0.18333333333333332,0.14364526409824455,0.23102861767730118,"
         "0.99999997427983567,0,pass\n"),
        ("lyap-matrix-norm", MATRICES_3, "matrix-norm", [0.06, 0.1, 0.15],
         dict(MATRIX_INPUTS, m_dim=3),
         "0.059999999999999998,0.49333333333333335,0.43720207035328285,0.5496331692630444,"
         "5.9999999861111117,0.054930614433405495,pass-vacuous\n"
         "0.10000000000000001,0.23999999999999999,0.19515315695222746,0.29142118808453643,"
         "5.9999999614197534,0.054930614433405495,pass-vacuous\n"
         "0.14999999999999999,0.073333333333333334,0.048923993839228588,0.10853134160571733,"
         "5.9999999131944453,0.054930614433405495,pass-vacuous\n"),
    ])
    def test_tail_cocycle(self, tmp_path, kind, matrices, bound, ladder, inputs, body):
        out = tmp_path / "t.csv"
        cfg = write_cfg(tmp_path, {
            "system": projective_system(matrices), "observable": kind, "n": 40, "trials": 300,
            "t_ladder": ladder, "seed": 3, "bound": bound, "inputs": inputs})
        assert main(["tail", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text() == "t,p_hat,ci_lo,ci_hi,bound,threshold,verdict\n" + body

    @pytest.mark.parametrize("command, doc, text", [
        # parametric family: plain-float steps with the drawn parameters
        pytest.param("simulate", dict(TAIL_DOC, system={"kind": "moebius-uniform"}, n=30, seed=5),
                     ("k,x\n"
                      "0,0.5\n"
                      "1,0.2671237091182091\n"
                      "2,0.19060266482491428\n"
                      "3,0.14493448384484447\n"
                      "4,0.11551259445062591\n"
                      "5,0.10239644366886112\n"
                      "6,0.086360751501692354\n"
                      "7,0.07440425433876606\n"
                      "8,0.067000568978631533\n"
                      "9,0.062483711286131116\n"
                      "10,0.058309226618061052\n"
                      "11,0.053657257621268446\n"
                      "12,0.048722897550864064\n"
                      "13,0.045790658573947811\n"
                      "14,0.043220559244332137\n"
                      "15,0.04130715916206458\n"
                      "16,0.039280999024961481\n"
                      "17,0.037498206905073696\n"
                      "18,0.035633775994480713\n"
                      "19,0.034394644319373495\n"
                      "20,0.032620966491503256\n"
                      "21,0.031176220624990512\n"
                      "22,0.029944377326133368\n"
                      "23,0.028659761571715139\n"
                      "24,0.027190110478838136\n"
                      "25,0.026137088476398649\n"
                      "26,0.025024092129700828\n"
                      "27,0.024292892065949173\n"
                      "28,0.023567251303172252\n"
                      "29,0.022576882033237339\n"
                      "30,0.021691011905361546\n"),
                     id="simulate-moebius-uniform"),
        # finite one-family support: np.power on plain floats
        pytest.param("simulate", dict(TAIL_DOC, system=POLYNOMIAL_ATOMS, n=30, seed=5,
                                      params={"x0": 0.7}),
                     ("k,x\n"
                      "0,0.69999999999999996\n"
                      "1,0.11433798142614715\n"
                      "2,0.075675851045053005\n"
                      "3,0.054857996463233555\n"
                      "4,0.042009275037890197\n"
                      "5,0.022990546324338071\n"
                      "6,0.019504573980422175\n"
                      "7,0.016780589033298172\n"
                      "8,0.010740977556148829\n"
                      "9,0.0072831386110869915\n"
                      "10,0.0051554982546773865\n"
                      "11,0.0037740382842026856\n"
                      "12,0.0035421870286636661\n"
                      "13,0.0026780365786550045\n"
                      "14,0.0020688215185169188\n"
                      "15,0.0016276029502706407\n"
                      "16,0.0013006873950996603\n"
                      "17,0.0010536764687301054\n"
                      "18,0.00086383805269580585\n"
                      "19,0.00071574304661509679\n"
                      "20,0.00069659450485021679\n"
                      "21,0.00058342613626945672\n"
                      "22,0.00049275222474653871\n"
                      "23,0.00041933706599947367\n"
                      "24,0.00041074999846845643\n"
                      "25,0.00035227476518054032\n"
                      "26,0.00034566292570432737\n"
                      "27,0.00029853091128352485\n"
                      "28,0.00025929022146233157\n"
                      "29,0.0002551150029641292\n"
                      "30,0.00025104022452568679\n"),
                     id="simulate-polynomial"),
        # circle chart: apply_map steps, log-derivatives on an (n, 1) column
        pytest.param("lyap", dict(TAIL_DOC, system=CIRCLE_CHART, observable="lyap-1d", n=500,
                                  seed=6, params={"x0": 0.3}),
                     "n,rate\n"
                     "500,-0.58813877771999312\n",
                     id="lyap-circle-chart"),
        pytest.param("lyap", dict(TAIL_DOC, system={"kind": "moebius-two-atom"},
                                  observable="lyap-1d", n=400, seed=6),
                     "n,rate\n"
                     "400,-0.028552135086874389\n",
                     id="lyap-moebius-two-atom"),
        pytest.param("asclt", dict(TAIL_DOC, observable="asclt-kappa", seed=8,
                                   params={"h": "centered", "n_ladder": [64, 256]}),
                     ("n,kappa,sigma2,degenerate\n"
                      "64,0.24877999076741636,0.2504519552465031,false\n"
                      "256,0.24749604543533027,0.2504519552465031,false\n"),
                     id="asclt-halving"),
        # simulated stationary reference, 4000 samples from substream 1
        pytest.param("asclt", dict(TAIL_DOC, system={"kind": "moebius-two-atom"},
                                   observable="asclt-kappa", seed=8,
                                   params={"h": "centered", "n_ladder": [64, 256],
                                           "sigma_n": 50, "sigma_trials": 500}),
                     ("n,kappa,sigma2,degenerate\n"
                      "64,0.51372053986074939,7.6181618516494485e-07,false\n"
                      "256,0.46339973057089412,7.6181618516494485e-07,false\n"),
                     id="asclt-moebius-two-atom"),
        pytest.param("corr-dim", dict(TAIL_DOC, n=400, seed=9,
                                      params={"epsilon0": 0.2, "rungs": 4}),
                     ("epsilon,K,slope,intercept\n"
                      "0.20000000000000001,0.36364088011909973,0.96739797049924403,"
                      "0.55728294057234073\n"
                      "0.10000000000000001,0.19088532817681383,0.96739797049924403,"
                      "0.55728294057234073\n"
                      "0.050000000000000003,0.096968354937528839,0.96739797049924403,"
                      "0.55728294057234073\n"
                      "0.025000000000000001,0.048752944543638294,0.96739797049924403,"
                      "0.55728294057234073\n"),
                     id="corr-dim-halving"),
        pytest.param("corr-dim", dict(TAIL_DOC, system=CIRCLE_CHART, n=300, seed=9,
                                      params={"x0": 0.3, "epsilon0": 0.2, "rungs": 4}),
                     ("epsilon,K,slope,intercept\n"
                      "0.20000000000000001,0.45053228547660384,0.69453092568365227,"
                      "0.32576673005844992\n"
                      "0.10000000000000001,0.28247492772370547,0.69453092568365227,"
                      "0.32576673005844992\n"
                      "0.050000000000000003,0.17246394704786772,0.69453092568365227,"
                      "0.32576673005844992\n"
                      "0.025000000000000001,0.10671799113201504,0.69453092568365227,"
                      "0.32576673005844992\n"),
                     id="corr-dim-circle-chart"),
        pytest.param("lyap", dict(TAIL_DOC, system=projective_system(MATRICES_2),
                                  observable="lyap-projective", n=300, seed=6),
                     "n,vector_rate,norm_rate\n"
                     "300,0.31063649859127829,0.31091540623396968\n",
                     id="lyap-projective"),
    ])
    def test_orbit_commands(self, tmp_path, command, doc, text):
        out = tmp_path / "o.csv"
        assert main([command, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        assert out.read_text() == text

    def test_tail_json(self, tmp_path):
        # every line but the two that vary from run to run
        out = tmp_path / "t.json"
        assert main(["tail", "--config", write_cfg(tmp_path, TAIL_DOC), "--out", str(out),
                     "--format", "json"]) == 0
        lines = out.read_text().splitlines(keepends=True)
        assert lines[1].startswith('  "timestamp": "') and lines[-2].startswith(
            '  "runtime_seconds": ')
        assert "".join(lines[:1] + lines[2:-2] + lines[-1:]) == TAIL_JSON

    def test_lyap_at_a_critical_point(self, tmp_path, capsys):
        # PolynomialDecay(1.5) has a vanishing derivative at x = 4/9
        system = {"kind": "atoms", "atoms": [[{"kind": "polynomial", "alpha": 1.5}, 1.0]]}
        doc = dict(TAIL_DOC, system=system, observable="lyap-1d", n=20,
                   params={"x0": (2.0 / 3.0) ** 2})
        assert main(["lyap", "--config", write_cfg(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert "vanishing derivative" in captured.err and captured.out == ""

    def test_tail_at_a_critical_point(self, tmp_path, capsys):
        system = {"kind": "atoms", "atoms": [[{"kind": "polynomial", "alpha": 1.5}, 1.0]]}
        doc = dict(TAIL_DOC, system=system, observable="lyap-1d", n=20,
                   params={"x0": (2.0 / 3.0) ** 2}, bound="circle-lyap",
                   inputs={"lambda_nu": 2.0, "gee_inf": 0.5, "m_nu": 0.1, "M_nu": 1.0})
        assert main(["tail", "--config", write_cfg(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert "params 'x0': vanishing derivative" in captured.err and captured.out == ""

    # build_system refuses a Moebius map on an interval around its pole at
    # -1, so these runs take one Moebius map on [0, 1] and a start that is
    # patched in past the start check
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_tail_with_non_finite_trials(self, tmp_path, capsys):
        # the Moebius map divides by zero at x0 = -1: every trial value is nan
        doc = dict(TAIL_DOC, system=MOEBIUS_ONE_ATOM, n=20, t_ladder=[0.3, 0.5],
                   inputs={"lambda_nu": 0.1, "gee_inf": 0.1})
        with mock.patch("rdslab.harness._run_trials", wraps=H._run_trials) as runs, \
                mock.patch("rdslab.harness.orbit_start", return_value=-1.0):
            assert main(["tail", "--config", write_cfg(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert "params 'x0': 200 of 200 pilot trials are not finite" in captured.err
        assert captured.out == "" and runs.call_count == 1  # no main run

    @staticmethod
    def _pole_run(tmp_path, command, x0):
        """(exit code, whether --out was written) of ``command`` from ``x0``
        on one Moebius map, which divides by zero at -1."""
        doc = dict(TAIL_DOC, system=MOEBIUS_ONE_ATOM, observable="lyap-1d", n=5)
        out = tmp_path / "rows.csv"
        with np.errstate(divide="ignore", invalid="ignore"), \
                mock.patch("rdslab.harness.orbit_start", return_value=x0):
            return main([command, "--config", write_cfg(tmp_path, doc), "--out", str(out)]), \
                out.exists()

    @pytest.mark.parametrize("command", ["lyap", "asclt", "simulate", "corr-dim"])
    def test_single_orbit_leaving_the_reals(self, tmp_path, capsys, command):
        # -1 maps to -inf, then nan
        assert self._pole_run(tmp_path, command, -1) == (2, False)
        captured = capsys.readouterr()
        assert "params 'x0': the orbit's point at step 1 is not finite" in captured.err
        assert captured.out == ""

    def test_lyap_with_a_non_finite_rate(self, tmp_path, capsys):
        # the points -1.5, 3, 0.75, ... are finite, but log1p(-1.5) is nan
        assert self._pole_run(tmp_path, "lyap", -1.5) == (2, False)
        captured = capsys.readouterr()
        assert "params 'x0': the orbit's rate nan is not finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["lyap", "asclt", "simulate", "corr-dim"])
    def test_first_non_finite_orbit_point_is_named(self, tmp_path, capsys, command):
        orbit = DrivingMeasure.orbit

        def leaves(nu, word, x0):
            points = orbit(nu, word, x0)
            points[3], points[5] = np.inf, np.nan
            return points

        doc = dict(TAIL_DOC, observable="lyap-1d", n=8)
        with mock.patch.object(DrivingMeasure, "orbit", leaves):
            assert main([command, "--config", write_cfg(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert "params 'x0': the orbit's point at step 3 is not finite" in captured.err
        assert captured.out == ""

    def test_corr_dim_without_positive_rungs(self, tmp_path, capsys):
        # every rung's correlation sum is 0, which shows only once the orbit
        # is drawn
        out = tmp_path / "rows.csv"
        doc = dict(TAIL_DOC, params={"epsilon0": 1e-9})
        assert main(["corr-dim", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "params 'epsilon0'" in captured.err
        assert captured.out == "" and not out.exists()


# the halving system as explicit atoms, so no analytic constant fills an input
HALVING_ATOMS = {"kind": "atoms", "atoms": [
    [{"kind": "affine", "slope": 0.5, "offset": 0.0}, 0.5],
    [{"kind": "affine", "slope": 0.5, "offset": 0.5}, 0.5]]}
CONTRACTION = {"lambda_nu": 2.0, "gee_inf": 0.5}
# per selector: inputs giving every required key (and some defaults), the t
# ladder, and the `rdslab bounds` CSV body, pinned byte for byte
BOUND_DOCS = {
    "theorem-a": (dict(CONTRACTION, uniform_c=1.5), [0.5, 1.0],
                  "0.5,0.94246239537788068,0,true,false\n"
                  "1,0.78896206665919311,0,true,false\n"),
    "refined": ({"gee_inf": 0.5, "u": [2.0**-k for k in range(1, 41)]}, [0.5, 1.0],
                "0.5,0.68345810850998368,0,true,false\n"
                "1,0.21819641022803407,0,true,false\n"),
    "lln": ({"lambda_nu": 2.0, "gee_rho": 0.5, "lipschitz_L": 2.0}, [0.1, 0.3],
            "0.10000000000000001,1.9993334444320998,0.20000000000000001,false,false\n"
            "0.29999999999999999,1.994008991006746,0.20000000000000001,true,true\n"),
    "sync": (dict(CONTRACTION, muB=0.25), [0.2, 5.0],
             "0.20000000000000001,0.9946808636386143,3.7732974110590338,false,false\n"
             "5,0.035673993347252395,3.7732974110590338,true,false\n"),
    "empirical-kappa": (CONTRACTION, [0.05, 0.5],
                        "0.050000000000000003,1.9973351103212509,0.10000000000000001,false,false\n"
                        "0.5,1.750346638085895,0.10000000000000001,true,true\n"),
    "interval-kappa": (dict(CONTRACTION, a=0.0, b=2.0), [0.5, 2.0],
                       "0.5,0.9672161004820059,1.6148315584236825,false,false\n"
                       "2,0.58664621951003182,1.6148315584236825,true,false\n"),
    "corrdim": (dict(CONTRACTION, epsilon=0.25, sup_norm=0.5), [1.0, 2.0],
                "1,1.9958376705985985,1.6125,false,false\n"
                "2,1.9834025852777519,1.6125,true,true\n"),
    "circle-lyap": ({"lambda_nu": 2.0, "gee_c1": 1.0, "m_nu": 0.5, "M_nu": 1.0,
                     "t_n_hat": 0.01}, [0.01, 0.5],
                    "0.01,1.9999953703757287,0.02,false,false\n"
                    "0.5,1.9884593512147166,0.02,true,true\n"),
    "projective-lyap": ({"lambda_nu": 2.0, "C": 3.0, "t_n_hat": 0.05}, [0.05, 20.0],
                        "0.050000000000000003,0.99999999356995883,0.10000000000000001,"
                        "false,false\n"
                        "20,0.99897172245568966,0.10000000000000001,true,false\n"),
    "matrix-norm": ({"lambda_nu": 2.0, "C": 3.0, "m_dim": 3}, [0.01, 30.0],
                    "0.01,5.9999999996141975,0.054930614433405495,false,false\n"
                    "30,5.9965287822779292,0.054930614433405495,true,true\n"),
}
REQUIRED = {
    "theorem-a": ("lambda_nu", "gee_inf"),
    "refined": ("gee_inf", "u"),
    "lln": ("lambda_nu", "gee_inf"),
    "sync": ("lambda_nu", "gee_inf"),
    "empirical-kappa": ("lambda_nu", "gee_inf"),
    "interval-kappa": ("lambda_nu", "gee_inf"),
    "corrdim": ("lambda_nu", "gee_inf", "epsilon"),
    "circle-lyap": ("lambda_nu", "gee_c1", "m_nu", "M_nu"),
    "projective-lyap": ("lambda_nu", "C"),
    "matrix-norm": ("lambda_nu", "C"),
}
DIAMETER_KEYS = {"gee_inf", "gee_rho", "gee_c1"}


def bound_doc(selector, drop=()):
    inputs, ladder, _ = BOUND_DOCS[selector]
    return {"system": HALVING_ATOMS, "n": 40, "t_ladder": ladder, "trials": 100,
            "bound": selector, "inputs": {k: v for k, v in inputs.items() if k not in drop}}


class TestBoundSelectors:
    @pytest.mark.parametrize("selector", sorted(BOUND_DOCS))
    def test_bounds_csv_pinned(self, tmp_path, selector):
        out = tmp_path / "b.csv"
        assert main(["bounds", "--config", write_cfg(tmp_path, bound_doc(selector)),
                     "--out", str(out)]) == 0
        assert out.read_text() == "t,bound,threshold,applicable,vacuous\n" + BOUND_DOCS[selector][2]

    @pytest.mark.parametrize("selector, key", [(s, k) for s, keys in REQUIRED.items()
                                               for k in keys])
    def test_missing_input_fails_before_drawing(self, tmp_path, capsys, selector, key):
        drop = DIAMETER_KEYS if key in DIAMETER_KEYS else {key}
        cfg = write_cfg(tmp_path, bound_doc(selector, drop))
        with mock.patch("rdslab.estimators.draw_word") as draw:
            assert main(["tail", "--config", cfg]) == 2
        assert f"{key!r}" in capsys.readouterr().err
        draw.assert_not_called()

    def test_unknown_selector_simulates_nothing(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dict(TAIL_DOC, bound="lnn"))
        with mock.patch("rdslab.harness._run_trials") as trials:
            assert main(["tail", "--config", cfg]) == 2
        assert "'lnn'" in capsys.readouterr().err
        assert trials.call_count == 0


# the selector that bounds each tail observable, with its inputs beyond
# CONTRACTION (a corr-sum run must restate its params' epsilon, here 0.5)
PAIRED = {"birkhoff": ("lln", {}), "sync": ("sync", {}),
          "kappa-to-stationary": ("empirical-kappa", {}),
          "kappa-interval": ("interval-kappa", {}), "corr-sum": ("corrdim", {"epsilon": 0.5}),
          "lyap-1d": ("circle-lyap", {"m_nu": 0.5, "M_nu": 1.0}),
          "lyap-projective": ("projective-lyap", {"C": 3.0}),
          "lyap-matrix-norm": ("matrix-norm", {"C": 3.0})}


def observable_doc(observable, system=HALVING_ATOMS, params=None):
    bound, inputs = PAIRED.get(observable, ("lln", {}))
    return {"system": system, "observable": observable, "params": params or {}, "n": 40,
            "t_ladder": [0.5], "trials": 100, "bound": bound,
            "inputs": dict(CONTRACTION, **inputs)}


PROJECTIVE_ATOMS = projective_system(MATRICES_2)
MIXED_SIZES = {"kind": "atoms", "atoms": [
    [{"kind": "projective", "matrix": MATRICES_2[0]}, 0.5],
    [{"kind": "projective", "matrix": MATRICES_3[0]}, 0.5]]}
ONE_D_KINDS = ("birkhoff", "lyap-1d", "sync", "kappa-to-stationary", "kappa-interval",
               "corr-sum")


class TestObservableChecks:
    """A missing observable parameter or a system the observable cannot run
    on is exit 2, named on stderr, before any context is built or drawn."""

    @pytest.mark.parametrize("doc, named", [
        pytest.param(observable_doc("corr-sum"), "'epsilon'", id="corr-sum-epsilon"),
        pytest.param(observable_doc("sync", params={"x0": 0.25}), "'B'", id="sync-B"),
        # present with a value the engine cannot use
        pytest.param(observable_doc("sync", params={"B": []}), "'B'", id="sync-B-empty"),
        pytest.param(observable_doc("sync", params={"B": 0.5}), "'B'", id="sync-B-scalar"),
        # candidates outside the interval, as orbit_start checks x0
        pytest.param(observable_doc("sync", {"kind": "moebius-two-atom"}, {"B": [-1.0, 0.5]}),
                     "'B'", id="sync-B-below"),
        pytest.param(observable_doc("sync", params={"B": [0.5, 1.5]}), "'B'", id="sync-B-above"),
        pytest.param(observable_doc("sync", params={"B": [0.5, float("nan")]}), "'B'",
                     id="sync-B-nan"),
        pytest.param(observable_doc("sync", CIRCLE_CHART, {"B": [0.5, float("inf")]}), "'B'",
                     id="sync-B-circle-inf"),
        pytest.param(observable_doc("corr-sum", params={"epsilon": 0}), "'epsilon'",
                     id="corr-sum-epsilon-zero"),
        pytest.param(observable_doc("corr-sum", params={"epsilon": [0.1]}), "'epsilon'",
                     id="corr-sum-epsilon-list"),
        pytest.param(observable_doc("birkof"), "'birkof'", id="unknown"),
        *[pytest.param(observable_doc(kind, PROJECTIVE_ATOMS, {"B": [0.5], "epsilon": 0.5}),
                       "Projective", id=f"{kind}-projective-space") for kind in ONE_D_KINDS],
        # projective-chart maps on the default interval
        pytest.param(observable_doc("birkhoff", dict(PROJECTIVE_ATOMS, space=None)),
                     "projective action", id="birkhoff-projective-maps"),
        *[pytest.param(observable_doc(kind, system), "ProjectiveAction", id=f"{kind}-{tag}")
          for kind in ("lyap-projective", "lyap-matrix-norm")
          for tag, system in (("affine", HALVING_ATOMS), ("parametric", {"kind": "moebius-uniform"}),
                              ("mixed-sizes", MIXED_SIZES))],
    ])
    def test_fails_before_drawing(self, tmp_path, capsys, doc, named):
        with mock.patch("rdslab.estimators.draw_word") as draw, \
                mock.patch("rdslab.harness._build_context") as context:
            assert main(["tail", "--config", write_cfg(tmp_path, doc)]) == 2
        assert named in capsys.readouterr().err
        draw.assert_not_called()
        context.assert_not_called()

    @pytest.mark.parametrize("command", ["lyap", "simulate", "corr-dim"])
    @pytest.mark.parametrize("system", [HALVING_ATOMS, {"kind": "moebius-uniform"}, MIXED_SIZES],
                             ids=["affine", "parametric", "mixed-sizes"])
    def test_orbit_commands_reject_non_cocycle(self, tmp_path, capsys, command, system):
        # the orbit start of a cocycle rate reads the same check as tail
        doc = observable_doc("lyap-projective", system)
        with mock.patch("rdslab.harness.simulate") as orbit, \
                mock.patch("rdslab.harness.lyapunov_projective") as cocycle:
            assert main([command, "--config", write_cfg(tmp_path, doc)]) == 2
        assert "ProjectiveAction" in capsys.readouterr().err
        orbit.assert_not_called()
        cocycle.assert_not_called()


class TestReference:
    """``params.reference`` of the kappa observables."""

    @pytest.mark.parametrize("reference", [{"kind": "lebesge"}, {"atoms": 64}, "lebesgue"],
                             ids=["misspelt-kind", "no-kind", "not-an-object"])
    def test_unknown_kind_fails_before_drawing(self, tmp_path, capsys, reference):
        doc = observable_doc("kappa-to-stationary", params={"reference": reference})
        with mock.patch("rdslab.estimators.draw_word") as draw, \
                mock.patch("rdslab.harness.stationary_approx") as simulated:
            assert main(["tail", "--config", write_cfg(tmp_path, doc)]) == 2
        assert "'reference'" in capsys.readouterr().err
        draw.assert_not_called()
        simulated.assert_not_called()

    def test_lebesgue_on_the_circle(self, tmp_path):
        # the k midpoints of [0, 1), the circle's coordinates
        doc = observable_doc("kappa-interval", CIRCLE_CHART,
                             {"x0": 0.3, "reference": {"kind": "lebesgue", "atoms": 64}})
        out = tmp_path / "r.json"
        with mock.patch("rdslab.harness.stationary_approx") as simulated:
            code = main(["tail", "--config", write_cfg(tmp_path, doc), "--out", str(out),
                         "--format", "json"])
        assert code == 0
        simulated.assert_not_called()
        report = json.loads(out.read_text())
        assert report["provenance"]["reference"] == "analytic"
        # a circle distance is at most 1/2
        assert 0.0 < report["center"] < 0.5


class TestCounts:
    """Integer parameters are integral numbers, not bools, at or above their
    minimum: anything else exits 2 naming the key before any draw, where a
    truncating ``int()`` ran 3.9 rungs as 3."""

    @pytest.mark.parametrize("command, params, named", [
        pytest.param("corr-dim", {"rungs": 3.9}, "'rungs'", id="rungs-fraction"),
        pytest.param("corr-dim", {"rungs": "abc"}, "'rungs'", id="rungs-string"),
        pytest.param("corr-dim", {"rungs": float("inf")}, "'rungs'", id="rungs-inf"),
        pytest.param("lambda", {"n_ladder": [10.7]}, "'n_ladder'", id="lambda-rung-fraction"),
        pytest.param("lambda", {"n_ladder": [10, True]}, "'n_ladder'", id="lambda-rung-bool"),
        pytest.param("lambda", {"n_ladder": "10"}, "'n_ladder'", id="lambda-ladder-string"),
        pytest.param("lambda", {"n_ladder": [10], "grid": 8.5}, "'grid'", id="grid-fraction"),
        pytest.param("lambda", {"n_ladder": [10], "grid": 1}, "'grid'", id="grid-one"),
        pytest.param("asclt", {"n_ladder": [64.5]}, "'n_ladder'", id="asclt-rung-fraction"),
        pytest.param("asclt", {"n_ladder": [0, 64]}, "'n_ladder'", id="asclt-rung-zero"),
        pytest.param("asclt", {"n_ladder": [64], "sigma_n": 100.5}, "'sigma_n'",
                     id="sigma_n-fraction"),
        pytest.param("asclt", {"n_ladder": [64], "sigma_n": True}, "'sigma_n'",
                     id="sigma_n-bool"),
        pytest.param("asclt", {"n_ladder": [64], "sigma_trials": "4000"}, "'sigma_trials'",
                     id="sigma_trials-string"),
    ])
    def test_params_fail_before_drawing(self, tmp_path, capsys, command, params, named):
        doc = dict(TAIL_DOC, observable="asclt-kappa", params=params)
        fails_before_drawing(tmp_path, capsys, command, doc, named)

    @pytest.mark.parametrize("reference, named", [
        ({"kind": "lebesgue", "atoms": 0}, "'atoms'"),
        ({"kind": "lebesgue", "atoms": 64.5}, "'atoms'"),
        ({"kind": "simulate", "burn_in": -1}, "'burn_in'"),
        ({"kind": "simulate", "samples": 1.5}, "'samples'"),
        ({"kind": "simulate", "stride": 0}, "'stride'"),
        ({"kind": "simulate", "stride": False}, "'stride'"),
    ], ids=["atoms-zero", "atoms-fraction", "burn_in-negative", "samples-fraction",
            "stride-zero", "stride-bool"])
    def test_reference_fails_before_drawing(self, tmp_path, capsys, reference, named):
        doc = observable_doc("kappa-to-stationary", params={"reference": reference})
        fails_before_drawing(tmp_path, capsys, "tail", doc, named)

    @pytest.mark.parametrize("m", [2.5, 1, True, "2"])
    def test_projective_dimension_fails_before_drawing(self, tmp_path, capsys, m):
        system = dict(PROJECTIVE_ATOMS, space={"kind": "projective", "m": m})
        fails_before_drawing(tmp_path, capsys, "simulate", dict(TAIL_DOC, system=system), "'m'")

    @pytest.mark.parametrize("command, ints, floats", [
        ("corr-dim", {"rungs": 4}, {"rungs": 4.0}),
        ("lambda", {"n_ladder": [0, 10], "grid": 8}, {"n_ladder": [0.0, 10.0], "grid": 8.0}),
        ("asclt", {"n_ladder": [64], "sigma_n": 50, "sigma_trials": 500},
         {"n_ladder": [64.0], "sigma_n": 50.0, "sigma_trials": 500.0}),
    ], ids=["corr-dim", "lambda", "asclt"])
    def test_integral_floats_give_the_same_bytes(self, tmp_path, command, ints, floats):
        outputs = []
        for name, params in (("ints", ints), ("floats", floats)):
            out = tmp_path / f"{name}.csv"
            doc = dict(TAIL_DOC, observable="asclt-kappa", params=params)
            assert main([command, "--config", write_cfg(tmp_path, doc, f"{name}.json"),
                         "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestConfigNumbers:
    """``n``, ``trials`` and ``seed``, ``params.ceiling`` and the bound inputs
    are checked numbers: anything else exits 2 naming the key before any
    draw, where numpy raised a TypeError or ``float()`` read true as 1.0."""

    LAMBDA = {"n_ladder": [10], "grid": 8}

    @pytest.mark.parametrize("command, doc, named", [
        pytest.param("simulate", dict(TAIL_DOC, n=20.5), "'n'", id="n-fraction"),
        pytest.param("simulate", dict(TAIL_DOC, n=True), "'n'", id="n-bool"),
        pytest.param("tail", dict(TAIL_DOC, trials=150.5), "'trials'", id="trials-fraction"),
        pytest.param("simulate", dict(TAIL_DOC, seed=2.5), "'seed'", id="seed-fraction"),
        pytest.param("simulate", dict(TAIL_DOC, seed=-1), "'seed'", id="seed-negative"),
        pytest.param("lambda", dict(TAIL_DOC, params=dict(LAMBDA, ceiling=None)), "'ceiling'",
                     id="ceiling-null"),
        pytest.param("lambda", dict(TAIL_DOC, params=dict(LAMBDA, ceiling="abc")), "'ceiling'",
                     id="ceiling-string"),
        pytest.param("lambda", dict(TAIL_DOC, params=dict(LAMBDA, ceiling=0)), "'ceiling'",
                     id="ceiling-zero"),
        pytest.param("tail", dict(TAIL_DOC, inputs={"lambda_nu": None}), "'lambda_nu'",
                     id="lambda_nu-null"),
        pytest.param("tail", dict(TAIL_DOC, inputs={"lambda_nu": "abc"}), "'lambda_nu'",
                     id="lambda_nu-string"),
        pytest.param("tail", dict(TAIL_DOC, inputs={"lambda_nu": True}), "'lambda_nu'",
                     id="lambda_nu-bool"),
        pytest.param("bounds", dict(TAIL_DOC, inputs={"gee_inf": float("inf")}), "'gee_inf'",
                     id="gee_inf-inf"),
        pytest.param("tail", dict(TAIL_DOC, system=projective_system(MATRICES_3),
                                  observable="lyap-matrix-norm", bound="matrix-norm",
                                  inputs=dict(MATRIX_INPUTS, m_dim=2.5)), "'m_dim'",
                     id="m_dim-fraction"),
        pytest.param("tail", dict(TAIL_DOC, bound="refined", inputs={"u": [0.5, None]}), "'u'",
                     id="u-null-entry"),
        # ranges, where lln and sync wrote bound 0, a negative threshold and
        # fail on every row
        pytest.param("tail", dict(TAIL_DOC, inputs={"lambda_nu": -0.5, "gee_inf": 0.5}),
                     "'lambda_nu'", id="lambda_nu-negative-lln"),
        pytest.param("tail", dict(TAIL_DOC, bound="sync", inputs={"lambda_nu": -1}),
                     "'lambda_nu'", id="lambda_nu-negative-sync"),
        # checks that relate two inputs
        *[pytest.param(command, dict(bound_doc(selector), inputs=dict(
            BOUND_DOCS[selector][0], **inputs)), named, id=f"{tag}-{command}")
          for selector, inputs, named, tag in (
              ("interval-kappa", {"a": 1.0, "b": 1.0}, "'interval-kappa' needs 'a' < 'b'",
               "b-not-above-a"),
              ("circle-lyap", {"m_nu": 1.5}, "'circle-lyap' needs 'm_nu' <= 'M_nu'",
               "m_nu-above-M_nu"),
              ("refined", {"u": [0.5] * 39}, "'refined' input 'u' needs n = 40 values, got 39",
               "u-length"))
          for command in ("tail", "bounds")],
        # t_ladder entries, where [null] ended in a TypeError and true read as 1.0
        pytest.param("bounds", dict(TAIL_DOC, t_ladder=[None]), "'t_ladder'", id="t-null"),
        pytest.param("bounds", dict(TAIL_DOC, t_ladder=[None, 1]), "'t_ladder'",
                     id="t-null-first"),
        pytest.param("tail", dict(TAIL_DOC, t_ladder=["a"]), "'t_ladder'", id="t-string"),
        pytest.param("bounds", dict(TAIL_DOC, t_ladder=[True, 2]), "'t_ladder'", id="t-bool"),
        pytest.param("bounds", dict(TAIL_DOC, t_ladder=0.1), "'t_ladder'", id="t-scalar"),
        # where lln gave rows and theorem-a and circle-lyap exited naming no key
        *[pytest.param("tail", dict(bound_doc(selector), t_ladder=[-0.1, 0.1]), "'t_ladder'",
                       id=f"t-negative-{selector}") for selector in BOUND_DOCS],
        # strings read before any lookup, where a list or an object ended in
        # a TypeError traceback
        pytest.param("tail", dict(TAIL_DOC, observable=["birkhoff"]), "'observable'",
                     id="observable-list"),
        *[pytest.param(command, dict(TAIL_DOC, bound=["lln"]), "'bound'",
                       id=f"bound-list-{command}") for command in ("tail", "bounds")],
        *[pytest.param(command, dict(TAIL_DOC, observable=observable, params={"h": h}), "'h'",
                       id=f"h-{tag}-{command}")
          for command, observable in (("tail", "birkhoff"), ("asclt", "asclt-kappa"))
          for tag, h in (("list", ["coordinate"]), ("object", {}))],
    ])
    def test_fails_before_drawing(self, tmp_path, capsys, command, doc, named):
        fails_before_drawing(tmp_path, capsys, command, doc, named)

    @staticmethod
    def _atom(m, w=1.0):
        return {"kind": "atoms", "atoms": [[m, w]]}

    # numbers of a system block, where float() read true as 1.0 and a
    # string exited naming no key
    @pytest.mark.parametrize("system, named", [
        pytest.param(_atom({"kind": "moebius", "alpha": True}), "'alpha'", id="moebius-bool"),
        pytest.param(_atom({"kind": "polynomial", "alpha": "1.3"}), "'alpha'",
                     id="polynomial-string"),
        pytest.param(_atom({"kind": "affine", "slope": None, "offset": 0.0}), "'slope'",
                     id="slope-null"),
        pytest.param(_atom({"kind": "affine", "slope": 0.5, "offset": float("nan")}), "'offset'",
                     id="offset-nan"),
        pytest.param(_atom({"kind": "moebius", "alpha": 1.0}, "abc"), "'atoms' weight",
                     id="weight-string"),
        pytest.param(_atom({"kind": "moebius", "alpha": 1.0}, False), "'atoms' weight",
                     id="weight-bool"),
        pytest.param(dict(_atom({"kind": "moebius", "alpha": 1.0}),
                          space={"kind": "interval", "a": "x"}), "'a'", id="space-a-string"),
        pytest.param(dict(_atom({"kind": "moebius", "alpha": 1.0}),
                          space={"kind": "interval", "b": True}), "'b'", id="space-b-bool"),
        # projective matrix entries, where bools and numeric strings ran
        pytest.param(_atom({"kind": "projective", "matrix": [[True, 1], [0, True]],
                            "chart": "circle"}), "'matrix'", id="matrix-bool"),
        pytest.param(_atom({"kind": "projective", "matrix": [["2", 1], [1, 1]]}), "'matrix'",
                     id="matrix-string"),
        pytest.param(_atom({"kind": "projective", "matrix": [[2, 1], [1]]}), "'matrix'",
                     id="matrix-ragged"),
        pytest.param(_atom({"kind": "projective", "matrix": 1}), "'matrix'", id="matrix-scalar"),
        # the atoms list, where [map] exited naming no key, 5 ended in a
        # TypeError traceback and a missing key printed only its name
        pytest.param({"kind": "atoms", "atoms": [[{"kind": "moebius", "alpha": 1.0}]]},
                     "'atoms' entry 0 must be a [map, weight] pair", id="atom-without-weight"),
        pytest.param({"kind": "atoms", "atoms": 5}, "'atoms'", id="atoms-number"),
        pytest.param({"kind": "atoms", "atoms": []}, "'atoms'", id="atoms-empty"),
        pytest.param({"kind": "atoms", "atoms": [[{"kind": "moebius", "alpha": 1.0}, 0.5],
                                                 [{"kind": "affine", "slope": 0.5}, 0.5]]},
                     "'atoms' entry 1: map kind 'affine' needs 'offset'", id="affine-no-offset"),
        pytest.param(_atom({"kind": "mobius", "alpha": 1.0}), "'atoms' entry 0 needs a map 'kind'",
                     id="unknown-map-kind"),
        pytest.param({"kind": "moebius-uniform", "lo": True}, "'lo'", id="lo-bool"),
        pytest.param({"kind": "moebius-uniform", "hi": float("inf")}, "'hi'", id="hi-inf"),
        # an empty range, where numpy's uniform raised inside the first draw
        pytest.param({"kind": "moebius-uniform", "lo": 2, "hi": 1}, "lo <= hi", id="lo-above-hi"),
        pytest.param({"kind": "moebius-two-atom", "alpha1": None}, "'alpha1'", id="alpha1-null"),
        pytest.param({"kind": "moebius-two-atom", "alpha2": "2"}, "'alpha2'",
                     id="alpha2-string"),
        pytest.param({"kind": "moebius-two-atom", "weight1": True}, "'weight1'",
                     id="weight1-bool"),
        # ranges that a constructor checks, where the message named no block
        pytest.param({"kind": "moebius-two-atom", "weight1": 1.5},
                     "system 'moebius-two-atom': atom weights must be positive",
                     id="weight1-above-one"),
        pytest.param(_atom({"kind": "moebius", "alpha": 0.5}),
                     "system 'atoms' entry 0: MoebiusDecay needs alpha in [1.0, inf]",
                     id="moebius-alpha-below-one"),
        pytest.param(dict(_atom({"kind": "moebius", "alpha": 1.0}),
                          space={"kind": "interval", "a": 1, "b": 0}),
                     "system 'space': interval needs a < b", id="space-a-above-b"),
        pytest.param(_atom({"kind": "projective", "matrix": [[2, 0], [0, 1]]}),
                     "system 'atoms' entry 0: matrix must have determinant 1",
                     id="matrix-determinant-2"),
        pytest.param(_atom({"kind": "moebius", "alpha": 1.0}, 0.7),
                     "system 'atoms': atom weights must sum to 1", id="weights-sum-0.7"),
        pytest.param({"kind": "moebius-uniform", "lo": 0.5},
                     "system 'moebius-uniform': sampler needs 1.0 <= lo", id="lo-below-one"),
    ])
    @pytest.mark.parametrize("command", ["simulate", "tail"])
    def test_system_numbers_fail_before_drawing(self, tmp_path, capsys, command, system, named):
        fails_before_drawing(tmp_path, capsys, command, dict(TAIL_DOC, system=system), named)

    def test_one_point_range(self, tmp_path):
        # lo == hi draws every map at alpha = lo
        out = tmp_path / "s.csv"
        doc = dict(TAIL_DOC, system={"kind": "moebius-uniform", "lo": 1.5, "hi": 1.5}, n=2)
        assert main(["simulate", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        assert float(out.read_text().split("\n")[2].split(",")[1]) == 0.5 / (1.0 + 1.5 * 0.5)

    def test_integral_system_numbers_give_the_same_bytes(self, tmp_path):
        outputs = []
        for name, (alpha, weight) in (("ints", (1, 1)), ("floats", (1.0, 1.0))):
            out = tmp_path / f"{name}.csv"
            system = self._atom({"kind": "moebius", "alpha": alpha}, weight)
            cfg = write_cfg(tmp_path, dict(TAIL_DOC, system=system), f"{name}.json")
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["simulate", "tail"])
    def test_integral_floats_give_the_same_bytes(self, tmp_path, command):
        outputs = []
        for name, numbers in (("ints", {"n": 20, "trials": 150, "seed": 2}),
                              ("floats", {"n": 20.0, "trials": 150.0, "seed": 2.0})):
            out = tmp_path / f"{name}.csv"
            cfg = write_cfg(tmp_path, dict(TAIL_DOC, **numbers), f"{name}.json")
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def without_space(system):
    return {k: v for k, v in system.items() if k != "space"}


class TestSupportSpace:
    """An atoms system without a ``space`` block lives where its maps act:
    it gives the bytes of the same config naming that space, or the exit of
    that config, and a space that a chart matrix does not fit, named or
    taken from the first map, exits 2 naming 'space' before any draw."""

    @pytest.mark.parametrize("command, doc", [
        pytest.param("corr-dim", dict(TAIL_DOC, system=CIRCLE_CHART, n=2000, seed=3,
                                      params={"x0": 0.3, "epsilon0": 0.1}), id="corr-dim-circle"),
        pytest.param("lambda", dict(TAIL_DOC, system=CIRCLE_CHART, seed=4,
                                    params={"n_ladder": [10], "grid": 16}), id="lambda-circle"),
        # B - x0 = 0.55, farther apart on the interval than on the circle
        pytest.param("tail", dict(observable_doc("sync", CIRCLE_CHART, {"B": [0.85], "x0": 0.3}),
                                  t_ladder=[0.01, 0.02], bound="sync",
                                  inputs={"lambda_nu": 0.01, "gee_inf": 0.5, "muB": 1.0}),
                     id="tail-sync-circle"),
        pytest.param("simulate", dict(TAIL_DOC, system=PROJECTIVE_ATOMS), id="simulate-projective"),
        pytest.param("corr-dim", dict(TAIL_DOC, system=PROJECTIVE_ATOMS, n=300,
                                      params={"epsilon0": 0.2, "rungs": 3}),
                     id="corr-dim-projective"),
        pytest.param("lyap", dict(TAIL_DOC, system=PROJECTIVE_ATOMS, observable="lyap-projective"),
                     id="lyap-projective"),
    ])
    def test_bytes_of_the_named_space(self, tmp_path, command, doc):
        outputs = []
        for name, system in (("named", doc["system"]), ("unnamed", without_space(doc["system"]))):
            out = tmp_path / f"{name}.csv"
            cfg = write_cfg(tmp_path, dict(doc, system=system), f"{name}.json")
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] and outputs[0].count(b"\n") > 1

    @pytest.mark.parametrize("command, doc", [
        ("lambda", dict(TAIL_DOC, params={"n_ladder": [10], "grid": 8})),
        ("asclt", dict(TAIL_DOC, observable="asclt-kappa", params={"n_ladder": [64]})),
        ("tail", dict(TAIL_DOC, inputs=CONTRACTION)),
    ], ids=["lambda", "asclt", "tail-birkhoff"])
    def test_projective_maps_need_a_one_dimensional_command(self, tmp_path, capsys, command, doc):
        doc = dict(doc, system=without_space(PROJECTIVE_ATOMS))
        fails_before_drawing(tmp_path, capsys, command, doc, "Projective(m=2)")

    @pytest.mark.parametrize("command", ["simulate", "lambda", "tail"])
    @pytest.mark.parametrize("system", [
        dict(CIRCLE_CHART, space={"kind": "interval"}),
        dict(CIRCLE_CHART, space={"kind": "projective", "m": 2}),
        dict(PROJECTIVE_ATOMS, space={"kind": "projective", "m": 3}),
        dict(PROJECTIVE_ATOMS, space={"kind": "circle"}),
        # no space block: the first map puts the system on [0, 1]
        {"kind": "atoms", "atoms": [[{"kind": "moebius", "alpha": 1.0}, 0.5],
                                    [{"kind": "projective", "matrix": MATRICES_2[0]}, 0.5]]},
    ], ids=["circle-chart-on-interval", "circle-chart-on-projective", "2x2-on-projective-3",
            "projective-chart-on-circle", "matrix-after-a-moebius-map"])
    def test_space_a_chart_does_not_fit(self, tmp_path, capsys, command, system):
        doc = dict(TAIL_DOC, system=system, params={"n_ladder": [10], "grid": 8})
        fails_before_drawing(tmp_path, capsys, command, doc, "'space'")


MOEBIUS_ONE_ATOM = {"kind": "atoms", "atoms": [[{"kind": "moebius", "alpha": 1.0}, 1.0]]}
START_COMMANDS = ("simulate", "lyap", "corr-dim", "asclt", "tail")


class TestStarts:
    """``params.x0`` and ``params.start`` are checked before any draw."""

    @pytest.mark.parametrize("command", START_COMMANDS)
    @pytest.mark.parametrize("system, x0", [
        # 1 + x = 0 at x = -1: the orbit would be -inf, then nan
        (MOEBIUS_ONE_ATOM, -1.0),
        ({"kind": "halving-ifs"}, 1.5),
        ({"kind": "moebius-two-atom"}, float("nan")),
        (HALVING_ATOMS, float("inf")),
        ({"kind": "halving-ifs"}, "0.5"),
        ({"kind": "halving-ifs"}, True),
        (CIRCLE_CHART, float("-inf")),
    ], ids=["moebius-pole", "above", "nan", "inf", "string", "bool", "circle-inf"])
    def test_bad_x0(self, tmp_path, capsys, command, system, x0):
        doc = dict(TAIL_DOC, system=system, inputs=CONTRACTION,
                   params={"h": "coordinate", "x0": x0, "n_ladder": [64]})
        if command == "asclt":
            doc["observable"] = "asclt-kappa"
        fails_before_drawing(tmp_path, capsys, command, doc, "'x0'")

    @pytest.mark.parametrize("command, observable", [
        ("simulate", "birkhoff"), ("corr-dim", "birkhoff"), ("lyap", "lyap-projective"),
        ("tail", "lyap-projective")])
    @pytest.mark.parametrize("start", [[0.0, 0.0], [1.0], [1.0, 0.0, 0.0], [float("nan"), 1.0],
                                       [1.0, float("inf")], "e1", [[1.0, 0.0]], 1.0],
                             ids=["zero", "short", "long", "nan", "inf", "string", "nested",
                                  "scalar"])
    def test_bad_start(self, tmp_path, capsys, command, observable, start):
        doc = dict(TAIL_DOC, system=projective_system(MATRICES_2), observable=observable,
                   bound="projective-lyap", inputs=MATRIX_INPUTS, params={"start": start})
        fails_before_drawing(tmp_path, capsys, command, doc, "'start'")

    @staticmethod
    def _run(tmp_path, command, start, observable="birkhoff"):
        """The CSV of ``command`` on the two-matrix projective system at n = 10."""
        out = tmp_path / f"{command}.csv"
        doc = dict(TAIL_DOC, system=projective_system(MATRICES_2), n=10, observable=observable,
                   params={"start": start, "epsilon0": 0.5, "rungs": 3})
        assert main([command, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        return out.read_text()

    def test_simulate_starts_on_the_space(self, tmp_path):
        row = self._run(tmp_path, "simulate", [-3, 4]).split("\n")[1]
        assert row == "0,0.59999999999999998,-0.80000000000000004"
        assert np.array_equal([float(v) for v in row.split(",")[1:]],
                              canonical_direction([-3.0, 4.0]))

    def test_corr_dim_measures_from_the_unit_start(self, tmp_path):
        assert (self._run(tmp_path, "corr-dim", [1000, 0])
                == self._run(tmp_path, "corr-dim", [1, 0]))

    def test_projective_lyap_takes_a_cocycle_rate(self, tmp_path, capsys):
        # a projective orbit has no log-derivative record: its rates are the cocycle's
        doc = dict(TAIL_DOC, system=projective_system(MATRICES_2), n=10)
        with mock.patch("rdslab.harness.lyapunov_projective") as cocycle:
            fails_before_drawing(tmp_path, capsys, "lyap", doc, "'observable'")
        cocycle.assert_not_called()

    def test_lyap_rate_ignores_the_start_norm(self, tmp_path):
        # a raw start of norm 1000 would add log(1000) / n to the rate
        rates = self._run(tmp_path, "lyap", [1000, 0], "lyap-projective")
        assert rates == self._run(tmp_path, "lyap", [1, 0], "lyap-projective")

    @pytest.mark.parametrize("x0, first", [(0, "0,0"), (1, "0,1")])
    def test_interval_endpoints(self, tmp_path, x0, first):
        out = tmp_path / "s.csv"
        doc = dict(TAIL_DOC, n=2, params={"x0": x0})
        assert main(["simulate", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        assert out.read_text().split("\n")[1] == first

    @pytest.mark.parametrize("x0", [1.7, -3.25])
    def test_circle_lift(self, tmp_path, x0):
        out = tmp_path / "s.csv"
        doc = dict(TAIL_DOC, system=CIRCLE_CHART, n=2, params={"x0": x0})
        assert main(["simulate", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        assert out.read_text().split("\n")[1] == f"0,{x0}"


@pytest.mark.parametrize("system, B", [({"kind": "halving-ifs"}, [0.0, 1.0]),
                                       (CIRCLE_CHART, [1.7, -3.25])],
                         ids=["interval-endpoints", "circle-lifts"])
def test_sync_candidates_in_the_space(tmp_path, system, B):
    doc = observable_doc("sync", system, {"B": B, "x0": 0.25})
    out = tmp_path / "r.csv"
    assert main(["tail", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
    assert "nan" not in out.read_text()


def test_asclt_rejects_projective_systems(tmp_path, capsys):
    doc = dict(TAIL_DOC, system=projective_system(MATRICES_2), observable="asclt-kappa")
    fails_before_drawing(tmp_path, capsys, "asclt", doc, "Projective(m=2)")


@pytest.mark.parametrize("command", ["tail", "bounds"])
def test_empty_t_ladder(tmp_path, capsys, command):
    fails_before_drawing(tmp_path, capsys, command, dict(TAIL_DOC, t_ladder=[]), "'t_ladder'")


@pytest.mark.parametrize("command, doc, named", [
    # epsilon0 halved rungs - 1 times reaches 0
    pytest.param("corr-dim", dict(TAIL_DOC, params={"epsilon0": 5e-324}), "'epsilon0'",
                 id="corr-dim-subnormal-epsilon0"),
    pytest.param("corr-dim", dict(TAIL_DOC, params={"rungs": 2000}), "'epsilon0'",
                 id="corr-dim-2000-rungs"),
    pytest.param("tail", dict(observable_doc("corr-sum", params={"epsilon": 0.5}), n=1), "'n'",
                 id="corr-sum-one-point"),
    # no pair, so no epsilon0 gives a positive correlation sum
    pytest.param("corr-dim", dict(TAIL_DOC, n=1), "'n'", id="corr-dim-one-point"),
    # no longer a config field
    pytest.param("tail", dict(TAIL_DOC, threads=1), "'threads'", id="threads"),
])
def test_refused_before_drawing(tmp_path, capsys, command, doc, named):
    fails_before_drawing(tmp_path, capsys, command, doc, named)


# a restated bound input that contradicts the run: matrix-norm's m_dim (2
# by default) on 3x3 matrices, and a corrdim epsilon that is not the
# corr-sum kernel's
MATRIX_NORM_3 = dict(observable_doc("lyap-matrix-norm", projective_system(MATRICES_3)),
                     bound="matrix-norm", inputs=MATRIX_INPUTS)
CORR_SUM = dict(observable_doc("corr-sum", params={"epsilon": 0.05}), bound="corrdim",
                inputs=dict(CONTRACTION, epsilon=0.05))


@pytest.mark.parametrize("command, doc, named", [
    pytest.param(command, dict(MATRIX_NORM_3, inputs=inputs), "'m_dim'",
                 id=f"{command}-m_dim-{inputs.get('m_dim', 'default')}")
    for command in ("tail", "bounds")
    for inputs in (MATRIX_INPUTS, dict(MATRIX_INPUTS, m_dim=2), dict(MATRIX_INPUTS, m_dim=4))
] + [pytest.param(command, dict(CORR_SUM, inputs=dict(CONTRACTION, epsilon=0.5)), "'epsilon'",
                  id=f"{'bounds-' if command == 'bounds' else ''}corr-sum-epsilon")
       for command in ("tail", "bounds")])
def test_contradicted_bound_input(tmp_path, capsys, command, doc, named):
    fails_before_drawing(tmp_path, capsys, command, doc, named)


@pytest.mark.parametrize("command, doc", [
    ("tail", dict(MATRIX_NORM_3, inputs=dict(MATRIX_INPUTS, m_dim=3))),
    ("bounds", dict(MATRIX_NORM_3, inputs=dict(MATRIX_INPUTS, m_dim=3.0))),
    # 2x2 matrices, on the circle chart too, match the default
    ("tail", dict(MATRIX_NORM_3, system=projective_system(MATRICES_2))),
    ("tail", dict(MATRIX_NORM_3, system=CIRCLE_CHART)),
    # no matrices, so nothing to contradict
    ("bounds", dict(MATRIX_NORM_3, system={"kind": "halving-ifs"},
                    inputs=dict(MATRIX_INPUTS, m_dim=5))),
    ("tail", CORR_SUM),
    ("bounds", CORR_SUM),
], ids=["tail-m_dim-3", "bounds-m_dim-3", "tail-2x2", "tail-circle-chart", "bounds-no-matrices",
        "corr-sum-epsilon", "bounds-corr-sum-epsilon"])
def test_agreeing_bound_input_runs(tmp_path, command, doc):
    out = tmp_path / "r.csv"
    assert main([command, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
    assert out.read_text().startswith("t,")


@pytest.mark.parametrize("command", ["simulate", "lambda", "corr-dim", "lyap", "asclt", "bounds",
                                     "selftest"])
def test_json_is_for_tail_alone(tmp_path, capsys, command):
    # it used to be accepted and ignored, the output written as CSV
    fails_before_drawing(tmp_path, capsys, command, TAIL_DOC, "--format json",
                         flags=("--format", "json"))


@pytest.mark.parametrize("bug", [KeyError, ValueError, RuntimeError])
def test_a_bug_is_not_a_config_error(tmp_path, capsys, bug):
    # only a ConfigError exits 2; a bug propagates, so ``python -m
    # rdslab.cli`` prints its traceback and exits 1
    with mock.patch("rdslab.harness._run_trials", side_effect=bug("internal bug")):
        with pytest.raises(bug, match="internal bug"):
            main(["tail", "--config", write_cfg(tmp_path, TAIL_DOC)])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("flag", ["--grid", "--trials"])
def test_removed_flags(capsys, flag):
    # params.grid and trials stay config keys
    assert main(["lambda", flag, "8"]) == 2
    assert f"unrecognized arguments: {flag} 8" in capsys.readouterr().err


# values that are not an object, where "system": 5 and "space": 5 ended in
# a TypeError, "params": 5 in an AttributeError and a top level of [1, 2]
# in a TypeError once --seed was given
NOT_OBJECTS = {"number": 5, "list": [1, 2], "string": "abc", "null": None}
ALL_COMMANDS = ["simulate", "lambda", "tail", "corr-dim", "lyap", "asclt", "bounds", "selftest"]


def _blocks():
    """(command, doc with a bad block, named) for every block and every
    command that reads it."""
    readers = {"system": ALL_COMMANDS, "space": [c for c in ALL_COMMANDS if c != "selftest"],
               "params": ["simulate", "lambda", "tail", "corr-dim", "lyap", "asclt"],
               "inputs": ["tail", "bounds"]}
    for block, commands in readers.items():
        for kind, bad in NOT_OBJECTS.items():
            if block == "space":
                if bad is None:
                    continue  # a null space is no space block: the system's maps decide
                doc = dict(TAIL_DOC, system=dict(MOEBIUS_ONE_ATOM, space=bad))
            else:
                doc = dict(TAIL_DOC, **{block: bad})
            for command in commands:
                yield pytest.param(command, doc, f"'{block}' must be an object",
                                   id=f"{block}-{kind}-{command}")


class TestConfigObjects:
    """The config and its system, space, params and inputs blocks must be
    objects: anything else exits 2 naming the block before any draw."""

    @pytest.mark.parametrize("command, doc, named", list(_blocks()))
    def test_blocks_fail_before_drawing(self, tmp_path, capsys, command, doc, named):
        fails_before_drawing(tmp_path, capsys, command, doc, named)

    @pytest.mark.parametrize("flags", [(), ("--seed", "3")], ids=["no-seed", "seed"])
    @pytest.mark.parametrize("doc", list(NOT_OBJECTS.values()), ids=list(NOT_OBJECTS))
    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_top_level_fails_before_drawing(self, tmp_path, capsys, command, doc, flags):
        fails_before_drawing(tmp_path, capsys, command, doc, "config must be an object", flags)


@pytest.mark.parametrize("command", ["simulate", "tail"])
@pytest.mark.parametrize("system, named", [
    ({}, "config 'system' needs a system 'kind' of halving-ifs, moebius-uniform, "
         "moebius-two-atom, identity, atoms, got None"),
    (dict(MOEBIUS_ONE_ATOM, space={}),
     "system 'space' needs a space 'kind' of interval, circle, projective, got None"),
], ids=["system", "space"])
def test_block_without_kind(tmp_path, capsys, command, system, named):
    # where only "error: 'kind'" was printed
    fails_before_drawing(tmp_path, capsys, command, dict(TAIL_DOC, system=system), named)


# values fed to every key of every schema table
WALK_VALUES = {"bool": True, "null": None, "string": "abc", "nan": float("nan"), "negative": -1,
               "empty-list": []}
WALK_MAPS = {"moebius": {"alpha": 1.0}, "polynomial": {"alpha": 1.25},
             "affine": {"slope": 0.5, "offset": 0.0}, "projective": {"matrix": MATRICES_2[0]}}
WALK_PARAMS = {"lambda": {"n_ladder": [10], "grid": 8}, "asclt": {"n_ladder": [64]},
               "sync": {"B": [0.5]}, "corr-sum": {"epsilon": 0.5}}


def _placed(table, kind, key, value):
    """(command, config) of a config that runs, but for ``value`` at ``key``
    of the block that ``table[kind]`` reads."""
    if table == "CONFIG":
        return "tail", dict(TAIL_DOC, **{key: value})
    if table == "SYSTEMS":
        base = MOEBIUS_ONE_ATOM if kind == "atoms" else {}
        return "simulate", dict(TAIL_DOC, system=dict(base, kind=kind, **{key: value}))
    if table == "MAPS":
        m = dict(WALK_MAPS[kind], kind=kind, **{key: value})
        return "simulate", dict(TAIL_DOC, system={"kind": "atoms", "atoms": [[m, 1.0]]})
    if table == "SPACES":
        system = PROJECTIVE_ATOMS if kind == "projective" else MOEBIUS_ONE_ATOM
        return "simulate", dict(TAIL_DOC, system=dict(system, space={"kind": kind, key: value}))
    if table == "REFERENCES":
        reference = {"kind": kind, key: value}
        return "tail", observable_doc("kappa-to-stationary", params={"reference": reference})
    params = dict(WALK_PARAMS.get(kind, {}), **{key: value})
    if kind in ("lambda", "corr-dim", "asclt"):
        return kind, dict(TAIL_DOC, observable="asclt-kappa", params=params)
    return "tail", observable_doc(kind, params=params)


def _walk():
    """(command, config, named) for each value that the rule of a schema
    key rejects, on the unit interval of the configs that place it, and
    for each value that the rule of a bound input (``bounds._INPUTS``)
    rejects, under every key each selector reads it from."""
    tables = {"CONFIG": {"": C.CONFIG}, "SYSTEMS": C.SYSTEMS, "MAPS": C.MAPS,
              "SPACES": C.SPACES, "REFERENCES": C.REFERENCES, "PARAMS": C.PARAMS}
    for table, kinds in tables.items():
        for kind, keys in kinds.items():
            for key, ((_, test, _), _) in keys.items():
                for tag, value in WALK_VALUES.items():
                    if not test(value, Interval(0.0, 1.0)):
                        yield pytest.param(*_placed(table, kind, key, value), f"{key!r}",
                                           id=f"{table}-{kind}-{key}-{tag}")
    for selector, bound in B.BOUNDS.items():
        for name in list(inspect.signature(bound.formula).parameters)[2:]:
            _, test, _ = B._INPUTS[name]
            for key in B._ALTERNATIVES.get(name, (name,)):
                for tag, value in WALK_VALUES.items():
                    if not test(value, None):
                        doc = bound_doc(selector, DIAMETER_KEYS if key in DIAMETER_KEYS else ())
                        doc["inputs"][key] = value
                        yield pytest.param("tail", doc, f"input {key!r}",
                                           id=f"BOUNDS-{selector}-{key}-{tag}")


@pytest.mark.parametrize("command, doc, named", list(_walk()))
def test_schema_walk(tmp_path, capsys, command, doc, named):
    """Every key of every schema table and every bound input, fed each
    value its rule rejects, exits 2 naming the key before any draw."""
    fails_before_drawing(tmp_path, capsys, command, doc, named)


# a misspelt key in a block of each kind table: the examples that once ran
# on defaults, then a made-up key in every kind
MISSPELT = [("SYSTEMS", "moebius-uniform", "low"), ("MAPS", "affine", "slop"),
            ("SPACES", "interval", "A"), ("REFERENCES", "simulate", "burn-in"),
            *[(table, kind, "typo") for table in ("SYSTEMS", "MAPS", "SPACES", "REFERENCES")
              for kind in getattr(C, table)]]


@pytest.mark.parametrize("table, kind, key", MISSPELT,
                         ids=[f"{table}-{kind}-{key}" for table, kind, key in MISSPELT])
def test_unknown_key_in_a_kind_block(tmp_path, capsys, table, kind, key):
    """A key that the kind's table lacks exits 2 naming it before any draw,
    whatever its value."""
    command, doc = _placed(table, kind, key, 1.0)
    fails_before_drawing(tmp_path, capsys, command, doc, f"{kind!r} has no key {key!r}")


def test_no_rule_takes_a_bool_or_nan():
    # so the walk feeds each key at least these two values
    for kinds in (C.SYSTEMS, C.MAPS, C.SPACES, C.REFERENCES, C.PARAMS, {"": C.CONFIG}):
        for keys in kinds.values():
            for key, ((what, test, _), _) in keys.items():
                assert not test(True, None) and not test(float("nan"), None), (key, what)
    for key, (what, test, _) in B._INPUTS.items():
        assert not test(True, None) and not test(float("nan"), None), (key, what)


# systems whose maps leave their interval: one Moebius map around its pole
# at -1 (from the pole), and a doubling map on the default [0, 1] and on a
# named one
LEAVING = {
    "moebius-pole": (dict(MOEBIUS_ONE_ATOM, space={"kind": "interval", "a": -2.0, "b": 1.0}),
                     {"x0": -1.0}, "entry 0: MoebiusDecay(alpha=1.0) does not map "
                                   "Interval(a=-2.0, b=1.0)"),
    "doubling": ({"kind": "atoms", "atoms": [[{"kind": "affine", "slope": 2, "offset": 0}, 1.0]]},
                 {}, "entry 0: Affine(slope=2.0, offset=0.0) does not map Interval(a=0.0, b=1.0)"),
    "doubling-named-space": (
        {"kind": "atoms", "atoms": [[{"kind": "affine", "slope": 2, "offset": 0}, 1.0]],
         "space": {"kind": "interval", "a": 0.0, "b": 1.0}},
        {}, "entry 0: Affine(slope=2.0, offset=0.0) does not map Interval(a=0.0, b=1.0)"),
}


@pytest.mark.parametrize("case", LEAVING)
@pytest.mark.parametrize("command", ["simulate", "lyap", "corr-dim", "tail", "lambda", "asclt",
                                     "bounds"])
def test_maps_leaving_their_interval(tmp_path, capsys, command, case):
    """A system whose maps leave its interval exits 2 naming the system, the
    map and the space, before any draw."""
    system, params, named = LEAVING[case]
    doc = dict(TAIL_DOC, system=system, params=params, inputs=CONTRACTION)
    fails_before_drawing(tmp_path, capsys, command, doc, f"system 'atoms' {named}")


# the tail observables each selector bounds, as the README's table lists them
BOUNDED = {"theorem-a": ("birkhoff",), "refined": ("birkhoff",), "lln": ("birkhoff",),
           "sync": ("sync",), "empirical-kappa": ("kappa-to-stationary",),
           "interval-kappa": ("kappa-interval",), "corrdim": ("corr-sum",),
           "circle-lyap": ("lyap-1d",), "projective-lyap": ("lyap-projective",),
           "matrix-norm": ("lyap-matrix-norm",)}


@pytest.mark.parametrize("kind", H.ENGINES)
@pytest.mark.parametrize("selector", B.BOUNDS)
def test_selector_and_observable_pairs(tmp_path, capsys, selector, kind):
    """A tail runs exactly the pairs of ``BOUNDED``; any other pair exits 2
    naming the bound and the observable, before any draw."""
    system = projective_system(MATRICES_3) if kind in H.COCYCLE_KINDS else HALVING_ATOMS
    doc = dict(observable_doc(kind, system, {"B": [0.5], "epsilon": 0.25}), bound=selector,
               inputs=BOUND_DOCS[selector][0])
    if kind in BOUNDED[selector]:
        out = tmp_path / "r.csv"
        assert main(["tail", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        assert out.read_text().startswith("t,")
    else:
        fails_before_drawing(tmp_path, capsys, "tail", doc,
                             f"config 'bound' {selector!r} does not bound config "
                             f"'observable' {kind!r}")


@pytest.mark.parametrize("doc", [
    dict(TAIL_DOC, system={"kind": "halving-ifs"}, bound="matrix-norm", inputs={"C": 3}),
    dict(TAIL_DOC, system={"kind": "halving-ifs"}, observable="sync",
         params={"B": [0.0, 0.5, 1.0], "x0": 0.25}),
    # before the reference block is read
    dict(observable_doc("kappa-to-stationary", params={"reference": {"kind": "lebesge"}}),
         bound="lln"),
], ids=["birkhoff-matrix-norm", "sync-lln", "before-the-reference"])
def test_unpaired_bound_fails_before_drawing(tmp_path, capsys, doc):
    fails_before_drawing(tmp_path, capsys, "tail", doc, f"config 'bound' {doc['bound']!r}")
