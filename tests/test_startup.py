"""Start-up cost, and no scipy at run time: importing rdslab, building the
CLI parser and building a system load no part of scipy, and neither do
``selftest``, ``tail`` of every observable kind, whose Wilson intervals take
their z from ``bounds.Z95``, the Gaussian Kantorovich distance and
``asclt``, whose normal CDF and quantile are the Cephes port in
``rdslab.normal``.  Each case runs in a fresh interpreter, since this
process has loaded scipy through other tests already."""

import json
import os
import subprocess
import sys

import rdslab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(rdslab.__file__)))

LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"

START_UP = f"""
import contextlib, io, json, sys
import rdslab, rdslab.cli
from rdslab.harness import build_system
with contextlib.redirect_stdout(io.StringIO()):
    rdslab.cli.main(["--help"])
build_system({{"kind": "halving-ifs"}})
print(json.dumps({LOADED}))
"""

# the asclt-halving pin of tests/test_cli.py
ASCLT = {"system": {"kind": "halving-ifs"}, "observable": "asclt-kappa",
         "params": {"h": "centered", "n_ladder": [64, 256]}, "n": 50, "t_ladder": [0.1, 0.2],
         "trials": 200, "seed": 8, "bound": "lln"}
ASCLT_CSV = ("n,kappa,sigma2,degenerate\n"
             "64,0.24877999076741636,0.2504519552465031,false\n"
             "256,0.24749604543533027,0.2504519552465031,false\n")

GAUSSIAN = f"""
import contextlib, io, json, os, sys, tempfile
from rdslab.cli import main
from rdslab.measures import EmpiricalMeasure, kantorovich_gaussian
out = {{}}
mu = EmpiricalMeasure(None, [-0.7, 0.1, 0.25, 1.3], [0.1, 0.2, 0.3, 0.4])
out["kappa"] = kantorovich_gaussian(mu, 0.8)
with tempfile.TemporaryDirectory() as tmp:
    cfg, csv = os.path.join(tmp, "asclt.json"), os.path.join(tmp, "asclt.csv")
    with open(cfg, "w") as fh:
        json.dump({ASCLT!r}, fh)
    with contextlib.redirect_stderr(io.StringIO()):
        out["exit"] = main(["asclt", "--config", cfg, "--out", csv])
    with open(csv) as fh:
        out["csv"] = fh.read()
out["loaded"] = {LOADED}
print(json.dumps(out))
"""

# a small tail run of each observable kind: (system, params, bound, inputs)
MATRICES = [[{"kind": "projective", "matrix": [[2.0, 1.0], [1.0, 1.0]]}, 0.5],
            [{"kind": "projective", "matrix": [[0.6, -0.8], [0.8, 0.6]]}, 0.5]]
PROJECTIVE = {"kind": "atoms", "space": {"kind": "projective", "m": 2}, "atoms": MATRICES}
CIRCLE = {"kind": "atoms", "space": {"kind": "circle"},
          "atoms": [[dict(m, chart="circle"), w] for m, w in MATRICES]}
HALVING = {"kind": "halving-ifs"}
TAILS = {
    "birkhoff": (HALVING, {"h": "coordinate"}, "lln", {}),
    "lyap-1d": ({"kind": "moebius-uniform"}, {}, "circle-lyap", {"m_nu": 0.1, "M_nu": 1.0}),
    "sync": (HALVING, {"B": [0.0, 0.5, 1.0], "x0": 0.25}, "sync", {}),
    "kappa-to-stationary": ({"kind": "moebius-two-atom"},
                            {"reference": {"kind": "simulate", "samples": 200}},
                            "empirical-kappa", {}),
    "kappa-interval": (CIRCLE, {"x0": 0.3, "reference": {"kind": "simulate", "samples": 200}},
                       "interval-kappa", {"lambda_nu": 0.1}),
    "corr-sum": (HALVING, {"epsilon": 0.5}, "corrdim", {"epsilon": 0.5}),
    "lyap-projective": (PROJECTIVE, {}, "projective-lyap", {"C": 3.0}),
    "lyap-matrix-norm": (PROJECTIVE, {}, "matrix-norm", {"C": 3.0}),
}

RUNS = f"""
import contextlib, io, json, sys
from rdslab.cli import main
from rdslab.harness import ENGINES, ExperimentConfig, run_tail
tails = {TAILS!r}
out = {{"kinds": sorted(tails) == sorted(ENGINES)}}
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    out["selftest"] = main(["selftest", "--seed", "0"])
for kind, (system, params, bound, inputs) in tails.items():
    run_tail(ExperimentConfig(system=system, observable=kind, params=params, n=40,
                              t_ladder=[0.1, 0.2], trials=100, seed=1, bound=bound,
                              inputs=dict({{"lambda_nu": 2.0, "gee_inf": 0.5}}, **inputs)))
out["loaded"] = {LOADED}
print(json.dumps(out))
"""

# the value this distance took when scipy.special computed ndtr and ndtri
KAPPA = 0.5800499025293653


def _run(code: str):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_start_up_loads_no_scipy():
    assert _run(START_UP) == []


def test_selftest_and_every_tail_kind_load_no_scipy():
    assert _run(RUNS) == {"kinds": True, "selftest": 0, "loaded": []}


def test_gaussian_distance_and_asclt_load_no_scipy():
    assert _run(GAUSSIAN) == {"kappa": KAPPA, "exit": 0, "csv": ASCLT_CSV, "loaded": []}
