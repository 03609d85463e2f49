"""Start-up cost: importing rdslab, building the CLI parser and building a
system load no part of scipy.  Only the runs that use it load it: the
Gaussian Kantorovich distance and the Wilson interval.  Each case runs in a
fresh interpreter, since this process has loaded scipy through other tests
already."""

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

FIRST_USE = f"""
import json, sys
from rdslab.measures import EmpiricalMeasure, kantorovich_gaussian
out = {{"before": {LOADED}}}
mu = EmpiricalMeasure(None, [-0.7, 0.1, 0.25, 1.3], [0.1, 0.2, 0.3, 0.4])
out["kappa"] = kantorovich_gaussian(mu, 0.8)
out["after_kappa"] = {LOADED}
print(json.dumps(out))
"""

# the value of the module-level scipy import this run used to make
KAPPA = 0.5800499025293653


def _run(code: str):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_start_up_loads_no_scipy():
    assert _run(START_UP) == []


def test_scipy_loads_on_first_use_with_the_same_values():
    out = _run(FIRST_USE)
    assert out["before"] == []
    assert "scipy.special" in out["after_kappa"]
    assert out["kappa"] == KAPPA
