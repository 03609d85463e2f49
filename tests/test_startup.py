"""Start-up cost: importing rdslab, building the CLI parser and building a
system load no part of scipy.  Only the runs that use it load it: the
Projective(m >= 3) grid, the Gaussian Kantorovich distance and the Wilson
interval.  Each case runs in a fresh interpreter, since this process has
loaded scipy through other tests already."""

import json
import os
import subprocess
import sys

import numpy as np

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
from rdslab.spaces import Projective, grid
out = {{"before": {LOADED}}}
mu = EmpiricalMeasure(None, [-0.7, 0.1, 0.25, 1.3], [0.1, 0.2, 0.3, 0.4])
out["kappa"] = kantorovich_gaussian(mu, 0.8)
out["after_kappa"] = {LOADED}
out["grid"] = grid(Projective(3), 16).tolist()
out["after_grid"] = {LOADED}
print(json.dumps(out))
"""

# values of the module-level scipy imports these runs used to make
KAPPA = 0.5800499025293653
GRID_P3_16 = [
    [0.56253282876682, 0.8046097659512312, -0.19015767430084063],
    [0.7884504649733852, 0.11772056332523884, -0.6037281948473509],
    [0.1581674470652419, -0.10404470243860604, 0.9819153520458501],
    [0.011881275077993567, -0.9028851583862831, 0.42971761200618397],
    [0.49194110989414047, 0.5461504292096254, 0.678021867693265],
    [0.22650215178562777, 0.9663849810340873, 0.12164227747057055],
    [0.6828798036964346, -0.7047554784045706, -0.19234055568772696],
    [0.7069075879653813, -0.3679571709823724, -0.6040605784187675],
    [0.9987165931426959, 0.04569721082568017, 0.021838761507930227],
    [0.5045615199234206, 0.7880373282744833, 0.3527248812581587],
    [0.0034380472753086284, -0.8407252668407449, -0.5414510185847756],
    [0.817411320745774, -0.0712890532808524, -0.5716262796609066],
    [0.11399952129344253, 0.5832101701945783, -0.804282292809233],
    [0.7331996979561708, 0.4137818264692583, -0.539632099676015],
    [0.8588322841794133, -0.27951173874798335, 0.42927880864684037],
    [0.3736035793272378, -0.42255642084868406, 0.8257520431179242],
]


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
    assert "scipy.stats" in out["after_grid"]
    assert out["kappa"] == KAPPA
    assert np.array_equal(np.array(out["grid"]), np.array(GRID_P3_16))
