"""Workload job lists: what each workload runs, built from the seed.

Every job is either a CLI invocation (``rdslab.cli.main`` in-process, with
its config written to a JSON file beforehand) or one library call.  Sizes
are fixed; only the random seeds (and so the orbits) change with the
benchmark seed, so the work done per pass is the same for every seed.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("tail-battery", "tail-threaded", "lambda-survey", "orbit-analysis")

# systems shared by several jobs; every matrix has determinant 1
HYPERBOLIC = [[2.0, 1.0], [1.0, 1.0]]
ROTATION = [[0.6, -0.8], [0.8, 0.6]]
HYPERBOLIC_3 = [[2.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
ROTATION_3 = [[1.0, 0.0, 0.0], [0.0, 0.6, -0.8], [0.0, 0.8, 0.6]]


def _matrix_system(a, b, chart, space):
    return {"kind": "atoms",
            "atoms": [[{"kind": "projective", "matrix": a, "chart": chart}, 0.5],
                      [{"kind": "projective", "matrix": b, "chart": chart}, 0.5]],
            "space": space}


CIRCLE_CHART = _matrix_system(HYPERBOLIC, ROTATION, "circle", {"kind": "circle"})
PROJECTIVE_2 = _matrix_system(HYPERBOLIC, ROTATION, "projective", {"kind": "projective", "m": 2})
PROJECTIVE_3 = _matrix_system(HYPERBOLIC_3, ROTATION_3, "projective", {"kind": "projective", "m": 3})
POLYNOMIAL = {"kind": "atoms",
              "atoms": [[{"kind": "polynomial", "alpha": 1.25}, 0.5],
                        [{"kind": "polynomial", "alpha": 1.5}, 0.5]]}


@dataclass(frozen=True)
class Job:
    """One unit of user work.

    ``command`` is the CLI subcommand for CLI jobs and None for library
    jobs; ``config`` is the experiment document (CLI) or the call's
    arguments (library).  ``rows`` is the number of data rows the output
    must have.
    """

    name: str
    command: str | None
    config: dict
    rows: int
    threads: int | None = None
    config_path: str | None = field(default=None, compare=False)

    def argv(self) -> list[str]:
        args = [self.command]
        if self.config_path is not None:
            args += ["--config", self.config_path]
        else:
            args += ["--seed", str(self.config["seed"])]
        if self.threads is not None:
            args += ["--threads", str(self.threads)]
        return args


def job_seeds(seed: int, names) -> dict[str, int]:
    """Independent per-job seeds derived from the benchmark seed."""
    rng = random.Random(seed)
    return {name: rng.randrange(2**31) for name in names}


def _tail(name, system, observable, bound, n, trials, t_ladder, params=None, inputs=None):
    cfg = {"system": system, "observable": observable, "params": params or {},
           "n": n, "t_ladder": t_ladder, "trials": trials, "bound": bound,
           "inputs": inputs or {}}
    return name, "tail", cfg, len(t_ladder)


def _tail_jobs():
    # bound ingredients are given explicitly so no job depends on defaults;
    # where the bound's threshold allows, the lowest t has an interior tail
    # frequency, so a change in any trial's draws changes the CSV
    halving = {"lambda_nu": 2.0, "gee_inf": 0.5}
    moebius = {"lambda_nu": 1.0 + math.log(61.0), "gee_inf": 0.5}
    matrix = {"lambda_nu": 2.0, "C": 3.0, "m_dim": 3}
    return [
        ("selftest", "selftest", {}, 3),
        _tail("tail-birkhoff-halving", {"kind": "halving-ifs"}, "birkhoff", "lln",
              200, 2000, [0.03, 0.1], {"h": "coordinate"}, halving),
        _tail("tail-birkhoff-moebius", {"kind": "moebius-uniform"}, "birkhoff", "lln",
              60, 8000, [0.2, 0.3], {"h": "coordinate"}, moebius),
        _tail("tail-lyap-1d", {"kind": "moebius-uniform"}, "lyap-1d", "circle-lyap",
              60, 8000, [0.001, 0.01],
              inputs=dict(moebius, m_nu=1.0 / 9.0, M_nu=1.0, gee_c1=1.0)),
        _tail("tail-kappa-stationary", {"kind": "moebius-two-atom"}, "kappa-to-stationary",
              "empirical-kappa", 60, 1500, [0.3, 0.5],
              {"reference": {"kind": "simulate", "burn_in": 200, "samples": 1000}}, moebius),
        _tail("tail-kappa-circle", CIRCLE_CHART, "kappa-interval", "interval-kappa",
              200, 300, [0.2, 0.35],
              {"x0": 0.3, "reference": {"kind": "simulate", "burn_in": 200, "samples": 1000}},
              {"lambda_nu": 0.1, "gee_inf": 0.5, "a": 0.0, "b": 1.0}),
        _tail("tail-sync", {"kind": "halving-ifs"}, "sync", "sync", 100, 1000, [0.2, 0.4],
              {"B": [0.0, 0.5, 1.0], "x0": 0.25}, dict(halving, muB=1.0)),
        _tail("tail-corr-sum", {"kind": "halving-ifs"}, "corr-sum", "corrdim", 200, 200,
              [0.2, 0.4], {"epsilon": 0.5}, dict(halving, epsilon=0.5)),
        _tail("tail-lyap-projective", PROJECTIVE_2, "lyap-projective", "projective-lyap",
              60, 100, [0.03, 0.1], inputs=matrix),
        _tail("tail-lyap-matrix-norm", PROJECTIVE_3, "lyap-matrix-norm", "matrix-norm",
              40, 100, [0.1, 0.3], inputs=matrix),
    ]


def _lambda_jobs():
    # the circle-chart maps cost about 4x per step, so that system runs a
    # shorter ladder and the order-preserving systems keep their share
    return [
        (f"lambda-{tag}", "lambda", {"system": system,
                                     "params": {"n_ladder": ladder, "grid": 64},
                                     "trials": 128, "t_ladder": [0.1]}, 2)
        for tag, system, ladder in (("moebius", {"kind": "moebius-uniform"}, [10, 40]),
                                    ("halving", {"kind": "halving-ifs"}, [10, 40]),
                                    ("polynomial", POLYNOMIAL, [10, 40]),
                                    ("circle", CIRCLE_CHART, [10, 20]))
    ]


def _orbit_jobs():
    rungs = 5
    corr = {"epsilon0": 0.1, "rungs": rungs}
    asclt = {"h": "centered", "n_ladder": [2**k for k in range(6, 13)],
             "sigma_n": 100, "sigma_trials": 2000}
    return [
        ("corrdim-interval", "corr-dim",
         {"system": {"kind": "halving-ifs"}, "n": 3000, "params": dict(corr)}, rungs),
        ("corrdim-circle", "corr-dim",
         {"system": CIRCLE_CHART, "n": 2000, "params": dict(corr, x0=0.3)}, rungs),
        ("corrdim-projective", None,
         {"system": PROJECTIVE_2, "n": 1500, "start": [1.0, 0.0],
          "ladder": [0.1 * 2.0**-j for j in range(rungs)]}, rungs),
        ("asclt-halving", "asclt",
         {"system": {"kind": "halving-ifs"}, "observable": "asclt-kappa",
          "params": dict(asclt), "trials": 100}, 7),
        ("asclt-moebius", "asclt",
         {"system": {"kind": "moebius-two-atom"}, "observable": "asclt-kappa",
          "params": dict(asclt), "trials": 100}, 7),
        ("lyap-circle", "lyap",
         {"system": CIRCLE_CHART, "observable": "lyap-1d", "n": 6000,
          "params": {"x0": 0.3}}, 1),
        ("lyap-projective", "lyap",
         {"system": PROJECTIVE_2, "observable": "lyap-projective", "n": 20000}, 1),
        ("simulate", "simulate",
         {"system": {"kind": "moebius-uniform"}, "n": 20000, "params": {"x0": 0.5}}, 20001),
    ]


def all_job_names() -> list[str]:
    """Job names of every workload (the two tail workloads share theirs)."""
    return [spec[0] for specs in (_tail_jobs(), _lambda_jobs(), _orbit_jobs())
            for spec in specs]


def build_jobs(workload: str, seed: int, threads: int, config_dir: str) -> list[Job]:
    """The workload's job list at ``seed``; CLI configs are written under
    ``config_dir``.  ``threads`` is the worker count of the tail jobs."""
    if workload in ("tail-battery", "tail-threaded"):
        specs = _tail_jobs()
    elif workload == "lambda-survey":
        specs = _lambda_jobs()
    elif workload == "orbit-analysis":
        specs = _orbit_jobs()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    seeds = job_seeds(seed, [s[0] for s in specs])
    tail_threads = threads if workload.startswith("tail-") else None
    jobs = []
    for name, command, cfg, rows in specs:
        cfg = dict(cfg, seed=seeds[name])
        path = None
        if command not in (None, "selftest"):
            path = os.path.join(config_dir, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
        jobs.append(Job(name, command, cfg, rows, tail_threads, path))
    return jobs
