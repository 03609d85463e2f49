"""rdslab benchmark: four closed-loop workloads driven through the CLI.

Usage, from the root of a checkout:

    python3 rdsbench/run.py --workload tail-battery --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (wall and CPU time of one warm
pass, set-up time, peak memory); ``--trace 1`` prints the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object.  ``--machine`` prints the machine description instead.
The program is imported from ``src/`` of the current directory; without
it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from jobs import WORKLOADS, all_job_names  # noqa: E402
from spans import LAYERS, parse_importtime, span_metric_units  # noqa: E402
import speed  # noqa: E402

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# a fresh interpreter's set-up: import, build the CLI parser, first system
SETUP_CODE = """\
import contextlib, io, time
t0 = time.perf_counter()
import rdslab, rdslab.cli, rdslab.harness
with contextlib.redirect_stdout(io.StringIO()):
    rdslab.cli.main(["--help"])
rdslab.harness.build_system({"kind": "halving-ifs"})
print(repr(time.perf_counter() - t0))
"""


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = span_metric_units()
    names += [(f"{m}.import_s", "s") for m in LAYERS]
    names += [(f"job.{j}.s", "s") for j in all_job_names()]
    names.append(("trace_overhead_s", "s"))
    return names


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    # one BLAS thread: the load never exceeds the job's own threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(cmd, env, timeout) -> subprocess.CompletedProcess:
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[:3]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def measure_setup(env) -> list[float]:
    """Set-up times, each scaled by the calibration runs around it."""
    out, before = [], speed.calibration_s()
    for _ in range(SETUP_REPEATS):
        secs = float(_run([sys.executable, "-c", SETUP_CODE], env, 120).stdout.strip())
        after = speed.calibration_s()
        out.append(secs * speed.scale(before, after))
        before = after
    return out


def measure_imports(env) -> dict[str, float]:
    runs = [parse_importtime(_run([sys.executable, "-X", "importtime", "-c",
                                   "import rdslab, rdslab.cli"], env, 120).stderr)
            for _ in range(IMPORT_REPEATS)]
    return {m: statistics.median(r.get(m, 0.0) for r in runs) for m in LAYERS}


def machine_info() -> dict:
    import numpy
    import scipy

    def cache(level):
        base = "/sys/devices/system/cpu/cpu0/cache"
        try:
            for idx in sorted(os.listdir(base)):
                with open(f"{base}/{idx}/level") as fh:
                    if fh.read().strip() == str(level):
                        with open(f"{base}/{idx}/size") as fh2:
                            return fh2.read().strip()
        except OSError:
            pass
        return "unknown"

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "l2": cache(2), "l3": cache(3), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": 1}


def _result(correct, attempted, failed, metrics) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--machine", action="store_true", help="print the machine description")
    p.add_argument("--capture-reference", action="store_true",
                   help="rewrite the default-seed reference outputs of every workload")
    args = p.parse_args(argv)

    if args.machine:
        info = machine_info()
        info["calibration_s"] = statistics.median(speed.calibration_s() for _ in range(9))
        print(json.dumps(info, indent=2))
        return 0
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rdslab", "__init__.py")):
        print(f"error: no rdslab sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.workload is None and not args.capture_reference:
        p.error("--workload is required")

    env = child_env(src)
    workdir = os.path.join(root, ".bench_build", f"rdsbench-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.capture_reference:
            return capture_reference(env, src, workdir)
        return run_workload(args, env, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _worker(args, env, src, workdir):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--src", src, "--workdir", workdir]
    return json.loads(_run(cmd, env, args.seconds + 150).stdout.strip().splitlines()[-1])


def capture_reference(env, src, workdir) -> int:
    from checks import DEFAULT_SEED, REFERENCE_PATH

    doc = {}
    for workload in ("tail-battery", "lambda-survey", "orbit-analysis"):
        path = os.path.join(workdir, f"{workload}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
               "--seed", str(DEFAULT_SEED), "--seconds", "0", "--src", src,
               "--workdir", workdir, "--capture", path]
        _run(cmd, env, 600)
        with open(path) as fh:
            doc[workload] = json.load(fh)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


def run_workload(args, env, src, workdir) -> int:
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("machine " + json.dumps(machine_info()))
    if args.trace:
        imports = measure_imports(env)
    else:
        setups = measure_setup(env)
    res = _worker(args, env, src, workdir)
    attempted = res["attempted"]
    failed = min(len(res["failures"]), attempted)
    for msg in res["failures"]:
        print(f"FAILED {msg}")
    print(f"passes {res['passes']}  wall_s quartiles {res['wall_q'][0]:.4f} "
          f"{res['wall_q'][1]:.4f} s  raw wall {res['raw_wall_s']:.4f} s  "
          f"calibration {res['calibration_s']:.4f} s (reference {speed.REFERENCE_S} s)")
    print(f"error_rate = {failed / attempted:.4g} ({failed}/{attempted} jobs)")

    if args.trace:
        layers = dict(res["layers"])
        for m in LAYERS:
            layers[f"{m}.import_s"] = imports[m]
        for name, secs in res["job_s"].items():
            layers[f"job.{name}.s"] = secs
        layers["trace_overhead_s"] = res["trace_overhead_s"]
        metrics = {name: (layers.get(name, 0), unit) for name, unit in per_layer_names()}
    else:
        values = {"wall_s": res["wall_s"], "cpu_s": res["cpu_s"],
                  "setup_s": statistics.median(setups), "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(_result(failed == 0, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
