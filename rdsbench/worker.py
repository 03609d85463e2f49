"""One workload in a fresh interpreter: run the job list in a closed loop
(one client, jobs one after another), check every output, and print one
JSON document with the measurements.

Run by ``run.py``; not meant to be called by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import jobs as jobs_mod  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402


def _import_program(src: str):
    sys.path.insert(0, src)
    import rdslab
    import rdslab.cli
    import rdslab.chains
    import rdslab.estimators
    import rdslab.harness

    if not os.path.abspath(rdslab.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"rdslab imported from {rdslab.__file__}, not from {src}")
    # the benchmark's own call sites into the library, traced like any other
    return types.SimpleNamespace(
        main=rdslab.cli.main,
        build_system=rdslab.harness.build_system,
        simulate=rdslab.chains.simulate,
        correlation_dimension=rdslab.estimators.correlation_dimension,
    )


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _library_job(api, job) -> str:
    """Correlation dimension of a projective orbit through the library
    (``rdslab corr-dim`` cannot take a vector start)."""
    import numpy as np
    from rdslab.streams import SeededStream

    cfg = job.config
    spec = api.build_system(cfg["system"])
    traj = api.simulate(spec.nu, np.asarray(cfg["start"], dtype=float), cfg["n"],
                        SeededStream(cfg["seed"]), space=spec.space)
    slope, intercept, table = api.correlation_dimension(spec.space, traj.points[:-1],
                                                        cfg["ladder"])
    lines = ["epsilon,K,slope,intercept"]
    lines += [",".join(_fmt(v) for v in (e, k, slope, intercept)) for e, k in table]
    return "\n".join(lines) + "\n"


def run_job(api, job) -> tuple[str | None, str | None]:
    """(output, error): error is None when the job completed with exit 0."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job.command is None:
                return _library_job(api, job), None
            code = api.main(job.argv())
    except Exception:  # a job's failure is counted, the loop goes on
        return None, traceback.format_exc(limit=3)
    if code != 0:
        return None, f"exit {code}: {err.getvalue().strip()[-300:]}"
    return out.getvalue(), None


class Loop:
    """Closed-loop passes over one job list with per-job bookkeeping."""

    def __init__(self, api, job_list):
        self.api = api
        self.jobs = job_list
        self.attempted = 0
        self.failures: list[str] = []
        self.first: dict[str, str] | None = None
        self.job_times: dict[str, list[float]] = {j.name: [] for j in job_list}

    def fail(self, msg: str):
        self.failures.append(msg)

    def run_pass(self, job_list=None, record=True) -> tuple[float, float, dict[str, str]]:
        """(wall, cpu, outputs) of one pass; ``record`` keeps per-job times."""
        outputs = {}
        w0, c0 = time.perf_counter(), time.process_time()
        for job in job_list or self.jobs:
            t0 = time.perf_counter()
            text, error = run_job(self.api, job)
            if record:
                self.job_times[job.name].append(time.perf_counter() - t0)
            self.attempted += 1
            if error is not None:
                self.fail(f"{job.name}: {error}")
            outputs[job.name] = text
        return time.perf_counter() - w0, time.process_time() - c0, outputs

    def check(self, outputs: dict[str, str | None]):
        """Validity on the first pass; identity with it afterwards."""
        if self.first is None:
            self.first = outputs
            for job in self.jobs:
                if outputs[job.name] is None:
                    continue
                try:
                    checks.check_output(job, outputs[job.name])
                except ValueError as e:
                    self.fail(f"{job.name}: {e}")
            return
        for name, text in outputs.items():
            if text is not None and text != self.first[name]:
                self.fail(f"{name}: output changed between passes")


def _check_reference(loop: Loop, workload: str):
    ref = checks.load_reference(workload)
    if ref is None:
        loop.fail("no reference outputs for the default seed")
        return
    for job in loop.jobs:
        text = loop.first.get(job.name)
        if text is None:
            continue
        try:
            checks.compare_reference(ref[job.name], text)
        except (KeyError, ValueError) as e:
            loop.fail(f"{job.name}: reference mismatch: {e}")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--src", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--capture", help="write the outputs of one pass here and stop")
    args = p.parse_args(argv)

    api = _import_program(args.src)
    threads = len(os.sched_getaffinity(0)) if args.workload == "tail-threaded" else 1
    job_list = jobs_mod.build_jobs(args.workload, args.seed, threads, args.workdir)
    loop = Loop(api, job_list)

    # cold pass in a fresh process: its peak is the workload's memory cost
    _, _, outputs = loop.run_pass(record=False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loop.check(outputs)
    if args.capture:
        with open(args.capture, "w") as fh:
            json.dump({k: checks.reference_entry(v) for k, v in outputs.items()}, fh)
        return 0 if not loop.failures else 1
    if args.workload == "tail-threaded":
        single = jobs_mod.build_jobs(args.workload, args.seed, 1, args.workdir)
        _, _, base = loop.run_pass(single, record=False)
        for name, text in outputs.items():
            if text is not None and text != base[name]:
                loop.fail(f"{name}: threaded output differs from --threads 1")
    if args.seed == checks.DEFAULT_SEED:
        _check_reference(loop, args.workload)

    # end-to-end times are scaled by the calibration runs around each pass
    raw_walls, walls, cpus, calibs = [], [], [], [speed.calibration_s()]
    traced_walls, layer_passes = [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(walls) < 3:
        wall, cpu, outputs = loop.run_pass()
        calibs.append(speed.calibration_s())
        factor = speed.scale(calibs[-2], calibs[-1])
        raw_walls.append(wall)
        walls.append(wall * factor)
        cpus.append(cpu * factor)
        loop.check(outputs)
        if args.trace:
            tracer = spans.Tracer()
            probes = spans.Probes(tracer, extra_sites=[api]).install()
            try:
                wall, _, outputs = loop.run_pass(record=False)
            finally:
                probes.remove()
            traced_walls.append(wall)
            loop.check(outputs)
            metrics = spans.pass_metrics(tracer)
            metrics["cli.output_bytes"] = sum(len(t.encode()) for t in outputs.values() if t)
            layer_passes.append(metrics)
            if probes.missing:
                print(f"probes not installed: {probes.missing}", file=sys.stderr)
            calibs.append(speed.calibration_s())

    result = {
        "passes": len(walls),
        "wall_s": statistics.median(walls),
        "wall_q": _quartiles(walls),
        "cpu_s": statistics.median(cpus),
        "raw_wall_s": statistics.median(raw_walls),
        "calibration_s": statistics.median(calibs),
        "peak_rss_mb": peak_rss_mb,
        "threads": threads,
        "job_s": {name: statistics.median(v) for name, v in loop.job_times.items()},
    }
    if args.trace:
        counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in layer_passes]
        if any(c != counts[0] for c in counts):
            loop.fail("work counts differ between traced passes")
        result["trace_overhead_s"] = statistics.median(traced_walls) - result["raw_wall_s"]
        result["layers"] = {k: statistics.median(m[k] for m in layer_passes)
                            for k in layer_passes[0]}
    result["attempted"] = loop.attempted
    result["failures"] = loop.failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
