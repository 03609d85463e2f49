"""The byte contract as a check: the same config and seed give the same
bytes.

A sweep runs every job of the benchmark's tail-battery, lambda-survey and
orbit-analysis workloads (``rdsbench/jobs.py``) at seeds 0-3 through
``rdsbench/worker.py``'s ``run_job``, and records the sha1 of each output
and of each per-trial array that ``harness._run_trials`` returns.  It then
runs each demo (``demos/*.py``) in the same interpreter and records the
sha1 of its stdout, which covers library routes that no job reaches.

    python tools/golden.py                # print the sweep of src/ as JSON
    python tools/golden.py --against REV  # compare src/ with REV's src/

``--against`` exports REV's ``src/`` with ``git archive`` and sweeps each
tree in its own interpreter, with the job lists and demos of this
checkout.  It names every output, array or demo stdout that moved, or whose job failed, and exits 1
if there is any.  numpy picks its kernels by CPU, so compare two trees on
one machine rather than against stored hashes.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("tail-battery", "lambda-survey", "orbit-analysis")
SEEDS = range(4)


def sweep(src: str) -> dict[str, str]:
    """{workload/seed/job[/run_trials i] or demos/name: sha1, or "failed"}
    of the tree ``src``."""
    sys.path.insert(0, os.path.join(ROOT, "rdsbench"))
    import jobs
    import worker

    api = worker._import_program(src)
    import rdslab.harness as H

    arrays, run_trials = [], H._run_trials

    def recording(*args, **kwargs):
        values = run_trials(*args, **kwargs)
        arrays.append(values)
        return values

    H._run_trials = recording
    hashes = {}
    with tempfile.TemporaryDirectory() as workdir:
        for workload in WORKLOADS:
            for seed in SEEDS:
                for job in jobs.build_jobs(workload, seed, 1, workdir):
                    key = f"{workload}/{seed}/{job.name}"
                    arrays.clear()
                    text, error = worker.run_job(api, job)
                    if error is not None:
                        print(f"{key}: {error}", file=sys.stderr)
                    hashes[key] = "failed" if text is None else _sha1(text.encode())
                    for i, a in enumerate(arrays):
                        hashes[f"{key}/run_trials {i}"] = _sha1(
                            f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
    for path in sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))):
        key, stdout = f"demos/{os.path.basename(path)}", io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                runpy.run_path(path, run_name="__main__")
            hashes[key] = _sha1(stdout.getvalue().encode())
        except Exception as e:
            print(f"{key}: {e!r}", file=sys.stderr)
            hashes[key] = "failed"
    return hashes


def _sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def _sweep_in_child(src: str) -> dict[str, str]:
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--sweep", src],
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out)


def _export_src(rev: str, into: str) -> str:
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev, "src"],
                             check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return os.path.join(into, "src")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--against", metavar="REV", help="git revision whose src/ to compare with")
    p.add_argument("--sweep", metavar="SRC", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.sweep:
        print(json.dumps(sweep(args.sweep)))
        return 0
    change = _sweep_in_child(os.path.join(ROOT, "src"))
    if args.against is None:
        print(json.dumps(change, indent=1))
        return 1 if "failed" in change.values() else 0
    with tempfile.TemporaryDirectory() as tmp:
        base = _sweep_in_child(_export_src(args.against, tmp))
    moved = sorted(k for k in base.keys() | change.keys()
                   if base.get(k) != change.get(k) or change.get(k) == "failed")
    for key in moved:
        print(f"moved: {key} ({base.get(key, 'absent')} -> {change.get(key, 'absent')})")
    arrays = sum("/run_trials " in k for k in change)
    demos = sum(k.startswith("demos/") for k in change)
    print(f"{len(change) - arrays - demos} outputs, {arrays} _run_trials arrays and {demos} "
          f"demo stdouts against {args.against}: {len(moved)} moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
