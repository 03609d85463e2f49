"""Command-line front end: parse, load the config, run, write.

Subcommands: simulate, lambda, tail, corr-dim, lyap, asclt, bounds,
selftest.  Each but tail and selftest is a runner of ``harness`` whose
rows are written by ``harness.rows_to_csv``; tail writes a CSV or JSON
report (every other command refuses ``--format json``), and selftest adds
its property checks.  Exit codes: 0 success, 1 a bug (with a traceback),
2 a bad config or an unwritable ``--out`` (``ConfigError``, the path
refused before any draw), 3 a dominance failure in selftest mode.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from .bounds import appendix_checks, wilson_interval
from .config import OBJECT, ConfigError, ExperimentConfig, check
from .harness import (
    report_to_csv,
    report_to_json,
    rows_to_csv,
    run_asclt,
    run_bounds,
    run_corrdim,
    run_lambda_survey,
    run_lyap,
    run_simulate,
    run_tail,
)

__all__ = ["main"]


def _load_config(args) -> ExperimentConfig:
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {args.config}: {e}") from e
    else:
        doc = {"system": {"kind": "halving-ifs"}}
    check(OBJECT, doc, "config")
    if args.seed is not None:
        doc["seed"] = args.seed
    try:
        return ExperimentConfig(**doc)
    except TypeError as e:
        raise ConfigError(f"invalid config: {e}") from None


def _check_out(path: str):
    """ConfigError unless ``path`` can be written, found before the run
    spends its draws; the file is neither created nor truncated."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ConfigError(f"cannot write output {path}: {os.strerror(code)}")


def _emit(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise ConfigError(f"cannot write output {out_path}: {e}") from e
    else:
        sys.stdout.write(text)


def _cmd_tail(cfg, args):
    report = run_tail(cfg)
    _emit(report_to_json(report) if args.format == "json" else report_to_csv(report), args.out)
    return 0


def _cmd_selftest(cfg, args):
    """Deterministic dominance battery plus the inequality property suite.

    Emits the tail CSV of a fixed dominance experiment; exits 3 if any
    in-regime row fails dominance or a property check fails.
    """
    checks = appendix_checks()
    lo, hi = wilson_interval(0, 100)
    wilson_ok = abs(hi - 0.036217) < 1e-4

    battery = ExperimentConfig(
        system={"kind": "halving-ifs"},
        observable="birkhoff",
        params={"h": "coordinate", "x0": 0.5},
        n=200,
        t_ladder=[0.15, 0.2, 0.3],
        trials=4000,
        seed=cfg.seed,
        bound="lln",
    )
    report = run_tail(battery)
    _emit(report_to_csv(report), args.out)
    failed = any(r["verdict"] == "fail" for r in report.rows)
    if failed or not checks["passed"] or not wilson_ok:
        print("selftest: FAIL", file=sys.stderr)
        return 3
    print("selftest: ok", file=sys.stderr)
    return 0


# commands that write their runner's rows as CSV
_COMMANDS = {
    "simulate": run_simulate,
    "lambda": run_lambda_survey,
    "corr-dim": run_corrdim,
    "lyap": run_lyap,
    "asclt": run_asclt,
    "bounds": run_bounds,
}
# commands with an output format or exit code of their own
_BODIES = {
    "tail": _cmd_tail,
    "selftest": _cmd_selftest,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rdslab",
                                description="random dynamical systems toolkit")
    p.add_argument("command", choices=sorted(_COMMANDS.keys() | _BODIES.keys()))
    p.add_argument("--config", help="JSON experiment configuration")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    # kept for the benchmark's tail-threaded workload, which passes it
    p.add_argument("--threads", type=int, help="accepted and ignored")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if args.out:
            _check_out(args.out)
        if args.format == "json" and args.command != "tail":
            raise ConfigError(f"--format json is for tail alone, not {args.command}")
        cfg = _load_config(args)
        if args.command in _BODIES:
            return _BODIES[args.command](cfg, args)
        _emit(rows_to_csv(_COMMANDS[args.command](cfg)), args.out)
        return 0
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
