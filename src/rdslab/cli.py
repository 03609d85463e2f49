"""Command-line front end.

Subcommands: simulate, lambda, tail, corr-dim, lyap, asclt, bounds,
selftest.  Exit codes: 0 success, 2 configuration error, 3 dominance
failure in selftest mode.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bounds import appendix_checks, evaluate, resolve_inputs, wilson_interval
from .chains import simulate
from .estimators import correlation_dimension, lyapunov_1d, lyapunov_projective
from .harness import (
    COCYCLE_KINDS,
    ExperimentConfig,
    build_system,
    orbit_start,
    report_to_csv,
    report_to_json,
    rows_to_csv,
    run_asclt,
    run_lambda_survey,
    run_tail,
)
from .streams import SeededStream

__all__ = ["main"]


class ConfigError(Exception):
    pass


def _load_config(args) -> ExperimentConfig:
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {args.config}: {e}") from e
    else:
        doc = {"system": {"kind": "halving-ifs"}}
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.trials is not None:
        doc["trials"] = args.trials
    if args.grid is not None:
        doc.setdefault("params", {})["grid"] = args.grid
    try:
        return ExperimentConfig(**doc)
    except (TypeError, ValueError, KeyError) as e:
        raise ConfigError(f"invalid config: {e}") from e


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_simulate(cfg, args):
    sys_spec = build_system(cfg.system)
    traj = simulate(sys_spec.nu, orbit_start(sys_spec, cfg), cfg.n,
                    SeededStream(cfg.seed), space=sys_spec.space)
    if traj.points.ndim == 2:
        rows = [{"k": k, **{f"x{i}": float(c) for i, c in enumerate(x, start=1)}}
                for k, x in enumerate(traj.points)]
    else:
        rows = [{"k": k, "x": float(x)} for k, x in enumerate(np.atleast_1d(traj.points))]
    _emit(rows_to_csv(rows), args.out)
    return 0


def _cmd_lambda(cfg, args):
    rows = run_lambda_survey(cfg)
    _emit(rows_to_csv(rows), args.out)
    return 0


def _cmd_tail(cfg, args):
    report = run_tail(cfg)
    text = report_to_json(report) if args.format == "json" else report_to_csv(report)
    _emit(text, args.out)
    return 0


def _cmd_corrdim(cfg, args):
    sys_spec = build_system(cfg.system)
    traj = simulate(sys_spec.nu, orbit_start(sys_spec, cfg), cfg.n,
                    SeededStream(cfg.seed), space=sys_spec.space)
    eps0 = float(cfg.params.get("epsilon0", 0.1))
    rungs = int(cfg.params.get("rungs", 5))
    ladder = [eps0 * 2.0**-j for j in range(rungs)]
    slope, intercept, table = correlation_dimension(sys_spec.space, traj.points[:-1], ladder)
    rows = [{"epsilon": e, "K": k, "slope": slope, "intercept": intercept} for e, k in table]
    _emit(rows_to_csv(rows), args.out)
    return 0


def _cmd_lyap(cfg, args):
    sys_spec = build_system(cfg.system)
    stream = SeededStream(cfg.seed)
    x = orbit_start(sys_spec, cfg)
    if cfg.observable in COCYCLE_KINDS:
        v, w = lyapunov_projective(sys_spec.nu, x, cfg.n, stream.generator())
        rows = [{"n": cfg.n, "vector_rate": v, "norm_rate": w}]
    else:
        traj = simulate(sys_spec.nu, x, cfg.n,
                        stream, record_log_derivative=True, space=sys_spec.space)
        rows = [{"n": cfg.n, "rate": lyapunov_1d(traj)}]
    _emit(rows_to_csv(rows), args.out)
    return 0


def _cmd_asclt(cfg, args):
    rows = run_asclt(cfg)
    _emit(rows_to_csv(rows), args.out)
    return 0


def _cmd_bounds(cfg, args):
    sys_spec = build_system(cfg.system)
    inputs, _ = resolve_inputs(cfg.bound, cfg.inputs, sys_spec.analytic)
    rows = []
    for t in cfg.t_ladder:
        res = evaluate(cfg.bound, cfg.n, float(t), inputs)
        rows.append({"t": float(t), "bound": res.value, "threshold": res.threshold,
                     "applicable": res.applicable, "vacuous": res.vacuous})
    _emit(rows_to_csv(rows), args.out)
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


_COMMANDS = {
    "simulate": _cmd_simulate,
    "lambda": _cmd_lambda,
    "tail": _cmd_tail,
    "corr-dim": _cmd_corrdim,
    "lyap": _cmd_lyap,
    "asclt": _cmd_asclt,
    "bounds": _cmd_bounds,
    "selftest": _cmd_selftest,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rdslab",
                                description="random dynamical systems toolkit")
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--config", help="JSON experiment configuration")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--threads", type=int, help="accepted and ignored")
    p.add_argument("--grid", type=int)
    p.add_argument("--trials", type=int)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
