"""Output checks behind ``failed`` and ``correct``.

Every job's output must be a well-formed CSV with the expected shape, and
must satisfy the invariants of its kind at any seed.  At the default seed
the outputs are also compared with reference outputs captured when the
benchmark was defined: strings, verdicts and integers exactly, floats to a
relative tolerance, because a faster algorithm may legitimately change the
last bits (the O(G) contraction sum, sorted correlation sums).
"""

from __future__ import annotations

import json
import math
import os

DEFAULT_SEED = 0
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
REL_TOL = 1e-9
ABS_TOL = 1e-12
# long outputs are stored as this many evenly spaced rows plus the row count
REFERENCE_ROWS = 64

VERDICTS = {"pass", "pass-vacuous", "fail", "not-applicable"}


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.split("\n")
    if len(lines) < 3 or lines[-1] != "":
        raise ValueError("output is not newline-terminated CSV with a data row")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    if any(not h for h in header):
        raise ValueError(f"empty column name in header {lines[0]!r}")
    for i, row in enumerate(rows):
        if len(row) != len(header) or any(cell == "" for cell in row):
            raise ValueError(f"row {i} does not match the header: {row}")
    return header, rows


def _check_tail(cols):
    for r in cols:
        if r["verdict"] not in VERDICTS:
            raise ValueError(f"unknown verdict {r['verdict']!r}")
        p, lo, hi = float(r["p_hat"]), float(r["ci_lo"]), float(r["ci_hi"])
        if r["verdict"] == "not-applicable":
            if not (math.isnan(p) and math.isnan(lo) and math.isnan(hi)):
                raise ValueError("not-applicable row carries a tail estimate")
        elif not 0.0 <= lo <= p <= hi <= 1.0:
            raise ValueError(f"tail estimate outside its interval: {lo} {p} {hi}")
        if not float(r["bound"]) >= 0.0:
            raise ValueError(f"negative or missing bound {r['bound']!r}")


def _check_lambda(cols):
    for r in cols:
        lam, err, cap = float(r["lambda_hat"]), float(r["stderr"]), float(r["analytic_cap"])
        if not (math.isfinite(lam) and err >= 0.0):
            raise ValueError(f"bad estimate {lam} +- {err}")
        if not math.isnan(cap) and lam > cap + 3.0 * err:
            raise ValueError(f"lambda_hat {lam} above analytic cap {cap} + 3 stderr {err}")
        if r["diverged"] not in ("true", "false"):
            raise ValueError(f"bad divergence flag {r['diverged']!r}")


def _check_finite(cols, keys):
    for r in cols:
        for k in keys:
            if not math.isfinite(float(r[k])):
                raise ValueError(f"non-finite {k}: {r[k]!r}")


HEADERS = {
    "tail": "t,p_hat,ci_lo,ci_hi,bound,threshold,verdict",
    "selftest": "t,p_hat,ci_lo,ci_hi,bound,threshold,verdict",
    "lambda": "n,lambda_hat,stderr,analytic_cap,diverged",
    "corr-dim": "epsilon,K,slope,intercept",
    None: "epsilon,K,slope,intercept",
    "asclt": "n,kappa,sigma2,degenerate",
    "simulate": "k,x",
}


def check_output(job, text: str):
    """Raise ValueError when ``text`` is not a valid output of ``job``."""
    header, rows = parse_csv(text)
    if len(rows) != job.rows:
        raise ValueError(f"expected {job.rows} rows, got {len(rows)}")
    expected = HEADERS.get(job.command)
    if expected is not None and ",".join(header) != expected:
        raise ValueError(f"unexpected header {','.join(header)!r}")
    cols = [dict(zip(header, row)) for row in rows]
    if job.command in ("tail", "selftest"):
        _check_tail(cols)
    elif job.command == "lambda":
        _check_lambda(cols)
    elif job.command in ("corr-dim", None):
        _check_finite(cols, ("K", "slope", "intercept"))
    elif job.command == "asclt":
        _check_finite(cols, ("kappa", "sigma2"))
    else:
        _check_finite(cols, header)


# ---------------------------------------------------------------------------
# reference outputs


def _sample(rows):
    if len(rows) <= REFERENCE_ROWS:
        return list(range(len(rows)))
    step = (len(rows) - 1) / (REFERENCE_ROWS - 1)
    return sorted({round(i * step) for i in range(REFERENCE_ROWS)})


def reference_entry(text: str) -> dict:
    header, rows = parse_csv(text)
    idx = _sample(rows)
    return {"header": header, "count": len(rows), "rows": {str(i): rows[i] for i in idx}}


def _cells_match(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    if a.lstrip("-").isdigit() or b.lstrip("-").isdigit():
        return False  # integers must match exactly
    if math.isnan(x) or math.isnan(y):
        return False
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare_reference(entry: dict, text: str):
    """Raise ValueError when ``text`` differs from a reference entry."""
    header, rows = parse_csv(text)
    if header != entry["header"] or len(rows) != entry["count"]:
        raise ValueError("header or row count differs from the reference")
    for key, expected in entry["rows"].items():
        got = rows[int(key)]
        for h, a, b in zip(header, expected, got):
            if not _cells_match(a, b):
                raise ValueError(f"row {key} column {h}: {b!r} != reference {a!r}")


def load_reference(workload: str) -> dict | None:
    """Reference entries of a workload, by job name (the threaded tail
    workload shares the single-threaded one's)."""
    try:
        with open(REFERENCE_PATH) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return None
    return doc.get("tail-battery" if workload == "tail-threaded" else workload)
