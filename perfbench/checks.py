"""Output checks of the benchmark workloads.

Each function takes one request's output, already parsed, and returns
the list of problems found; an empty list means the output is correct.
A request with any problem counts as failed.  The functions import
nothing from chaosdet, so the benchmark's tests can feed them corrupted
outputs directly.
"""
from __future__ import annotations

import json
from fractions import Fraction

# `chaosdet verify --seeds 1` over the default grid d in {2, 3},
# n, m in 1..4 runs this many checks.
VERIFY_CHECKS_PER_SEED = 250

# The Monte Carlo mean must lie within this many standard errors of the
# exact term sum.
MC_SIGMAS = 5.0


def parse_record(rc: int, stdout: str) -> tuple[dict | None, list[str]]:
    """JSON record of one CLI call, or the problems that prevent reading it."""
    if rc != 0:
        return None, [f"exit status {rc}"]
    try:
        record = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]
    if not isinstance(record, dict):
        return None, ["output is not a JSON object"]
    return record, []


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def check_report(rc: int, stdout: str, tol: float) -> list[str]:
    """`chaosdet report` on a generic equal-order pair inside the guard."""
    record, problems = parse_record(rc, stdout)
    if record is None:
        return problems
    q = record.get("quantities", {})
    needed = ("detC", "T", "edet_closed", "edet_theorem", "edet_oracle",
              "same_chaos_m2_detC", "same_chaos_correction", "same_chaos_R", "verdict")
    missing = [key for key in needed if key not in q]
    if missing:
        return [f"missing quantities {missing}"]
    closed = q["edet_closed"]
    for key in ("edet_theorem", "edet_oracle"):
        if not _close(closed, q[key], tol):
            problems.append(f"{key}={q[key]!r} differs from edet_closed={closed!r}")
    same_chaos = q["same_chaos_m2_detC"] + q["same_chaos_correction"] + q["same_chaos_R"]
    if not _close(closed, same_chaos, tol):
        problems.append(f"same_chaos_* sums to {same_chaos!r}, not edet_closed={closed!r}")
    negative = [k for k, t in enumerate(q["T"]) if not t >= 0]
    if negative:
        problems.append(f"T[k] < 0 for k in {negative}")
    if not q["detC"] > 0:
        problems.append(f"detC={q['detC']!r} is not positive for a generic pair")
    if q["verdict"] != "HasDensity":
        problems.append(f"verdict {q['verdict']!r} for a generic pair")
    return problems


def check_mc(
    rcs: tuple[int, int], stdouts: tuple[str, str], reference: float, trials: int
) -> list[str]:
    """`chaosdet mc` at --workers 1 and --workers 2 on the same input."""
    one, problems_one = parse_record(rcs[0], stdouts[0])
    two, problems_two = parse_record(rcs[1], stdouts[1])
    problems = [f"workers=1: {p}" for p in problems_one]
    problems += [f"workers=2: {p}" for p in problems_two]
    if one is None or two is None:
        return problems
    q1 = one.get("quantities", {})
    q2 = two.get("quantities", {})
    if q1 != q2:
        problems.append(f"workers=2 result {q2!r} is not bit-identical to workers=1 {q1!r}")
    try:
        mean = q1["edet_mc_mean"]
        stderr = q1["edet_mc_stderr"]
        n_samples = q1["n_samples"]
    except KeyError as exc:
        return problems + [f"missing quantity {exc}"]
    if n_samples != trials:
        problems.append(f"n_samples={n_samples!r}, expected {trials}")
    if not stderr > 0:
        problems.append(f"stderr={stderr!r} is not positive")
    elif not abs(mean - reference) <= MC_SIGMAS * stderr:
        problems.append(
            f"mean={mean!r} is {abs(mean - reference) / stderr:.2f} stderr from "
            f"edet_closed={reference!r}"
        )
    return problems


def check_verify(rc: int, stdout: str) -> list[str]:
    """`chaosdet verify --seeds 1 --format structured`."""
    record, problems = parse_record(rc, stdout)
    if record is None:
        return problems
    if record.get("failed") is not False:
        problems.append(f"failed={record.get('failed')!r}")
    checks = record.get("checks", [])
    if len(checks) != VERIFY_CHECKS_PER_SEED:
        problems.append(f"{len(checks)} checks, expected {VERIFY_CHECKS_PER_SEED}")
    failing = [c.get("check_id") for c in checks if c.get("passed") is not True]
    if failing:
        problems.append(f"checks not passed: {failing[:5]}")
    return problems


def _exact(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def check_exact(closed, theorem, oracle, det_c) -> list[str]:
    """Library routes on int-coefficient tensors: equal with no tolerance."""
    problems = []
    for key, value in (("edet_closed", closed), ("edet_theorem", theorem),
                       ("oracle_edet", oracle), ("covariance det", det_c)):
        if not _exact(value):
            problems.append(f"{key} is {type(value).__name__}, not int/Fraction")
    if problems:
        return problems
    if not closed == theorem == oracle:
        problems.append(f"routes differ: closed={closed}, theorem={theorem}, oracle={oracle}")
    if closed < 0:
        problems.append(f"edet_closed={closed} is negative")
    if not det_c > 0:
        problems.append(f"covariance det={det_c} is not positive")
    return problems
