"""The checker suite: executable checks of the determinant identities.

Each checker exercises one identity on seeded random inputs and returns
a :class:`CheckResult` holding the two compared values, the error, the
tolerance and the verdict.  Failures are recorded, never raised.
Random tensors are normalized to unit norm so the absolute tolerances
used for coefficientwise identities are meaningful.

This module computes no route: the closed forms come from
:mod:`chaosdet.malliavin` and the oracle from :mod:`chaosdet.chaos`.  A
side that is a difference of large non-negative terms is measured
against the magnitude of those terms, so float cancellation to a
near-zero value does not read as a disagreement between routes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .chaos import SEED_BOUND, eval_integral, oracle_edet, sample
from .malliavin import (
    ChaosPair,
    DensityVerdict,
    contraction_norms_sq,
    covariance,
    density_verdict,
    det_lambda_at,
    edet_closed,
    edet_same_chaos,
    edet_theorem,
    left_sum,
    t0_contraction,
    t_last_closed,
    term_T_k,
)
from .tensors import (
    SymTensor,
    contract,
    inner,
    max_coeff_diff,
    random_unit_tensor,
    symmetrize,
)

# Tolerances, by kind of comparison: coefficientwise identities on
# unit-normalized inputs are float-exact up to accumulation; pointwise
# sample identities and expectation routes accumulate more terms.
TOL_COEFF = 1e-12
TOL_SCALAR = 1e-10
TOL_POINTWISE = 1e-9
TOL_EXPECTATION = 1e-8


@dataclass
class CheckResult:
    """Outcome of one identity check."""

    check_id: str
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    tol: float
    passed: bool
    inputs_seed: int

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.check_id}: lhs={self.lhs:.12g} rhs={self.rhs:.12g} "
            f"rel_err={self.rel_err:.3g} tol={self.tol:g}"
        )


def _result(
    check_id: str,
    lhs: float,
    rhs: float,
    tol: float,
    seed: int,
    zero_target: bool = False,
    scale: float = 0.0,
) -> CheckResult:
    """Compare lhs and rhs; the relative error is taken against the larger
    of |lhs|, |rhs| and ``scale``, the magnitude of the terms that were
    combined, so cancellation to a near-zero value does not inflate it.

    A non-finite value fails with an infinite relative error: NaN compares
    false with everything, so it would otherwise pass the tolerance test."""
    lhs = float(lhs)
    rhs = float(rhs)
    abs_err = abs(lhs - rhs)
    if not all(math.isfinite(x) for x in (lhs, rhs, abs_err, scale)):
        return CheckResult(check_id, lhs, rhs, abs_err, math.inf, tol, False, seed)
    denom = max(abs(lhs), abs(rhs), scale)
    rel_err = abs_err / denom if denom > 0 else 0.0
    passed = abs_err <= tol if zero_target else rel_err <= tol
    return CheckResult(check_id, lhs, rhs, abs_err, rel_err, tol, passed, seed)


def _worst(results: Iterable[CheckResult]) -> CheckResult:
    """The result to report: a failing one first, then the larger error,
    then the earliest."""
    return max(results, key=lambda r: (not r.passed, r.rel_err))


def _id(name: str, **params) -> str:
    if not params:
        return name
    inner_part = ",".join(f"{k}={v}" for k, v in params.items())
    return f"{name}[{inner_part}]"


# ----------------------------------------------------------------------
# checkers, one per identity


def check_contraction_duality(seed: int, d: int = 3, n: int = 3, m: int = 3) -> CheckResult:
    """<f1 (x)_{n-r} f3, f2 (x)_{m-r} f4> = <f1 (x)_r f2, f3 (x)_r f4>."""
    f1 = random_unit_tensor(seed * 4000 + 1, d, n)
    f3 = random_unit_tensor(seed * 4000 + 2, d, n)
    f2 = random_unit_tensor(seed * 4000 + 3, d, m)
    f4 = random_unit_tensor(seed * 4000 + 4, d, m)
    results = []
    for r in range(min(n - 1, m - 1) + 1):
        lhs = inner(contract(f1, f3, n - r), contract(f2, f4, m - r))
        rhs = inner(contract(f1, f2, r), contract(f3, f4, r))
        results.append(
            _result(
                _id("contraction-duality", d=d, n=n, m=m, r=r), lhs, rhs, TOL_SCALAR, seed
            )
        )
    return _worst(results)


def check_sym_outer_inner(seed: int, d: int = 3, n: int = 2, m: int = 3) -> CheckResult:
    """Inner product of symmetrized outer products via mixed contractions.

    The terms of the contraction sum can cancel to a value near zero, so
    the error is measured against the magnitude of the summed terms, not
    against the compared values alone.
    """
    f1 = random_unit_tensor(seed * 5000 + 1, d, n)
    f4 = random_unit_tensor(seed * 5000 + 2, d, n)
    f2 = random_unit_tensor(seed * 5000 + 3, d, m)
    f3 = random_unit_tensor(seed * 5000 + 4, d, m)
    lhs = inner(symmetrize(contract(f1, f2, 0)), symmetrize(contract(f3, f4, 0)))
    total = 0.0
    magnitude = 0.0
    for r in range(min(n, m) + 1):
        term = (
            math.comb(n, r)
            * math.comb(m, r)
            * inner(contract(f1, f3, r), contract(f4, f2, r))
        )
        total += term
        magnitude += abs(term)
    weight = math.factorial(m) * math.factorial(n) / math.factorial(m + n)
    return _result(
        _id("sym-outer-inner", d=d, n=n, m=m),
        lhs,
        weight * total,
        TOL_SCALAR,
        seed,
        scale=weight * magnitude,
    )


def check_slice_contraction(seed: int, d: int = 3, n: int = 3, m: int = 3) -> CheckResult:
    """f (x)_{r+1} g = 1/(nm) sum_i slice_i(f) (x)_r slice_i(g), coefficientwise."""
    pair = ChaosPair.random(seed * 7 + 3, d, n, m)
    worst_err = 0.0
    worst_r = 0
    for r in range(min(n, m)):
        target = contract(pair.f, pair.g, r + 1)
        acc = None
        for i in range(d):
            piece = contract(pair.slices_f[i], pair.slices_g[i], r)
            acc = piece if acc is None else acc + piece
        rebuilt = acc.scale(1.0 / (n * m))
        err = max_coeff_diff(rebuilt, target)
        if err > worst_err or math.isnan(err):
            worst_err, worst_r = err, r
    return _result(
        _id("slice-contraction", d=d, n=n, m=m, r=worst_r),
        worst_err,
        0.0,
        TOL_COEFF,
        seed,
        zero_target=True,
    )


def check_det_sum_of_squares(
    seed: int, d: int = 3, n: int = 2, m: int = 2, n_points: int = 20
) -> CheckResult:
    """Pointwise: Gram determinant equals the half-sum of squared minors.

    The error of the subtractive Gram route is measured against the
    magnitude |DF|^2 |DG|^2 of the products being cancelled, not against
    the (possibly vanishing) determinant value itself.
    """
    pair = ChaosPair.random(seed * 7 + 1, d, n, m)
    results = []
    for j in range(n_points):
        # reduced to the Philox key range, so every --seed the CLI accepts runs
        s = sample((seed * 31 + j) % SEED_BOUND, d)
        gram, sos = det_lambda_at(pair, s)
        sf = [eval_integral(t, s) for t in pair.slices_f]
        sg = [eval_integral(t, s) for t in pair.slices_g]
        scale = left_sum(v * v for v in sf) * left_sum(v * v for v in sg)
        results.append(
            _result(
                _id("det-sum-of-squares", d=d, n=n, m=m),
                gram,
                sos,
                TOL_POINTWISE,
                seed,
                scale=scale,
            )
        )
    return _worst(results)


def check_t0_contraction_form(seed: int, d: int = 3, n: int = 2, m: int = 3) -> CheckResult:
    """Slice route and contraction-norm route to T_0 agree.

    The error is measured against the magnitude
    n m n! m! sum_r C(n-1,r) C(m-1,r) (|f (x)_r g|^2 + |f (x)_{r+1} g|^2)
    of the norm differences the contraction form sums.
    """
    pair = ChaosPair.random(seed * 7 + 2, d, n, m)
    lhs = term_T_k(pair, 0)
    rhs = t0_contraction(pair)
    norms = contraction_norms_sq(pair)
    weight = n * m * math.factorial(n) * math.factorial(m)
    scale = left_sum(
        weight * math.comb(n - 1, r) * math.comb(m - 1, r) * (norms[r] + norms[r + 1])
        for r in range(min(n, m))
    )
    return _result(
        _id("t0-contraction-form", d=d, n=n, m=m), lhs, rhs, TOL_POINTWISE, seed, scale=scale
    )


def check_edet_routes(seed: int, d: int = 2, n: int = 2, m: int = 2) -> CheckResult:
    """Route triangle: term sum, regrouped theorem form, chaos oracle."""
    pair = ChaosPair.random(seed * 7 + 4, d, n, m)
    closed = float(edet_closed(pair))
    theorem = float(edet_theorem(pair))
    oracle = float(oracle_edet(pair))
    res_ct = _result(
        _id("edet-closed-vs-theorem", d=d, n=n, m=m),
        closed,
        theorem,
        TOL_EXPECTATION,
        seed,
    )
    res_co = _result(
        _id("edet-closed-vs-oracle", d=d, n=n, m=m),
        closed,
        oracle,
        TOL_EXPECTATION,
        seed,
    )
    return _worst([res_co, res_ct])


def check_same_order_decomposition(seed: int, d: int = 2, m: int = 3) -> CheckResult:
    """m^2 det C + correction + remainder reassembles the term sum.

    The error is measured against the magnitude m^2 (var_f var_g + cov^2)
    + sum_r |w_r| (|f (x)_r g|^2 + |f (x)_{m-r} g|^2) + remainder of the
    terms the decomposition adds.
    """
    pair = ChaosPair.random(seed * 7 + 5, d, m, m)
    parts = edet_same_chaos(pair)
    (var_f, cov), (_, var_g) = covariance(pair)[0]
    norms = contraction_norms_sq(pair)
    weight = (m * math.factorial(m)) ** 2
    corrections = [
        abs(weight * (math.comb(m - 1, r) ** 2 - math.comb(m - 1, r - 1) ** 2))
        * (norms[r] + norms[m - r])
        for r in range(1, (m - 1) // 2 + 1)
    ]
    scale = left_sum([m * m * (var_f * var_g + cov * cov), *corrections, parts.remainder])
    return _result(
        _id("same-order-decomposition", d=d, m=m),
        parts.total,
        edet_closed(pair),
        TOL_EXPECTATION,
        seed,
        scale=scale,
    )


def check_last_term_closed_form(seed: int, d: int = 3, m: int = 3) -> CheckResult:
    """T_{m-1} equals its contraction closed form for equal orders.

    The error is measured against 2 m^2 m!^2 |f (x)_{m-1} g|^2, which
    bounds both terms of the closed form: by contraction duality the
    cross term is <M, M^T> for M = f (x)_{m-1} g.
    """
    pair = ChaosPair.random(seed * 7 + 6, d, m, m)
    lhs = term_T_k(pair, m - 1)
    rhs = t_last_closed(pair)
    scale = 2 * m * m * math.factorial(m) ** 2 * contract(pair.f, pair.g, m - 1).norm_sq()
    return _result(
        _id("last-term-closed-form", d=d, m=m), lhs, rhs, TOL_POINTWISE, seed, scale=scale
    )


def check_contraction_inequality(seed: int, d: int = 3, n: int = 3, m: int = 3) -> CheckResult:
    """The weighted telescoping contraction-norm sum is non-negative: it is
    T_0 = n m n! m! sum_r C(n-1,r) C(m-1,r) (|f (x)_r g|^2 - |f (x)_{r+1} g|^2)."""
    pair = ChaosPair.random(seed * 7 + 7, d, n, m)
    value = float(t0_contraction(pair))
    shortfall = 0.0 if value >= 0 else -value  # NaN stays NaN and fails
    return _result(
        _id("contraction-inequality", d=d, n=n, m=m),
        shortfall,
        0.0,
        TOL_COEFF,
        seed,
        zero_target=True,
    )


def check_order2_identity(seed: int, d: int = 2) -> CheckResult:
    """Order 2: E det L = 4 det C + 32 (|f (x)_1 g|^2 - |sym(f (x)_1 g)|^2)."""
    pair = ChaosPair.random(seed * 7 + 8, d, 2, 2)
    _, det_c = covariance(pair)
    c1 = contract(pair.f, pair.g, 1)
    rem = 32 * (c1.norm_sq() - symmetrize(c1).norm_sq())
    return _result(
        _id("order2-identity", d=d),
        edet_closed(pair),
        4 * det_c + rem,
        TOL_SCALAR,
        seed,
    )


def check_mixed_order_counterexample(n: int = 2, m: int = 3, d: int = 2) -> CheckResult:
    """Powers of one basis vector: E det L = 0 while det C = n! m! > 0."""
    pair = ChaosPair(SymTensor.basis_power(d, 0, n), SymTensor.basis_power(d, 0, m))
    edet = float(edet_closed(pair))
    _, det_c = covariance(pair)
    res_zero = _result(
        _id("mixed-order-edet-zero", n=n, m=m), edet, 0.0, TOL_COEFF, 0, zero_target=True
    )
    expected_c = float(math.factorial(n) * math.factorial(m))
    res_c = _result(
        _id("mixed-order-detC", n=n, m=m), float(det_c), expected_c, 0.0, 0
    )
    return res_zero if not res_zero.passed else res_c


def check_density_dichotomy(seed: int, d: int = 2, m: int = 2) -> CheckResult:
    """Proportional pairs refuse a density; generic pairs admit one."""
    f = random_unit_tensor(seed * 9000 + 1, d, m)
    prop = ChaosPair(f, f.scale(-0.75))
    verdict_prop = density_verdict(prop)
    generic = ChaosPair.random(seed * 9000 + 2, d, m, m)
    verdict_gen = density_verdict(generic)
    ok = (
        verdict_prop is DensityVerdict.NO_DENSITY_PROPORTIONAL
        and verdict_gen is DensityVerdict.HAS_DENSITY
        and float(edet_closed(prop)) <= TOL_COEFF
    )
    return CheckResult(
        check_id=_id("density-dichotomy", d=d, m=m),
        lhs=float(edet_closed(prop)),
        rhs=0.0,
        abs_err=float(edet_closed(prop)),
        rel_err=0.0,
        tol=TOL_COEFF,
        passed=ok,
        inputs_seed=seed,
    )


# ----------------------------------------------------------------------
# suite

DEFAULT_GRID: tuple[tuple[int, int, int], ...] = tuple(
    (d, n, m) for d in (2, 3) for n in range(1, 5) for m in range(1, 5)
)


def run_suite(
    seeds: Sequence[int] = range(10),
    grid: Sequence[tuple[int, int, int]] = DEFAULT_GRID,
) -> list[CheckResult]:
    """Run every checker over the (d, n, m) grid; failures are recorded."""
    results: list[CheckResult] = []
    for seed in seeds:
        for d, n, m in grid:
            results.append(check_contraction_duality(seed, d, n, m))
            results.append(check_sym_outer_inner(seed, d, n, m))
            results.append(check_slice_contraction(seed, d, n, m))
            results.append(check_det_sum_of_squares(seed, d, n, m, n_points=5))
            results.append(check_t0_contraction_form(seed, d, n, m))
            results.append(check_edet_routes(seed, d, n, m))
            results.append(check_contraction_inequality(seed, d, n, m))
            if n == m:
                results.append(check_same_order_decomposition(seed, d, m))
                results.append(check_last_term_closed_form(seed, d, m))
                if m <= 4:
                    results.append(check_density_dichotomy(seed, d, m))
        results.append(check_order2_identity(seed))
    results.append(check_mixed_order_counterexample())
    return results


def suite_failed(results: Iterable[CheckResult]) -> bool:
    return any(not r.passed for r in results)
