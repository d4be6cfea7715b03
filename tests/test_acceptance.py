"""Acceptance suite: one test per criterion, one printed line per criterion.

All checks are identity-based at desk scale.  Derived constants were
computed independently before being frozen here (dense ordered-tuple
oracles, the chaos-product route, exact rational arithmetic on integer
tensors, and Monte Carlo).  The hand-checkable fixed point
(e_0^(x)2, e_1^(x)2) has det C = 4 and E det L = 16 = 4 * det C, agreed
on by all four routes.
"""
import math
from fractions import Fraction

import numpy as np

from chaosdet.chaos import eval_integral, sample
from chaosdet.malliavin import (
    ChaosPair,
    DensityVerdict,
    covariance,
    density_verdict,
    det_lambda_at,
    edet_closed,
    edet_same_chaos,
    edet_theorem,
    t0_contraction,
    t_last_closed,
    term_T_k,
)
from chaosdet.montecarlo import estimate_edet
from chaosdet.tensors import (
    SymTensor,
    contract,
    inner,
    max_coeff_diff,
    random_sym_tensor,
    random_unit_tensor,
    symmetrize,
)
from chaosdet.verify import oracle_edet

from dense_reference import bisym_to_dense, dense_symmetrize, sym_to_dense

GRID = [(d, n, m) for d in (2, 3) for n in range(1, 5) for m in range(1, 5)]


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {status} criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def unit_pair(seed, d, n, m):
    return ChaosPair(
        random_unit_tensor(seed * 2 + 1, d, n), random_unit_tensor(seed * 2 + 2, d, m)
    )


def int_pair(seed, d, n, m):
    return ChaosPair(
        random_sym_tensor(seed * 2 + 1, d, n, dist="int"),
        random_sym_tensor(seed * 2 + 2, d, m, dist="int"),
    )


def rel_err(a, b):
    denom = max(abs(a), abs(b))
    return abs(a - b) / denom if denom > 0 else 0.0


def test_criterion_01_pointwise_det_routes():
    """Gram route and sum-of-squares route agree at every sample.

    The Gram route subtracts two O(|DF|^2 |DG|^2) products, so its error
    floor is float eps at that scale; relative agreement is therefore
    measured against the larger of the routes and that operand scale
    (otherwise samples where det L happens to vanish would demand more
    precision than float64 carries for any correct implementation).
    """
    tol = 1e-9
    worst = 0.0
    for d, n, m in GRID:
        for pair_seed in range(20):
            pair = unit_pair(pair_seed * 100 + d, d, n, m)
            for j in range(50):
                s = sample(pair_seed * 1000 + j, d)
                gram, sos = det_lambda_at(pair, s)
                sf = [eval_integral(t, s) for t in pair.slices_f]
                sg = [eval_integral(t, s) for t in pair.slices_g]
                scale = sum(v * v for v in sf) * sum(v * v for v in sg)
                denom = max(abs(gram), abs(sos), scale)
                if denom > 0:
                    worst = max(worst, abs(gram - sos) / denom)
    report(
        1,
        "pointwise det routes",
        worst <= tol,
        f"max rel err {worst:.3g} over {len(GRID)}x20x50 samples (tol {tol:g})",
    )


def test_criterion_02_slice_contraction_identity():
    """1/(nm) sum_i s_i(f) (x)_r s_i(g) rebuilds f (x)_{r+1} g coefficientwise."""
    tol = 1e-12
    worst = 0.0
    for d, n, m in GRID:
        for seed in range(5):
            pair = unit_pair(seed * 100 + 7 * d, d, n, m)
            for r in range(min(n, m)):
                acc = None
                for i in range(d):
                    piece = contract(pair.slices_f[i], pair.slices_g[i], r)
                    acc = piece if acc is None else acc + piece
                rebuilt = acc.scale(1.0 / (n * m))
                worst = max(worst, max_coeff_diff(rebuilt, contract(pair.f, pair.g, r + 1)))
    report(
        2,
        "slice contraction identity",
        worst <= tol,
        f"max coefficient err {worst:.3g} (tol {tol:g})",
    )


def test_criterion_03_inner_product_identities():
    """Contraction duality and the symmetrized-product inner identity."""
    tol = 1e-10
    worst = 0.0
    for d, n, m in GRID:
        for seed in range(5):
            base = seed * 400 + d * 37
            f1 = random_unit_tensor(base + 1, d, n)
            f3 = random_unit_tensor(base + 2, d, n)
            f2 = random_unit_tensor(base + 3, d, m)
            f4 = random_unit_tensor(base + 4, d, m)
            for r in range(min(n - 1, m - 1) + 1):
                lhs = inner(contract(f1, f3, n - r), contract(f2, f4, m - r))
                rhs = inner(contract(f1, f2, r), contract(f3, f4, r))
                worst = max(worst, rel_err(lhs, rhs))
            # symmetrized-product identity with x1, x4 of order n and
            # x2, x3 of order m: <sym(x1 (x) x2), sym(x3 (x) x4)>
            x1, x4 = f1, f3
            x2, x3 = f2, f4
            lhs = inner(symmetrize(contract(x1, x2, 0)), symmetrize(contract(x3, x4, 0)))
            total = 0.0
            for r in range(min(n, m) + 1):
                total += (
                    math.comb(n, r)
                    * math.comb(m, r)
                    * inner(contract(x1, x3, r), contract(x4, x2, r))
                )
            rhs = math.factorial(m) * math.factorial(n) / math.factorial(m + n) * total
            worst = max(worst, rel_err(lhs, rhs))
    # the symmetrizer itself against brute permutation averaging, orders <= 3
    sym_worst = 0.0
    for d in (2, 3):
        for p, q in [(1, 1), (1, 2), (2, 1), (0, 2), (3, 0)]:
            f = random_unit_tensor(d * 11 + p, d, p)
            g = random_unit_tensor(d * 13 + q, d, q)
            block = contract(f, g, 0)
            got = sym_to_dense(symmetrize(block))
            expected = dense_symmetrize(bisym_to_dense(block))
            sym_worst = max(sym_worst, float(np.abs(got - expected).max()))
    ok = worst <= tol and sym_worst <= 1e-12
    report(
        3,
        "inner product identities",
        ok,
        f"max rel err {worst:.3g} (tol {tol:g}); "
        f"symmetrize vs permutation oracle {sym_worst:.3g}",
    )


def test_criterion_04_route_triangle():
    """Term sum, regrouped theorem form, chaos oracle and Monte Carlo agree."""
    tol_oracle = 1e-8
    tol_regroup = 1e-10
    worst_oracle = 0.0
    worst_regroup = 0.0
    exact_ok = True
    for d, n, m in GRID:
        for seed in range(2):
            pair = unit_pair(seed * 300 + d * 31, d, n, m)
            closed = float(edet_closed(pair))
            theorem = float(edet_theorem(pair))
            oracle = float(oracle_edet(pair))
            worst_regroup = max(worst_regroup, rel_err(closed, theorem))
            worst_oracle = max(worst_oracle, rel_err(closed, oracle))
            worst_oracle = max(worst_oracle, rel_err(theorem, oracle))
        # same values in exact arithmetic: equality holds with no tolerance
        exact = int_pair(d * 41 + n * 7 + m, d, n, m)
        exact_ok = exact_ok and edet_closed(exact) == edet_theorem(exact)
    pair = ChaosPair(random_unit_tensor(101, 2, 2), random_unit_tensor(102, 2, 2))
    exact_value = float(edet_closed(pair))
    hits = 0
    n_seeds = 100
    for seed in range(n_seeds):
        est = estimate_edet(pair, 100_000, seed=seed)
        if abs(est.mean - exact_value) <= 4 * est.stderr:
            hits += 1
    ok = (
        worst_oracle <= tol_oracle
        and worst_regroup <= tol_regroup
        and exact_ok
        and hits >= 99
    )
    report(
        4,
        "route triangle",
        ok,
        f"closed/theorem rel {worst_regroup:.3g} (exact-mode equality: {exact_ok}); "
        f"vs oracle rel {worst_oracle:.3g} (tol {tol_oracle:g}); "
        f"MC bracket {hits}/{n_seeds} seeds",
    )


def test_criterion_05_same_order_decomposition():
    """m^2 det C + correction + remainder reassembles the term sum."""
    tol = 1e-8
    tol_r2 = 1e-10
    worst = 0.0
    worst_r2 = 0.0
    for m in (2, 3, 4, 5):
        for d in (2, 3):
            for seed in range(3):
                pair = unit_pair(seed * 50 + d * 9 + m, d, m, m)
                parts = edet_same_chaos(pair)
                worst = max(worst, rel_err(float(parts.total), float(edet_closed(pair))))
                if m == 2:
                    assert parts.correction == 0
                    c1 = contract(pair.f, pair.g, 1)
                    r2 = 32 * (c1.norm_sq() - symmetrize(c1).norm_sq())
                    worst_r2 = max(worst_r2, rel_err(float(parts.remainder), float(r2)))
    ok = worst <= tol and worst_r2 <= tol_r2
    report(
        5,
        "same-order decomposition",
        ok,
        f"total rel err {worst:.3g} (tol {tol:g}); "
        f"order-2 remainder rel err {worst_r2:.3g} (tol {tol_r2:g})",
    )


def test_criterion_06_last_term_closed_form():
    """T_{m-1} = m^2 m!^2 (|f (x)_{m-1} g|^2 - <f (x)_1 g, g (x)_1 f>)."""
    tol = 1e-9
    worst = 0.0
    for m in (2, 3, 4):
        for d in (2, 3):
            for seed in range(5):
                pair = unit_pair(seed * 60 + d * 5 + m, d, m, m)
                worst = max(
                    worst,
                    rel_err(float(term_T_k(pair, m - 1)), float(t_last_closed(pair))),
                )
    report(6, "last-term closed form", worst <= tol, f"max rel err {worst:.3g} (tol {tol:g})")


def test_criterion_07_nonnegativity():
    """T_0's telescoping contraction form and every T_k stay non-negative."""
    tol = 1e-12
    worst_sum = 0.0
    worst_term = 0.0
    for seed in range(200):
        d, n, m = GRID[seed % len(GRID)]
        pair = unit_pair(seed * 11 + 3, d, n, m)
        worst_sum = min(worst_sum, float(t0_contraction(pair)))
        for k in range(min(n, m)):
            worst_term = min(worst_term, float(term_T_k(pair, k)))
    ok = worst_sum >= -tol and worst_term >= -tol
    report(
        7,
        "non-negativity",
        ok,
        f"min T_0 contraction form {worst_sum:.3g}, min T_k {worst_term:.3g} (floor -{tol:g})",
    )


def test_criterion_08_density_dichotomy():
    """Proportional pairs refuse a joint density; generic pairs admit one."""
    bad = 0
    worst_edet = 0.0
    for case in range(100):
        d = 2 + case % 2
        m = 1 + case % 4
        f = random_unit_tensor(case * 17 + 1, d, m)
        factor = (-1.0 if case % 3 == 0 else 1.0) * (0.25 + (case % 5))
        pair = ChaosPair(f, f.scale(factor))
        edet = float(edet_closed(pair))
        worst_edet = max(worst_edet, abs(edet))
        if density_verdict(pair) is not DensityVerdict.NO_DENSITY_PROPORTIONAL:
            bad += 1
        if abs(edet) > 1e-12:
            bad += 1
    for case in range(100):
        d = 2 + case % 2
        m = 1 + case % 4
        pair = unit_pair(case * 19 + 7, d, m, m)
        _, det_c = covariance(pair)
        if density_verdict(pair) is not DensityVerdict.HAS_DENSITY:
            bad += 1
        if not (float(det_c) > 0 and float(edet_closed(pair)) > 0):
            bad += 1
    report(
        8,
        "density dichotomy",
        bad == 0,
        f"100 proportional + 100 generic pairs, max |E det L| on proportional "
        f"{worst_edet:.3g}, violations {bad}",
    )


def test_criterion_09_mixed_order_counterexample():
    """Powers of one basis vector: E det L = 0 while det C = n! m! > 0."""
    ok = True
    details = []
    for n in range(1, 5):
        for m in range(1, 5):
            if n == m:
                continue
            pair = ChaosPair(
                SymTensor.basis_power(2, 0, n), SymTensor.basis_power(2, 0, m)
            )
            edet = float(edet_closed(pair))
            _, det_c = covariance(pair)
            expected_c = float(math.factorial(n) * math.factorial(m))
            if abs(edet) > 1e-12 or float(det_c) != expected_c:
                ok = False
                details.append(f"(n={n}, m={m}): edet={edet}, detC={det_c}")
    report(
        9,
        "mixed-order counterexample",
        ok,
        "E det L = 0 and det C = n! m! exact on all n != m <= 4"
        + ("; " + "; ".join(details) if details else ""),
    )


def test_criterion_10_fixed_point():
    """Hand-checkable pair (e_0^(x)2, e_1^(x)2): det C = 4, E det L = 16.

    Independently derived: the pair realizes as (H_2(x_0), H_2(x_1)) with
    derivative coordinates (2 x_0 e_0, 2 x_1 e_1), so det L = 16 x_0^2 x_1^2
    with expectation 16 = 4 det C; the chaos oracle, the term sum, the
    contraction form of T_0 and exact rational arithmetic all agree.
    """
    pair = ChaosPair(SymTensor.basis_power(2, 0, 2), SymTensor.basis_power(2, 1, 2))
    _, det_c = covariance(pair)
    closed = edet_closed(pair)
    oracle = oracle_edet(pair)
    t0_form = t0_contraction(pair)
    ok = (
        float(det_c) == 4.0
        and rel_err(float(closed), 16.0) <= 1e-10
        and rel_err(float(oracle), 16.0) <= 1e-10
        and rel_err(float(t0_form), 16.0) <= 1e-10
        and closed == oracle == Fraction(16)  # integer inputs: exact arithmetic
    )
    report(
        10,
        "fixed point",
        ok,
        f"detC={float(det_c)}, edet_closed={float(closed)}, "
        f"oracle={float(oracle)}, T0 contraction form={float(t0_form)}",
    )
