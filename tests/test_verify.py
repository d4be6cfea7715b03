import hashlib
import itertools
import json
import math

import pytest

from chaosdet import malliavin, verify
from chaosdet.malliavin import ChaosPair, covariance, edet_closed
from chaosdet.tensors import (
    BiSymTensor,
    SymTensor,
    contract,
    inner,
    random_sym_tensor,
    random_unit_tensor,
    symmetrize,
)
from chaosdet.verify import (
    check_contraction_duality,
    check_contraction_inequality,
    check_density_dichotomy,
    check_det_sum_of_squares,
    check_edet_routes,
    check_last_term_closed_form,
    check_mixed_order_counterexample,
    check_order2_identity,
    check_same_order_decomposition,
    check_slice_contraction,
    check_sym_outer_inner,
    check_t0_contraction_form,
    oracle_edet,
    run_suite,
    suite_failed,
    within_guard,
)


class TestOracle:
    def test_proportional_pair(self):
        f = random_unit_tensor(0, 2, 2)
        pair = ChaosPair(f, f.scale(2.0))
        assert oracle_edet(pair) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_elementary_pair(self):
        pair = ChaosPair(
            SymTensor.basis_power(2, 0, 2), SymTensor.basis_power(2, 1, 2)
        )
        assert oracle_edet(pair) == 16

    def test_order_two_identity(self):
        pair = ChaosPair(random_unit_tensor(1, 2, 2), random_unit_tensor(2, 2, 2))
        _, det_c = covariance(pair)
        c1 = contract(pair.f, pair.g, 1)
        r2 = 32 * (c1.norm_sq() - symmetrize(c1).norm_sq())
        assert oracle_edet(pair) == pytest.approx(4 * det_c + r2, rel=1e-9)

    def test_runs_past_the_guard(self):
        # the guard is build_report's policy, not the oracle's
        pair = ChaosPair(random_unit_tensor(0, 6, 2), random_unit_tensor(1, 6, 2))
        assert not within_guard(pair.dim, pair.n, pair.m)
        assert oracle_edet(pair) == pytest.approx(float(edet_closed(pair)), rel=1e-8)

    def test_guard_predicate(self):
        d, k = verify.GUARD_MAX_DIM, verify.GUARD_MAX_ORDER
        assert within_guard(d, k, k)
        for shape in [(d + 1, k, k), (d, k + 1, k), (d, k, k + 1)]:
            assert not within_guard(*shape)

    def test_exact_mode(self):
        pair = ChaosPair(
            random_sym_tensor(0, 2, 2, dist="int"),
            random_sym_tensor(1, 2, 2, dist="int"),
        )
        assert oracle_edet(pair) == edet_closed(pair)

    def test_reads_no_closed_form_value(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle used a closed-form route")

        for module in (malliavin, verify):
            for name in ("term_T_k", "t0_contraction", "contraction_norms_sq"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        pair = ChaosPair(
            random_sym_tensor(0, 2, 3, dist="int"),
            random_sym_tensor(1, 2, 3, dist="int"),
        )
        value = oracle_edet(pair)
        assert pair._memo == {}
        monkeypatch.undo()
        assert value == edet_closed(ChaosPair(pair.f, pair.g))


class TestSymOuterInnerScale:
    # at this suite seed the contraction terms cancel to about 2e-8, and
    # an error relative to that value alone exceeded the tolerance
    SEED, D, N, M = 1512138076, 3, 4, 4

    def test_cancelling_seed_passes(self):
        res = check_sym_outer_inner(self.SEED, self.D, self.N, self.M)
        assert res.passed, res.line()
        assert abs(res.lhs) < 1e-7

    def test_perturbation_relative_to_term_scale_fails(self, monkeypatch):
        n, m = self.N, self.M
        terms = []

        def recording(a, b):
            value = inner(a, b)
            if isinstance(a, BiSymTensor):
                terms.append(value)
            return value

        monkeypatch.setattr(verify, "inner", recording)
        check_sym_outer_inner(self.SEED, self.D, n, m)
        weight = math.factorial(n) * math.factorial(m) / math.factorial(n + m)
        scale = weight * sum(
            math.comb(n, r) * math.comb(m, r) * abs(v) for r, v in enumerate(terms)
        )

        def shifted(a, b):
            value = inner(a, b)
            return value + 1e-8 * scale if isinstance(a, SymTensor) else value

        monkeypatch.setattr(verify, "inner", shifted)
        res = check_sym_outer_inner(self.SEED, self.D, n, m)
        assert not res.passed
        assert res.rel_err == pytest.approx(1e-8, rel=1e-3)


class TestCheckers:
    CHECKERS = [
        check_contraction_duality,
        check_sym_outer_inner,
        check_slice_contraction,
        check_det_sum_of_squares,
        check_t0_contraction_form,
        check_edet_routes,
        check_contraction_inequality,
    ]

    @pytest.mark.parametrize("checker", CHECKERS)
    def test_passes_and_is_deterministic(self, checker):
        first = checker(42)
        second = checker(42)
        assert first.passed, first.line()
        assert first == second

    def test_equal_order_checkers(self):
        for m in (2, 3, 4):
            assert check_same_order_decomposition(7, 2, m).passed
            assert check_last_term_closed_form(7, 3, m).passed

    def test_fixed_checkers(self):
        assert check_order2_identity(3).passed
        assert check_mixed_order_counterexample().passed
        assert check_density_dichotomy(5).passed

    def test_result_semantics(self):
        res = check_t0_contraction_form(1)
        assert res.abs_err == pytest.approx(abs(res.lhs - res.rhs))
        assert res.passed == (res.rel_err <= res.tol)
        assert res.inputs_seed == 1

    def test_line_format(self):
        line = check_order2_identity(0).line()
        assert line.startswith("PASS") or line.startswith("FAIL")


def nan_on_call(func, call, to_nan):
    """func, except that its call number ``call`` (from 1) returns to_nan(value)."""
    count = itertools.count(1)

    def patched(*args, **kwargs):
        value = func(*args, **kwargs)
        return to_nan(value) if next(count) == call else value

    return patched


def nan(value):
    return math.nan


def minus_one(value):
    return -1.0


class TestNonFinite:
    @pytest.mark.parametrize(
        "lhs, rhs",
        [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, -math.inf), (math.inf, math.inf)],
    )
    @pytest.mark.parametrize("zero_target", [False, True])
    def test_non_finite_value_fails(self, lhs, rhs, zero_target):
        res = verify._result("x", lhs, rhs, 1e-10, 0, zero_target=zero_target)
        assert not res.passed
        assert res.rel_err == math.inf

    # each route turns NaN (or T_0 negative) on its call number ``call``
    @pytest.mark.parametrize(
        "checker, route, call, to_nan",
        [
            (check_contraction_duality, "inner", 3, nan),
            (check_slice_contraction, "max_coeff_diff", 2, nan),
            (check_det_sum_of_squares, "det_lambda_at", 2, lambda v: v._replace(gram=math.nan)),
            (check_edet_routes, "edet_theorem", 1, nan),
            (check_contraction_inequality, "t0_contraction", 1, nan),
            (check_contraction_inequality, "t0_contraction", 1, minus_one),
        ],
    )
    def test_nan_route_fails(self, monkeypatch, checker, route, call, to_nan):
        monkeypatch.setattr(verify, route, nan_on_call(getattr(verify, route), call, to_nan))
        res = checker(42)
        assert not res.passed, res.line()


class TestSuite:
    def test_small_suite_green(self):
        results = run_suite(seeds=[0], grid=[(2, n, m) for n in (1, 2) for m in (1, 2)])
        assert results
        assert not suite_failed(results)
        for r in results:
            assert r.passed, r.line()

    def test_default_suite_green(self):
        # the full default configuration: grid d in {2,3}, orders 1..4, 10 seeds
        results = run_suite()
        assert len(results) > 2000
        failures = [r.line() for r in results if not r.passed]
        assert not failures, failures[:5]

    def test_golden_bits(self):
        # recorded over one seed of the default grid: pins inner, max_coeff_diff,
        # norm_sq, + and scale on both tensor kinds through every checker
        results = run_suite(seeds=[0])
        digest = hashlib.sha256(json.dumps([vars(r) for r in results]).encode()).hexdigest()
        assert len(results) == 250
        assert digest == "b49912d74b1facee33ebfaf3758af8a8ea85dfe7f47876f5501f92e15f58b92e"

    def test_failed_flag(self):
        results = run_suite(seeds=[0], grid=[(2, 1, 1)])
        results[0].passed = False
        assert suite_failed(results)
