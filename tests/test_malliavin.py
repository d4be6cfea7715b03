import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chaosdet import malliavin, verify
from chaosdet.chaos import ChaosExpansion, GaussianSample, eval_integral, product, sample
from chaosdet.cli import _emit
from chaosdet.malliavin import (
    ChaosPair,
    DensityVerdict,
    OutsideDecidedRange,
    build_report,
    contraction_norms_sq,
    covariance,
    density_verdict,
    det_lambda_at,
    edet_closed,
    edet_same_chaos,
    edet_theorem,
    malliavin_slices,
    r_term,
    t0_contraction,
    t_last_closed,
    t_terms,
    term_T_k,
)
from chaosdet.tensors import (
    SymTensor,
    contract,
    inner,
    random_sym_tensor,
    random_unit_tensor,
    symmetrize,
)
from chaosdet.verify import oracle_edet


def unit_pair(seed, d, n, m):
    return ChaosPair(
        random_unit_tensor(seed, d, n), random_unit_tensor(seed + 500, d, m)
    )


class TestSlices:
    def test_elementary_power(self):
        n = 3
        f = SymTensor.basis_power(3, 0, n)
        slices = malliavin_slices(f)
        assert slices[0] == SymTensor.basis_power(3, 0, n - 1).scale(n)
        assert len(slices[1]) == 0 and len(slices[2]) == 0

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            malliavin_slices(SymTensor(2, 0, {(0, 0): 1.0}))

    def test_derivative_norm_squared_pointwise(self):
        # |DF|^2 at a sample is the sum of squared slice evaluations, which
        # is exactly how det_lambda_at builds its Gram route; cross-check
        # against an independent chaos-product expansion of |DF|^2.
        f = random_sym_tensor(3, 2, 2)
        pair = ChaosPair(f, f)
        norm_df = None
        for s in pair.slices_f:
            term = product(ChaosExpansion.of(s), ChaosExpansion.of(s))
            norm_df = term if norm_df is None else norm_df + term
        for j in range(20):
            point = sample(j, 2)
            direct = sum(eval_integral(s, point) ** 2 for s in pair.slices_f)
            via_chaos = sum(eval_integral(t, point) for t in norm_df.terms.values())
            assert via_chaos == pytest.approx(direct, rel=1e-9)

    def test_expected_derivative_norm(self):
        # E |DF|^2 = n * n! * |f|^2, via the chaos oracle
        for n in (1, 2, 3):
            f = random_sym_tensor(n, 3, n)
            norm_df = None
            for s in malliavin_slices(f):
                term = product(ChaosExpansion.of(s), ChaosExpansion.of(s))
                norm_df = term if norm_df is None else norm_df + term
            expected = n * math.factorial(n) * inner(f, f)
            assert norm_df.expectation() == pytest.approx(expected, rel=1e-10)


class TestDetLambdaAt:
    def test_parallel_derivatives_vanish(self):
        for n, m in [(2, 2), (2, 3), (3, 4)]:
            pair = ChaosPair(
                SymTensor.basis_power(2, 0, n), SymTensor.basis_power(2, 0, m)
            )
            for j in range(10):
                gram, sos = det_lambda_at(pair, sample(j, 2))
                assert sos == 0.0
                assert abs(gram) < 1e-10

    def test_single_dimension_vanishes(self):
        pair = ChaosPair(
            random_sym_tensor(0, 1, 2), random_sym_tensor(1, 1, 3)
        )
        for j in range(10):
            gram, sos = det_lambda_at(pair, sample(j, 1))
            assert sos == 0.0
            assert abs(gram) < 1e-12 * 100

    def test_routes_agree(self):
        pair = unit_pair(0, 3, 2, 2)
        for j in range(50):
            gram, sos = det_lambda_at(pair, sample(j, 3))
            assert gram == pytest.approx(sos, rel=1e-9)

    def test_routes_agree_up_to_dim_four(self):
        for d in (2, 3, 4):
            for n, m in [(1, 4), (4, 4), (3, 2)]:
                pair = unit_pair(d * 10 + n, d, n, m)
                for j in range(10):
                    gram, sos = det_lambda_at(pair, sample(j, d))
                    assert gram == pytest.approx(sos, rel=1e-9, abs=1e-12)

    def test_exact_mode_routes_identical(self):
        pair = ChaosPair(
            random_sym_tensor(0, 2, 2, dist="int"),
            random_sym_tensor(1, 2, 2, dist="int"),
        )
        s = GaussianSample((Fraction(1, 3), Fraction(-2, 5)))
        gram, sos = det_lambda_at(pair, s)
        assert gram == sos
        assert isinstance(gram, Fraction)


class TestTermTk:
    def test_proportional_pair_vanishes(self):
        f = random_unit_tensor(2, 3, 3)
        pair = ChaosPair(f, f.scale(2.0))
        for k in range(3):
            assert term_T_k(pair, k) == pytest.approx(0.0, abs=1e-12)

    def test_every_term_nonnegative(self):
        for seed in range(5):
            pair = unit_pair(seed, 3, 3, 4)
            for k in range(3):
                assert term_T_k(pair, k) >= 0

    def test_out_of_range(self):
        pair = unit_pair(0, 2, 2, 3)
        with pytest.raises(ValueError):
            term_T_k(pair, 2)

    def test_last_term_closed_form(self):
        for m in (2, 3, 4):
            pair = unit_pair(m, 3, m, m)
            assert term_T_k(pair, m - 1) == pytest.approx(
                t_last_closed(pair), rel=1e-9
            )

    def test_sum_matches_oracle(self):
        pair = unit_pair(5, 3, 2, 2)
        total = term_T_k(pair, 0) + term_T_k(pair, 1)
        assert total == pytest.approx(oracle_edet(pair), rel=1e-8)


class TestOncePerPair:
    def test_repeat_calls_reuse_the_first_computation(self, monkeypatch):
        pair = unit_pair(3, 3, 3, 3)
        terms = t_terms(pair)
        norms = contraction_norms_sq(pair)
        norms[0] = -1.0  # a caller's copy; the pair's values stay intact
        values = (edet_closed(pair), edet_theorem(pair), edet_same_chaos(pair))

        def no_contraction(*args):
            raise AssertionError("recomputed a contraction")

        monkeypatch.setattr(malliavin, "contract", no_contraction)
        assert t_terms(pair) == terms
        assert r_term(pair) == sum(terms[1:])
        assert contraction_norms_sq(pair)[0] > 0
        assert (edet_closed(pair), edet_theorem(pair), edet_same_chaos(pair)) == values
        assert density_verdict(pair) is DensityVerdict.HAS_DENSITY

    def test_range_still_checked(self):
        pair = unit_pair(0, 2, 2, 2)
        t_terms(pair)
        with pytest.raises(ValueError):
            term_T_k(pair, 2)


@settings(max_examples=20, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=1, max_value=3),
    m=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_exact_route_triangle(d, n, m, seed):
    """Term sum, theorem form and oracle agree exactly; each on its own pair."""
    f = random_sym_tensor(seed, d, n, dist="int")
    g = random_sym_tensor(seed + 1, d, m, dist="int")
    closed = edet_closed(ChaosPair(f, g))
    assert isinstance(closed, (int, Fraction))
    assert closed == edet_theorem(ChaosPair(f, g)) == oracle_edet(ChaosPair(f, g))


def supported_on(seed, d, order, coords):
    """Exact-int tensor of the given order on the basis vectors in ``coords``."""
    small = random_sym_tensor(seed, len(coords), order, dist="int")
    data = {}
    for occ, v in small.items():
        full = [0] * d
        for i, a in zip(coords, occ):
            full[i] = a
        data[tuple(full)] = v
    return SymTensor(d, order, data)


class TestIndependentSupports:
    """f on e_0..e_{a-1} and g on e_a..e_{d-1} are independent with orthogonal
    derivatives, so E det L = E|DF|^2 E|DG|^2 = n n! |f|^2 m m! |g|^2 exactly."""

    @pytest.fixture(params=[(4, 3, 2), (5, 3, 3), (6, 4, 4)], ids=lambda p: "d%d-n%d-m%d" % p)
    def split(self, request):
        d, n, m = request.param
        a = d // 2
        f = supported_on(40 + d, d, n, range(a))
        g = supported_on(60 + d, d, m, range(a, d))
        return f, g

    routes = (edet_closed, edet_theorem, oracle_edet)

    def test_every_route_gives_the_product_of_derivative_norms(self, split):
        f, g = split
        n, m = f.order, g.order
        expected = (
            n * math.factorial(n) * f.norm_sq() * m * math.factorial(m) * g.norm_sq()
        )
        assert expected > 0
        for route in self.routes:
            value = route(ChaosPair(f, g))
            assert isinstance(value, (int, Fraction))
            assert value == expected

    def test_covariance_determinant(self, split):
        f, g = split
        _, det_c = covariance(ChaosPair(f, g))
        assert det_c == (
            math.factorial(f.order) * math.factorial(g.order) * f.norm_sq() * g.norm_sq()
        )

    def test_scaling_and_swap(self, split):
        f, g = split
        for route in self.routes:
            base = route(ChaosPair(f, g))
            assert route(ChaosPair(f.scale(3), g.scale(-2))) == 36 * base
            assert route(ChaosPair(g, f)) == base


class TestEdetRoutes:
    def test_proportional_same_order(self):
        f = random_unit_tensor(4, 2, 3)
        pair = ChaosPair(f, f.scale(-1.5))
        assert edet_closed(pair) == pytest.approx(0.0, abs=1e-12)

    def test_mixed_elementary_pair(self):
        pair = ChaosPair(
            SymTensor.basis_power(2, 0, 2), SymTensor.basis_power(2, 0, 3)
        )
        assert edet_closed(pair) == 0.0

    def test_closed_matches_oracle(self):
        pair = unit_pair(6, 2, 2, 2)
        assert float(edet_closed(pair)) == pytest.approx(
            float(oracle_edet(pair)), rel=1e-8
        )

    def test_theorem_route(self):
        # n = 1: remainder empty, theorem form is the contraction form
        pair = unit_pair(7, 3, 1, 3)
        assert edet_theorem(pair) == t0_contraction(pair)
        # same values regrouped: agreement is exact in rational arithmetic
        exact = ChaosPair(
            random_sym_tensor(8, 2, 2, dist="int"),
            random_sym_tensor(9, 2, 2, dist="int"),
        )
        assert edet_theorem(exact) == edet_closed(exact)
        # float route: independent T_0 formulas agree to tight tolerance
        pair = unit_pair(10, 3, 3, 3)
        assert float(edet_theorem(pair)) == pytest.approx(
            float(edet_closed(pair)), rel=1e-10
        )


class TestT0Contraction:
    def test_first_order_pair_is_gram_determinant(self):
        f = random_sym_tensor(1, 3, 1)
        g = random_sym_tensor(2, 3, 1)
        pair = ChaosPair(f, g)
        expected = inner(f, f) * inner(g, g) - inner(f, g) ** 2
        assert t0_contraction(pair) == pytest.approx(expected, rel=1e-12)

    def test_matches_slice_route(self):
        pair = unit_pair(3, 3, 2, 3)
        assert float(t0_contraction(pair)) == pytest.approx(
            float(term_T_k(pair, 0)), rel=1e-9
        )

    def test_orthogonal_elementary_pair(self):
        # f = e_0^(x)2, g = e_1^(x)2: only the r = 0 term survives and
        # T_0 = 2*2*2!*2! * (1 - 0) = 16
        pair = ChaosPair(
            SymTensor.basis_power(2, 0, 2), SymTensor.basis_power(2, 1, 2)
        )
        assert t0_contraction(pair) == 16


class TestSameChaosDecomposition:
    def test_order_two_identity(self):
        pair = unit_pair(11, 2, 2, 2)
        parts = edet_same_chaos(pair)
        assert parts.correction == 0  # empty sum at m = 2
        c1 = contract(pair.f, pair.g, 1)
        r2 = 32 * (c1.norm_sq() - symmetrize(c1).norm_sq())
        assert parts.remainder == pytest.approx(r2, rel=1e-10)
        _, det_c = covariance(pair)
        assert parts.total == pytest.approx(4 * det_c + r2, rel=1e-10)

    def test_order_three_correction_weight(self):
        pair = unit_pair(12, 3, 3, 3)
        parts = edet_same_chaos(pair)
        norms = [contract(pair.f, pair.g, r).norm_sq() for r in range(4)]
        expected = 9 * 36 * 3 * (norms[1] - norms[2])
        assert parts.correction == pytest.approx(expected, rel=1e-10)

    def test_order_five_remark_expansion(self):
        pair = unit_pair(13, 2, 5, 5)
        parts = edet_same_chaos(pair)
        _, det_c = covariance(pair)
        norms = [contract(pair.f, pair.g, r).norm_sq() for r in range(6)]
        scale = 25 * math.factorial(5) ** 2
        expected = scale * (math.comb(4, 1) ** 2 - 1) * (norms[1] - norms[4])
        expected += scale * (math.comb(4, 2) ** 2 - math.comb(4, 1) ** 2) * (
            norms[2] - norms[3]
        )
        assert parts.m2_det_c == pytest.approx(25 * det_c, rel=1e-12)
        assert parts.correction == pytest.approx(expected, rel=1e-10)
        assert parts.total == pytest.approx(float(edet_closed(pair)), rel=1e-8)

    def test_requires_equal_orders(self):
        with pytest.raises(ValueError):
            edet_same_chaos(unit_pair(0, 2, 2, 3))


class TestCovariance:
    def test_mixed_orders(self):
        pair = ChaosPair(
            SymTensor.basis_power(2, 0, 2), SymTensor.basis_power(2, 0, 3)
        )
        matrix, det_c = covariance(pair)
        assert matrix[0][1] == 0
        assert det_c == math.factorial(2) * math.factorial(3) == 12

    def test_proportional_pair_degenerate(self):
        f = random_unit_tensor(1, 3, 2)
        pair = ChaosPair(f, f.scale(3.0))
        _, det_c = covariance(pair)
        assert det_c == pytest.approx(0.0, abs=1e-12)

    def test_matches_expectation_oracle(self):
        pair = unit_pair(14, 3, 2, 2)
        x = ChaosExpansion.of(pair.f)
        y = ChaosExpansion.of(pair.g)
        matrix, det_c = covariance(pair)
        assert matrix[0][0] == pytest.approx(product(x, x).expectation(), rel=1e-10)
        assert matrix[0][1] == pytest.approx(product(x, y).expectation(), rel=1e-10)
        assert matrix[1][1] == pytest.approx(product(y, y).expectation(), rel=1e-10)
        oracle = (
            product(x, x).expectation() * product(y, y).expectation()
            - product(x, y).expectation() ** 2
        )
        assert det_c == pytest.approx(oracle, rel=1e-10)

    def test_nonnegative(self):
        for seed in range(10):
            pair = unit_pair(seed, 2, 3, 3)
            _, det_c = covariance(pair)
            assert det_c >= -1e-12


class TestContractionInequality:
    def test_nonnegative_on_random_pairs(self):
        for seed in range(25):
            pair = unit_pair(seed, 3, 3, 4)
            assert t0_contraction(pair) >= -1e-12

    @pytest.mark.parametrize("d, n, m", [(2, 2, 2), (3, 3, 3), (3, 2, 4), (4, 4, 3)])
    def test_t0_is_the_weighted_contraction_norm_sum(self, d, n, m):
        # exact ints: the inequality sum is T_0 over n m n! m!, so the check reads T_0
        f = random_sym_tensor(d * 100 + n, d, n, dist="int")
        g = random_sym_tensor(d * 100 + m + 50, d, m, dist="int")
        norms = [contract(f, g, r).norm_sq() for r in range(min(n, m) + 1)]
        telescoped = sum(
            math.comb(n - 1, r) * math.comb(m - 1, r) * (norms[r] - norms[r + 1])
            for r in range(min(n, m))
        )
        value = t0_contraction(ChaosPair(f, g))
        assert isinstance(value, int)
        assert value == n * m * math.factorial(n) * math.factorial(m) * telescoped


class TestDensityVerdict:
    def test_proportional(self):
        f = random_unit_tensor(2, 2, 3)
        pair = ChaosPair(f, f.scale(3.0))
        assert density_verdict(pair) is DensityVerdict.NO_DENSITY_PROPORTIONAL

    def test_orthogonal_elementary(self):
        pair = ChaosPair(
            SymTensor.basis_power(2, 0, 2), SymTensor.basis_power(2, 1, 2)
        )
        assert density_verdict(pair) is DensityVerdict.HAS_DENSITY

    def test_nonproportional_powers(self):
        f = SymTensor.basis_power(2, 0, 4)
        # (e_0 + e_1)^(x)4: every ordered tuple carries 1
        g = SymTensor(2, 4, {(4 - a, a): 1.0 for a in range(5)})
        g = g.scale(1.0 / g.norm())
        assert density_verdict(ChaosPair(f, g)) is DensityVerdict.HAS_DENSITY

    def test_non_finite_indicators_undecided(self):
        # finite coefficients whose squared norms overflow to inf
        f = SymTensor(2, 2, {(2, 0): 1e200, (1, 1): 1e200})
        g = SymTensor(2, 2, {(0, 2): 1e200})
        assert not math.isfinite(covariance(ChaosPair(f, g))[1])
        assert density_verdict(ChaosPair(f, g)) is DensityVerdict.UNDECIDED

    def test_scope_errors(self):
        with pytest.raises(OutsideDecidedRange):
            density_verdict(unit_pair(0, 2, 2, 3))
        with pytest.raises(OutsideDecidedRange):
            density_verdict(unit_pair(0, 2, 5, 5))

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf])
    def test_bad_tolerance_rejected(self, tol):
        # a negative or NaN tolerance would call the proportional pair
        # HasDensity, an infinite one would call every pair proportional
        f = random_unit_tensor(3, 3, 2)
        for pair in (ChaosPair(f, f.scale(-0.5)), unit_pair(4, 3, 2, 2), unit_pair(0, 2, 2, 3)):
            with pytest.raises(ValueError, match="tol") as info:
                density_verdict(pair, tol=tol)
            assert not isinstance(info.value, OutsideDecidedRange)

    def test_zero_tolerance_decides_exact_pairs(self):
        f = random_sym_tensor(5, 3, 3, dist="int")
        assert (
            density_verdict(ChaosPair(f, f.scale(-3)), tol=0)
            is DensityVerdict.NO_DENSITY_PROPORTIONAL
        )
        g = random_sym_tensor(6, 3, 3, dist="int")
        assert density_verdict(ChaosPair(f, g), tol=0) is DensityVerdict.HAS_DENSITY


class TestOrderOneCriterion:
    """For m = 1 the only term is T_0 = n n! (|f (x) g|^2 - |f (x)_1 g|^2)."""

    def test_parallel_pair(self):
        pair = ChaosPair(SymTensor.basis_power(2, 0, 3), SymTensor.basis_power(2, 0, 1))
        assert t0_contraction(pair) == edet_closed(pair) == 0

    def test_orthogonal_elementary(self):
        pair = ChaosPair(SymTensor.basis_power(2, 0, 2), SymTensor.basis_power(2, 1, 1))
        assert t0_contraction(pair) == edet_closed(pair) == 4

    def test_equals_other_routes(self):
        pair = unit_pair(15, 3, 3, 1)
        assert t0_contraction(pair) == edet_theorem(pair)
        assert float(t0_contraction(pair)) == pytest.approx(
            float(edet_closed(pair)), rel=1e-10
        )
        exact = ChaosPair(
            random_sym_tensor(16, 2, 3, dist="int"),
            random_sym_tensor(17, 2, 1, dist="int"),
        )
        assert t0_contraction(exact) == edet_closed(exact)


class TestReport:
    def test_full_report_fields(self):
        pair = unit_pair(20, 2, 2, 2)
        report = build_report(pair, trials=2000, seed=3)
        assert report.edet_closed == pytest.approx(sum(report.t_terms))
        assert report.r_term == pytest.approx(sum(report.t_terms[1:]))
        assert report.edet_oracle == pytest.approx(report.edet_closed, rel=1e-8)
        assert report.verdict is DensityVerdict.HAS_DENSITY
        assert report.edet_mc is not None
        q = report.quantities()
        assert {"detC", "T", "R", "edet_closed", "edet_oracle", "edet_mc_mean"} <= set(q)

    def test_sums_are_left_folds(self):
        """R and edet_closed are the plain left fold of T on every interpreter.

        The builtin ``sum`` compensates float sums from Python 3.12 on; on
        this pair (``report --random --dim 3 --n 3 --m 3 --seed 2``) that
        sum differs from the left fold in the last bit of edet_closed.
        """

        def neumaier(values):
            total, c = 0.0, 0.0
            for x in values:
                t = total + x
                c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
                total = t
            return total + c if c and math.isfinite(c) else total

        pair = ChaosPair(random_unit_tensor(2001, 3, 3), random_unit_tensor(2002, 3, 3))
        report = build_report(pair)
        folds = []
        for terms in (report.t_terms, report.t_terms[1:]):
            total = 0.0
            for value in terms:
                total += value
            folds.append(total)
        assert report.edet_closed.hex() == folds[0].hex() == edet_closed(pair).hex()
        assert report.r_term.hex() == folds[1].hex() == r_term(pair).hex()
        assert neumaier(report.t_terms) != folds[0]

    def test_guard_degrades_to_mc(self):
        pair = ChaosPair(
            random_unit_tensor(0, 6, 2), random_unit_tensor(1, 6, 2)
        )
        report = build_report(pair, trials=500, seed=0)
        assert report.edet_closed is None
        assert report.warnings
        assert report.edet_mc is not None

    def test_past_guard_never_calls_the_oracle(self, monkeypatch):
        # the guard is build_report's policy: the oracle itself runs at any size
        def forbidden(pair):
            raise AssertionError("oracle_edet ran past the guard")

        pair = unit_pair(25, 6, 2, 2)
        monkeypatch.setattr(verify, "oracle_edet", forbidden)
        assert build_report(pair, trials=100).edet_oracle is None
        with pytest.raises(AssertionError, match="past the guard"):
            build_report(pair, unsafe=True)

    def test_mixed_pair_has_no_verdict(self):
        pair = ChaosPair(
            SymTensor.basis_power(2, 0, 2), SymTensor.basis_power(2, 0, 3)
        )
        report = build_report(pair)
        assert report.verdict is None
        assert report.det_c == 12
        assert report.edet_closed == 0.0

    def test_order_five_has_no_verdict(self):
        # the dichotomy is decided for orders <= 4 only; the other routes still run
        report = build_report(unit_pair(26, 2, 5, 5), unsafe=True)
        assert report.verdict is None
        assert report.same_chaos is not None

    def test_text_rendering(self, capsys):
        # reports render as text through the CLI's record writer
        report = build_report(unit_pair(21, 2, 2, 2))
        _emit({"quantities": report.quantities()}, "csv", None)
        text = capsys.readouterr().out
        assert "quantities.detC," in text and "quantities.edet_closed," in text

    def test_golden_bits(self):
        # recorded values at the guard edge: any change to an exact route,
        # the oracle, the verdict or the key names moves these bits
        pair = ChaosPair(random_unit_tensor(101, 5, 4), random_unit_tensor(102, 5, 4))
        q = build_report(pair).quantities()
        digest = hashlib.sha256(json.dumps(q, sort_keys=True).encode()).hexdigest()
        assert q["edet_closed"] == float.fromhex("0x1.72e744644b713p+15")
        assert digest == "adc9eb3681fd2bcebf760f4a11d5ae9bb6b61bff595fac8d4ef1774149166f8e"

    def test_negative_trials_rejected(self):
        # trials=0 means no Monte Carlo route; a negative count is an error
        pair = unit_pair(22, 2, 2, 2)
        assert build_report(pair, trials=0).edet_mc is None
        with pytest.raises(ValueError, match="trials"):
            build_report(pair, trials=-5)

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"workers": 0}, "workers must be >= 1, got 0"),
         ({"workers": -2}, "workers must be >= 1, got -2"),
         ({"chunk_size": 0}, "chunk_size must be >= 1, got 0")],
    )
    def test_bad_sampling_args_rejected_on_every_path(self, kwargs, message):
        # with and without trials, inside the guard and past it
        for pair in (unit_pair(24, 2, 2, 2), unit_pair(24, 6, 2, 2)):
            for trials in (0, 100):
                with pytest.raises(ValueError, match=message):
                    build_report(pair, trials=trials, **kwargs)

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_bad_tolerance_rejected_on_every_path(self, tol):
        # also where no verdict would be computed: mixed orders, past the guard
        for pair in (unit_pair(23, 2, 2, 2), unit_pair(23, 2, 2, 3), unit_pair(23, 6, 2, 2)):
            with pytest.raises(ValueError, match="tol"):
                build_report(pair, tol=tol)
