import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chaosdet.malliavin import ChaosPair, t_terms
from chaosdet.multiindex import _multiplicity, merge, occupations, splits
from chaosdet.tensors import (
    BiSymTensor,
    SymTensor,
    contract,
    inner,
    load_tensor,
    max_coeff_diff,
    random_sym_tensor,
    random_unit_tensor,
    save_tensor,
    symmetrize,
    tensor_from_dict,
    tensor_to_dict,
)
from chaosdet.verify import oracle_edet

from dense_reference import (
    bisym_to_dense,
    dense_contract,
    dense_inner,
    dense_symmetrize,
    sym_to_dense,
)


class TestInner:
    def test_elementary_square(self):
        f = SymTensor.basis_power(2, 0, 2)
        assert inner(f, f) == 1

    def test_symmetrized_pair_half_norm(self):
        # e_0 (x~) e_1 carries 1/2 on each of the two ordered tuples
        f = SymTensor(2, 2, {(1, 1): 0.5})
        expected = sum(0.5 * 0.5 for _ in [(0, 1), (1, 0)])
        assert inner(f, f) == expected == 0.5

    def test_zero_tensor(self):
        z = SymTensor(2, 2)
        g = random_sym_tensor(3, 2, 2)
        assert inner(z, g) == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            inner(SymTensor(2, 2), SymTensor(2, 3))
        with pytest.raises(ValueError):
            inner(SymTensor(2, 2), SymTensor(3, 2))

    def test_matches_dense(self):
        for seed in range(5):
            f = random_sym_tensor(seed, 2, 3)
            g = random_sym_tensor(seed + 100, 2, 3)
            dense = dense_inner(sym_to_dense(f), sym_to_dense(g))
            assert inner(f, g) == pytest.approx(dense, rel=1e-12)


def block_coeff(t, left, right):
    return dict(t.items()).get((left, right), 0)


class TestContract:
    def test_elementary_order_one(self):
        f = SymTensor.basis_power(2, 0, 2)
        c = contract(f, f, 1)
        assert c.left_order == c.right_order == 1
        assert block_coeff(c, (1, 0), (1, 0)) == 1
        assert len(c) == 1

    def test_full_contraction_is_inner(self):
        f = random_sym_tensor(1, 2, 2)
        g = random_sym_tensor(2, 2, 2)
        c = contract(f, g, 2)
        zero = (0, 0)
        assert block_coeff(c, zero, zero) == pytest.approx(inner(f, g), rel=1e-12)

    def test_outer_product(self):
        f = SymTensor.basis_power(2, 0, 1)
        g = SymTensor.basis_power(2, 1, 1)
        c = contract(f, g, 0)
        assert block_coeff(c, (1, 0), (0, 1)) == 1

    def test_r_out_of_range(self):
        f = random_sym_tensor(0, 2, 2)
        with pytest.raises(ValueError):
            contract(f, f, 3)
        with pytest.raises(ValueError):
            contract(f, f, -1)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            contract(SymTensor(2, 1), SymTensor(3, 1), 0)

    def test_matches_dense_nested_loops(self):
        # ordered-tuple oracle: sum over all 2^4 index combinations
        f = random_sym_tensor(7, 2, 2, dist="int")
        g = random_sym_tensor(8, 2, 2, dist="int")
        fd, gd = sym_to_dense(f), sym_to_dense(g)
        c = contract(f, g, 1)
        for j in range(2):
            for k in range(2):
                expected = sum(fd[i, j] * gd[i, k] for i in range(2))
                occ_j = tuple(1 if t == j else 0 for t in range(2))
                occ_k = tuple(1 if t == k else 0 for t in range(2))
                assert block_coeff(c, occ_j, occ_k) == expected


class TestSymmetrize:
    def test_identity_on_symmetric_block(self):
        f = SymTensor.basis_power(2, 0, 2)
        block = contract(f, SymTensor(2, 0, {(0, 0): 1}), 0)
        assert symmetrize(block) == f

    def test_two_slot_average(self):
        block = BiSymTensor(2, 1, 1, {((1, 0), (0, 1)): 1})
        s = symmetrize(block)
        assert s.get((1, 1)) == Fraction(1, 2)

    def test_matches_permutation_average(self):
        for seed in range(5):
            f = random_sym_tensor(seed + 10, 3, 1)
            g = random_sym_tensor(seed + 20, 3, 1)
            block = contract(f, g, 0)
            got = sym_to_dense(symmetrize(block))
            expected = dense_symmetrize(bisym_to_dense(block))
            np.testing.assert_allclose(got, expected, atol=1e-13)

    def test_norm_never_grows(self):
        for seed in range(10):
            f = random_sym_tensor(seed, 2, 2)
            g = random_sym_tensor(seed + 50, 2, 1)
            block = contract(f, g, 1)
            assert symmetrize(block).norm() <= block.norm() + 1e-12


class TestSlice:
    def test_elementary(self):
        f = SymTensor.basis_power(2, 0, 2)
        s0 = f.slice(0)
        assert s0.get((1, 0)) == 2
        assert len(f.slice(1)) == 0

    def test_power_slice(self):
        n = 4
        f = SymTensor.basis_power(3, 0, n)
        s = f.slice(0)
        assert s == SymTensor.basis_power(3, 0, n - 1).scale(n)

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            SymTensor(2, 0, {(0, 0): 1.0}).slice(0)

    def test_slices_reassemble_exactly(self):
        # sum_i e_i (x) slice(i) = order * tensor: the block coefficient of
        # e_i (x) s_i at ((i), J) is order * f[J + e_i], so checking
        # slice(i)[J] against order * f[occ] for every occupation with
        # occ[i] > 0 verifies the reassembly coefficientwise.
        f = random_sym_tensor(4, 3, 3)
        n = f.order
        for occ in occupations(3, 3):
            for i in range(3):
                if occ[i]:
                    low = occ[:i] + (occ[i] - 1,) + occ[i + 1 :]
                    assert f.slice(i).get(low) == n * f.get(occ)

    def test_slice_contraction_identity(self):
        # 1/(nm) sum_i s_i(f) (x)_r s_i(g) = f (x)_{r+1} g
        f = random_sym_tensor(11, 3, 3)
        g = random_sym_tensor(12, 3, 3)
        n, m = f.order, g.order
        for r in range(min(n, m)):
            acc = None
            for i in range(3):
                piece = contract(f.slice(i), g.slice(i), r)
                acc = piece if acc is None else acc + piece
            got = acc.scale(1.0 / (n * m))
            assert max_coeff_diff(got, contract(f, g, r + 1)) < 1e-12


class TestArithmetic:
    def test_add_cancel(self):
        f = random_sym_tensor(9, 2, 3)
        z = f + f.scale(-1)
        assert len(z) == 0

    def test_add_mismatch(self):
        with pytest.raises(ValueError):
            random_sym_tensor(0, 2, 2) + random_sym_tensor(0, 2, 3)

    def test_random_determinism(self):
        a = random_sym_tensor(42, 3, 2)
        b = random_sym_tensor(42, 3, 2)
        assert a == b

    def test_random_canonical_count(self):
        t = random_sym_tensor(0, 3, 2)
        assert len(t) == math.comb(3 + 2 - 1, 2) == 6

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            random_sym_tensor(0, 2, 2, dist="cauchy")


def _block(seed, dim, left, right):
    f = random_sym_tensor(seed, dim, left + 1)
    return contract(f, random_sym_tensor(seed + 1, dim, right + 1), 1)


class TestOperandChecks:
    # each case: (tensor, same kind of another shape, the other kind)
    CASES = {
        "sym": lambda: (random_sym_tensor(0, 2, 2), random_sym_tensor(1, 2, 3), _block(2, 2, 1, 1)),
        "sym-dim": lambda: (random_sym_tensor(0, 2, 2), random_sym_tensor(1, 3, 2), _block(2, 2, 1, 1)),
        "bisym": lambda: (_block(0, 2, 1, 1), _block(2, 2, 1, 2), random_sym_tensor(1, 2, 2)),
        "bisym-dim": lambda: (_block(0, 2, 1, 1), _block(2, 3, 1, 1), random_sym_tensor(1, 2, 2)),
    }
    OPS = {
        "inner": inner,
        "max_coeff_diff": max_coeff_diff,
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
    }

    @pytest.mark.parametrize("op", OPS.values(), ids=OPS.keys())
    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_kind_and_shape(self, case, op):
        t, other_shape, other_kind = case()
        with pytest.raises(ValueError, match="shape mismatch"):
            op(t, other_shape)
        with pytest.raises(TypeError):
            op(t, other_kind)
        with pytest.raises(TypeError):
            op(other_kind, t)

    @pytest.mark.parametrize("op", [inner, max_coeff_diff])
    def test_non_tensor_rejected(self, op):
        with pytest.raises(TypeError):
            op(1.0, random_sym_tensor(0, 2, 2))
        with pytest.raises(TypeError):
            op(random_sym_tensor(0, 2, 2), 1.0)

    def test_equality_needs_kind_and_shape(self):
        t = random_sym_tensor(0, 2, 2)
        assert t == random_sym_tensor(0, 2, 2)
        assert t != SymTensor(2, 3) and SymTensor(2, 2) != SymTensor(2, 3)
        assert SymTensor(2, 0) != BiSymTensor(2, 0, 0)
        assert _block(0, 2, 1, 1) == _block(0, 2, 1, 1) != _block(0, 2, 1, 1).scale(2.0)


class TestBiSymTensor:
    def test_norm_with_multiplicities(self):
        t = BiSymTensor(2, 1, 1, {((1, 0), (0, 1)): 2.0})
        assert t.norm_sq() == 4.0

    def test_as_scalar_requires_empty_blocks(self):
        # the scalar of a full contraction is its (0, 0) entry; a tensor
        # with a nonempty block has no such entry, and the validating
        # constructor rejects one
        zero = (0, 0)
        with pytest.raises(ValueError, match="order"):
            BiSymTensor(2, 1, 0, {(zero, zero): 1.0})

    def test_inner_matches_dense(self):
        f = random_sym_tensor(1, 2, 2)
        g = random_sym_tensor(2, 2, 3)
        a = contract(f, g, 1)
        b = contract(f, g, 1)
        assert inner(a, b) == pytest.approx(
            dense_inner(bisym_to_dense(a), bisym_to_dense(b)), rel=1e-12
        )


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=2),
    n=st.integers(min_value=0, max_value=3),
    m=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_dense_oracle_equivalence(d, n, m, seed):
    """Canonical ops agree with the full ordered-tuple implementation."""
    f = random_sym_tensor(seed, d, n)
    g = random_sym_tensor(seed + 1, d, m)
    fd, gd = sym_to_dense(f), sym_to_dense(g)
    if n == m:
        assert inner(f, g) == pytest.approx(dense_inner(fd, gd), abs=1e-10)
    for r in range(min(n, m) + 1):
        c = contract(f, g, r)
        cd = dense_contract(fd, gd, r)
        np.testing.assert_allclose(bisym_to_dense(c), cd, atol=1e-10)
        s = symmetrize(c)
        np.testing.assert_allclose(
            sym_to_dense(s), dense_symmetrize(cd), atol=1e-10
        )


@st.composite
def int_tensors(draw, dim, order):
    """Small-integer tensors; zeros and cancellations are frequent."""
    occs = list(occupations(dim, order))
    values = draw(st.lists(st.integers(-2, 2), min_size=len(occs), max_size=len(occs)))
    return SymTensor(dim, order, dict(zip(occs, values)))


def validated(t):
    """Rebuild through the validating public constructor."""
    if isinstance(t, SymTensor):
        return SymTensor(t.dim, t.order, dict(t.items()))
    return BiSymTensor(t.dim, t.left_order, t.right_order, dict(t.items()))


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    d=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=0, max_value=3),
    m=st.integers(min_value=0, max_value=3),
    c=st.integers(min_value=-2, max_value=2),
)
def test_internal_results_match_validated_rebuild(data, d, n, m, c):
    """Results built without key checks equal their validated rebuild and store no zero."""
    f = data.draw(int_tensors(d, n))
    f2 = data.draw(int_tensors(d, n))
    g = data.draw(int_tensors(d, m))
    results = [f.scale(c), f + f2, f - f2, f + f.scale(-1)]
    results += [f.slice(i) for i in range(d)] if n else []
    for r in range(min(n, m) + 1):
        block = contract(f, g, r)
        results += [block, block.scale(c), block + contract(f2, g, r), symmetrize(block)]
    for t in results:
        assert t == validated(t)
        assert all(v != 0 for _, v in t.items())


def bits(t):
    """Keys, insertion order and exact values; floats by their hex form."""
    return [(key, v.hex() if isinstance(v, float) else v) for key, v in t.items()]


@st.composite
def float_tensors(draw, dim, order):
    occs = list(occupations(dim, order))
    values = draw(st.lists(
        st.floats(-1e3, 1e3, allow_subnormal=False) | st.just(0.0),
        min_size=len(occs), max_size=len(occs),
    ))
    return SymTensor(dim, order, dict(zip(occs, values)))


def clear_key_caches():
    for cache in (_multiplicity, splits, merge):
        cache.cache_clear()


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    exact=st.booleans(),
    d=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=0, max_value=4),
    m=st.integers(min_value=0, max_value=4),
)
def test_caches_change_no_bit(data, exact, d, n, m):
    """Contractions and symmetrizations run on warm key caches have the same
    keys, insertion order and bits as on cleared ones."""
    kind = int_tensors if exact else float_tensors
    f, g, h = data.draw(kind(d, n)), data.draw(kind(d, m)), data.draw(kind(d, n))
    for r in range(min(n, m) + 1):
        contract(f, h, min(r + 1, n))
        contract(f, f, r)
        contract(g, f, r)
        contract(h, g, r)
    for r in range(min(n, m) + 1):
        block = contract(f, g, r)
        sym = symmetrize(block)
        derived = contract(f.scale(2.0) + h, g, r)
        clear_key_caches()
        assert bits(block) == bits(contract(validated(f), validated(g), r))
        assert bits(sym) == bits(symmetrize(block))
        assert bits(derived) == bits(contract(validated(f).scale(2.0) + validated(h), g, r))
    assert f == validated(f) and g == validated(g)


def test_tensors_hold_no_cache():
    f = random_sym_tensor(3, 3, 3)
    contract(f, f, 2)
    assert not hasattr(f, "__dict__")
    slots = {name for cls in type(f).__mro__ for name in getattr(cls, "__slots__", ())}
    assert slots == {"dim", "_coeffs", "order"}


def test_cancelling_contraction_drops_only_the_zero_key():
    f = SymTensor(3, 1, {(1, 0, 0): 1, (0, 1, 0): 1})
    g = SymTensor(3, 2, {(2, 0, 0): 1, (1, 1, 0): -1, (1, 0, 1): 5, (0, 2, 0): 3})
    # right key (1, 0, 0) sums 1 * 1 + 1 * (-1) = 0; the others keep the
    # order in which the grouping first reaches them
    got = list(contract(f, g, 1).items())
    assert got == [(((0, 0, 0), (0, 1, 0)), 2), (((0, 0, 0), (0, 0, 1)), 5)]
    assert len(f.scale(0)) == 0 and len(contract(f, g, 1).scale(0.0)) == 0


def test_oracle_bits_do_not_depend_on_warm_slices():
    f, g = random_unit_tensor(31, 4, 3), random_unit_tensor(32, 4, 3)
    cold = oracle_edet(ChaosPair(f, g))
    pair = ChaosPair(f, g)
    t_terms(pair)
    assert oracle_edet(pair).hex() == cold.hex()


def test_merge_cache_is_bounded_and_used():
    assert isinstance(merge.cache_info().maxsize, int)
    block = contract(random_sym_tensor(1, 3, 3), random_sym_tensor(2, 3, 2), 1)
    symmetrize(block)
    hits = merge.cache_info().hits
    symmetrize(block)
    assert merge.cache_info().hits == hits + len(block)


class TestConstructorKeys:
    @pytest.mark.parametrize(
        "key, message", [((3, -1), "negative"), ((1, 0, 1), "dim"), ((1, 0), "order")]
    )
    def test_rejects_bad_occupations(self, key, message):
        with pytest.raises(ValueError, match=message):
            SymTensor(2, 2, {key: 1.0})
        with pytest.raises(ValueError, match=message):
            BiSymTensor(2, 2, 0, {(key, (0, 0)): 1.0})


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float32("nan")])
    def test_constructors_reject(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            SymTensor(2, 1, {(1, 0): 1.0, (0, 1): bad})
        with pytest.raises(ValueError, match="not finite"):
            BiSymTensor(2, 1, 0, {((1, 0), (0, 0)): bad})

    def test_exact_values_accepted(self):
        # int and Fraction are finite at any size, even past the float range
        t = SymTensor(2, 1, {(1, 0): 10**400, (0, 1): Fraction(10**400, 3)})
        assert t.get((0, 1)) == Fraction(10**400, 3)

    def test_loader_rejects_nan(self):
        obj = tensor_to_dict(random_unit_tensor(0, 2, 2))
        obj["entries"][1]["coeff"] = math.nan
        with pytest.raises(ValueError, match="not finite"):
            tensor_from_dict(obj)


class TestExactMode:
    def test_integer_tensors_stay_exact(self):
        f = random_sym_tensor(5, 2, 2, dist="int")
        g = random_sym_tensor(6, 2, 2, dist="int")
        assert isinstance(inner(f, g), int)
        s = symmetrize(contract(f, g, 1))
        assert all(isinstance(v, (int, Fraction)) for v in dict(s.items()).values())
        # symmetrization weights are exact hypergeometric fractions
        dense = dense_symmetrize(dense_contract(sym_to_dense(f), sym_to_dense(g), 1))
        np.testing.assert_allclose(sym_to_dense(s), dense, atol=1e-12)

    def test_fraction_round_trip(self):
        # the symmetrization of e_0 (x) e_1
        t = SymTensor(2, 2, {(1, 1): Fraction(1, 2)})
        assert t.get((1, 1)) == Fraction(1, 2)
        assert t.norm_sq() == Fraction(1, 2)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        t = random_unit_tensor(3, 3, 2)
        path = tmp_path / "t.json"
        save_tensor(t, path)
        assert load_tensor(path) == t

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), dim=st.integers(1, 4), order=st.integers(0, 4))
    def test_everything_saved_loads_back(self, tmp_path, data, dim, order):
        coeffs = data.draw(st.dictionaries(
            st.sampled_from(list(occupations(dim, order))),
            st.floats(allow_nan=False, allow_infinity=False) | st.integers(-9, 9),
        ))
        t = SymTensor(dim, order, coeffs)
        path = tmp_path / "t.json"
        save_tensor(t, path)
        assert load_tensor(path) == t

    def test_rejects_duplicates(self):
        obj = {
            "dim": 2,
            "order": 1,
            "entries": [
                {"occupation": [1, 0], "coeff": 1.0},
                {"occupation": [1, 0], "coeff": 2.0},
            ],
        }
        with pytest.raises(ValueError, match="duplicate"):
            tensor_from_dict(obj)

    def test_rejects_bad_order(self):
        obj = {"dim": 2, "order": 2, "entries": [{"occupation": [1, 0], "coeff": 1.0}]}
        with pytest.raises(ValueError, match="order"):
            tensor_from_dict(obj)

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing"):
            tensor_from_dict({"dim": 2, "entries": []})

    def test_entries_sorted(self):
        t = random_sym_tensor(1, 2, 3)
        entries = tensor_to_dict(t)["entries"]
        occs = [tuple(e["occupation"]) for e in entries]
        assert occs == sorted(occs)
