import math

import pytest

from chaosdet.malliavin import ChaosPair, edet_closed
from chaosdet.montecarlo import McEstimate, estimate_edet
from chaosdet.tensors import SymTensor, random_unit_tensor


def small_pair(seed=0):
    return ChaosPair(
        random_unit_tensor(seed, 2, 2), random_unit_tensor(seed + 500, 2, 2)
    )


class TestEstimateEdet:
    def test_proportional_pair_is_identically_zero(self):
        f = SymTensor.basis_power(2, 0, 2)
        pair = ChaosPair(f, f.scale(2.0))
        est = estimate_edet(pair, 5000, seed=0)
        assert est.mean == 0.0
        assert est.stderr == 0.0
        assert est.ci95 == (0.0, 0.0)

    def test_brackets_exact_value(self):
        pair = small_pair(3)
        exact = float(edet_closed(pair))
        est = estimate_edet(pair, 100_000, seed=11)
        assert abs(est.mean - exact) <= 4 * est.stderr

    def test_ci_formula(self):
        est = estimate_edet(small_pair(1), 5000, seed=2)
        lo, hi = est.ci95
        assert lo == est.mean - 1.96 * est.stderr
        assert hi == est.mean + 1.96 * est.stderr
        assert est.n_samples == 5000

    def test_workers_do_not_change_bits(self):
        pair = small_pair(2)
        serial = estimate_edet(pair, 20_000, seed=9, workers=1)
        threaded = estimate_edet(pair, 20_000, seed=9, workers=4)
        assert serial == threaded

    @pytest.mark.parametrize("workers", [1, 2])
    def test_golden_bits(self, workers):
        # recorded values: any change to the draw, the kernel or the
        # reduction moves these bits
        pair = ChaosPair(random_unit_tensor(11, 3, 2), random_unit_tensor(12, 3, 2))
        est = estimate_edet(pair, 20000, seed=5, workers=workers)
        assert est.mean == float.fromhex("0x1.799b609c23287p+4")
        assert est.stderr == float.fromhex("0x1.c29691743059fp-2")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_golden_bits_past_guard(self, workers):
        # the mc-past-guard shape (d=6, n=m=4) over two full chunks and a
        # partial one; recorded values, like test_golden_bits
        pair = ChaosPair(random_unit_tensor(101, 6, 4), random_unit_tensor(102, 6, 4))
        est = estimate_edet(pair, 10_000, seed=7, workers=workers)
        assert est.mean == float.fromhex("0x1.710185a83faaap+15")
        assert est.stderr == float.fromhex("0x1.e526afdf4e4a6p+12")

    def test_chunk_size_is_part_of_the_contract(self):
        pair = small_pair(2)
        a = estimate_edet(pair, 10_000, seed=9, chunk_size=4096)
        b = estimate_edet(pair, 10_000, seed=9, chunk_size=4096)
        assert a == b

    def test_mean_nonnegative(self):
        # pointwise Gram determinants are >= 0 up to rounding
        for seed in range(5):
            est = estimate_edet(small_pair(seed), 2000, seed=seed)
            assert est.mean >= -1e-12

    def test_rejects_tiny_sample_counts(self):
        with pytest.raises(ValueError):
            estimate_edet(small_pair(0), 1, seed=0)

    def test_two_samples_are_enough(self):
        est = estimate_edet(small_pair(0), 2, seed=0)
        assert est.n_samples == 2
        assert math.isfinite(est.mean) and math.isfinite(est.stderr)

    def test_estimator_consistency_across_seeds(self):
        # |mean - exact| <= 4 stderr for (nearly) every seed
        pair = small_pair(7)
        exact = float(edet_closed(pair))
        hits = 0
        n_seeds = 20
        for seed in range(n_seeds):
            est = estimate_edet(pair, 4000, seed=seed)
            if abs(est.mean - exact) <= 4 * est.stderr:
                hits += 1
        assert hits >= n_seeds - 1


def test_estimate_is_frozen():
    est = McEstimate(1.0, 0.1, (0.8, 1.2), 10, 0)
    with pytest.raises(AttributeError):
        est.mean = 2.0
