"""Determinant identities for pairs of multiple Wiener-Ito integrals.

Symmetric tensor algebra over a truncated orthonormal Gaussian basis,
chaos expansions with the multiplication formula, and three independent
routes to E det of the Malliavin matrix of a pair (closed-form term
sums, chaos-product oracle, Monte Carlo), together with the covariance
determinant and the equal-order joint-density verdict.
"""

__version__ = "0.1.0"

from .chaos import (
    ChaosExpansion,
    GaussianSample,
    eval_integral,
    hermite,
    oracle_edet,
    product,
    sample,
)
from .malliavin import (
    ChaosPair,
    DensityVerdict,
    MalliavinReport,
    build_report,
    covariance,
    density_verdict,
    det_lambda_at,
    edet_closed,
    edet_same_chaos,
    edet_theorem,
    malliavin_slices,
    t0_contraction,
    t_last_closed,
    term_T_k,
)
from .montecarlo import McEstimate, estimate_edet
from .multiindex import multiplicity, occupations
from .tensors import (
    BiSymTensor,
    SymTensor,
    contract,
    inner,
    load_tensor,
    random_sym_tensor,
    random_unit_tensor,
    save_tensor,
    symmetrize,
)
from .verify import CheckResult, run_suite

__all__ = [
    "__version__",
    "BiSymTensor",
    "ChaosExpansion",
    "ChaosPair",
    "CheckResult",
    "DensityVerdict",
    "GaussianSample",
    "MalliavinReport",
    "McEstimate",
    "SymTensor",
    "build_report",
    "contract",
    "covariance",
    "density_verdict",
    "det_lambda_at",
    "edet_closed",
    "edet_same_chaos",
    "edet_theorem",
    "estimate_edet",
    "eval_integral",
    "hermite",
    "inner",
    "load_tensor",
    "malliavin_slices",
    "multiplicity",
    "occupations",
    "oracle_edet",
    "product",
    "random_sym_tensor",
    "random_unit_tensor",
    "run_suite",
    "sample",
    "save_tensor",
    "symmetrize",
    "t0_contraction",
    "t_last_closed",
    "term_T_k",
]
