"""Determinants of the Malliavin and covariance matrices of a chaos pair.

For F = I_n(f) and G = I_m(g) the Malliavin derivative coordinates are
slice integrals: DF = sum_i I_{n-1}(f.slice(i)) e_i.  The 2x2 Malliavin
matrix has determinant

    det L = |DF|^2 |DG|^2 - <DF, DG>^2
          = 1/2 sum_{i,l} (S_i,f S_l,g - S_l,f S_i,g)^2,

a pointwise sum of squared 2x2 minors.  Expanding each minor through
the multiplication formula and taking expectations order by order gives
the closed form

    E det L = sum_k T_k,
    T_k = 1/2 k!^2 C(n-1,k)^2 C(m-1,k)^2 (n+m-2-2k)!
          * sum_{i,l} | sym(s_i,f (x)_k s_l,g) - sym(s_l,f (x)_k s_i,g) |^2,

every term non-negative.  T_0 also has a contraction-norm form

    T_0 = sum_r n m n! m! C(n-1,r) C(m-1,r) (|f (x)_r g|^2 - |f (x)_{r+1} g|^2),

and for equal orders the total regroups around the covariance
determinant:

    E det L = m^2 det C
            + (m m!)^2 sum_{r=1..(m-1)//2} (C(m-1,r)^2 - C(m-1,r-1)^2)
              (|f (x)_r g|^2 - |f (x)_{m-r} g|^2)
            + sum_{k>=1} T_k.

The last term T_{m-1} collapses to
m^2 m!^2 (|f (x)_{m-1} g|^2 - <f (x)_1 g, g (x)_1 f>), which is
non-negative by Cauchy-Schwarz and zero exactly when f and g are
proportional; for equal orders m <= 4 that yields the dichotomy: the
pair admits a joint density if and only if det C > 0.

All functions preserve exact arithmetic for int/Fraction coefficients.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .chaos import DEFAULT_CHUNK_SIZE, GaussianSample, eval_integral, oracle_edet
from .montecarlo import _check_sampling_args, estimate_edet
from .tensors import Number, SymTensor, contract, inner, random_unit_tensor, symmetrize


class ChaosPair:
    """An ordered pair of symmetric tensors over the same basis.

    The derivative slices are computed once, on construction.  The
    closed-form routes cache each T_k and the contraction norms in
    ``_memo``, so every closed-form quantity is computed once per pair.
    The chaos-product oracle in :mod:`chaosdet.chaos` reads only the
    slices.
    """

    __slots__ = ("f", "g", "dim", "n", "m", "slices_f", "slices_g", "_memo")

    def __init__(self, f: SymTensor, g: SymTensor):
        if f.dim != g.dim:
            raise ValueError(f"dim mismatch: {f.dim} vs {g.dim}")
        if f.order < 1 or g.order < 1:
            raise ValueError("both tensors must have order >= 1")
        self.f = f
        self.g = g
        self.dim = f.dim
        self.n = f.order
        self.m = g.order
        self.slices_f = malliavin_slices(f)
        self.slices_g = malliavin_slices(g)
        self._memo: dict = {}

    @classmethod
    def random(cls, seed: int, dim: int, n: int, m: int) -> "ChaosPair":
        """The unit-norm pair that ``--random`` draws, reproducible from seed."""
        f = random_unit_tensor(seed * 1000 + 1, dim, n)
        return cls(f, random_unit_tensor(seed * 1000 + 2, dim, m))

    def __repr__(self) -> str:
        return f"ChaosPair(dim={self.dim}, orders=({self.n}, {self.m}))"


def malliavin_slices(f: SymTensor) -> list[SymTensor]:
    """Derivative coordinates of I_k(f): DF = sum_i I_{k-1}(slices[i]) e_i."""
    if f.order < 1:
        raise ValueError("Malliavin derivative requires order >= 1")
    return [f.slice(i) for i in range(f.dim)]


class DetLambdaRoutes(NamedTuple):
    gram: float
    sos: float


def det_lambda_at(pair: ChaosPair, s: GaussianSample) -> DetLambdaRoutes:
    """det of the Malliavin matrix at one sample, by two independent routes.

    ``gram`` is |DF|^2 |DG|^2 - <DF, DG>^2 from the evaluated derivative
    coordinates; ``sos`` is the half-sum of squared 2x2 minors.  The two
    agree identically in exact arithmetic.
    """
    sf = [eval_integral(t, s) for t in pair.slices_f]
    sg = [eval_integral(t, s) for t in pair.slices_g]
    a = left_sum(v * v for v in sf)
    b = left_sum(v * v for v in sg)
    q = left_sum(u * v for u, v in zip(sf, sg))
    gram = a * b - q * q
    sos: Number = 0
    for i in range(pair.dim):
        for l in range(pair.dim):
            minor = sf[i] * sg[l] - sf[l] * sg[i]
            sos += minor * minor
    return DetLambdaRoutes(gram, _half(sos))


def left_sum(values: Iterable[Number]) -> Number:
    """Left-to-right sum from 0, uncompensated, unlike ``sum`` from Python 3.12 on."""
    total: Number = 0
    for v in values:
        total += v
    return total


def _half(x: Number) -> Number:
    return x / 2 if isinstance(x, float) else x * Fraction(1, 2)


def term_T_k(pair: ChaosPair, k: int) -> Number:
    """The order-(n+m-2-2k) contribution to E det L; always >= 0."""
    n, m, d = pair.n, pair.m, pair.dim
    kmax = min(n, m) - 1
    if not 0 <= k <= kmax:
        raise ValueError(f"k={k} out of range 0..{kmax}")
    key = ("T", k)
    if key in pair._memo:
        return pair._memo[key]
    sf, sg = pair.slices_f, pair.slices_g
    # The (i, l) summand is symmetric and vanishes on the diagonal, so the
    # half-sum over ordered pairs equals the plain sum over i < l.
    total: Number = 0
    for i in range(d):
        for l in range(i + 1, d):
            s1 = symmetrize(contract(sf[i], sg[l], k))
            s2 = symmetrize(contract(sf[l], sg[i], k))
            total += (s1 - s2).norm_sq()
    prefactor = (
        math.factorial(k) ** 2
        * math.comb(m - 1, k) ** 2
        * math.comb(n - 1, k) ** 2
        * math.factorial(m + n - 2 - 2 * k)
    )
    pair._memo[key] = value = prefactor * total
    return value


def t_terms(pair: ChaosPair) -> list[Number]:
    return [term_T_k(pair, k) for k in range(min(pair.n, pair.m))]


def edet_closed(pair: ChaosPair) -> Number:
    """E det L as the sum of all T_k."""
    return left_sum(t_terms(pair))


def r_term(pair: ChaosPair) -> Number:
    """Remainder sum_{k>=1} T_k; empty (0) when n = 1 or m = 1."""
    return left_sum(term_T_k(pair, k) for k in range(1, min(pair.n, pair.m)))


def contraction_norms_sq(pair: ChaosPair) -> list[Number]:
    """Squared block norms |f (x)_r g|^2 for r = 0..min(n, m)."""
    norms = pair._memo.get("norms")
    if norms is None:
        norms = pair._memo["norms"] = tuple(
            contract(pair.f, pair.g, r).norm_sq() for r in range(min(pair.n, pair.m) + 1)
        )
    return list(norms)


def t0_contraction(pair: ChaosPair) -> Number:
    """Contraction-norm form of T_0, an independent route to the k=0 term."""
    n, m = pair.n, pair.m
    norms = contraction_norms_sq(pair)
    scale = m * n * math.factorial(m) * math.factorial(n)
    return left_sum(
        scale * math.comb(n - 1, r) * math.comb(m - 1, r) * (norms[r] - norms[r + 1])
        for r in range(min(n - 1, m - 1) + 1)
    )


def edet_theorem(pair: ChaosPair) -> Number:
    """E det L as contraction-form T_0 plus the remainder sum."""
    return t0_contraction(pair) + r_term(pair)


class SameChaosParts(NamedTuple):
    """Equal-order decomposition of E det L around the covariance determinant."""

    m2_det_c: Number
    correction: Number
    remainder: Number

    @property
    def total(self) -> Number:
        return self.m2_det_c + self.correction + self.remainder


def edet_same_chaos(pair: ChaosPair) -> SameChaosParts:
    """Decompose E det L as m^2 det C + correction + remainder (n = m only)."""
    if pair.n != pair.m:
        raise ValueError("equal-order decomposition requires n = m")
    m = pair.m
    _, det_c = covariance(pair)
    norms = contraction_norms_sq(pair)
    scale = (m * math.factorial(m)) ** 2
    correction: Number = 0
    for r in range(1, (m - 1) // 2 + 1):
        weight = scale * (math.comb(m - 1, r) ** 2 - math.comb(m - 1, r - 1) ** 2)
        correction += weight * (norms[r] - norms[m - r])
    return SameChaosParts(m * m * det_c, correction, r_term(pair))


def t_last_closed(pair: ChaosPair) -> Number:
    """Closed form of the last term T_{m-1} for equal orders.

    m^2 m!^2 (|f (x)_{m-1} g|^2 - <f (x)_1 g, g (x)_1 f>); non-negative by
    Cauchy-Schwarz, and zero exactly on proportional pairs.
    """
    if pair.n != pair.m:
        raise ValueError("last-term closed form requires n = m")
    m = pair.m
    c_last = contract(pair.f, pair.g, m - 1)
    cross = inner(contract(pair.f, pair.g, 1), contract(pair.g, pair.f, 1))
    return m * m * math.factorial(m) ** 2 * (c_last.norm_sq() - cross)


def covariance(pair: ChaosPair):
    """Covariance matrix of (F, G) and its determinant.

    Distinct chaos orders are orthogonal, so the off-diagonal entry is
    n! <f, g> when n = m and 0 otherwise; det C >= 0 by Cauchy-Schwarz.
    """
    n, m = pair.n, pair.m
    var_f = math.factorial(n) * pair.f.norm_sq()
    var_g = math.factorial(m) * pair.g.norm_sq()
    cov: Number = math.factorial(n) * inner(pair.f, pair.g) if n == m else 0
    matrix = [[var_f, cov], [cov, var_g]]
    return matrix, var_f * var_g - cov * cov


class DensityVerdict(enum.Enum):
    NO_DENSITY_PROPORTIONAL = "NoDensity_Proportional"
    HAS_DENSITY = "HasDensity"
    UNDECIDED = "Undecided"


class OutsideDecidedRange(ValueError):
    """The pair's orders lie outside the range where the dichotomy holds."""


def _check_tol(tol: float) -> None:
    # a negative or NaN threshold makes every pair "nonzero", an infinite
    # one makes every pair "zero": either would turn into a verdict
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


def density_verdict(pair: ChaosPair, tol: float = 1e-10) -> DensityVerdict:
    """Joint-density dichotomy for equal orders m <= 4.

    det C and E det L vanish together in this range; both indicators are
    tested at a scale-invariant relative threshold and the verdict is
    Undecided if they disagree or if either is not finite.  A bad ``tol``
    raises ValueError; orders outside the range raise
    :class:`OutsideDecidedRange`.
    """
    _check_tol(tol)
    if pair.n != pair.m:
        raise OutsideDecidedRange("density verdict requires equal chaos orders")
    if pair.m > 4:
        raise OutsideDecidedRange("density verdict is only decided for orders <= 4")
    n, m = pair.n, pair.m
    scale = float(
        math.factorial(n) * math.factorial(m) * pair.f.norm_sq() * pair.g.norm_sq()
    )
    _, det_c = covariance(pair)
    det_c = float(det_c)
    edet = float(edet_closed(pair))
    if not all(math.isfinite(x) for x in (scale, det_c, edet)):
        return DensityVerdict.UNDECIDED
    det_c_zero = det_c <= tol * scale
    edet_zero = edet <= tol * (n * m * scale)
    if det_c_zero and edet_zero:
        return DensityVerdict.NO_DENSITY_PROPORTIONAL
    if not det_c_zero and not edet_zero:
        return DensityVerdict.HAS_DENSITY
    return DensityVerdict.UNDECIDED


# ----------------------------------------------------------------------
# aggregated report


@dataclass
class MalliavinReport:
    """All determinant quantities for one tensor pair."""

    dim: int
    n: int
    m: int
    det_c: float
    t_terms: Optional[list[float]] = None
    r_term: Optional[float] = None
    t0_contraction: Optional[float] = None
    edet_closed: Optional[float] = None
    edet_theorem: Optional[float] = None
    edet_oracle: Optional[float] = None
    edet_mc: Optional[object] = None  # montecarlo.McEstimate
    same_chaos: Optional[tuple[float, float, float]] = None
    verdict: Optional[DensityVerdict] = None
    warnings: list[str] = field(default_factory=list)

    def quantities(self) -> dict:
        """Flat mapping with the stable output key names."""
        out: dict = {"detC": self.det_c}
        if self.t_terms is not None:
            out["T"] = list(self.t_terms)
            out["R"] = self.r_term
            out["t0_contraction"] = self.t0_contraction
            out["edet_closed"] = self.edet_closed
            out["edet_theorem"] = self.edet_theorem
        if self.edet_oracle is not None:
            out["edet_oracle"] = self.edet_oracle
        if self.edet_mc is not None:
            out["edet_mc_mean"] = self.edet_mc.mean
            out["edet_mc_stderr"] = self.edet_mc.stderr
            out["edet_mc_ci95"] = list(self.edet_mc.ci95)
        if self.same_chaos is not None:
            out["same_chaos_m2_detC"] = self.same_chaos[0]
            out["same_chaos_correction"] = self.same_chaos[1]
            out["same_chaos_R"] = self.same_chaos[2]
        if self.verdict is not None:
            out["verdict"] = self.verdict.value
        return out


GUARD_MAX_DIM = 5
GUARD_MAX_ORDER = 4


def within_guard(dim: int, n: int, m: int) -> bool:
    """Whether the exact routes run on a pair of this shape without ``unsafe``."""
    return dim <= GUARD_MAX_DIM and n <= GUARD_MAX_ORDER and m <= GUARD_MAX_ORDER


def build_report(
    pair: ChaosPair,
    trials: int = 0,
    seed: int = 0,
    tol: float = 1e-10,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    unsafe: bool = False,
) -> MalliavinReport:
    """Compute every route that fits the exact-computation guard.

    Outside the guard (and without ``unsafe``) the report degrades to
    the covariance determinant plus, when ``trials > 0``, the Monte
    Carlo estimate, with a warning record.  ``trials < 0``, a bad
    ``tol`` and ``workers`` or ``chunk_size`` below 1 raise ValueError
    before any route runs, whether or not Monte Carlo runs.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    _check_tol(tol)
    _check_sampling_args(workers, chunk_size)
    _, det_c = covariance(pair)
    report = MalliavinReport(pair.dim, pair.n, pair.m, det_c=float(det_c))
    if within_guard(pair.dim, pair.n, pair.m) or unsafe:
        terms = [float(v) for v in t_terms(pair)]
        report.t_terms = terms
        report.r_term = float(left_sum(terms[1:]))
        report.t0_contraction = float(t0_contraction(pair))
        report.edet_closed = float(left_sum(terms))
        report.edet_theorem = float(edet_theorem(pair))
        report.edet_oracle = float(oracle_edet(pair))
        if pair.n == pair.m:
            parts = edet_same_chaos(pair)
            report.same_chaos = (
                float(parts.m2_det_c),
                float(parts.correction),
                float(parts.remainder),
            )
            if pair.m <= 4:
                report.verdict = density_verdict(pair, tol=tol)
    else:
        report.warnings.append(
            f"exact routes skipped: dim <= {GUARD_MAX_DIM} and orders <= "
            f"{GUARD_MAX_ORDER} required (pass unsafe to override)"
        )
    if trials > 0:
        report.edet_mc = estimate_edet(
            pair, trials, seed, workers=workers, chunk_size=chunk_size
        )
    return report
