"""Multiple Wiener-Ito integrals over a truncated Gaussian basis.

With the isonormal process truncated to d orthonormal basis vectors, a
Gaussian state is just the coordinate vector xi = (W(e_1), ..., W(e_d))
of i.i.d. standard normals, and the integral of an elementary symmetric
tensor evaluates to a product of probabilists' Hermite polynomials:
the tensor with occupation a realizes as prod_i H_{a_i}(xi_i).  Linear
extension over canonical coefficients (with multinomial weights) gives
pointwise evaluation of any I_k(f).

:class:`ChaosExpansion` holds a finite sum of integrals of different
orders.  Products expand eagerly through the multiplication formula

    I_n(f) I_m(g) = sum_r r! C(n,r) C(m,r) I_{n+m-2r}(sym(f (x)_r g))

and expectations read off the order-0 term, since all higher orders are
centered and mutually orthogonal.  The expectation of a product needs
only that order-0 term, which is the isometry

    E[X Y] = sum_k k! <X_k, Y_k>,

so :func:`expectation_of_product` reads it without expanding the product.
:func:`oracle_edet` builds E det L = E[|DF|^2 |DG|^2] - E[<DF, DG>^2]
from these two functions alone.  It lives here because this module
imports nothing from :mod:`chaosdet.malliavin`: the oracle cannot read
a closed-form term, so its agreement with them is a real check.

Sampling uses the counter-based Philox generator keyed by
(seed, stream index), so a sample is determined by its coordinates
alone, independent of threading or call interleaving.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .multiindex import multiplicity
from .tensors import Number, SymTensor, contract, inner, symmetrize

# Samples per Philox substream in the Monte Carlo chunk loop.  Results are
# bit-reproducible for a fixed (seed, chunk size), so changing this value
# changes every default Monte Carlo output.
DEFAULT_CHUNK_SIZE = 4096

# seeds key Philox as one 64-bit word
SEED_BOUND = 2**64


def hermite(n: int, x: Number) -> Number:
    """Probabilists' Hermite polynomial H_n(x).

    Three-term recurrence H_0 = 1, H_1 = x, H_{k+1} = x H_k - k H_{k-1};
    exact for int/Fraction arguments.
    """
    if n < 0:
        raise ValueError(f"Hermite degree must be >= 0, got {n}")
    if n == 0:
        return 1
    prev: Number = 1
    cur: Number = x
    for k in range(1, n):
        prev, cur = cur, x * cur - k * prev
    return cur


@dataclass(frozen=True)
class GaussianSample:
    """One realization of the truncated Gaussian coordinate vector.

    Coordinates are floats in normal use; int/Fraction coordinates are
    kept as given so pointwise identities can be checked exactly.
    """

    xi: tuple[Number, ...]

    def __post_init__(self) -> None:
        vals = tuple(
            x if isinstance(x, (int, Fraction)) else float(x) for x in self.xi
        )
        if len(vals) < 1:
            raise ValueError("sample must have dim >= 1")
        if not all(math.isfinite(float(x)) for x in vals):
            raise ValueError("sample coordinates must be finite")
        object.__setattr__(self, "xi", vals)

    @property
    def dim(self) -> int:
        return len(self.xi)


def _philox(seed: int, stream: int) -> np.random.Generator:
    if not 0 <= seed < SEED_BOUND:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample(seed: int, dim: int) -> GaussianSample:
    """Draw one standard normal coordinate vector, reproducible from seed."""
    return GaussianSample(tuple(_philox(seed, 0).standard_normal(dim)))


def eval_integral(f: SymTensor, s: GaussianSample) -> Number:
    """Realization of the multiple integral of f at one Gaussian sample."""
    if s.dim != f.dim:
        raise ValueError(f"sample dim {s.dim} does not match tensor dim {f.dim}")
    total: Number = 0
    for occ, v in f.items():
        term = multiplicity(occ) * v
        for x, a in zip(s.xi, occ):
            if a:
                term = term * hermite(a, x)
        total += term
    return total


def eval_arrays(f: SymTensor) -> tuple[np.ndarray, np.ndarray]:
    """Kernel-ready (occupations, multiplicity-scaled weights) arrays."""
    n = len(f)
    occ = np.zeros((n, f.dim), dtype=np.int64)
    weights = np.zeros(n, dtype=np.float64)
    for j, (o, v) in enumerate(f.items()):
        occ[j] = o
        weights[j] = float(multiplicity(o)) * float(v)
    return occ, weights


class ChaosExpansion:
    """Finite linear combination of multiple integrals of distinct orders."""

    __slots__ = ("dim", "_terms")

    def __init__(self, dim: int, terms: Mapping[int, SymTensor] | None = None):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)
        data: dict[int, SymTensor] = {}
        if terms:
            for order, tensor in terms.items():
                if tensor.dim != self.dim:
                    raise ValueError(
                        f"term dim {tensor.dim} does not match expansion dim {self.dim}"
                    )
                if tensor.order != order:
                    raise ValueError(
                        f"tensor of order {tensor.order} stored under key {order}"
                    )
                if len(tensor):
                    data[int(order)] = tensor
        self._terms = data

    @classmethod
    def of(cls, f: SymTensor) -> "ChaosExpansion":
        """The single multiple integral of f (order = f.order)."""
        return cls(f.dim, {f.order: f})

    @property
    def terms(self) -> Mapping[int, SymTensor]:
        return MappingProxyType(self._terms)

    def orders(self) -> list[int]:
        return sorted(self._terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChaosExpansion)
            and self.dim == other.dim
            and self._terms == other._terms
        )

    def __repr__(self) -> str:
        return f"ChaosExpansion(dim={self.dim}, orders={self.orders()})"

    def __add__(self, other: "ChaosExpansion") -> "ChaosExpansion":
        if not isinstance(other, ChaosExpansion):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dim mismatch: {self.dim} vs {other.dim}")
        data = dict(self._terms)
        for order, tensor in other._terms.items():
            data[order] = data[order] + tensor if order in data else tensor
        return ChaosExpansion(self.dim, data)

    def expectation(self) -> Number:
        """Expected value: the order-0 coefficient (higher orders are centered)."""
        t0 = self._terms.get(0)
        return t0.get((0,) * self.dim) if t0 is not None else 0


def product(x: ChaosExpansion, y: ChaosExpansion) -> ChaosExpansion:
    """Pointwise product, expanded through the multiplication formula."""
    if not isinstance(x, ChaosExpansion) or not isinstance(y, ChaosExpansion):
        raise TypeError("product expects ChaosExpansion arguments")
    if x.dim != y.dim:
        raise ValueError(f"dim mismatch: {x.dim} vs {y.dim}")
    acc: dict[int, SymTensor] = {}
    for n, f in x.terms.items():
        for m, g in y.terms.items():
            for r in range(min(n, m) + 1):
                coeff = math.factorial(r) * math.comb(m, r) * math.comb(n, r)
                piece = symmetrize(contract(f, g, r)).scale(coeff)
                order = n + m - 2 * r
                acc[order] = acc[order] + piece if order in acc else piece
    return ChaosExpansion(x.dim, acc)


def expectation_of_product(x: ChaosExpansion, y: ChaosExpansion) -> Number:
    """E[X Y] by the Wiener-Ito isometry: sum_k k! <x_k, y_k>.

    Equals ``product(x, y).expectation()``, the r = n = m term of the
    multiplication formula, without building the higher orders.
    """
    if not isinstance(x, ChaosExpansion) or not isinstance(y, ChaosExpansion):
        raise TypeError("expectation_of_product expects ChaosExpansion arguments")
    if x.dim != y.dim:
        raise ValueError(f"dim mismatch: {x.dim} vs {y.dim}")
    total: Number = 0
    for k, f in x.terms.items():
        g = y.terms.get(k)
        if g is not None:
            total += math.factorial(k) * inner(f, g)
    return total


def oracle_edet(pair):
    """E det L of a ``ChaosPair`` through chaos products only (no closed-form terms)."""
    # an empty slice gives an empty expansion, whose products are empty too
    zero = ChaosExpansion(pair.dim)
    df = [ChaosExpansion.of(t) for t in pair.slices_f]
    dg = [ChaosExpansion.of(t) for t in pair.slices_g]
    norm_df = sum((product(x, x) for x in df), zero)
    norm_dg = sum((product(y, y) for y in dg), zero)
    cross = sum((product(x, y) for x, y in zip(df, dg)), zero)
    return expectation_of_product(norm_df, norm_dg) - expectation_of_product(cross, cross)
