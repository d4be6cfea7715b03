"""Symmetric and block-symmetric tensors in canonical sparse storage.

A fully symmetric element of H^(x)k over a d-dimensional orthonormal
basis is stored once per canonical multi-index: each occupation vector
holds the common value of the coefficient on every ordered tuple with
that occupation.  Inner products and contractions then carry explicit
multinomial weights instead of enumerating ordered tuples, which keeps
storage and work polynomial in d.

Contractions pair the first r slots of one symmetric tensor against the
first r slots of another.  The result is symmetric within its left
block (the surviving slots of the first factor) and within its right
block, but not across blocks; :class:`BiSymTensor` stores exactly that
structure, and :func:`symmetrize` averages it over all slot
permutations when a fully symmetric result is needed.  The two kinds
share their storage (a dict from canonical key to nonzero coefficient),
their arithmetic and the metric built on it; they differ only in key
shape, the multinomial weight of a key and hence the norm.  Block norms
and symmetrized norms differ, and both enter the determinant identities
implemented in :mod:`chaosdet.malliavin`.

Coefficient values may be ``float`` (default), or ``int``/``Fraction``
for an exact arithmetic mode: every operation here uses integer
combinatorial weights and exact rational division, so tensors with
rational coefficients propagate exactly.  The exact mode backs the
tolerance-free cross-checks in the test suite.

Tensors are plain values: they hold their coefficients and shape, and
no cache.  Every operation returns a new tensor and writes only the
fresh dict it builds.  The occupation combinatorics the operations
need (weights, the splits :func:`contract` groups by, the merges
:func:`symmetrize` adds into) are bounded caches of integer keys in
:mod:`chaosdet.multiindex`.

The order of the floating-point sums is part of the exact routes'
reproducibility contract.  Rewrites that keep every result bit: lookup
caches of values that are computed exactly (keys and integer weights),
and regrouping that keeps each dict's insertion order, since the sums
then run over the same terms in the same order.  Rewrites that move
result bits: reordering a sum, changing the insertion order of a
grouping or of a result dict, and applying a weight at another point of
a product.
"""
from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction
from typing import Mapping, Sequence, Union

import numpy as np

from .multiindex import merge, multiplicity, occupations, splits

Number = Union[int, float, Fraction]


def _as_occ(key: Sequence[int], dim: int, order: int) -> tuple[int, ...]:
    occ = tuple(int(a) for a in key)
    if len(occ) != dim:
        raise ValueError(f"occupation {occ} has dim {len(occ)}, expected {dim}")
    if any(a < 0 for a in occ):
        raise ValueError(f"occupation {occ} has negative entries")
    if sum(occ) != order:
        raise ValueError(f"occupation {occ} has order {sum(occ)}, expected {order}")
    return occ


def _drop_zeros(data: dict) -> dict:
    """Delete zero values in place from a fresh dict nothing else holds; order is kept."""
    if 0 in data.values():
        for key in [key for key, v in data.items() if v == 0]:
            del data[key]
    return data


def _check_finite(occ, value: Number) -> None:
    # int and Fraction are always finite; math.isfinite would overflow on huge ones
    if not isinstance(value, (int, Fraction)) and not math.isfinite(value):
        raise ValueError(f"coefficient at {occ} is not finite: {value!r}")


class _CanonicalTensor:
    """Canonical sparse storage and the linear algebra both kinds share.

    A subclass fixes the key shape: it validates keys in ``__init__``,
    wraps computed coefficients in ``_trusted``, reports its shape tuple
    and gives the integer multinomial weight of a key, the number of
    ordered tuples that key stands for.
    """

    __slots__ = ("dim", "_coeffs")

    def items(self):
        return self._coeffs.items()

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self._shape() == other._shape()
            and self._coeffs == other._coeffs
        )

    def _check_compatible(self, other) -> None:
        # inner and max_coeff_diff call this unbound, so self is checked too
        if not isinstance(self, _CanonicalTensor) or not isinstance(other, type(self)):
            kinds = f"{type(self).__name__} and {type(other).__name__}"
            raise TypeError(f"expected two tensors of one kind, got {kinds}")
        if self._shape() != other._shape():
            raise ValueError(f"shape mismatch: {self!r} vs {other!r}")

    def __add__(self, other):
        self._check_compatible(other)
        data = dict(self._coeffs)
        for key, v in other._coeffs.items():
            data[key] = data.get(key, 0) + v
        return self._trusted(*self._shape(), data)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c: Number):
        return self._trusted(*self._shape(), {key: c * v for key, v in self._coeffs.items()})

    def norm(self) -> float:
        return math.sqrt(float(self.norm_sq()))


class SymTensor(_CanonicalTensor):
    """Fully symmetric tensor of a fixed order over a d-dimensional basis."""

    __slots__ = ("order",)

    def __init__(
        self, dim: int, order: int, coeffs: Mapping[tuple[int, ...], Number] | None = None
    ):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        self.dim = int(dim)
        self.order = int(order)
        data: dict[tuple[int, ...], Number] = {}
        if coeffs:
            for key, value in coeffs.items():
                occ = _as_occ(key, self.dim, self.order)
                _check_finite(occ, value)
                if value != 0:
                    data[occ] = value
        self._coeffs = data

    @classmethod
    def _trusted(cls, dim: int, order: int, data: dict) -> "SymTensor":
        """Wrap coefficients computed from valid tensors, skipping key checks.

        Only for results of operations on already validated tensors:
        keys must be occupations of (dim, order), and ``data`` a fresh
        dict the tensor takes over.  Zeros are still dropped, so storage
        matches the validating constructor.
        """
        t = cls.__new__(cls)
        t.dim = dim
        t.order = order
        t._coeffs = _drop_zeros(data)
        return t

    def _shape(self) -> tuple[int, int]:
        return (self.dim, self.order)

    _weight = staticmethod(multiplicity)

    def get(self, key: Sequence[int]) -> Number:
        return self._coeffs.get(tuple(key), 0)

    def __repr__(self) -> str:
        return f"SymTensor(dim={self.dim}, order={self.order}, nnz={len(self._coeffs)})"

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def basis_power(cls, dim: int, i: int, order: int) -> "SymTensor":
        """The elementary tensor e_i^(x)order."""
        occ = [0] * dim
        occ[i] = order
        return cls(dim, order, {tuple(occ): 1})

    # ------------------------------------------------------------------
    # metric and slices

    def norm_sq(self) -> Number:
        """Squared H^(x)k norm, exact for rational coefficients."""
        total: Number = 0
        for occ, v in self._coeffs.items():
            total += multiplicity(occ) * v * v
        return total

    def slice(self, i: int) -> "SymTensor":
        """Order-lowering coordinate slice.

        Returns the order-(k-1) tensor whose coefficient at J is
        k * (coefficient of self at J with the count of basis index i
        incremented); slices reassemble as sum_i e_i (x) slice(i) =
        k * self.
        """
        if self.order < 1:
            raise ValueError("slice requires order >= 1")
        if not 0 <= i < self.dim:
            raise ValueError(f"basis index {i} out of range for dim {self.dim}")
        data: dict[tuple[int, ...], Number] = {}
        for occ, v in self._coeffs.items():
            if occ[i] >= 1:
                low = occ[:i] + (occ[i] - 1,) + occ[i + 1 :]
                data[low] = self.order * v
        return SymTensor._trusted(self.dim, self.order - 1, data)


class BiSymTensor(_CanonicalTensor):
    """Tensor symmetric separately in a left and a right block of slots.

    This is the shape produced by contracting two symmetric tensors:
    symmetric in its first ``left_order`` slots and in its last
    ``right_order`` slots, with no symmetry across the split.  Keys are
    pairs (left occupation, right occupation).
    """

    __slots__ = ("left_order", "right_order")

    def __init__(
        self,
        dim: int,
        left_order: int,
        right_order: int,
        coeffs: Mapping[tuple[tuple[int, ...], tuple[int, ...]], Number] | None = None,
    ):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if left_order < 0 or right_order < 0:
            raise ValueError("block orders must be >= 0")
        self.dim = int(dim)
        self.left_order = int(left_order)
        self.right_order = int(right_order)
        data: dict[tuple[tuple[int, ...], tuple[int, ...]], Number] = {}
        if coeffs:
            for (left, right), value in coeffs.items():
                lo = _as_occ(left, self.dim, self.left_order)
                ro = _as_occ(right, self.dim, self.right_order)
                _check_finite((lo, ro), value)
                if value != 0:
                    data[lo, ro] = value
        self._coeffs = data

    @classmethod
    def _trusted(cls, dim: int, left_order: int, right_order: int, data: dict) -> "BiSymTensor":
        """Block counterpart of :meth:`SymTensor._trusted`; drops zeros."""
        t = cls.__new__(cls)
        t.dim = dim
        t.left_order = left_order
        t.right_order = right_order
        t._coeffs = _drop_zeros(data)
        return t

    def _shape(self) -> tuple[int, int, int]:
        return (self.dim, self.left_order, self.right_order)

    @staticmethod
    def _weight(key) -> int:
        return multiplicity(key[0]) * multiplicity(key[1])

    def __repr__(self) -> str:
        return (
            f"BiSymTensor(dim={self.dim}, blocks=({self.left_order}, "
            f"{self.right_order}), nnz={len(self._coeffs)})"
        )

    def norm_sq(self) -> Number:
        total: Number = 0
        for (a, b), v in self._coeffs.items():
            total += multiplicity(a) * multiplicity(b) * v * v
        return total


# ----------------------------------------------------------------------
# bilinear operations


def inner(a, b) -> Number:
    """Scalar product in H^(x)k, summing over ordered tuples.

    Accepts two tensors of the same kind and shape; the multinomial
    weights account for the ordered-tuple expansion of the canonical
    storage.
    """
    _CanonicalTensor._check_compatible(a, b)
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    total: Number = 0
    for key, v in small.items():
        w = big._coeffs.get(key)
        if w:
            total += small._weight(key) * v * w
    return total


def contract(f: SymTensor, g: SymTensor, r: int) -> BiSymTensor:
    """Contraction of order r: pair the first r slots of f and of g.

    The coefficient of the result at (J, K) is the sum over ordered
    r-tuples i of f[i, J] * g[i, K], computed over canonical
    r-occupations with multinomial weights.  r = 0 is the outer
    product; r = min(order_f, order_g) with equal orders is the full
    contraction, whose single value is inner(f, g).
    """
    if not isinstance(f, SymTensor) or not isinstance(g, SymTensor):
        raise TypeError("contract expects SymTensor arguments")
    if f.dim != g.dim:
        raise ValueError(f"dim mismatch: {f.dim} vs {g.dim}")
    if not 0 <= r <= min(f.order, g.order):
        raise ValueError(f"contraction order {r} out of range 0..{min(f.order, g.order)}")

    # each operand's entries grouped by the r-sub-occupation a they split off
    fg, gg = {}, {}
    for t, groups in ((f, fg), (g, gg)):
        for occ, v in t._coeffs.items():
            for a, rest in splits(occ, r):
                groups.setdefault(a, []).append((rest, v))
    data: dict[tuple[tuple[int, ...], tuple[int, ...]], Number] = {}
    for a, fitems in fg.items():
        gitems = gg.get(a)
        if not gitems:
            continue
        w = multiplicity(a)
        for left, fv in fitems:
            wf = w * fv
            for right, gv in gitems:
                key = (left, right)
                data[key] = data.get(key, 0) + wf * gv
    return BiSymTensor._trusted(f.dim, f.order - r, g.order - r, data)


def symmetrize(t: BiSymTensor) -> SymTensor:
    """Average of a block tensor over all slot permutations.

    Computed combinatorially: a block entry at (a, b) contributes to the
    symmetric occupation a + b with the hypergeometric weight
    prod_i C(a_i + b_i, a_i) / C(p + q, p), the fraction of slot
    permutations that route the left block onto that particular split.
    No permutation enumeration is performed.
    """
    if not isinstance(t, BiSymTensor):
        raise TypeError("symmetrize expects a BiSymTensor")
    p, q = t.left_order, t.right_order
    total_splits = math.comb(p + q, p)
    data: dict[tuple[int, ...], Number] = {}
    for key, v in t.items():
        occ, w = merge(key)
        if isinstance(v, float):
            contrib = v * w / total_splits
        else:
            contrib = v * Fraction(w, total_splits)
        data[occ] = data.get(occ, 0) + contrib
    return SymTensor._trusted(t.dim, p + q, data)


def max_coeff_diff(a, b) -> float:
    """Largest absolute coefficient difference between two like tensors."""
    _CanonicalTensor._check_compatible(a, b)
    keys = set(a._coeffs) | set(b._coeffs)
    return max(
        (abs(float(a._coeffs.get(k, 0) - b._coeffs.get(k, 0))) for k in keys), default=0.0
    )


# ----------------------------------------------------------------------
# random generation

DISTRIBUTIONS = ("normal", "int")


def random_sym_tensor(seed: int, dim: int, order: int, dist: str = "normal") -> SymTensor:
    """Random tensor with i.i.d. canonical coefficients, reproducible from seed.

    ``dist="normal"`` draws standard normals (floats); ``dist="int"``
    draws uniform integers in [-9, 9] for the exact arithmetic mode.
    Coefficients are drawn in ascending lexicographic occupation order.
    """
    if dist not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {dist!r}, expected one of {DISTRIBUTIONS}")
    rng = np.random.default_rng(seed)
    data: dict[tuple[int, ...], Number] = {}
    for occ in occupations(dim, order):
        if dist == "normal":
            data[occ] = float(rng.standard_normal())
        else:
            data[occ] = int(rng.integers(-9, 10))
    return SymTensor(dim, order, data)


def random_unit_tensor(seed: int, dim: int, order: int) -> SymTensor:
    """Random Gaussian tensor scaled to unit H^(x)k norm."""
    t = random_sym_tensor(seed, dim, order, dist="normal")
    return t.scale(1.0 / t.norm())


# ----------------------------------------------------------------------
# file format

FORMAT_KEYS = ("dim", "order", "entries")


def tensor_to_dict(t: SymTensor) -> dict:
    entries = [
        {"occupation": list(occ), "coeff": float(v)}
        for occ, v in sorted(t.items())
    ]
    return {"dim": t.dim, "order": t.order, "entries": entries}


def _json(value, what: str, *kinds: type):
    # exact types: int() would read 2.7 as 2, and a JSON true is a Python int
    if type(value) not in kinds:
        names = " or ".join(k.__name__ for k in kinds)
        raise ValueError(f"{what} must be a JSON {names}, got {value!r}")
    return value


def tensor_from_dict(obj: dict) -> SymTensor:
    missing = [k for k in FORMAT_KEYS if k not in _json(obj, "tensor record", dict)]
    if missing:
        raise ValueError(f"tensor record is missing keys {missing}")
    dim = _json(obj["dim"], "dim", int)
    order = _json(obj["order"], "order", int)
    data: dict[tuple[int, ...], Number] = {}
    for entry in _json(obj["entries"], "entries", list):
        occupation = _json(_json(entry, "entry", dict).get("occupation"), "occupation", list)
        occ = tuple(_json(a, "occupation entry", int) for a in occupation)
        coeff = _json(entry.get("coeff"), f"coeff at {occ}", float, int)
        if occ in data:
            raise ValueError(f"duplicate canonical entry for occupation {occ}")
        # an integer past the float range reads as inf, which the constructor rejects
        data[occ] = math.inf if abs(coeff) > sys.float_info.max else float(coeff)
    # the constructor validates every key and value
    return SymTensor(dim, order, data)


def save_tensor(t: SymTensor, path: str | os.PathLike) -> None:
    """Write a tensor in the structured text format (JSON, sorted entries)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tensor_to_dict(t), fh, indent=2)
        fh.write("\n")


def load_tensor(path: str | os.PathLike) -> SymTensor:
    """Load and validate a tensor file; rejects duplicates and bad orders."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return tensor_from_dict(obj)
