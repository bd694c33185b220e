"""Tropical projective points and min-plus valuations of monomial families.

Coordinates live in Q union {infinity}; finite values are exact
``Fraction`` objects and the only float ever tolerated is ``inf`` itself.
The valuation of a monomial family at barycentric weights ``u`` is the
minimum of ``<u, m>`` over the exponent support, i.e. the negative log of
the corresponding monomial absolute value.  Coefficients are modeled only
as present/absent: the valuation depends on the support alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "INFINITY",
    "is_infinite",
    "TropicalProjectivePoint",
    "trop_normalize",
    "trop_eq",
    "MonomialSupport",
    "eval_min_plus",
]

INFINITY = float("inf")


def is_infinite(x) -> bool:
    return isinstance(x, float) and math.isinf(x) and x > 0


def _coord(x) -> "Fraction | float":
    if is_infinite(x):
        return INFINITY
    if isinstance(x, bool) or isinstance(x, float):
        raise TypeError(f"finite coordinates must be exact rationals, got {x!r}")
    return Fraction(x)


@dataclass(frozen=True)
class TropicalProjectivePoint:
    """A point of tropical projective space in canonical form.

    The class of a coordinate vector modulo adding a constant; the stored
    representative has its least finite coordinate equal to 0.  Use
    :func:`trop_normalize` to construct from an arbitrary representative.
    """

    coords: tuple

    def __post_init__(self):
        coords = tuple(_coord(x) for x in self.coords)
        finite = [x for x in coords if not is_infinite(x)]
        if not coords or not finite:
            raise ValueError("a tropical projective point needs a finite coordinate")
        if min(finite) != 0:
            raise ValueError("not in canonical form: least finite coordinate is nonzero")
        object.__setattr__(self, "coords", coords)

    def __len__(self) -> int:
        return len(self.coords)


def trop_normalize(raw: "Sequence | TropicalProjectivePoint") -> TropicalProjectivePoint:
    """Canonical representative: shift finite entries so their minimum is 0."""
    if isinstance(raw, TropicalProjectivePoint):
        return raw
    coords = tuple(_coord(x) for x in raw)
    finite = [x for x in coords if not is_infinite(x)]
    if not coords or not finite:
        raise ValueError("cannot normalize an all-infinite coordinate vector")
    shift = min(finite)
    return TropicalProjectivePoint(
        tuple(INFINITY if is_infinite(x) else x - shift for x in coords))


def trop_eq(x: "Sequence | TropicalProjectivePoint",
            y: "Sequence | TropicalProjectivePoint") -> bool:
    """Equality in tropical projective space (representatives differ by a constant)."""
    a = trop_normalize(x)
    b = trop_normalize(y)
    if len(a) != len(b):
        raise ValueError("tropical points of different lengths")
    return a.coords == b.coords


@dataclass(frozen=True)
class MonomialSupport:
    """Nonempty set of exponent vectors of a monomial family in r variables."""

    arity: int
    exponents: frozenset[tuple[int, ...]]

    def __post_init__(self):
        exps = frozenset(tuple(int(e) for e in m) for m in self.exponents)
        if not exps:
            raise ValueError("monomial support must be nonempty")
        for m in exps:
            if len(m) != self.arity:
                raise ValueError(f"exponent vector {m} does not have arity {self.arity}")
            if any(e < 0 for e in m):
                raise ValueError(f"exponent vector {m} has a negative entry")
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def from_exponents(cls, exponents: Iterable[Sequence[int]]) -> "MonomialSupport":
        exps = [tuple(m) for m in exponents]
        if not exps:
            raise ValueError("monomial support must be nonempty")
        return cls(len(exps[0]), frozenset(exps))

    def minkowski_sum(self, other: "MonomialSupport") -> "MonomialSupport":
        """Support of a product of two families with generic coefficients."""
        if self.arity != other.arity:
            raise ValueError("supports of different arity")
        sums = frozenset(tuple(a + b for a, b in zip(m, mp))
                         for m in self.exponents for mp in other.exponents)
        return MonomialSupport(self.arity, sums)


def eval_min_plus(f: MonomialSupport, u: Sequence) -> Fraction:
    """Valuation of the family at weights ``u``: min over exponents of <u, m>.

    This is the negative log absolute value of the monomial family at the
    point with barycentric weights ``u``; weights must be nonnegative exact
    rationals of the right arity.
    """
    weights = [_coord(x) for x in u]
    if any(is_infinite(w) for w in weights):
        raise TypeError("weights must be finite rationals")
    if len(weights) != f.arity:
        raise ValueError(f"expected {f.arity} weights, got {len(weights)}")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    # Clear denominators once; the minimum is then over integer dot products.
    denom = math.lcm(*(w.denominator for w in weights))
    numer = [w.numerator * (denom // w.denominator) for w in weights]
    return Fraction(min(sum(n * e for n, e in zip(numer, m)) for m in f.exponents), denom)
