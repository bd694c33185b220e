"""Tropical projective points and min-plus valuations of monomial families.

Coordinates live in Q union {infinity}; finite values are exact
``Fraction`` objects and the only float ever tolerated is ``inf`` itself;
``bool`` and other floats raise ``TypeError``, other rationals go through ``Fraction``.
The valuation of a monomial family at barycentric weights ``u`` is the
minimum of ``<u, m>`` over the exponent support, i.e. the negative log of
the corresponding monomial absolute value.  Coefficients are modeled only
as present/absent: the valuation depends on the support alone, and since
weights are nonnegative, only on the support's minimal exponents (those
that are not entrywise >= another exponent of the support).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import le, mul
from typing import Iterable, Sequence

from ._exact import at_least, cleared, fraction, ints

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
    return INFINITY if is_infinite(x) else fraction(x)


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
        at_least(self.arity, 1, "a monomial family needs at least one variable")
        # Checked before the set is formed, so that an exponent such as 1.0
        # cannot hide behind an equal int.
        exps = [ints(m, "exponent vector {row} has a non-integer entry {x!r}")
                for m in self.exponents]
        if not exps:
            raise ValueError("monomial support must be nonempty")
        for m in exps:
            if len(m) != self.arity:
                raise ValueError(f"exponent vector {m} does not have arity {self.arity}")
            if any(e < 0 for e in m):
                raise ValueError(f"exponent vector {m} has a negative entry")
        object.__setattr__(self, "exponents", frozenset(exps))

    @classmethod
    def from_exponents(cls, exponents: Iterable[Sequence[int]]) -> "MonomialSupport":
        exps = [tuple(m) for m in exponents]
        if not exps:
            raise ValueError("monomial support must be nonempty")
        return cls(len(exps[0]), exps)

    @cached_property
    def minimal_exponents(self) -> tuple[tuple[int, ...], ...]:
        """The exponents that are not entrywise >= another exponent.

        At nonnegative weights every exponent pairs to at least the value of
        a minimal one below it, so the valuation is the minimum over these.
        Sorted by total degree, then lexicographically.  Computed on first
        use and kept in the instance's ``__dict__``; it is not a field, so
        equality, hashing and repr ignore it.
        """
        kept: list[tuple[int, ...]] = []
        # A dominating exponent has a smaller sum, so it is kept first.
        for m in sorted(sorted(self.exponents), key=sum):
            for k in kept:
                if all(map(le, k, m)):
                    break
            else:
                kept.append(m)
        return tuple(kept)

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
    rationals of the right arity.  The minimum is taken over
    ``f.minimal_exponents`` alone: at nonnegative weights no other exponent
    can attain a smaller value.
    """
    # Clear denominators once; the minimum is then over integer dot products.
    numer, denom = cleared(u)
    if len(numer) != f.arity:
        raise ValueError(f"expected {f.arity} weights, got {len(numer)}")
    if any(n < 0 for n in numer):
        raise ValueError("weights must be nonnegative")
    return Fraction(min(sum(map(mul, numer, m)) for m in f.minimal_exponents), denom)
