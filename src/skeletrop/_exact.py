"""What counts as an exact number, and the one place that checks and converts them.

An integer is an ``int``, never a ``bool``.  A rational is an ``int`` or
``Fraction``, used as given; ``bool`` and ``float`` are refused, and other
values (``"p/q"`` strings) are read through ``Fraction``.  ``is_int`` and
``ints`` apply the integer rule to a value and to a row of entries,
``at_least`` to a size together with its lower bound, ``rational`` applies
the rational rule, ``fraction`` turns a rational into a ``Fraction`` and
``cleared`` clears the denominators of a vector of them; no other module
does any of these.  Each value is checked once, where it enters: a row of
order entries by ``OrderMatrix``, a size by the constructor or function
that takes it.  A document's vertex lists are the exception: the parser
checks them before the size limits read them, and the complex again."""

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence


def is_int(x) -> bool:
    """Whether ``x`` is an integer: an ``int``, never a ``bool``."""
    return type(x) is int or (isinstance(x, int) and not isinstance(x, bool))


def ints(row: Iterable, message: str) -> tuple[int, ...]:
    """``row`` as a tuple of ints, or a ``TypeError`` formatting ``message``."""
    row = tuple(row)
    for x in row:
        if type(x) is not int and not is_int(x):
            raise TypeError(message.format(x=x, row=row))
    return row


def at_least(x, least: int, message: str) -> None:
    """Refuse a size ``x`` that is not an integer of at least ``least``.

    A value that is not an integer raises ``TypeError``; one below
    ``least`` raises ``ValueError(message)``, and so does ``None``, a size
    left out.
    """
    if x is None:
        raise ValueError(message)
    if type(x) is not int and not is_int(x):
        raise TypeError(f"sizes must be ints, got {x!r}")
    if x < least:
        raise ValueError(message)


def rational(x) -> int | Fraction:
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, (bool, float)):
        raise TypeError(f"numbers must be exact rationals, got {x!r}")
    return Fraction(x)


def fraction(x) -> Fraction:
    """``x`` as a ``Fraction``: a ``Fraction`` unchanged, anything else through ``rational``."""
    return x if type(x) is Fraction else Fraction(rational(x))


def cleared(u: Sequence) -> tuple[list[int], int]:
    """Integer numerators ``n`` and one denominator ``D > 0`` with ``u = n / D``."""
    # Plain loops: cheaper than comprehensions on a few weights.
    den = 1
    for x in u:
        if type(x) is not int:
            if type(x) is not Fraction:
                return cleared(list(map(rational, u)))
            if den % x.denominator:
                den = lcm(den, x.denominator)
    nums = []
    for x in u:
        nums.append(x.numerator * (den // x.denominator))
    return nums, den
