"""Vanishing-order data for a distinguished family of sections.

A degeneration with ``ell`` components carries sections ``s_0 .. s_ell``:
``s_0`` vanishes along no component, and each ``s_i`` (i >= 1) vanishes to
order 0 along component i, to order exactly 1 along every component meeting
component i, and to order at least 1 along every other component.  The
matrix of these orders determines, on each canonical simplex, the affine
restriction of ``-log|s_i/s_0|``: the coefficient at a vertex is the order
along that vertex's component.

Rows may additionally be flagged as having effective horizontal part, which
is what justifies the concavity lower bound
``value(u) >= sum_a u_a * order(i, vertex_a)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .complexes import DualComplex, Stratum, Violation

__all__ = [
    "OrderMatrix",
    "AffineFunctional",
    "canonical_order_matrix",
    "validate_orders",
    "restrict_affine",
    "concavity_lower_bound",
]


@dataclass(frozen=True)
class OrderMatrix:
    """Vanishing orders: rows for sections 0..ell, columns for components 1..ell."""

    orders: tuple[tuple[int, ...], ...]
    horizontal_effective: tuple[bool, ...]

    def __post_init__(self):
        orders = tuple(tuple(int(x) for x in row) for row in self.orders)
        if len(orders) < 2:
            raise ValueError("an order matrix needs rows for s_0 and at least one section")
        ell = len(orders) - 1
        for i, row in enumerate(orders):
            if len(row) != ell:
                raise ValueError(f"row {i} has {len(row)} entries, expected {ell}")
            if any(x < 0 for x in row):
                raise ValueError(f"row {i} has a negative order")
        flags = tuple(bool(f) for f in self.horizontal_effective)
        if len(flags) != ell + 1:
            raise ValueError("need one horizontal-effectivity flag per row")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "horizontal_effective", flags)

    @property
    def ell(self) -> int:
        return len(self.orders) - 1

    def order(self, section: int, component: int) -> int:
        """Order of section ``section`` along component ``component`` (1-based)."""
        if not 0 <= section <= self.ell:
            raise ValueError(f"section index {section} out of range 0..{self.ell}")
        if not 1 <= component <= self.ell:
            raise ValueError(f"component index {component} out of range 1..{self.ell}")
        return self.orders[section][component - 1]


def canonical_order_matrix(c: DualComplex) -> OrderMatrix:
    """The minimal admissible choice: 0 on the diagonal, 1 everywhere else.

    Row 0 is identically zero.  Off-diagonal entries not forced to 1 by an
    edge are only constrained to be >= 1; this constructor picks 1, and
    overrides come in through input documents.
    """
    ell = c.ell
    rows = [tuple(0 for _ in range(ell))]
    for i in range(1, ell + 1):
        rows.append(tuple(0 if j == i else 1 for j in range(1, ell + 1)))
    return OrderMatrix(tuple(rows), tuple(True for _ in range(ell + 1)))


def validate_orders(m: OrderMatrix, c: DualComplex) -> list[Violation]:
    """Check the order axioms against the complex; empty list means valid.

    The violations are kept on the (immutable) matrix for the last complex
    it was checked against, so validating the same pair again is free.
    """
    if m.ell != c.ell:
        raise ValueError(f"order matrix is for {m.ell} components, complex has {c.ell}")
    cached = m.__dict__.get("_violations")
    if cached is None or cached[0] is not c:
        cached = (c, tuple(_order_violations(m, c)))
        object.__setattr__(m, "_violations", cached)
    return list(cached[1])


def _order_violations(m: OrderMatrix, c: DualComplex) -> list[Violation]:
    out: list[Violation] = []
    ell = c.ell
    adjacent = set()
    for edge in c.edges():
        a, b = edge
        adjacent.add((a, b))
        adjacent.add((b, a))
    for j, x in enumerate(m.orders[0], start=1):
        if x != 0:
            out.append(Violation("base-row", None,
                                 f"s_0 must have order 0 along component {j}, "
                                 f"got {x}"))
    for i in range(1, ell + 1):
        row = m.orders[i]
        if row[i - 1] != 0:
            out.append(Violation("diagonal", None,
                                 f"s_{i} must have order 0 along its own component, "
                                 f"got {row[i - 1]}"))
        for j, x in enumerate(row, start=1):
            if i == j:
                continue
            if (i, j) in adjacent:
                if x != 1:
                    out.append(Violation("edge-order", None,
                                         f"components {i} and {j} meet, so s_{i} must "
                                         f"vanish to order exactly 1 along {j}, "
                                         f"got {x}"))
            elif x < 1:
                out.append(Violation("zero-extension", None,
                                     f"s_{i} must vanish to order at least 1 along the "
                                     f"distinct component {j}, got {x}"))
    out.sort(key=lambda v: (v.rule, v.message))
    return out


@dataclass(frozen=True)
class AffineFunctional:
    """Affine function of barycentric weights: <coefficients, u> + constant.

    Coefficients and the constant are exact rationals; ints are kept as
    they are (they are rationals already), anything else goes through
    ``Fraction``.  ``evaluate`` and ``vertex_values`` return ``Fraction``s.
    """

    stratum: str
    coefficients: tuple[Fraction | int, ...]
    constant: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(map(_rational, self.coefficients)))
        if type(self.constant) is not Fraction:
            object.__setattr__(self, "constant", Fraction(self.constant))

    def evaluate(self, u: Sequence) -> Fraction:
        if len(u) != len(self.coefficients):
            raise ValueError("weight vector does not match the functional arity")
        # Accumulate an unreduced num/den; only the result is normalised.
        num, den = self.constant.numerator, self.constant.denominator
        for c, x in zip(self.coefficients, map(_rational, u)):
            n, d = c.numerator * x.numerator, c.denominator * x.denominator
            if d == den:
                num += n
            else:
                num, den = num * d + n * den, den * d
        return Fraction(num, den)

    def vertex_values(self) -> tuple[Fraction, ...]:
        return tuple(c + self.constant for c in self.coefficients)


def _rational(x) -> Fraction | int:
    # ``type`` rather than ``isinstance``: a bool becomes Fraction(0 or 1).
    return x if type(x) is int or type(x) is Fraction else Fraction(x)


def restrict_affine(m: OrderMatrix, i: int, s: Stratum) -> AffineFunctional:
    """Affine restriction of ``-log|s_i/s_0|`` to the simplex of ``s``.

    The coefficient at the stratum's a-th vertex is the vanishing order of
    ``s_i`` along that vertex's component; the constant term is zero.
    """
    if not 1 <= i <= m.ell:
        raise ValueError(f"section index {i} out of range 1..{m.ell}")
    return AffineFunctional(s.id, _orders_along(m, i, s))


def _orders_along(m: OrderMatrix, i: int, s: Stratum) -> tuple[int, ...]:
    """The orders of section ``i`` (already range-checked) along the
    stratum's vertices, in vertex order; raises like ``OrderMatrix.order``."""
    ell = m.ell
    for v in s.vertices:
        if not 1 <= v <= ell:
            raise ValueError(f"component index {v} out of range 1..{ell}")
    row = m.orders[i]
    return tuple(row[v - 1] for v in s.vertices)


def concavity_lower_bound(m: OrderMatrix, i: int, s: Stratum, u: Sequence) -> Fraction:
    """Certified lower bound for ``-log|s_i/s_0|`` at weights ``u`` on ``s``.

    Valid exactly when row ``i`` has effective horizontal part; the bound is
    the weighted average of the vertex orders.
    """
    if not 1 <= i <= m.ell:
        raise ValueError(f"section index {i} out of range 1..{m.ell}")
    if not m.horizontal_effective[i]:
        raise ValueError(f"row {i} lacks the horizontal-effectivity flag; "
                         "the lower bound is not justified")
    # Clear the weight denominators once: w_a = n_a / D with integer n_a.
    nums, dens = [], []
    saw_float = False
    for x in u:
        if isinstance(x, float):
            saw_float = True
            continue
        if not isinstance(x, (int, Fraction)):
            x = Fraction(x)
        nums.append(x.numerator)
        dens.append(x.denominator)
    if saw_float:
        raise TypeError("weights must be exact rationals")
    if len(nums) != len(s.vertices):
        raise ValueError("weight vector does not match the stratum arity")
    common = lcm(*dens)
    nums = [n * (common // d) for n, d in zip(nums, dens)]
    if any(n < 0 for n in nums) or sum(nums) != common:
        raise ValueError("weights must be nonnegative and sum to 1")
    total = 0
    for n, order in zip(nums, _orders_along(m, i, s)):
        total += n * order
    return Fraction(total, common)
