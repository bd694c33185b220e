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

Orders are ints, flags bools; weights are ints and ``Fraction``s as given,
other rationals through ``Fraction``, and ``bool`` and ``float`` are refused.
``OrderMatrix`` is the one check on the orders and flags of an input
document: the parser searches them itself only to name the fault in a
matrix that ``OrderMatrix`` refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from ._exact import cleared, fraction, ints, rational
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
        orders = tuple(ints(row, "orders must be ints, got {x!r}") for row in self.orders)
        if len(orders) < 2:
            raise ValueError("an order matrix needs rows for s_0 and at least one section")
        ell = len(orders) - 1
        for i, row in enumerate(orders):
            if len(row) != ell:
                raise ValueError(f"row {i} has {len(row)} entries, expected {ell}")
            if min(row) < 0:
                raise ValueError(f"row {i} has a negative order")
        flags = tuple(self.horizontal_effective)
        if any(type(f) is not bool for f in flags):
            raise TypeError(f"horizontal-effectivity flags must be bools, got {flags}")
        if len(flags) != ell + 1:
            raise ValueError("need one horizontal-effectivity flag per row")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "horizontal_effective", flags)

    @property
    def ell(self) -> int:
        return len(self.orders) - 1

    def order(self, section: int, component: int) -> int:
        """Order of section ``section`` along component ``component`` (1-based)."""
        ints((section, component), "indices must be ints, got {x!r}")
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
    if not isinstance(m, OrderMatrix) or not isinstance(c, DualComplex):
        raise TypeError(f"validate_orders takes an OrderMatrix and a DualComplex, "
                        f"got {type(m).__name__} and {type(c).__name__}")
    if m.ell != c.ell:
        raise ValueError(f"order matrix is for {m.ell} components, complex has {c.ell}")
    cached = m.__dict__.get("_orders_violations")
    if cached is None or cached[0] is not c:
        cached = (c, tuple(_order_violations(m, c)))
        object.__setattr__(m, "_orders_violations", cached)
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

    Coefficients and the constant are exact rationals, the weights too;
    ``evaluate`` and ``vertex_values`` return ``Fraction``s.
    """

    stratum: str
    coefficients: tuple[Fraction | int, ...]
    constant: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(map(rational, self.coefficients)))
        if type(self.constant) is not Fraction:
            object.__setattr__(self, "constant", fraction(self.constant))

    def evaluate(self, u: Sequence) -> Fraction:
        if len(u) != len(self.coefficients):
            raise ValueError("weight vector does not match the functional arity")
        # u = n / D and constant p / q: the value is (q <c, n> + p D) / (q D).
        nums, den = cleared(u)
        p, q = self.constant.numerator, self.constant.denominator
        return Fraction(q * sum(map(mul, self.coefficients, nums)) + p * den, q * den)

    def vertex_values(self) -> tuple[Fraction, ...]:
        return tuple(c + self.constant for c in self.coefficients)


def restrict_affine(m: OrderMatrix, i: int, s: Stratum) -> AffineFunctional:
    """Affine restriction of ``-log|s_i/s_0|`` to the simplex of ``s``.

    The coefficient at the stratum's a-th vertex is the vanishing order of
    ``s_i`` along that vertex's component; the constant term is zero.
    """
    return AffineFunctional(s.id, _orders_along(m, i, s))


def _orders_along(m: OrderMatrix, i: int, s: Stratum) -> list[int]:
    """The orders of section ``i`` along the stratum's vertices, in vertex
    order; an index out of range raises like ``OrderMatrix.order``."""
    ell = m.ell
    if not 1 <= i <= ell:
        raise ValueError(f"section index {i} out of range 1..{ell}")
    for v in s.vertices:
        if not 1 <= v <= ell:
            raise ValueError(f"component index {v} out of range 1..{ell}")
    row = m.orders[i]
    return [row[v - 1] for v in s.vertices]


def concavity_lower_bound(m: OrderMatrix, i: int, s: Stratum, u: Sequence) -> Fraction:
    """Certified lower bound for ``-log|s_i/s_0|`` at weights ``u`` on ``s``.

    Valid exactly when row ``i`` has effective horizontal part; the bound is
    the weighted average of the vertex orders.
    """
    orders = _orders_along(m, i, s)
    if not m.horizontal_effective[i]:
        raise ValueError(f"row {i} lacks the horizontal-effectivity flag; "
                         "the lower bound is not justified")
    nums, den = cleared(u)
    if len(nums) != len(orders):
        raise ValueError("weight vector does not match the stratum arity")
    if any(n < 0 for n in nums) or sum(nums) != den:
        raise ValueError("weights must be nonnegative and sum to 1")
    return Fraction(sum(map(mul, nums, orders)), den)
