"""One exactness rule at every public entry point that takes numbers.

Integer slots accept a non-bool ``int`` only.  Rational slots use ints and
``Fraction``s as given, refuse ``bool`` and ``float`` with ``TypeError``,
and read other rationals (here ``"p/q"`` strings) through ``Fraction``.
Each row of the table puts one value into one slot of one entry point.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import skeletrop
from skeletrop.complexes import SimplexPoint, Stratum, build_delta_complex, build_from_facets
from skeletrop.documents import format_rational
from skeletrop.lattice import (Constraint, IntMatrix, RationalPolyhedron,
                               simplex_image_polyhedron)
from skeletrop.sections import (AffineFunctional, OrderMatrix, canonical_order_matrix,
                                concavity_lower_bound, restrict_affine)
from skeletrop.tropical import (MonomialSupport, TropicalProjectivePoint, eval_min_plus,
                                trop_normalize)
from skeletrop.tropicalize import PiecewiseAffineMap

CYCLE3 = build_from_facets(3, 1, [[1, 2], [2, 3], [1, 3]])
ORDERS = canonical_order_matrix(CYCLE3)
EDGE = CYCLE3.stratum("1-2")
SQUARE = RationalPolyhedron(2, (Constraint((1, 0), 1), Constraint((0, 1), 1)))
SUPPORT = MonomialSupport.from_exponents([(1, 0), (0, 2)])


def rest(x):
    """The weight that completes ``x`` to a point of the 1-simplex."""
    return 1 - Fraction(x)


# (entry point and slot, call with the value in that slot)
INTEGER_SLOTS = [
    ("IntMatrix entry", lambda x: IntMatrix(1, 2, ((x, 2),)).entries),
    ("Constraint normal", lambda x: Constraint((x, 2), 3).normal),
    ("Stratum vertex", lambda x: Stratum("s", (x, 2)).vertices),
    ("build_from_facets vertex", lambda x: build_from_facets(2, 1, [[x, 2]]).stratum_ids()),
    ("build_delta_complex vertex",
     lambda x: build_delta_complex(2, 0, [("a", (x,))], []).strata),
    ("build_delta_complex face",
     lambda x: build_delta_complex(2, 1, [("a", (1,)), ("e", (1, 2))],
                                   [("e", (x,), "a")]).face_map),
    ("MonomialSupport exponent", lambda x: MonomialSupport(2, frozenset({(x, 0)})).exponents),
    ("MonomialSupport.from_exponents exponent",
     lambda x: MonomialSupport.from_exponents([(0, x)]).exponents),
    ("OrderMatrix order",
     lambda x: OrderMatrix(((0, 0), (0, x), (x, 0)), (True,) * 3).orders),
    ("PiecewiseAffineMap image", lambda x: PiecewiseAffineMap(CYCLE3, 2, {1: (x, 2)}).images),
    ("PiecewiseAffineMap.from_pieces entry",
     lambda x: PiecewiseAffineMap.from_pieces(CYCLE3, 2, {"1-2": ((0, x), (1, 0))}).images),
]

RATIONAL_SLOTS = [
    ("Constraint bound", lambda x: Constraint((2, 0), x).bound),
    ("RationalPolyhedron.contains", lambda x: SQUARE.contains((x, 0))),
    ("simplex_image_polyhedron", lambda x: simplex_image_polyhedron([(x, 0), (0, 1)])),
    ("SimplexPoint", lambda x: SimplexPoint("s", (x, rest(x))).u),
    ("TropicalProjectivePoint", lambda x: TropicalProjectivePoint((0, x)).coords),
    ("trop_normalize", lambda x: trop_normalize((x, 3)).coords),
    ("eval_min_plus", lambda x: eval_min_plus(SUPPORT, (x, rest(x)))),
    ("AffineFunctional coefficient", lambda x: AffineFunctional("s", (x, 3)).coefficients),
    ("AffineFunctional constant", lambda x: AffineFunctional("s", (2, 3), x).constant),
    ("AffineFunctional.evaluate",
     lambda x: AffineFunctional("s", (2, 3)).evaluate((x, rest(x)))),
    ("restrict_affine(...).evaluate",
     lambda x: restrict_affine(ORDERS, 1, EDGE).evaluate((x, rest(x)))),
    ("concavity_lower_bound", lambda x: concavity_lower_bound(ORDERS, 1, EDGE, (x, rest(x)))),
    ("format_rational", format_rational),
]

INEXACT = [0.5, 1.0, True, False]


def typed(value):
    """``value`` together with the types of everything in it."""
    if isinstance(value, (tuple, list)):
        return type(value), tuple(typed(v) for v in value)
    if isinstance(value, dict):
        return type(value), tuple(sorted((repr(k), typed(v)) for k, v in value.items()))
    return type(value), value


@pytest.mark.parametrize("bad", INEXACT, ids=repr)
@pytest.mark.parametrize("name, call", INTEGER_SLOTS + RATIONAL_SLOTS,
                         ids=[name for name, _ in INTEGER_SLOTS + RATIONAL_SLOTS])
def test_bool_and_float_are_refused(name, call, bad):
    with pytest.raises(TypeError):
        call(bad)


@pytest.mark.parametrize("name, call", INTEGER_SLOTS, ids=[name for name, _ in INTEGER_SLOTS])
def test_integer_slots_take_ints_only(name, call):
    call(1)
    for other in (Fraction(1), "1"):
        with pytest.raises(TypeError):
            call(other)


@pytest.mark.parametrize("name, call", RATIONAL_SLOTS, ids=[name for name, _ in RATIONAL_SLOTS])
def test_equal_rationals_give_equal_results(name, call):
    # A "p/q" string reads as the Fraction it names; an int is kept as an
    # int where a slot keeps its input, so only its value is compared.
    assert typed(call("1/2")) == typed(call(Fraction(1, 2)))
    assert typed(call("1")) == typed(call(Fraction(1)))
    assert call(1) == call(Fraction(1))


def test_other_non_numbers_are_refused_by_fraction():
    with pytest.raises(TypeError):
        SimplexPoint("s", (None, 1))
    with pytest.raises(ValueError):
        SimplexPoint("s", ("x", 1))


@pytest.mark.parametrize("flag", [1, 0, 0.0, "yes", None], ids=repr)
def test_order_matrix_flags_must_be_bools(flag):
    with pytest.raises(TypeError, match="flags must be bools"):
        OrderMatrix(((0, 0), (0, 1), (1, 0)), (True, flag, True))
    assert OrderMatrix(((0, 0), (0, 1), (1, 0)), (True, False, True)).horizontal_effective \
        == (True, False, True)


def test_silent_coercions_are_gone():
    # Each of these once returned a value made from truncated or rounded input.
    with pytest.raises(TypeError, match="exact rationals"):
        restrict_affine(ORDERS, 1, EDGE).evaluate((0.1, 0.9))
    with pytest.raises(TypeError, match="exact rationals"):
        concavity_lower_bound(ORDERS, 2, EDGE, (True, False))
    with pytest.raises(TypeError, match="orders must be ints, got 1.7"):
        OrderMatrix(((0, 0), (0, 1.7), (True, 0.5)), (1, "yes", 0.0))
    with pytest.raises(TypeError, match="vertices must be ints, got 1.7"):
        Stratum("x", (1.7, 2))
    for bad in (0.1, True):
        with pytest.raises(TypeError, match="exact rationals"):
            format_rational(bad)


def test_valid_values_keep_their_types():
    g = restrict_affine(ORDERS, 1, EDGE)
    assert g.coefficients == (0, 1) and all(type(c) is int for c in g.coefficients)
    assert type(g.evaluate((Fraction(1, 3), Fraction(2, 3)))) is Fraction
    assert type(g.evaluate((0, 1))) is Fraction
    assert type(concavity_lower_bound(ORDERS, 1, EDGE, (1, 0))) is Fraction
    assert type(eval_min_plus(SUPPORT, (1, 0))) is Fraction
    assert all(type(x) is Fraction for x in trop_normalize((1, 3)).coords)
    assert all(type(x) is Fraction for x in SimplexPoint("s", (1, 0)).u)
    half = Fraction(1, 2)
    assert TropicalProjectivePoint((0, half)).coords[1] is half
    assert type(Constraint((2, 0), 3).bound) is Fraction


def _uses_lcm(tree) -> bool:
    return any((isinstance(node, ast.Name) and node.id == "lcm")
               or (isinstance(node, ast.Attribute) and node.attr == "lcm")
               or (isinstance(node, ast.alias) and node.name == "lcm")
               for node in ast.walk(tree))


def test_only_exact_converts_and_clears():
    # Stands in for a lint rule: conversion goes through ``_exact.fraction``
    # and clearing denominators through ``_exact.cleared``.
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in Path(skeletrop.__file__).parent.glob("*.py")}
    assert _uses_lcm(ast.parse(sources.pop("_exact.py")))
    assert [name for name, text in sorted(sources.items())
            if "Fraction(rational(" in text or _uses_lcm(ast.parse(text))] == []


def _int_checks(tree) -> int:
    """``isinstance(..., int)`` calls, ``int`` alone or in a tuple of types."""
    return sum(1 for node in ast.walk(tree)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
               and len(node.args) == 2
               and any(getattr(n, "id", None) == "int" for n in ast.walk(node.args[1])))


def test_only_exact_applies_the_integer_rule():
    # Stands in for a lint rule: whether a value is an integer is decided by
    # ``_exact.is_int`` (or ``_exact.ints`` on a row), nowhere else.
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in Path(skeletrop.__file__).parent.glob("*.py")}
    assert _int_checks(ast.parse(sources.pop("_exact.py"))) == 1
    assert [name for name, text in sorted(sources.items())
            if _int_checks(ast.parse(text))] == []
