"""One exactness rule at every public entry point that takes numbers.

Integer slots accept a non-bool ``int`` only.  Rational slots use ints and
``Fraction``s as given, refuse ``bool`` and ``float`` with ``TypeError``,
and read other rationals (here ``"p/q"`` strings) through ``Fraction``.
Each row of the table puts one value into one slot of one entry point.
Sizes are integer slots with a lower bound: below it they raise their own
``ValueError``.
"""

import ast
import dataclasses
import inspect
import io
import os
import sys
import typing
from fractions import Fraction
from pathlib import Path

import pytest

import skeletrop
from skeletrop.bounds import BoundQuery, coordinate_count, corollary_twist
from skeletrop.cli import build_parser
from skeletrop.complexes import (DualComplex, SimplexPoint, Stratum, build_delta_complex,
                                 build_from_facets)
from skeletrop.documents import format_rational, generate_fixture
from skeletrop.lattice import (Constraint, IntMatrix, RationalPolyhedron,
                               simplex_image_polyhedron)
from skeletrop.sections import (AffineFunctional, OrderMatrix, canonical_order_matrix,
                                concavity_lower_bound, restrict_affine)
from skeletrop.tropical import (MonomialSupport, TropicalProjectivePoint, eval_min_plus,
                                trop_normalize)
from skeletrop.tropicalize import PiecewiseAffineMap, build_map

CYCLE3 = build_from_facets(3, 1, [[1, 2], [2, 3], [1, 3]])
ORDERS = canonical_order_matrix(CYCLE3)
EDGE = CYCLE3.stratum("1-2")
MAP = build_map(CYCLE3, ORDERS)
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
    ("DualComplex.adjacent i", lambda x: CYCLE3.adjacent(x, 2)),
    ("DualComplex.adjacent j", lambda x: CYCLE3.adjacent(2, x)),
    ("DualComplex.vertex_stratum v", CYCLE3.vertex_stratum),
    ("OrderMatrix.order section", lambda x: ORDERS.order(x, 2)),
    ("OrderMatrix.order component", lambda x: ORDERS.order(2, x)),
    ("PiecewiseAffineMap.vertex_image slot", lambda x: MAP.vertex_image(EDGE, x)),
]


def check_with_jobs(jobs):
    """``skeletrop check - --jobs`` with ``jobs`` in place of the parsed
    value, on a one-edge document read from standard input."""
    args = build_parser().parse_args(["check", "-", "--out", os.devnull])
    args.jobs = jobs
    stdin = sys.stdin
    sys.stdin = io.StringIO('{"schema_version": 1, '
                            '"complex": {"ell": 2, "d": 1, "facets": [[1, 2]]}}')
    try:
        return args.func(args)
    finally:
        sys.stdin = stdin


# (entry point and size, call with the size in that slot, least size, the
# message of the ValueError below it)
SIZE_SLOTS = [
    ("BoundQuery d", lambda x: BoundQuery(d=x), 1, "dimension must be at least 1"),
    ("BoundQuery ell", lambda x: BoundQuery(d=2, ell=x), 1, "component count must be at least 1"),
    ("coordinate_count ell", lambda x: coordinate_count(x, 2), 1, "ell and d must be at least 1"),
    ("coordinate_count d", lambda x: coordinate_count(2, x), 1, "ell and d must be at least 1"),
    ("corollary_twist d", lambda x: corollary_twist(x, "trivial_canonical"), 1,
     "dimension must be at least 1"),
    ("DualComplex ell", lambda x: DualComplex(x, 0, (), {}), 1,
     "a complex needs at least one vertex"),
    ("DualComplex dim_bound", lambda x: DualComplex(1, x, (), {}), 0,
     "dimension bound must be nonnegative"),
    ("build_from_facets ell", lambda x: build_from_facets(x, 0, [[1]]), 1, "ell must be at least 1"),
    ("build_from_facets d", lambda x: build_from_facets(1, x, [[1]]), 0, "d must be nonnegative"),
    ("build_delta_complex ell", lambda x: build_delta_complex(x, 0, [("a", (1,))], []), 1,
     "a complex needs at least one vertex"),
    ("build_delta_complex d", lambda x: build_delta_complex(1, x, [("a", (1,))], []), 0,
     "dimension bound must be nonnegative"),
    ("generate_fixture n", lambda x: generate_fixture("cycle", n=x), 2,
     "cycle fixtures need n >= 2"),
    ("generate_fixture n, path", lambda x: generate_fixture("path", n=x), 2,
     "path fixtures need n >= 2"),
    ("generate_fixture dim", lambda x: generate_fixture("simplex_boundary", dim=x), 1,
     "simplex_boundary fixtures need dim >= 1"),
    ("generate_fixture dim, random", lambda x: generate_fixture("random", ell=2, dim=x, seed=0),
     1, "random fixtures need ell >= 1, dim >= 1, and a seed"),
    ("generate_fixture ell", lambda x: generate_fixture("random", ell=x, dim=1, seed=0), 1,
     "random fixtures need ell >= 1, dim >= 1, and a seed"),
    ("IntMatrix rows", lambda x: IntMatrix(x, 0, ()), 0, "matrix dimensions must be nonnegative"),
    ("IntMatrix cols", lambda x: IntMatrix(0, x, ()), 0, "matrix dimensions must be nonnegative"),
    ("IntMatrix.from_rows cols", lambda x: IntMatrix.from_rows([], cols=x), 0,
     "matrix dimensions must be nonnegative"),
    ("IntMatrix.identity n", IntMatrix.identity, 0, "matrix dimensions must be nonnegative"),
    ("RationalPolyhedron ambient_dim", lambda x: RationalPolyhedron(x, ()), 1,
     "ambient dimension must be positive"),
    ("MonomialSupport arity", lambda x: MonomialSupport(x, frozenset({(0,)})), 1,
     "a monomial family needs at least one variable"),
    ("PiecewiseAffineMap n", lambda x: PiecewiseAffineMap(CYCLE3, x, {}), 1,
     "a map needs at least one coordinate"),
    ("PiecewiseAffineMap.from_pieces n", lambda x: PiecewiseAffineMap.from_pieces(CYCLE3, x, {}),
     1, "a map needs at least one coordinate"),
    ("check --jobs", check_with_jobs, 1, "jobs must be at least 1"),
]
INTEGER_SLOTS += [(name, call) for name, call, _, _ in SIZE_SLOTS]
SIZES = {name: (least, message) for name, _, least, message in SIZE_SLOTS}

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
    # A size takes its least value, every other slot 1.
    valid = SIZES.get(name, (1,))[0]
    call(valid)
    for other in (Fraction(valid), str(valid)):
        with pytest.raises(TypeError):
            call(other)


@pytest.mark.parametrize("name, call, least, message", SIZE_SLOTS,
                         ids=[name for name, *_ in SIZE_SLOTS])
def test_sizes_below_their_bound_keep_their_message(name, call, least, message):
    for below in (least - 1, -10):
        with pytest.raises(ValueError) as info:
            call(below)
        assert str(info.value) == message


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


# Integer parameters and fields of the public API that take no row above,
# each with the reason.
NOT_SLOTS = {
    "restrict_affine i": "a section index on the valuations path: a check costs about "
                         "0.1 us a call there, and that workload makes 40,000 calls a pass; "
                         "it is bounded by _orders_along, and a float fails as a tuple index",
    "concavity_lower_bound i": "the same section index as restrict_affine's, on the same path",
    "generate_fixture seed": "a seed for random.Random, which takes any hashable value",
    "IntMatrix.from_checked rows": "a shape the program guarantees; skipping the checks is "
                                   "this constructor's purpose",
    "IntMatrix.from_checked cols": "as IntMatrix.from_checked rows",
    "InputDocument schema_version": "a record parse_input builds after checking the value",
    "InputDocument jobs": "a record parse_input builds after checking the value",
    "SeparationCertificate coordinate": "a record separation_certificate builds from a "
                                        "vertex of a checked stratum",
}


def _integer_parameters():
    """``"<name> <parameter>"`` for each parameter annotated ``int`` or
    ``int | None`` of a function in ``skeletrop.__all__`` or of a public
    classmethod or instance method of a class there, and for each such
    dataclass field that its constructor takes."""
    wanted = (int, int | None)
    for name in skeletrop.__all__:
        obj = getattr(skeletrop, name)
        if inspect.isfunction(obj):
            hints = typing.get_type_hints(obj)
            yield from (f"{name} {p}" for p in inspect.signature(obj).parameters
                        if hints.get(p) in wanted)
        elif inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                hints = typing.get_type_hints(obj)
                yield from (f"{name} {f.name}" for f in dataclasses.fields(obj)
                            if f.init and hints[f.name] in wanted)
            for attr, member in vars(obj).items():
                member = member.__func__ if isinstance(member, classmethod) else member
                if inspect.isfunction(member) and not attr.startswith("_"):
                    hints = typing.get_type_hints(member)
                    yield from (f"{name}.{attr} {p}" for p in inspect.signature(member).parameters
                                if hints.get(p) in wanted)


def test_every_integer_parameter_has_a_row():
    # Stands in for a lint rule: every integer a public entry point takes
    # meets the integer rule in a row above, or is listed with its reason.
    found = set(_integer_parameters())
    rows = {name for name, _ in INTEGER_SLOTS}
    assert "BoundQuery d" in found and "IntMatrix.identity n" in found
    assert sorted(found - rows - NOT_SLOTS.keys()) == []
    assert sorted(NOT_SLOTS.keys() - found) == []
    assert sorted(NOT_SLOTS.keys() & rows) == []
