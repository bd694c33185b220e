"""Order matrices, affine restrictions, and the concavity lower bound."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeletrop.complexes import (Stratum, build_from_facets, face_restriction, SimplexPoint,
                                 validate_complex)
from skeletrop.sections import (AffineFunctional, OrderMatrix, canonical_order_matrix,
                                concavity_lower_bound, restrict_affine,
                                validate_orders)


def cycle3():
    return build_from_facets(3, 1, [[1, 2], [2, 3], [1, 3]])


class TestCanonicalOrderMatrix:
    def test_three_cycle(self):
        m = canonical_order_matrix(cycle3())
        assert m.orders == ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))
        assert all(m.horizontal_effective)

    def test_single_edge(self):
        m = canonical_order_matrix(build_from_facets(2, 1, [[1, 2]]))
        assert m.orders == ((0, 0), (0, 1), (1, 0))

    def test_smooth_reduction(self):
        m = canonical_order_matrix(build_from_facets(1, 1, [[1]]))
        assert m.orders == ((0,), (0,))

    def test_canonical_is_valid(self):
        c = cycle3()
        assert validate_orders(canonical_order_matrix(c), c) == []


class TestOrderMatrixValidation:
    def test_shape_errors(self):
        with pytest.raises(ValueError):
            OrderMatrix(((0, 0),), (True,))
        with pytest.raises(ValueError):
            OrderMatrix(((0, 0), (0, 1), (1,)), (True, True, True))
        with pytest.raises(ValueError):
            OrderMatrix(((0, 0), (0, -1), (1, 0)), (True, True, True))

    def test_edge_order_must_be_one(self):
        c = cycle3()
        m = OrderMatrix(((0, 0, 0), (0, 2, 1), (1, 0, 1), (1, 1, 0)),
                        (True,) * 4)
        problems = validate_orders(m, c)
        assert any(v.rule == "edge-order" and "s_1" in v.message for v in problems)

    def test_zero_extension(self):
        # {1, 3} is not an edge here, but distinct components still force >= 1
        c = build_from_facets(3, 1, [[1, 2], [2, 3]])
        rows = [[0, 0, 0], [0, 1, 0], [1, 0, 1], [1, 1, 0]]
        m = OrderMatrix(tuple(map(tuple, rows)), (True,) * 4)
        problems = validate_orders(m, c)
        assert any(v.rule == "zero-extension" and "s_1" in v.message for v in problems)

    def test_base_row_and_diagonal(self):
        c = build_from_facets(2, 1, [[1, 2]])
        m = OrderMatrix(((1, 0), (0, 1), (2, 2)), (True,) * 3)
        rules = {v.rule for v in validate_orders(m, c)}
        assert "base-row" in rules and "diagonal" in rules and "edge-order" in rules

    def test_ell_mismatch(self):
        with pytest.raises(ValueError):
            validate_orders(canonical_order_matrix(cycle3()),
                            build_from_facets(2, 1, [[1, 2]]))

    def test_swapped_arguments_are_refused(self):
        # Both validators once kept their results under one attribute name,
        # so a swapped call read the other's cache: an IndexError, or a
        # silent "violations" list holding a complex.
        c = cycle3()
        m = canonical_order_matrix(c)
        assert validate_complex(c) == [] and validate_orders(m, c) == []
        with pytest.raises(TypeError, match="validate_orders takes an OrderMatrix"):
            validate_orders(c, m)
        with pytest.raises(TypeError, match="validate_complex takes a DualComplex"):
            validate_complex(m)
        assert validate_complex(c) == [] and validate_orders(m, c) == []


class TestRestrictAffine:
    def test_own_vertex_row(self):
        # on a stratum containing its own vertex, the coordinate is the sum
        # of the other barycentric weights
        c = build_from_facets(3, 2, [[1, 2, 3]])
        m = canonical_order_matrix(c)
        g = restrict_affine(m, 2, c.stratum("1-2-3"))
        assert g.coefficients == (1, 0, 1) and g.constant == 0
        assert g.evaluate((Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))) == Fraction(1, 2)

    def test_edge_vertex_values(self):
        c = build_from_facets(2, 1, [[1, 2]])
        m = canonical_order_matrix(c)
        g = restrict_affine(m, 1, c.stratum("1-2"))
        assert g.evaluate((1, 0)) == 0
        assert g.evaluate((0, 1)) == 1

    def test_constant_on_foreign_vertex(self):
        c = build_from_facets(3, 1, [[1, 2], [2, 3], [1, 3]])
        rows = [[0, 0, 0], [0, 1, 1], [1, 0, 1], [2, 1, 0]]
        m = OrderMatrix(tuple(map(tuple, rows)), (True,) * 4)
        g = restrict_affine(m, 3, c.stratum("1"))
        assert g.coefficients == (2,)
        assert g.evaluate((1,)) == 2

    def test_index_out_of_range(self):
        c = cycle3()
        m = canonical_order_matrix(c)
        with pytest.raises(ValueError):
            restrict_affine(m, 0, c.stratum("1-2"))
        with pytest.raises(ValueError):
            restrict_affine(m, 4, c.stratum("1-2"))

    def test_face_compatibility(self):
        # the restriction to a face equals the face restriction of the
        # ambient functional, coefficient by coefficient
        c = build_from_facets(4, 3, [[1, 2, 3, 4]])
        m = canonical_order_matrix(c)
        rng = random.Random(5)
        for s in c.strata:
            for subset, fid in c.faces_of(s).items():
                f = c.stratum(fid)
                for i in range(1, 5):
                    amb = restrict_affine(m, i, s)
                    res = restrict_affine(m, i, f)
                    slot = {v: k for k, v in enumerate(s.vertices)}
                    assert res.coefficients == tuple(
                        amb.coefficients[slot[v]] for v in f.vertices)
        # and therefore the same value at matching points
        p = SimplexPoint("1-2-3-4", (Fraction(1, 2), 0, Fraction(1, 2), 0))
        q = face_restriction(c, p, "1-3")
        for i in range(1, 5):
            assert (restrict_affine(m, i, c.stratum("1-2-3-4")).evaluate(p.u)
                    == restrict_affine(m, i, c.stratum("1-3")).evaluate(q.u))


class TestConcavityBound:
    def test_zero_at_own_vertex(self):
        c = cycle3()
        m = canonical_order_matrix(c)
        assert concavity_lower_bound(m, 1, c.stratum("1-2"), (1, 0)) == 0

    def test_one_on_foreign_strata(self):
        c = cycle3()
        m = canonical_order_matrix(c)
        s = c.stratum("2-3")
        assert concavity_lower_bound(m, 1, s, (Fraction(1, 3), Fraction(2, 3))) == 1

    def test_weighted_orders(self):
        c = build_from_facets(2, 1, [[1, 2]])
        rows = [[0, 0], [2, 3], [1, 0]]
        m = OrderMatrix(tuple(map(tuple, rows)), (True,) * 3)
        s = c.stratum("1-2")
        assert concavity_lower_bound(m, 1, s, (Fraction(1, 4), Fraction(3, 4))) \
            == Fraction(11, 4)

    def test_matches_weighted_fraction_sum(self):
        c = build_from_facets(4, 3, [[1, 2, 3, 4]])
        m = OrderMatrix(((0, 0, 0, 0), (0, 1, 1, 1), (1, 0, 1, 1),
                         (1, 1, 0, 1), (1, 1, 1, 0)), (True,) * 5)
        s = c.stratum("1-2-3-4")
        rng = random.Random(4)
        for _ in range(200):
            cuts = sorted(Fraction(rng.randint(0, 60), rng.randint(1, 12)) % 1
                          for _ in range(3))
            u = [b - a for a, b in zip([Fraction(0)] + cuts, cuts + [Fraction(1)])]
            u = [int(w) if w.denominator == 1 else w for w in u]
            for i in range(1, 5):
                expected = sum((Fraction(w) * m.order(i, v) for w, v in zip(u, s.vertices)),
                               Fraction(0))
                got = concavity_lower_bound(m, i, s, u)
                assert got == expected and type(got) is Fraction

    def test_weight_errors(self):
        c = cycle3()
        m = canonical_order_matrix(c)
        s = c.stratum("1-2")
        with pytest.raises(TypeError, match="exact rationals"):
            concavity_lower_bound(m, 1, s, (0.5, Fraction(1, 2)))
        with pytest.raises(ValueError, match="arity"):
            concavity_lower_bound(m, 1, s, (1,))
        with pytest.raises(ValueError, match="nonnegative and sum to 1"):
            concavity_lower_bound(m, 1, s, (Fraction(3, 2), Fraction(-1, 2)))
        with pytest.raises(ValueError, match="nonnegative and sum to 1"):
            concavity_lower_bound(m, 1, s, (Fraction(1, 3), Fraction(1, 3)))
        assert concavity_lower_bound(m, 1, s, ("1/3", "2/3")) == Fraction(2, 3)

    def test_flag_required(self):
        c = cycle3()
        m = canonical_order_matrix(c)
        unflagged = OrderMatrix(m.orders, (True, False, True, True))
        with pytest.raises(ValueError, match="flag"):
            concavity_lower_bound(unflagged, 1, c.stratum("2-3"), (1, 0))

    def test_exact_value_equals_bound(self):
        # with orders-only data the affine restriction and the lower bound
        # are the same weighted average, at every point
        c = build_from_facets(5, 2, [[1, 2, 3], [3, 4, 5]])
        rng = random.Random(9)
        rows = [[0] * 5]
        for i in range(1, 6):
            row = []
            for j in range(1, 6):
                if i == j:
                    row.append(0)
                elif c.adjacent(i, j):
                    row.append(1)
                else:
                    row.append(rng.randint(1, 5))
            rows.append(row)
        m = OrderMatrix(tuple(map(tuple, rows)), (True,) * 6)
        assert validate_orders(m, c) == []
        for s in c.strata:
            for _ in range(20):
                denom = rng.randint(1, 16)
                cuts = sorted(rng.randint(0, denom) for _ in range(len(s.vertices) - 1))
                u = tuple(Fraction(b - a, denom)
                          for a, b in zip([0] + cuts, cuts + [denom]))
                for i in range(1, 6):
                    exact = restrict_affine(m, i, s).evaluate(u)
                    bound = concavity_lower_bound(m, i, s, u)
                    assert exact == bound


def reference_exact(x) -> Fraction:
    """The exactness rule spelled out: bool and float refused, the rest
    through ``Fraction``."""
    if isinstance(x, (bool, float)):
        raise TypeError(f"not exact: {x!r}")
    return Fraction(x)


def reference_evaluate(coefficients, constant, u):
    """``AffineFunctional(...).evaluate`` as a ``Fraction`` sum, term by term."""
    coefficients = tuple(reference_exact(x) for x in coefficients)
    constant = reference_exact(constant)
    if len(u) != len(coefficients):
        raise ValueError("weight vector does not match the functional arity")
    return sum((c * reference_exact(x) for c, x in zip(coefficients, u)), constant)


def build_and_evaluate(coefficients, constant, u):
    return AffineFunctional("s", coefficients, constant).evaluate(u)


def outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:  # the exception type is part of the contract
        return type(exc)
    return value, tuple(map(type, value)) if isinstance(value, tuple) else type(value)


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=30)


class TestAffineFunctionalExactness:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 9), rationals, st.booleans()), max_size=5),
           st.one_of(st.integers(-3, 3), rationals),
           st.lists(st.one_of(st.integers(-5, 5), rationals, st.booleans(),
                              st.floats(allow_nan=True, allow_infinity=True, width=32),
                              st.sampled_from(["1/3", "-2", "0.25", "x", None])),
                    max_size=6))
    def test_evaluate_and_vertex_values_match_fraction_sums(self, coefficients, constant, u):
        got = outcome(build_and_evaluate, tuple(coefficients), constant, tuple(u))
        assert got == outcome(reference_evaluate, coefficients, constant, tuple(u))
        # bool and float are refused, as coefficients and as weights.
        if any(type(c) is bool for c in coefficients):
            assert got is TypeError
            return
        numeric = all(type(x) in (int, Fraction, bool, float) for x in u)
        if len(u) == len(coefficients) and numeric and \
                any(type(x) in (bool, float) for x in u):
            assert got is TypeError
        g = AffineFunctional("s", tuple(coefficients), constant)
        assert g.vertex_values() == tuple(Fraction(c) + Fraction(constant)
                                          for c in coefficients)
        assert all(type(x) is Fraction for x in g.vertex_values())

    def test_restriction_keeps_the_integer_orders(self):
        c = build_from_facets(3, 2, [[1, 2, 3]])
        rows = [[0, 0, 0], [0, 1, 4], [1, 0, 1], [3, 1, 0]]
        m = OrderMatrix(tuple(map(tuple, rows)), (True,) * 4)
        g = restrict_affine(m, 3, c.stratum("1-2-3"))
        assert g.coefficients == (3, 1, 0)
        assert all(type(x) is int for x in g.coefficients)
        assert g.evaluate((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))) == Fraction(11, 6)
        assert g.vertex_values() == (Fraction(3), Fraction(1), Fraction(0))

    @pytest.mark.parametrize("vertex", [0, 4])
    def test_foreign_vertex_raises_like_order(self, vertex):
        m = canonical_order_matrix(cycle3())
        stratum = Stratum("far", (1, vertex))
        with pytest.raises(ValueError, match=f"component index {vertex} out of range 1..3"):
            restrict_affine(m, 1, stratum)
        with pytest.raises(ValueError, match=f"component index {vertex} out of range 1..3"):
            concavity_lower_bound(m, 1, stratum, (Fraction(1, 2), Fraction(1, 2)))
