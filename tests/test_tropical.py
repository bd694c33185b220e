"""Tropical projective arithmetic and min-plus valuation of supports."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeletrop._exact import rational
from skeletrop.tropical import (INFINITY, MonomialSupport, TropicalProjectivePoint,
                                _coord, eval_min_plus, is_infinite, trop_eq,
                                trop_normalize)

rationals = st.fractions(max_denominator=12)


class TestNormalize:
    def test_shift_by_min(self):
        assert trop_normalize((3, 5, INFINITY)).coords == (0, 2, INFINITY)

    def test_identity(self):
        assert trop_normalize((0, 0, 0)).coords == (0, 0, 0)

    def test_negative_shift(self):
        assert trop_normalize((Fraction(-1, 2), Fraction(1, 2))).coords == (0, 1)

    def test_all_infinite_rejected(self):
        with pytest.raises(ValueError):
            trop_normalize((INFINITY, INFINITY))

    def test_finite_floats_rejected(self):
        with pytest.raises(TypeError):
            trop_normalize((0.5, 1))

    def test_canonical_form_enforced(self):
        with pytest.raises(ValueError):
            TropicalProjectivePoint((1, 2))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(rationals, min_size=1, max_size=6))
    def test_idempotent(self, coords):
        once = trop_normalize(coords)
        assert trop_normalize(once.coords) == once


class TestEquality:
    def test_shifted_representatives(self):
        assert trop_eq((0, 2, INFINITY), (5, 7, INFINITY))

    def test_infinity_pattern_matters(self):
        assert not trop_eq((0, 2, INFINITY), (0, 2, 3))

    def test_distinct_points(self):
        assert not trop_eq((0, 1), (1, 0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            trop_eq((0, 1), (0, 1, 2))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(rationals, min_size=1, max_size=5), rationals, rationals)
    def test_equivalence_relation(self, coords, c1, c2):
        x = tuple(coords)
        y = tuple(v + c1 for v in x)
        z = tuple(v + c2 for v in y)
        assert trop_eq(x, x)
        assert trop_eq(x, y) and trop_eq(y, x)
        assert trop_eq(x, z)


def random_support(rng, arity, max_terms=8, max_exp=5):
    terms = rng.randint(1, max_terms)
    return MonomialSupport.from_exponents(
        [tuple(rng.randint(0, max_exp) for _ in range(arity)) for _ in range(terms)])


def random_weights(rng, arity, denom=24):
    cuts = sorted(rng.randint(0, denom) for _ in range(arity - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
    return tuple(Fraction(p, denom) for p in parts)


class TestEvalMinPlus:
    def test_unit_support(self):
        f = MonomialSupport.from_exponents([(0, 0, 0)])
        assert eval_min_plus(f, (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))) == 0
        assert eval_min_plus(f, (1, 0, 0)) == 0

    def test_uniformizer_support(self):
        # all-ones exponent evaluates to exactly 1 at any simplex point
        for r in (1, 2, 4):
            f = MonomialSupport.from_exponents([(1,) * r])
            rng = random.Random(r)
            for _ in range(20):
                assert eval_min_plus(f, random_weights(rng, r)) == 1

    def test_two_term_support(self):
        f = MonomialSupport.from_exponents([(1, 0), (0, 1)])
        assert eval_min_plus(f, (Fraction(1, 3), Fraction(2, 3))) == Fraction(1, 3)

    def test_errors(self):
        f = MonomialSupport.from_exponents([(1, 0)])
        with pytest.raises(ValueError):
            eval_min_plus(f, (Fraction(1, 2),))
        with pytest.raises(ValueError):
            eval_min_plus(f, (Fraction(3, 2), Fraction(-1, 2)))
        with pytest.raises(ValueError):
            MonomialSupport.from_exponents([])
        with pytest.raises(ValueError):
            MonomialSupport.from_exponents([(-1, 0)])

    def test_concavity_at_midpoints(self):
        rng = random.Random(11)
        for _ in range(60):
            r = rng.randint(1, 5)
            f = random_support(rng, r)
            u = random_weights(rng, r)
            v = random_weights(rng, r)
            mid = tuple((a + b) / 2 for a, b in zip(u, v))
            assert eval_min_plus(f, mid) >= (eval_min_plus(f, u) + eval_min_plus(f, v)) / 2

    def test_monotone_under_support_growth(self):
        rng = random.Random(12)
        for _ in range(60):
            r = rng.randint(1, 5)
            f = random_support(rng, r)
            g = MonomialSupport(r, f.exponents | random_support(rng, r).exponents)
            u = random_weights(rng, r)
            assert eval_min_plus(g, u) <= eval_min_plus(f, u)

    def test_multiplicative_on_minkowski_sum(self):
        rng = random.Random(13)
        for _ in range(60):
            r = rng.randint(1, 4)
            f = random_support(rng, r)
            g = random_support(rng, r)
            u = random_weights(rng, r)
            assert (eval_min_plus(f.minkowski_sum(g), u)
                    == eval_min_plus(f, u) + eval_min_plus(g, u))

    def test_minkowski_arity_mismatch(self):
        with pytest.raises(ValueError):
            MonomialSupport.from_exponents([(1,)]).minkowski_sum(
                MonomialSupport.from_exponents([(1, 0)]))


def reference_eval_min_plus(f: MonomialSupport, u) -> Fraction:
    """The earlier kernel: every weight through _coord, every exponent tried."""
    # Infinity is a float, so a weight of infinity is refused where it stands.
    weights = [rational(x) if is_infinite(x) else _coord(x) for x in u]
    if len(weights) != f.arity:
        raise ValueError(f"expected {f.arity} weights, got {len(weights)}")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    denom = math.lcm(*(w.denominator for w in weights))
    numer = [w.numerator * (denom // w.denominator) for w in weights]
    return Fraction(min(sum(n * e for n, e in zip(numer, m)) for m in f.exponents), denom)


def dominates(m, k):
    return all(a >= b for a, b in zip(m, k))


# Supports shaped like criterion c06, weights with zeros and mixed int/Fraction.
weights_entry = st.one_of(st.just(0), st.just(Fraction(0)), st.integers(0, 9),
                          st.fractions(min_value=0, max_value=3, max_denominator=30))


@st.composite
def supports_and_weights(draw):
    arity = draw(st.integers(1, 6))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 7)] * arity), min_size=1, max_size=90))
    # Repeat and dominate some drawn exponents on purpose (at most 100 terms).
    extra = draw(st.lists(st.sampled_from(exps), max_size=5))
    exps += extra + [tuple(min(e + 1, 7) for e in m) for m in extra]
    weights = draw(st.tuples(*[weights_entry] * arity))
    return exps, weights


class TestMinimalExponents:
    @settings(max_examples=300, deadline=None)
    @given(supports_and_weights())
    def test_matches_reference_kernel(self, case):
        exps, u = case
        f = MonomialSupport.from_exponents(exps)
        want = reference_eval_min_plus(f, u)
        got = eval_min_plus(f, u)
        assert got == want
        assert type(got) is Fraction and type(want) is Fraction

        mins = f.minimal_exponents
        assert set(mins) <= f.exponents
        assert len(set(mins)) == len(mins)
        assert not any(a != b and dominates(a, b) for a in mins for b in mins)
        assert all(any(dominates(m, k) for k in mins) for m in f.exponents)

    @settings(max_examples=100, deadline=None)
    @given(supports_and_weights())
    def test_cache_is_not_a_field(self, case):
        exps, _ = case
        bare = MonomialSupport.from_exponents(exps)
        filled = MonomialSupport.from_exponents(exps)
        assert "minimal_exponents" not in vars(filled)
        filled.minimal_exponents
        assert "minimal_exponents" in vars(filled)
        assert filled == bare and bare == filled
        assert hash(filled) == hash(bare)
        assert repr(filled) == repr(bare)
        assert dataclasses.fields(filled) == dataclasses.fields(bare)
        assert [fd.name for fd in dataclasses.fields(filled)] == ["arity", "exponents"]

    def test_small_cases(self):
        f = MonomialSupport.from_exponents([(2, 0), (1, 1), (1, 0), (0, 3), (1, 3)])
        assert f.minimal_exponents == ((1, 0), (0, 3))
        assert MonomialSupport.from_exponents([(0, 0), (5, 5)]).minimal_exponents == ((0, 0),)
        g = MonomialSupport.from_exponents([(3, 0, 1), (0, 2, 0), (1, 1, 1)])
        assert g.minimal_exponents == ((0, 2, 0), (1, 1, 1), (3, 0, 1))

    @pytest.mark.parametrize("u", [
        (True, 0), (Fraction(1, 2), False), (0.5, Fraction(1, 2)), (1, 0.0),
        (INFINITY, 0), (0, -INFINITY), (Fraction(3, 2), Fraction(-1, 2)), (-1, 2),
        (Fraction(1, 2),), (0, 0, 1), ("abc", 0), (0, None), ("1/2", INFINITY),
        (INFINITY, True),
    ])
    def test_weight_errors_match_reference(self, u):
        f = MonomialSupport.from_exponents([(1, 0), (0, 2)])
        with pytest.raises(Exception) as want:
            reference_eval_min_plus(f, u)
        with pytest.raises(want.type) as got:
            eval_min_plus(f, u)
        assert type(got.value) is want.type and str(got.value) == str(want.value)

    def test_string_weights_still_parse(self):
        f = MonomialSupport.from_exponents([(1, 0), (0, 2)])
        assert eval_min_plus(f, ("1/2", "1/3")) == Fraction(1, 2)


class TestExponentTypes:
    @pytest.mark.parametrize("bad", [
        [(1.7, True)], [(True, 0)], [(1, 0), (1.0, 0)], [(1, "2")], [(None,)],
        [(Fraction(1), 0)],
    ])
    def test_non_int_exponents_rejected(self, bad):
        with pytest.raises(TypeError):
            MonomialSupport.from_exponents(bad)

    def test_constructor_rejects_non_int_exponents(self):
        with pytest.raises(TypeError, match="non-integer entry 1.7"):
            MonomialSupport(2, frozenset({(1.7, True)}))
        with pytest.raises(TypeError, match="non-integer entry True"):
            MonomialSupport(2, frozenset({(0, 1), (True, 0)}))

    def test_int_exponents_kept(self):
        f = MonomialSupport.from_exponents([[1, 0], (1, 0), (0, 2)])
        assert f.exponents == frozenset({(1, 0), (0, 2)})
        assert all(type(e) is int for m in f.exponents for e in m)
