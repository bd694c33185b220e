"""Exact linear algebra kernels: Smith form, saturation, relint feasibility."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

try:
    import sympy
except ImportError:  # the sympy comparisons are skipped without it
    sympy = None

from skeletrop import lattice
from skeletrop.complexes import build_delta_complex
from skeletrop.lattice import (Constraint, IntMatrix, RationalPolyhedron,
                               complete_to_basis, extends_to_basis,
                               relint_intersection_nonempty,
                               simplex_image_polyhedron, smith_normal_form)
from skeletrop.sections import OrderMatrix
from skeletrop.tropicalize import build_map


def laplace_det(rows):
    """Independent determinant oracle: expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * laplace_det(minor)
    return total


def minor_gcds(m: IntMatrix):
    """gcd of all k x k minors for each k, by brute-force enumeration."""
    out = []
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for ridx in itertools.combinations(range(m.rows), k):
            for cidx in itertools.combinations(range(m.cols), k):
                sub = [[m.entries[i][j] for j in cidx] for i in ridx]
                g = math.gcd(g, laplace_det(sub))
        out.append(g)
    return out


def assert_snf_contract(m: IntMatrix):
    snf = smith_normal_form(m)
    assert (snf.u @ m @ snf.v) == snf.d
    assert abs(snf.u.det()) == 1
    assert abs(snf.v.det()) == 1
    diag = snf.diagonal
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if b != 0:
            assert a != 0 and b % a == 0
        # off-diagonal entries vanish
    for i in range(snf.d.rows):
        for j in range(snf.d.cols):
            if i != j:
                assert snf.d.entries[i][j] == 0
    # products of leading divisors match gcds of k x k minors
    gcds = minor_gcds(m)
    prod = 1
    for k, g in enumerate(gcds, start=1):
        prod = prod * diag[k - 1] if k - 1 < len(diag) else 0
        assert prod == g
    return snf


class TestIntMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, ((1, 2),))
        with pytest.raises(ValueError):
            IntMatrix(1, 2, ((1,),))
        with pytest.raises(TypeError):
            IntMatrix(1, 1, ((1.5,),))
        with pytest.raises(TypeError):
            IntMatrix(1, 1, ((True,),))

    def test_matmul_and_det(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert (a @ b).entries == ((2, 1), (4, 3))
        assert a.det() == -2
        assert IntMatrix.identity(3).det() == 1
        assert a.rank() == 2
        assert IntMatrix.from_rows([[1, 2], [2, 4]]).rank() == 1

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 5), st.integers(1, 5), st.integers(0, 5), st.data())
    def test_rank_matches_sympy(self, nr, nc, k, data):
        sympy = pytest.importorskip("sympy")
        # A product of an nr x k and a k x nc matrix: rank at most k, so
        # rank-deficient matrices and skipped pivot columns are common.
        entry = st.integers(-4, 4)
        left = [[data.draw(entry) for _ in range(k)] for _ in range(nr)]
        right = [[data.draw(entry) for _ in range(nc)] for _ in range(k)]
        rows = [[sum(row[t] * right[t][j] for t in range(k)) for j in range(nc)] for row in left]
        assert IntMatrix.from_rows(rows, cols=nc).rank() == sympy.Matrix(nr, nc, sum(rows, [])).rank()

    def test_empty_rows_needs_cols(self):
        m = IntMatrix.from_rows([], cols=3)
        assert m.rows == 0 and m.cols == 3
        with pytest.raises(ValueError):
            IntMatrix.from_rows([])


class TestSmithNormalForm:
    def test_identity_case(self):
        snf = smith_normal_form(IntMatrix.from_rows([[1]]))
        assert snf.d.entries == ((1,),)

    def test_diag_2_3(self):
        # gcd of entries is 1, product of divisors is |det| = 6
        snf = assert_snf_contract(IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert snf.diagonal == (1, 6)

    def test_difference_vectors(self):
        snf = assert_snf_contract(IntMatrix.from_rows([[1, -1, 0], [1, 0, -1]]))
        assert snf.diagonal == (1, 1)

    def test_zero_matrix(self):
        snf = smith_normal_form(IntMatrix.from_rows([[0, 0], [0, 0]]))
        assert snf.diagonal == (0, 0)
        assert snf.elementary_divisors == ()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_random_matrices(self, nr, nc, data):
        rows = [[data.draw(st.integers(-9, 9)) for _ in range(nc)] for _ in range(nr)]
        assert_snf_contract(IntMatrix.from_rows(rows))

    def test_large_entries_stay_exact(self):
        import random
        rng = random.Random(99)
        for _ in range(25):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            m = IntMatrix.from_rows([[rng.randint(-10 ** 6, 10 ** 6)
                                      for _ in range(nc)] for _ in range(nr)])
            snf = smith_normal_form(m)
            assert (snf.u @ m @ snf.v) == snf.d
            assert abs(snf.u.det()) == 1 and abs(snf.v.det()) == 1
            diag = snf.diagonal
            for a, b in zip(diag, diag[1:]):
                if b != 0:
                    assert a != 0 and b % a == 0


class TestSmithDiagonal:
    """The transform-free elimination behind ``elementary_divisors`` and
    ``extends_to_basis``, and behind ``check_unimodular`` for a piece that
    fails the signed-selector test."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 5), st.integers(1, 6), st.data())
    def test_matches_smith_normal_form_and_sympy(self, nr, nc, data):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors
        entry = data.draw(st.sampled_from((st.integers(-3, 3), st.integers(-10 ** 6, 10 ** 6))))
        rows = [[data.draw(entry) for _ in range(nc)] for _ in range(nr)]
        m = IntMatrix.from_rows(rows, cols=nc)
        diag = lattice._smith_diagonal(m)
        assert diag == smith_normal_form(m).diagonal
        assert lattice.elementary_divisors(m) == tuple(x for x in diag if x != 0)
        if nr:
            expected = invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
            assert diag == tuple(abs(int(x)) for x in expected)
            assert extends_to_basis(rows) == (nr <= nc and all(x == 1 for x in diag))

    def test_empty_and_wide_shapes(self):
        assert lattice._smith_diagonal(IntMatrix.from_rows([], cols=3)) == ()
        assert lattice._smith_diagonal(IntMatrix.from_rows([[0, 4, 6]])) == (2,)
        assert lattice._smith_diagonal(IntMatrix.from_rows([[4], [6], [0]])) == (2,)


class TestExtendsToBasis:
    def test_difference_vectors_extend(self):
        assert extends_to_basis([[1, -1, 0], [1, 0, -1]]) is True

    def test_unit_vector(self):
        assert extends_to_basis([[1, 0]]) is True

    def test_doubled_vector(self):
        # elementary divisor 2, so the span is not saturated
        assert extends_to_basis([[2, 0]]) is False

    def test_dependent_vectors(self):
        assert extends_to_basis([[1, 0], [2, 0]]) is False

    def test_too_many_vectors(self):
        assert extends_to_basis([[1, 0], [0, 1], [1, 1]]) is False

    def test_empty_is_trivial(self):
        assert extends_to_basis([]) is True

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            extends_to_basis([[1, 0], [1, 0, 0]])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 3), st.data())
    def test_completion_has_unit_determinant(self, n, k, data):
        vecs = [[data.draw(st.integers(-5, 5)) for _ in range(n)]
                for _ in range(min(k, n))]
        if not extends_to_basis(vecs):
            with pytest.raises(ValueError):
                complete_to_basis(vecs)
            return
        full = complete_to_basis(vecs)
        assert full.rows == full.cols == n
        assert [list(r) for r in full.entries[:len(vecs)]] == [list(v) for v in vecs]
        assert abs(full.det()) == 1


# ---------------------------------------------------------------------------
# Reference eliminations: the Bareiss determinant and rank loops and the
# Fraction Gauss-Jordan inverse that ``IntMatrix.det``, ``IntMatrix.rank``
# and ``complete_to_basis`` ran before they shared one integer kernel.
# ---------------------------------------------------------------------------


def ref_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    a = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def ref_rank(rows, ncols):
    a = [list(row) for row in rows]
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(a)) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        prow = a[rank]
        p = prow[col]
        for i in range(rank + 1, len(a)):
            f = a[i][col]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], prow)]
        prev = p
        rank += 1
    return rank


def ref_inverse_unimodular(rows):
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            x = a[i][n + j]
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular")
            row.append(int(x))
        out.append(tuple(row))
    return tuple(out)


def ref_complete_to_basis(vectors):
    """``complete_to_basis`` with the reference inverse."""
    snf = smith_normal_form(IntMatrix.from_rows(vectors))
    k, n = len(vectors), len(vectors[0])
    return tuple(map(tuple, vectors)) + ref_inverse_unimodular(snf.v.entries)[k:n]


def raised(fn, *args):
    """The message ``fn`` raises with ValueError, or None if it returns."""
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def matrices(draw, min_rows=0, max_rows=5, min_cols=0, max_cols=5, square=False):
    """Integer matrices that are often singular or rank-deficient (a product
    through k columns has rank at most k) and often need row swaps and
    negative pivots (sparse entries of both signs)."""
    nr = draw(st.integers(min_rows, max_rows))
    nc = nr if square else draw(st.integers(min_cols, max_cols))
    entry = draw(st.sampled_from((st.integers(-4, 4), st.sampled_from((0, 0, 0, 1, -1, 2, -3)),
                                  st.integers(-10 ** 6, 10 ** 6))))
    if draw(st.booleans()):
        return [[draw(entry) for _ in range(nc)] for _ in range(nr)]
    k = draw(st.integers(0, max(nr, nc)))
    left = [[draw(entry) for _ in range(k)] for _ in range(nr)]
    right = [[draw(entry) for _ in range(nc)] for _ in range(k)]
    return [[sum(row[t] * right[t][j] for t in range(k)) for j in range(nc)] for row in left]


@st.composite
def unimodular_matrices(draw):
    """Square matrices of determinant +-1: products of elementary row
    operations (add a multiple, swap, negate) or Smith transforms."""
    if draw(st.booleans()):
        m = draw(matrices(min_rows=1, min_cols=1))
        snf = smith_normal_form(IntMatrix.from_rows(m))
        return [list(row) for row in draw(st.sampled_from((snf.u, snf.v))).entries]
    n = draw(st.integers(0, 6))
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 12)) if n else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(("add", "swap", "negate")))
        if op == "add" and i != j:
            q = draw(st.integers(-3, 3))
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        elif op == "swap":
            a[i], a[j] = a[j], a[i]
        elif op == "negate":
            a[i] = [-x for x in a[i]]
    return a


class TestGaussJordanMatchesReference:
    """det and rank share the echelon driver ``_echelon`` and the unimodular
    inverse is read off the Smith transforms; each must agree with its old
    elimination loop and, where installed, sympy."""

    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_rank_matches_reference_and_sympy(self, rows):
        nc = len(rows[0]) if rows else 0
        rank = IntMatrix.from_rows(rows, cols=nc).rank()
        assert rank == ref_rank(rows, nc)
        if sympy is not None:
            assert rank == sympy.Matrix(len(rows), nc, sum(rows, [])).rank()

    @settings(max_examples=300, deadline=None)
    @given(matrices(square=True))
    def test_det_matches_reference_and_sympy(self, rows):
        det = IntMatrix.from_rows(rows, cols=len(rows)).det()
        assert det == ref_det(rows)
        if sympy is not None:
            assert det == sympy.Matrix(len(rows), len(rows), sum(rows, [])).det()

    @settings(max_examples=150, deadline=None)
    @given(matrices(min_rows=1, min_cols=1))
    def test_echelon_stops_below_each_pivot(self, rows):
        out = [list(row) for row in rows]
        d, _, rank = lattice._echelon(out, len(rows[0]))
        leads = [next(j for j, x in enumerate(row) if x) for row in out[:rank]]
        assert leads == sorted(set(leads)) and not any(map(any, out[rank:]))
        if rank:
            # The first pivot row is an input row up to sign: no later pivot
            # eliminates above itself.  The denominator is the last pivot.
            first = next(row for row in rows if row[leads[0]])
            assert out[0] in (first, [-x for x in first])
            assert d == out[rank - 1][leads[-1]] > 0

    def test_swaps_negative_pivots_and_empty_shapes(self):
        cases = [
            ([[0, 1], [1, 0]], -1, 2),        # one swap
            ([[-1]], -1, 1),                  # one negative pivot
            ([[0, -2], [3, 0]], 6, 2),        # a swap and a negative pivot
            ([[0, 0, 1], [0, -1, 0], [-1, 0, 0]], -1, 3),
            ([[1, 2], [2, 4]], 0, 1),         # singular
            ([[0, 0], [0, 0]], 0, 0),
            ([[0, 5], [0, 7]], 0, 1),         # first column has no pivot
        ]
        for rows, det, rank in cases:
            m = IntMatrix.from_rows(rows)
            assert (m.det(), m.rank()) == (det, rank) == (ref_det(rows), ref_rank(rows, len(rows)))
        empty = IntMatrix(0, 0, ())
        assert (empty.det(), empty.rank()) == (1, 0)
        assert IntMatrix.from_rows([], cols=3).rank() == 0
        assert IntMatrix(3, 0, ((), (), ())).rank() == 0
        with pytest.raises(ValueError, match="non-square"):
            IntMatrix.from_rows([[1, 2]]).det()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    def test_complete_to_basis_matches_reference(self, n, k, data):
        vecs = [[data.draw(st.integers(-5, 5)) for _ in range(n)] for _ in range(min(k, n))]
        if extends_to_basis(vecs):
            assert complete_to_basis(vecs).entries == ref_complete_to_basis(vecs)

    def test_complete_to_basis_outputs_are_pinned(self):
        # Completions returned by the Fraction Gauss-Jordan inverse.
        pinned = [
            ([[1, -1, 0], [1, 0, -1]], ((1, -1, 0), (1, 0, -1), (0, 0, 1))),
            ([[2, 3]], ((2, 3), (1, 1))),
            ([[0, 0, 1]], ((0, 0, 1), (0, 1, 0), (1, 0, 0))),
            ([[3, 5, 0, 1], [0, 1, 1, 1]],
             ((3, 5, 0, 1), (0, 1, 1, 1), (0, 1, 0, 0), (1, 0, 0, 0))),
            ([[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]],
             ((0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (0, 0, 1, 0))),
        ]
        for vecs, expected in pinned:
            assert complete_to_basis(vecs).entries == expected

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(matrices(), unimodular_matrices()))
    def test_elimination_keeps_the_inverse_of_v(self, rows):
        nr, nc = len(rows), len(rows[0]) if rows else 0
        a = [list(row) for row in rows]
        u = [[int(i == j) for j in range(nr)] for i in range(nr)]
        v, v_inv = ([[int(i == j) for j in range(nc)] for i in range(nc)] for _ in range(2))
        lattice._smith_eliminate(a, nc, u, v, v_inv)
        v, v_inv = (IntMatrix(nc, nc, tuple(map(tuple, x))) for x in (v, v_inv))
        assert v_inv.entries == ref_inverse_unimodular(v.entries)
        assert v @ v_inv == v_inv @ v == IntMatrix.identity(nc)
        m = IntMatrix(nr, nc, tuple(map(tuple, rows)))
        assert IntMatrix(nr, nr, tuple(map(tuple, u))) @ m @ v == \
            IntMatrix(nr, nc, tuple(map(tuple, a)))

    def test_complete_to_basis_eliminates_once(self, monkeypatch):
        calls = []
        eliminate = lattice._smith_eliminate

        def counting(*args, **kwargs):
            calls.append(args)
            return eliminate(*args, **kwargs)

        monkeypatch.setattr(lattice, "_smith_eliminate", counting)
        for vecs in ([[1, -1, 0], [1, 0, -1]], [[2, 3]], [[3, 5, 0, 1], [0, 1, 1, 1]]):
            calls.clear()
            complete_to_basis(vecs)
            assert len(calls) == 1
        calls.clear()
        with pytest.raises(ValueError, match="do not extend"):
            complete_to_basis([[2, 0]])
        assert len(calls) == 1


class TestConstraints:
    def test_gcd_normalization(self):
        c = Constraint((2, 4), Fraction(6))
        assert c.normal == (1, 2) and c.bound == Fraction(3)
        assert c == Constraint((1, 2), 3)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            Constraint((0, 0), Fraction(1))

    def test_float_bound_rejected(self):
        with pytest.raises(TypeError):
            Constraint((1,), 0.5)

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            RationalPolyhedron(2, (Constraint((1,), Fraction(0)),))

    def test_contains(self):
        p = RationalPolyhedron(1, (Constraint((1,), Fraction(1), strict=True),
                                   Constraint((-1,), Fraction(0))))
        assert p.contains([Fraction(1, 2)])
        assert p.contains([0])
        assert not p.contains([1])


def segment_relint(a, b):
    return simplex_image_polyhedron([a, b], relative_interior=True)


class TestSimplexImagePolyhedron:
    def test_segment_relint_membership(self):
        p = segment_relint((0, 1), (1, 0))
        # interior rationals are in, endpoints and off-segment points are out
        for k in range(1, 16):
            t = Fraction(k, 16)
            assert p.contains((t, 1 - t))
        assert not p.contains((0, 1))
        assert not p.contains((1, 0))
        assert not p.contains((Fraction(1, 2), Fraction(1, 2) + Fraction(1, 7)))

    def test_closed_segment(self):
        p = simplex_image_polyhedron([(0, 1), (1, 0)], relative_interior=False)
        assert p.contains((0, 1))
        assert p.contains((1, 0))
        assert not p.contains((2, -1))

    def test_single_point(self):
        p = simplex_image_polyhedron([(0, 1)])
        assert p.contains((0, 1))
        assert not p.contains((0, 0))

    def test_degenerate_image_needs_fourier_motzkin(self):
        # Three collinear vertex images: barycentric coordinates are not
        # determined by the image point, so elimination has real work to do.
        p = simplex_image_polyhedron([(0,), (1,), (2,)])
        assert p.contains((Fraction(1, 3),))
        assert p.contains((Fraction(3, 2),))
        assert not p.contains((0,))
        assert not p.contains((2,))

    def test_repeated_vertex_images_give_a_point(self):
        p = simplex_image_polyhedron([(1, 2), (1, 2), (1, 2)])
        assert p.contains((1, 2))
        assert not p.contains((0, 0))

    def test_non_simplex_image(self):
        # A tetrahedron can map onto a square; its open image is the open square.
        p = simplex_image_polyhedron([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert p.contains((Fraction(1, 2), Fraction(1, 2)))
        assert p.contains((Fraction(1, 4), Fraction(2, 3)))
        assert not p.contains((Fraction(1, 2), 0))  # edge midpoint
        assert not p.contains((0, 0))
        assert not p.contains((2, 0))

    def test_triangle_relint_matches_barycentric_grid(self):
        verts = [(0, 0), (3, 1), (1, 2)]
        p = simplex_image_polyhedron(verts, relative_interior=True)
        q = 6
        for a in range(q + 1):
            for b in range(q + 1 - a):
                c = q - a - b
                lam = (Fraction(a, q), Fraction(b, q), Fraction(c, q))
                x = tuple(sum(l * Fraction(v[i]) for l, v in zip(lam, verts))
                          for i in range(2))
                assert p.contains(x) == (a > 0 and b > 0 and c > 0)


class TestRelintIntersection:
    def test_self_intersection_witness(self):
        p = segment_relint((0, 1), (1, 0))
        hit, witness = relint_intersection_nonempty(p, p)
        assert hit
        assert witness == (Fraction(1, 2), Fraction(1, 2))

    def test_disjoint_translates(self):
        p = segment_relint((0, 1), (1, 0))
        q = segment_relint((2, 3), (3, 2))
        assert relint_intersection_nonempty(p, q) == (False, None)

    def test_segment_vs_endpoint(self):
        # The endpoint is excluded by strictness.  Grid check: no rational
        # point of the open segment equals (0, 1).
        p = segment_relint((0, 1), (1, 0))
        q = simplex_image_polyhedron([(0, 1)])
        assert relint_intersection_nonempty(p, q) == (False, None)
        for k in range(1, 32):
            t = Fraction(k, 32)
            assert (t, 1 - t) != (0, 1)

    def test_dimension_mismatch(self):
        p = segment_relint((0, 1), (1, 0))
        q = simplex_image_polyhedron([(0,)])
        with pytest.raises(ValueError):
            relint_intersection_nonempty(p, q)

    def test_unconstrained_space(self):
        p = RationalPolyhedron(2, ())
        hit, witness = relint_intersection_nonempty(p, p)
        assert hit and witness == (0, 0)

    def test_crossing_segments(self):
        p = segment_relint((0, 0), (2, 2))
        q = segment_relint((0, 2), (2, 0))
        hit, witness = relint_intersection_nonempty(p, q)
        assert hit
        assert p.contains(witness) and q.contains(witness)

    def test_touching_at_endpoints_is_disjoint(self):
        # Closed segments share (1, 1); open ones do not.
        p = segment_relint((0, 0), (1, 1))
        q = segment_relint((1, 1), (2, 0))
        assert relint_intersection_nonempty(p, q) == (False, None)

    def test_negative_bounds_need_artificial_variables(self):
        p = RationalPolyhedron(2, (Constraint((1, 0), Fraction(-3), strict=True),
                                   Constraint((0, 1), Fraction(-5), strict=True)))
        q = RationalPolyhedron(2, (Constraint((-1, 0), Fraction(10)),
                                   Constraint((0, -1), Fraction(10))))
        hit, witness = relint_intersection_nonempty(p, q)
        assert hit
        assert p.contains(witness) and q.contains(witness)

    def test_strict_against_closed_boundary(self):
        p = RationalPolyhedron(1, (Constraint((1,), Fraction(0), strict=True),))
        q = RationalPolyhedron(1, (Constraint((-1,), Fraction(0)),))
        assert relint_intersection_nonempty(p, q) == (False, None)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_symmetry_and_witness_validity(self, data):
        coord = st.integers(-3, 3)
        seg = lambda: segment_relint((data.draw(coord), data.draw(coord)),
                                     (data.draw(coord), data.draw(coord)))
        p, q = seg(), seg()
        hit_pq, w_pq = relint_intersection_nonempty(p, q)
        hit_qp, w_qp = relint_intersection_nonempty(q, p)
        assert hit_pq == hit_qp
        assert w_pq == w_qp  # constraints are merged canonically
        if hit_pq:
            assert p.contains(w_pq) and q.contains(w_pq)


# ---------------------------------------------------------------------------
# Reference kernels on Fraction
#
# The same simplex method and the same elimination as in ``lattice``, written
# with plain rational arithmetic on the full tableau.  The integer kernels
# must make the same pivots, so they must return the same LP value and
# witness, and the same constraints.  Given a list ``path``, the simplex
# records each pivot's (entering, leaving) variable in it.
# ---------------------------------------------------------------------------

_EQ, _LE, _LT = 0, 1, 2


def ref_pivot(rows, rhs, obj, basis, r, c, path=None):
    if path is not None:
        path.append((c, basis[r]))
    inv = rows[r][c]
    rows[r] = [x / inv for x in rows[r]]
    rhs[r] = rhs[r] / inv
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            f = rows[i][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
            rhs[i] = rhs[i] - f * rhs[r]
    if obj[c] != 0:
        f = obj[c]
        for j in range(len(obj) - 1):
            obj[j] -= f * rows[r][j]
        obj[-1] -= f * rhs[r]
    basis[r] = c


def ref_run_simplex(rows, rhs, basis, cost, path=None):
    ncols = len(rows[0]) if rows else len(cost)
    obj = [Fraction(c) for c in cost] + [Fraction(0)]
    for i, b in enumerate(basis):
        if obj[b] != 0:
            f = obj[b]
            for j in range(ncols):
                obj[j] -= f * rows[i][j]
            obj[-1] -= f * rhs[i]
    while True:
        enter = next((j for j in range(ncols) if obj[j] > 0), None)
        if enter is None:
            return -obj[-1]
        best = None
        for i in range(len(rows)):
            a = rows[i][enter]
            if a > 0:
                ratio = rhs[i] / a
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            raise ArithmeticError("linear program is unbounded")
        ref_pivot(rows, rhs, obj, basis, best[1], enter, path)


def ref_max_min_slack(constraints, dim, path=None):
    zero, one = Fraction(0), Fraction(1)
    m = len(constraints) + 1
    base = 2 * dim + 2
    total = base + m
    rows, rhs = [], []
    for c in constraints:
        coef = [zero] * total
        for i, ai in enumerate(c.normal):
            coef[i] = Fraction(ai)
            coef[dim + i] = Fraction(-ai)
        if c.strict:
            coef[2 * dim] = one
            coef[2 * dim + 1] = -one
        rows.append(coef)
        rhs.append(Fraction(c.bound))
    cap = [zero] * total
    cap[2 * dim] = one
    cap[2 * dim + 1] = -one
    rows.append(cap)
    rhs.append(one)
    for i in range(m):
        rows[i][base + i] = one
    art_of_row = {}
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
            art_of_row[i] = None
    nart = len(art_of_row)
    if nart:
        for row in rows:
            row.extend([zero] * nart)
        for idx, i in enumerate(art_of_row):
            rows[i][total + idx] = one
            art_of_row[i] = total + idx
    basis = [art_of_row.get(i, base + i) for i in range(m)]
    if nart:
        cost1 = [zero] * (total + nart)
        for i in art_of_row.values():
            cost1[i] = -one
        if ref_run_simplex(rows, rhs, basis, cost1, path) < 0:
            return None, None
        for i in range(len(rows)):
            if basis[i] >= total:
                pivot_col = next(j for j in range(total) if rows[i][j] != 0)
                ref_pivot(rows, rhs, [zero] * (total + nart + 1), basis, i, pivot_col, path)
        rows = [row[:total] for row in rows]
    cost2 = [zero] * total
    cost2[2 * dim] = one
    cost2[2 * dim + 1] = -one
    value = ref_run_simplex(rows, rhs, basis, cost2, path)
    solution = [zero] * total
    for i, b in enumerate(basis):
        solution[b] = rhs[i]
    return value, tuple(solution[i] - solution[dim + i] for i in range(dim))


def ref_eliminate_variables(rows, drop):
    rows = [([Fraction(c) for c in coeffs], rel, Fraction(rhs)) for coeffs, rel, rhs in rows]
    for j in range(drop):
        pivot = next((r for r in rows if r[1] == _EQ and r[0][j] != 0), None)
        if pivot is not None:
            pc, _, prhs = pivot
            rows.remove(pivot)
            new_rows = []
            for coeffs, rel, rhs in rows:
                if coeffs[j] != 0:
                    f = coeffs[j] / pc[j]
                    coeffs = [c - f * p for c, p in zip(coeffs, pc)]
                    rhs = rhs - f * prhs
                new_rows.append((coeffs, rel, rhs))
            rows = new_rows
            continue
        keep, uppers, lowers = [], [], []
        for row in rows:
            c = row[0][j]
            (keep if c == 0 else uppers if c > 0 else lowers).append(row)
        for (uc, urel, urhs), (lc, lrel, lrhs) in itertools.product(uppers, lowers):
            mu, ml = -lc[j], uc[j]
            coeffs = [mu * cu + ml * cl for cu, cl in zip(uc, lc)]
            rel = _LT if _LT in (urel, lrel) else _LE
            keep.append((coeffs, rel, mu * urhs + ml * lrhs))
        rows = keep
    return rows


def ref_image_constraints(vertex_images, relative_interior):
    """Constraints of ``simplex_image_polyhedron`` by Fraction elimination."""
    verts = [tuple(Fraction(x) for x in w) for w in vertex_images]
    r, n = len(verts), len(verts[0])
    rows = []
    for i in range(n):
        coeffs = [verts[a][i] for a in range(r)] + [Fraction(0)] * n
        coeffs[r + i] = Fraction(-1)
        rows.append((coeffs, _EQ, Fraction(0)))
    rows.append(([Fraction(1)] * r + [Fraction(0)] * n, _EQ, Fraction(1)))
    for a in range(r):
        coeffs = [Fraction(0)] * (r + n)
        coeffs[a] = Fraction(-1)
        rows.append((coeffs, _LT if relative_interior else _LE, Fraction(0)))
    out = {}
    for coeffs, rel, rhs in ref_eliminate_variables(rows, r):
        xcoeffs = coeffs[r:]
        if all(c == 0 for c in xcoeffs):
            continue
        sides = [(xcoeffs, rhs), ([-c for c in xcoeffs], -rhs)] if rel == _EQ else [(xcoeffs, rhs)]
        for normal, bound in sides:
            denom = math.lcm(*(c.denominator for c in normal))
            cand = Constraint(tuple(int(c * denom) for c in normal), bound * denom, rel == _LT)
            prev = out.get(cand.normal)
            if prev is None or (cand.bound, not cand.strict) < (prev[0], not prev[1]):
                out[cand.normal] = (cand.bound, cand.strict)
    return tuple(sorted((Constraint(nrm, b, s) for nrm, (b, s) in out.items()),
                        key=Constraint.sort_key))


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def vertex_images(draw, dim):
    r = draw(st.integers(1, 4))
    coord = st.one_of(st.integers(-3, 3), rationals)
    return [tuple(draw(coord) for _ in range(dim)) for _ in range(r)]


@st.composite
def polyhedra(draw, dim):
    """Either a simplex image or a free mix of strict and closed half-spaces
    with fractional and negative bounds (the latter reach phase 1)."""
    if draw(st.booleans()):
        return simplex_image_polyhedron(draw(vertex_images(dim)), draw(st.booleans()))
    normal = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any)
    return RationalPolyhedron(dim, tuple(
        Constraint(tuple(draw(normal)), draw(rationals), draw(st.booleans()))
        for _ in range(draw(st.integers(0, 5)))))


def kernel_path(monkeypatch):
    """Record each pivot of ``lattice._max_min_slack`` as (entering, leaving,
    pivot entry, negated pair slot, drive-out) in the returned list."""
    seen = []
    pivot = lattice._pivot

    def spy(rows, basis, slots, d, r, c, enter, dim):
        drive_out = len(rows) == len(basis)  # the objective row is absent
        seen.append((enter, basis[r], rows[r][c], enter != slots[c], drive_out))
        return pivot(rows, basis, slots, d, r, c, enter, dim)

    monkeypatch.setattr(lattice, "_pivot", spy)
    return seen


def is_minus_part(v, dim):
    return dim <= v < 2 * dim or v == 2 * dim + 1


class TestIntegerKernelsMatchReference:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_lp_value_and_witness(self, dim, data):
        p, q = data.draw(polyhedra(dim)), data.draw(polyhedra(dim))
        merged = sorted(set(p.constraints) | set(q.constraints), key=Constraint.sort_key)
        value, point = ref_max_min_slack(merged, dim)
        assert lattice._max_min_slack(merged, dim) == (value, point)
        expected = (True, point) if value is not None and value > 0 else (False, None)
        assert relint_intersection_nonempty(p, q) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.booleans(), st.data())
    def test_fourier_motzkin_constraints(self, dim, relative_interior, data):
        verts = data.draw(vertex_images(dim))
        p = simplex_image_polyhedron(verts, relative_interior)
        assert p.constraints == ref_image_constraints(verts, relative_interior)

    def test_negative_drive_out_pivot(self, monkeypatch):
        # The banana's collision LP drives an artificial variable out of the
        # basis on a negative pivot; the tableau is negated, not the answer.
        seen = kernel_path(monkeypatch)
        p = segment_relint((0, 1), (1, 0))
        q = segment_relint((1, 0), (0, 1))
        merged = sorted(set(p.constraints) | set(q.constraints), key=Constraint.sort_key)
        assert lattice._max_min_slack(merged, 2) == ref_max_min_slack(merged, 2)
        assert any(drive_out and entry < 0 for _, _, entry, _, drive_out in seen)
        assert relint_intersection_nonempty(p, q) == (True, (Fraction(1, 2), Fraction(1, 2)))

    def test_pivot_path_matches_reference(self, monkeypatch):
        # Equal answers could hide a pair-slot slip that reaches the same
        # vertex, so the condensed tableau must pivot as the full one does,
        # and the draws must reach both of its special cases.
        seen = kernel_path(monkeypatch)
        minus_entered = artificial_driven_out = False

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(st.integers(1, 4), st.data())
        def check(dim, data):
            nonlocal minus_entered, artificial_driven_out
            p, q = data.draw(polyhedra(dim)), data.draw(polyhedra(dim))
            merged = sorted(set(p.constraints) | set(q.constraints), key=Constraint.sort_key)
            path = []
            expected = ref_max_min_slack(merged, dim, path)
            seen.clear()
            assert lattice._max_min_slack(merged, dim) == expected
            assert [(enter, leave) for enter, leave, *_ in seen] == path
            total = 2 * dim + 3 + len(merged)
            for enter, leave, _, negated, drive_out in seen:
                assert negated == is_minus_part(enter, dim)
                minus_entered |= negated
                artificial_driven_out |= drive_out and leave >= total

        check()
        assert minus_entered and artificial_driven_out

    @pytest.mark.parametrize("make", ["banana_ring_8x3", "triangle_stack_5x6"])
    def test_delta_sized_systems(self, make, monkeypatch):
        # The draws above stop at dim 4; perfbench's Delta documents solve
        # at dim 5 to 8, one system per vertex set that several strata share.
        seen = kernel_path(monkeypatch)
        f = build_map(*DELTA_COMPLEXES[make](random.Random(30)))
        by_set = {}
        for s in f.complex.strata:
            by_set.setdefault(s.vertex_set, []).append(s.id)
        systems = [simplex_image_polyhedron(f.vertex_images(ids[0]))
                   for ids in by_set.values() if len(ids) > 1]
        assert len(systems) == {"banana_ring_8x3": 8, "triangle_stack_5x6": 1}[make]
        for poly in systems:
            path = []
            seen.clear()
            expected = ref_max_min_slack(poly.constraints, f.n, path)
            assert lattice._max_min_slack(poly.constraints, f.n) == expected
            assert [(enter, leave) for enter, leave, *_ in seen] == path  # and so their count

    def test_unsatisfiable_constant_rows_raise(self):
        # Invariants of the elimination, checked with raises so that -O keeps them.
        with pytest.raises(ArithmeticError):
            lattice._emit_constraints([([0, 0, 0], lattice._LT, 0)], 2)
        with pytest.raises(ArithmeticError):
            lattice._emit_constraints([([0, 1, 1], lattice._LE, 3)], 2)


def delta_orders(rng, c):
    """Seeded random valid orders: 1 between adjacent vertices, else 1..3."""
    rows = [[0] * c.ell] + [[0 if i == j else (1 if c.adjacent(i, j) else rng.randint(1, 3))
                             for j in range(1, c.ell + 1)] for i in range(1, c.ell + 1)]
    return OrderMatrix(tuple(map(tuple, rows)), (True,) * (c.ell + 1))


def delta_complex(rng, ell, d, strata):
    """Delta complex on ``strata`` (id, vertices), each with the faces of
    its vertex subsets, which appear once each, and random valid orders."""
    ids = {frozenset(v): sid for sid, v in strata}
    faces = [(sid, list(sub), ids[frozenset(sub)]) for sid, verts in strata
             for r in range(1, len(verts)) for sub in itertools.combinations(sorted(verts), r)]
    c = build_delta_complex(ell, d, strata, faces)
    return c, delta_orders(rng, c)


def banana_ring_8x3(rng):
    """8 vertices in a ring, 3 parallel edges between neighbours."""
    strata = [(f"v{v}", (v,)) for v in range(1, 9)]
    strata += [(f"e{v}.{r}", tuple(rng.sample((v, v % 8 + 1), 2)))
               for v in range(1, 9) for r in range(3)]
    return delta_complex(rng, 8, 1, strata)


def triangle_stack_5x6(rng):
    """5 triangles on the edges of vertices 1, 2, 3, and vertices 4..6."""
    strata = [(f"v{v}", (v,)) for v in range(1, 7)]
    strata += [(f"e{a}{b}", (a, b)) for a, b in ((1, 2), (1, 3), (2, 3))]
    strata += [(f"t{t}", tuple(rng.sample((1, 2, 3), 3))) for t in range(5)]
    return delta_complex(rng, 6, 2, strata)


DELTA_COMPLEXES = {"banana_ring_8x3": banana_ring_8x3, "triangle_stack_5x6": triangle_stack_5x6}


class TestRelintMemo:
    """``relint_intersection_nonempty`` keeps a self-query's result on the
    polyhedron and solves every query on two objects afresh."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_repeated_swapped_and_fresh_calls_agree(self, dim, data):
        p, q = data.draw(polyhedra(dim)), data.draw(polyhedra(dim))
        own = sorted(set(p.constraints), key=Constraint.sort_key)
        merged = sorted(set(p.constraints) | set(q.constraints), key=Constraint.sort_key)
        solves = []
        solve = lattice._max_min_slack

        def answer(constraints):
            value, point = solve(constraints, dim)
            return (True, point) if value is not None and value > 0 else (False, None)

        def counting(constraints, d):
            solves.append(tuple(constraints))
            return solve(constraints, d)

        lattice._max_min_slack = counting
        try:
            itself = [relint_intersection_nonempty(p, p) for _ in range(3)]
            assert solves == [tuple(own)]
            first = relint_intersection_nonempty(p, q)
            repeated = relint_intersection_nonempty(p, q)
            swapped = relint_intersection_nonempty(q, p)
            p2, q2 = (RationalPolyhedron(x.ambient_dim, x.constraints) for x in (p, q))
            assert (p2, q2) == (p, q)
            fresh = relint_intersection_nonempty(p2, q2)
            fresh_swapped = relint_intersection_nonempty(q2, p2)
            copy = relint_intersection_nonempty(p, p2)
            assert solves == [tuple(own)] + [tuple(merged)] * 5 + [tuple(own)]
        finally:
            lattice._max_min_slack = solve
        assert first == repeated == swapped == fresh == fresh_swapped == answer(merged)
        assert itself == [copy] * 3 and copy == answer(own)

    def test_self_query_solves_the_sorted_unique_system(self, monkeypatch):
        # A polyhedron built by hand may list its constraints unsorted and
        # repeated; its self-query solves the system a copy would meet.
        a, b = Constraint((1,), Fraction(1), True), Constraint((-1,), Fraction(0), True)
        p = RationalPolyhedron(1, (a, b, a))
        solves = []
        solve = lattice._max_min_slack
        monkeypatch.setattr(lattice, "_max_min_slack",
                            lambda cs, d: solves.append(tuple(cs)) or solve(cs, d))
        hit, witness = relint_intersection_nonempty(p, p)
        assert solves == [(b, a)]
        assert relint_intersection_nonempty(p, RationalPolyhedron(1, (b,))) == (hit, witness)
        assert hit and p.contains(witness)

    def test_memo_is_not_part_of_the_value(self):
        assert [f.name for f in dataclasses.fields(RationalPolyhedron)] == ["ambient_dim",
                                                                           "constraints"]
        p = segment_relint((0, 1), (1, 0))
        q = RationalPolyhedron(p.ambient_dim, p.constraints)
        relint_intersection_nonempty(p, p)
        relint_intersection_nonempty(p, q)
        assert p == q and hash(p) == hash(q)
        assert repr(p) == repr(q)
        assert vars(q) == {"ambient_dim": q.ambient_dim, "constraints": q.constraints}


class TestImageOrderInvariance:
    """``simplex_image_polyhedron`` does not depend on the order of
    affinely independent images, the lemma its docstring proves."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 9), st.booleans(), st.data())
    def test_every_permutation_gives_one_polyhedron(self, n, relative_interior, data):
        r = data.draw(st.integers(1, min(5, n + 1)))
        images = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n),
                                    min_size=r, max_size=r))
        edges = [tuple(x - y for x, y in zip(w, images[0])) for w in images[1:]]
        assume(not edges or IntMatrix.from_rows(edges, cols=n).rank() == len(edges))
        first = simplex_image_polyhedron(images, relative_interior)
        for order in itertools.permutations(images):
            assert simplex_image_polyhedron(order, relative_interior) == first
