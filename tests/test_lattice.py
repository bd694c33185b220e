"""Exact linear algebra kernels: Smith form, saturation, relint feasibility."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeletrop import lattice
from skeletrop.lattice import (Constraint, IntMatrix, RationalPolyhedron,
                               complete_to_basis, extends_to_basis,
                               relint_intersection_nonempty,
                               simplex_image_polyhedron, smith_normal_form)


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
    """The transform-free elimination behind ``elementary_divisors``,
    ``extends_to_basis`` and ``check_unimodular``."""

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
# with plain rational arithmetic.  The integer kernels must make the same
# pivots, so they must return the same LP value and witness, and the same
# constraints.
# ---------------------------------------------------------------------------

_EQ, _LE, _LT = 0, 1, 2


def ref_pivot(rows, rhs, obj, basis, r, c):
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


def ref_run_simplex(rows, rhs, basis, cost):
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
        ref_pivot(rows, rhs, obj, basis, best[1], enter)


def ref_max_min_slack(constraints, dim):
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
        if ref_run_simplex(rows, rhs, basis, cost1) < 0:
            return None, None
        for i in range(len(rows)):
            if basis[i] >= total:
                pivot_col = next(j for j in range(total) if rows[i][j] != 0)
                ref_pivot(rows, rhs, [zero] * (total + nart + 1), basis, i, pivot_col)
        rows = [row[:total] for row in rows]
    cost2 = [zero] * total
    cost2[2 * dim] = one
    cost2[2 * dim + 1] = -one
    value = ref_run_simplex(rows, rhs, basis, cost2)
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
        seen = []
        pivot = lattice._pivot

        def spy(rows, obj, basis, d, r, c):
            seen.append(rows[r][c])
            return pivot(rows, obj, basis, d, r, c)

        monkeypatch.setattr(lattice, "_pivot", spy)
        p = segment_relint((0, 1), (1, 0))
        q = segment_relint((1, 0), (0, 1))
        merged = sorted(set(p.constraints) | set(q.constraints), key=Constraint.sort_key)
        assert lattice._max_min_slack(merged, 2) == ref_max_min_slack(merged, 2)
        assert any(x < 0 for x in seen)
        assert relint_intersection_nonempty(p, q) == (True, (Fraction(1, 2), Fraction(1, 2)))

    def test_unsatisfiable_constant_rows_raise(self):
        # Invariants of the elimination, checked with raises so that -O keeps them.
        with pytest.raises(ArithmeticError):
            lattice._emit_constraints([([0, 0, 0], lattice._LT, 0)], 2)
        with pytest.raises(ArithmeticError):
            lattice._emit_constraints([([0, 1, 1], lattice._LE, 3)], 2)
