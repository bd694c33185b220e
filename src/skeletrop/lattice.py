"""Exact integer and rational linear algebra kernels.

Smith normal form, lattice saturation tests, and rational feasibility
queries for relative interiors of polyhedra.  No floating point ever enters
a code path, so every verdict and witness is exact.  One elimination routine
computes the Smith form: ``smith_normal_form`` runs it with its transform
matrices, while ``elementary_divisors`` and ``extends_to_basis`` run it on
the matrix alone, because the diagonal is unique and needs no transforms
(the unimodularity check reaches it only for a piece whose signed vertex
selector is not a right inverse, which no validated map has); it is also
the only full reduction: ``complete_to_basis`` keeps the inverse of the
column transform up to date while it runs, so one pass completes a basis.
The determinant, rank, Fourier-Motzkin and simplex kernels run on Python
ints: data are cleared of denominators once and kept integer by
fraction-free (Bareiss) updates and gcd reduction.  The determinant and
the rank stop at an echelon form eliminated in place below each pivot.
The simplex keeps its tableau column by column, each column in lowest
terms over its own denominator, so a pivot rewrites only the columns its
pivot row reaches; it pivots as the row-major Bareiss tableau would, with
no larger entries.
``fractions.Fraction`` appears only at the API boundary: constraint bounds,
the points ``RationalPolyhedron.contains`` tests, and LP values and
witnesses.  Vertex images are used as given and their denominators cleared
one coordinate at a time; conversion and clearing both go through
``_exact``.  The image polyhedron's rows stay integer up to its
constraints: each normal is reduced by its gcd once, bounds are compared
as integer pairs, and each constraint kept is built once, with its
``Fraction`` bound, through ``Constraint._from_checked``.

Everything in this module is a pure function on immutable values and is
safe to call concurrently.  The one piece of state is the LP result that
``relint_intersection_nonempty`` keeps on a ``RationalPolyhedron`` queried
against itself; it is a function of that constraint system alone, so a
result computed twice by concurrent callers is the same result.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import lt, mul
from typing import Iterable, Sequence

from ._exact import at_least, cleared, fraction, ints

__all__ = [
    "IntMatrix",
    "SmithDecomposition",
    "smith_normal_form",
    "elementary_divisors",
    "extends_to_basis",
    "complete_to_basis",
    "Constraint",
    "RationalPolyhedron",
    "simplex_image_polyhedron",
    "relint_intersection_nonempty",
]

@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix with exact arbitrary-precision entries."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        at_least(self.rows, 0, "matrix dimensions must be nonnegative")
        at_least(self.cols, 0, "matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows in matrix entries")
            ints(row, "matrix entries must be ints, got {x!r}")

    @classmethod
    def from_checked(cls, rows: int, cols: int,
                     entries: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """The matrix of ``entries``, which the caller guarantees to be
        ``rows`` tuples of ``cols`` ints each: nothing is checked again."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "rows", rows)
        object.__setattr__(matrix, "cols", cols)
        object.__setattr__(matrix, "entries", entries)
        return matrix

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        data = tuple(tuple(row) for row in rows)
        if data:
            width = len(data[0])
        elif cols is not None:
            width = cols
        else:
            raise ValueError("cannot infer column count of an empty matrix")
        return cls(len(data), width, data)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("incompatible shapes for matrix product")
        columns = list(zip(*other.entries)) or [()] * other.cols
        data = tuple(tuple(sum(map(mul, row, col)) for col in columns) for row in self.entries)
        return IntMatrix(self.rows, other.cols, data)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def det(self) -> int:
        """Exact determinant by fraction-free elimination to echelon form."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        d, sign, rank = _echelon([list(row) for row in self.entries], self.cols)
        return sign * d if rank == self.rows else 0

    def rank(self) -> int:
        """Rank over the rationals by fraction-free elimination to echelon form."""
        return _echelon([list(row) for row in self.entries], self.cols)[2]


@dataclass(frozen=True)
class SmithDecomposition:
    """Unimodular factorization u @ m @ v == d with d diagonal."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return self.d.diagonal()

    @property
    def elementary_divisors(self) -> tuple[int, ...]:
        return tuple(x for x in self.diagonal if x != 0)


def _smith_eliminate(a: list[list[int]], nc: int,
                     u: list[list[int]] | None = None,
                     v: list[list[int]] | None = None,
                     v_inv: list[list[int]] | None = None) -> None:
    """Reduce the rows ``a`` (``nc`` columns) in place to Smith normal form.

    Pivots are chosen as the smallest nonzero entry in absolute value (the
    first one in row-major order), which keeps coefficient growth tame at
    the sizes handled here.  When ``u`` and ``v`` are given (square, starting
    as identities) every row operation is repeated on ``u`` and every column
    operation on ``v``, so that afterwards ``u @ m @ v == a``.  When
    ``v_inv`` is given (an identity too) each column operation on ``v`` is
    undone on its rows, so that it stays the inverse of ``v``: the swap of
    columns k and j is the swap of rows k and j, and col_j += q * col_k is
    row_k -= q * row_j.  Without them the work is confined to ``a``: the
    diagonal is unique, so it needs no transforms.
    """
    nr = len(a)

    def smallest_nonzero(k):
        best = None
        where = None
        for i in range(k, nr):
            row = a[i]
            for j in range(k, nc):
                x = row[j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    where = (i, j)
                    if best == 1:
                        return where
        return where

    for k in range(min(nr, nc)):
        if smallest_nonzero(k) is None:
            break
        while True:
            i, j = smallest_nonzero(k)
            if i != k:
                a[k], a[i] = a[i], a[k]
                if u is not None:
                    u[k], u[i] = u[i], u[k]
            if j != k:
                for row in a:
                    row[k], row[j] = row[j], row[k]
                if v is not None:
                    for row in v:
                        row[k], row[j] = row[j], row[k]
                if v_inv is not None:
                    v_inv[k], v_inv[j] = v_inv[j], v_inv[k]
            prow = a[k]
            if prow[k] < 0:
                a[k] = prow = [-x for x in prow]
                if u is not None:
                    u[k] = [-x for x in u[k]]
            p = prow[k]
            dirty = False
            for i in range(k + 1, nr):
                row = a[i]
                if row[k]:
                    q = -(row[k] // p)
                    for j in range(k, nc):
                        row[j] += q * prow[j]
                    if u is not None:
                        urow, usrc = u[i], u[k]
                        for j in range(nr):
                            urow[j] += q * usrc[j]
                    if row[k]:
                        dirty = True
            for j in range(k + 1, nc):
                if prow[j]:
                    q = -(prow[j] // p)
                    for row in a:
                        row[j] += q * row[k]
                    if v is not None:
                        for row in v:
                            row[j] += q * row[k]
                    if v_inv is not None:
                        vrow, vsrc = v_inv[k], v_inv[j]
                        for c in range(nc):
                            vrow[c] -= q * vsrc[c]
                    if prow[j]:
                        dirty = True
            if dirty:
                continue  # remainders are strictly smaller; re-pick the pivot
            bad = None
            for i in range(k + 1, nr):
                if any(a[i][j] % p for j in range(k + 1, nc)):
                    bad = i
                    break
            if bad is None:
                break
            # Drag a nondivisible entry into row k: row_k += row_bad.
            src = a[bad]
            for j in range(nc):
                prow[j] += src[j]
            if u is not None:
                urow, usrc = u[k], u[bad]
                for j in range(nr):
                    urow[j] += usrc[j]


def _smith_diagonal(m: IntMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith normal form of ``m``, without transforms."""
    a = [list(row) for row in m.entries]
    _smith_eliminate(a, m.cols)
    return tuple(a[i][i] for i in range(min(m.rows, m.cols)))


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form over the integers, with its transforms.

    Returns unimodular ``u`` (rows x rows) and ``v`` (cols x cols) with
    ``u @ m @ v`` diagonal, entries nonnegative and each dividing the next.
    Callers that need only the diagonal use :func:`elementary_divisors` or
    :func:`extends_to_basis`, which skip the transforms.
    """
    nr, nc = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]
    _smith_eliminate(a, nc, u, v)
    return SmithDecomposition(
        IntMatrix(nr, nr, tuple(tuple(r) for r in u)),
        IntMatrix(nr, nc, tuple(tuple(r) for r in a)),
        IntMatrix(nc, nc, tuple(tuple(r) for r in v)),
    )


def elementary_divisors(m: IntMatrix) -> tuple[int, ...]:
    return tuple(x for x in _smith_diagonal(m) if x != 0)


def _vectors_matrix(vectors: Sequence[Sequence[int]]) -> IntMatrix:
    vecs = [tuple(v) for v in vectors]
    if not vecs:
        raise ValueError("empty vector list")
    n = len(vecs[0])
    if any(len(v) != n for v in vecs):
        raise ValueError("dimension mismatch among vectors")
    return IntMatrix.from_rows(vecs)


def extends_to_basis(vectors: Sequence[Sequence[int]]) -> bool:
    """True iff the integer vectors extend to a basis of the full lattice.

    Equivalent to: the vectors are linearly independent and the sublattice
    they span is saturated, i.e. every elementary divisor equals 1.
    """
    vecs = [tuple(v) for v in vectors]
    if not vecs:
        return True
    mat = _vectors_matrix(vecs)
    if mat.rows > mat.cols:
        return False
    return all(x == 1 for x in _smith_diagonal(mat))


def complete_to_basis(vectors: Sequence[Sequence[int]]) -> IntMatrix:
    """Complete lattice vectors to a square matrix of determinant +-1.

    The input vectors become the first rows of the result.  Raises if they
    do not extend to a basis.  The completion is read off the Smith factors:
    if ``u @ m @ v`` has unit diagonal, the missing rows are the last rows
    of ``v`` inverse, which one elimination keeps as it goes.
    """
    mat = _vectors_matrix(vectors)
    k, n = mat.rows, mat.cols
    a = [list(row) for row in mat.entries]
    v_inv = [[int(i == j) for j in range(n)] for i in range(n)]
    _smith_eliminate(a, n, v_inv=v_inv)
    if k > n or any(a[i][i] != 1 for i in range(k)):
        raise ValueError("vectors do not extend to a lattice basis")
    return IntMatrix.from_rows(list(mat.entries) + v_inv[k:], cols=n)


# ---------------------------------------------------------------------------
# Rational polyhedra and relative-interior feasibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constraint:
    """Half-space ``normal . x <= bound``; strict when marked.

    Normals are integer vectors and are reduced by their gcd on
    construction, so syntactically different but identical half-spaces
    compare equal.
    """

    normal: tuple[int, ...]
    bound: Fraction
    strict: bool = False

    def __post_init__(self):
        normal = ints(self.normal, "constraint normals must be integer vectors, got {x!r}")
        if not normal or all(x == 0 for x in normal):
            raise ValueError("constraint normal must be a nonzero vector")
        bound = fraction(self.bound)
        g = gcd(*(abs(x) for x in normal))
        if g > 1:
            normal = tuple(x // g for x in normal)
            bound = bound / g
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "bound", bound)

    @classmethod
    def _from_checked(cls, normal: tuple[int, ...], bound: Fraction,
                      strict: bool) -> "Constraint":
        """The half-space of ``normal``, ``bound`` and ``strict``, which the
        caller guarantees to be a nonzero tuple of ints with gcd 1, a
        ``Fraction`` and a bool: nothing is checked or reduced again."""
        c = object.__new__(cls)
        object.__setattr__(c, "normal", normal)
        object.__setattr__(c, "bound", bound)
        object.__setattr__(c, "strict", strict)
        return c

    def holds_at(self, x: Sequence[Fraction]) -> bool:
        lhs = sum(a * xi for a, xi in zip(self.normal, x))
        return lhs < self.bound if self.strict else lhs <= self.bound

    def sort_key(self):
        return (self.normal, self.bound, self.strict)


@dataclass(frozen=True)
class RationalPolyhedron:
    """Finite conjunction of closed/strict rational half-spaces.

    ``relint_intersection_nonempty(p, p)`` keeps its result on ``p`` as a
    plain attribute, not a field, so it takes no part in equality, hashing
    or repr.
    """

    ambient_dim: int
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        at_least(self.ambient_dim, 1, "ambient dimension must be positive")
        for c in self.constraints:
            if len(c.normal) != self.ambient_dim:
                raise ValueError("constraint dimension does not match ambient space")

    def contains(self, x: Sequence) -> bool:
        pt = [fraction(v) for v in x]
        if len(pt) != self.ambient_dim:
            raise ValueError("point dimension does not match ambient space")
        return all(c.holds_at(pt) for c in self.constraints)


_EQ, _LE, _LT = 0, 1, 2


def _reduced(coeffs: list[int], rhs: int) -> tuple[list[int], int]:
    """Divide an integer row and its right-hand side by their gcd."""
    g = gcd(*coeffs, rhs)
    if g > 1:
        return [c // g for c in coeffs], rhs // g
    return coeffs, rhs


def _eliminate_variables(rows, drop: int):
    """Project out variables 0..drop-1 from a mixed eq/le/lt system.

    Each row is ``(coeffs, rel, rhs)`` with integer coefficients and an
    integer right-hand side.  Equations are used for exact substitution when
    they mention the variable; anything left is handled by Fourier-Motzkin
    combination, which preserves strictness (a combination is strict iff
    either parent is strict).  Rows are only ever multiplied by positive
    integers, so every relation keeps its direction, and each new row is
    divided by its gcd.
    """
    for j in range(drop):
        k = next((k for k, row in enumerate(rows) if row[1] == _EQ and row[0][j] != 0), None)
        if k is not None:
            pc, _, prhs = rows.pop(k)
            # Multiply by |pivot|, not by the pivot, to keep inequalities.
            mp, sp = abs(pc[j]), (1 if pc[j] > 0 else -1)
            new_rows = []
            for coeffs, rel, rhs in rows:
                f = coeffs[j] * sp
                if f != 0:
                    coeffs, rhs = _reduced([mp * c - f * q for c, q in zip(coeffs, pc)],
                                           mp * rhs - f * prhs)
                new_rows.append((coeffs, rel, rhs))
            rows = new_rows
            continue
        keep, uppers, lowers = [], [], []
        for row in rows:
            c = row[0][j]
            if c == 0:
                keep.append(row)
            elif c > 0:
                uppers.append(row)
            else:
                lowers.append(row)
        for (uc, urel, urhs), (lc, lrel, lrhs) in itertools.product(uppers, lowers):
            mu, ml = -lc[j], uc[j]
            coeffs, rhs = _reduced([mu * cu + ml * cl for cu, cl in zip(uc, lc)],
                                   mu * urhs + ml * lrhs)
            rel = _LT if _LT in (urel, lrel) else _LE
            keep.append((coeffs, rel, rhs))
        rows = keep
    return rows


def _emit_constraints(rows, drop: int) -> list[Constraint]:
    """The constraints on x of ``rows`` once variables 0..drop-1 are gone,
    one per primitive normal, in normal order.

    Each row's x part is divided by its gcd ``g`` once, and its bound kept
    as the pair ``(rhs, g)``; an equation gives the normal and its
    negation.  Of two rows on one normal the smaller bound wins, compared
    by cross-multiplication (``g`` is positive), and at a tie the strict
    row, which is tighter.  Each winner becomes one ``Constraint`` through
    ``Constraint._from_checked``: the same value ``Constraint(normal, rhs,
    strict)`` would build, with no check or reduction repeated.
    """
    best: dict[tuple[int, ...], tuple[int, int, bool]] = {}

    def push(normal, num, den, strict):
        prev = best.get(normal)
        if prev is not None:
            lhs, rhs = num * prev[1], prev[0] * den
            if lhs > rhs or lhs == rhs and (prev[2] or not strict):
                return
        best[normal] = (num, den, strict)

    for coeffs, rel, rhs in rows:
        xcoeffs = coeffs[drop:]
        if any(coeffs[:drop]):
            raise ArithmeticError("elimination left a barycentric variable in a row")
        if not any(xcoeffs):
            # Constant rows from elimination must be identically true here:
            # the projected set is nonempty by construction.
            if not (rhs == 0, rhs >= 0, rhs > 0)[rel]:
                raise ArithmeticError("elimination produced an unsatisfiable constant row")
            continue
        g = gcd(*xcoeffs)
        normal = tuple(xcoeffs) if g == 1 else tuple([c // g for c in xcoeffs])
        if rel == _EQ:
            push(normal, rhs, g, False)
            push(tuple([-c for c in normal]), -rhs, g, False)
        else:
            push(normal, rhs, g, rel == _LT)
    return [Constraint._from_checked(normal, Fraction(num, den), strict)
            for normal, (num, den, strict) in sorted(best.items())]


def simplex_image_polyhedron(vertex_images: Sequence[Sequence],
                             relative_interior: bool = True) -> RationalPolyhedron:
    """Constraint form of the image of a standard simplex under an affine map.

    ``vertex_images`` are the images of the simplex vertices.  With
    ``relative_interior`` the description carries strict inequalities and
    cuts out exactly the image of the open simplex (affine maps carry
    relative interiors onto relative interiors).  Computed by eliminating
    the barycentric coordinates from ``x = sum_a lambda_a w_a``.

    When the images are affinely independent, the result does not depend
    on their order: every permutation of ``vertex_images`` returns an equal
    polyhedron.  Proof sketch.  The equations are the n coordinate rows and
    then the row ``sum_a lambda_a = 1``; their weight columns have rank r,
    the number of vertices, so every weight is substituted out by an
    equation and no Fourier-Motzkin combination is formed.  The weight
    ``lambda_j`` is eliminated by the first remaining equation that mentions
    it, and that equation is never a combination of earlier ones (an
    earlier equation, reduced by the pivots so far, would mention
    ``lambda_j`` too).  So the pivot rows are the lexicographically first
    basis of the equations' weight parts, whatever order the weights are
    eliminated in; permuting the vertices permutes columns, which changes
    no linear dependence among rows.  Each emitted row is then a positive
    multiple of an original row minus its unique combination of the pivot
    rows that cancels every weight, a row the basis fixes.
    ``_emit_constraints`` reduces each row to its primitive normal, and
    the rows ``-lambda_a < 0`` are only permuted among themselves, so the
    sorted constraint tuple is the same.  ``check_faithful`` relies on this: all strata on one vertex
    set of a label-keyed map have the same images, up to order, and on a
    validated map they are affinely independent, so it builds one
    polyhedron per vertex set.
    """
    verts = [tuple(w) for w in vertex_images]
    if not verts:
        raise ValueError("need at least one vertex image")
    n = len(verts[0])
    if any(len(w) != n for w in verts):
        raise ValueError("vertex images of mixed dimension")
    r = len(verts)
    width = r + n
    rows = []
    for i in range(n):
        # Coordinate i, cleared of denominators: sum_a num_a*lambda_a - den*x_i = 0.
        nums, den = cleared([w[i] for w in verts])
        coeffs = nums + [0] * n
        coeffs[r + i] = -den
        rows.append((coeffs, _EQ, 0))
    rows.append(([1] * r + [0] * n, _EQ, 1))
    rel = _LT if relative_interior else _LE
    for a in range(r):
        coeffs = [0] * width
        coeffs[a] = -1
        rows.append((coeffs, rel, 0))
    return RationalPolyhedron(n, tuple(_emit_constraints(_eliminate_variables(rows, r), r)))


# --- fraction-free elimination and the exact simplex method ------------------
#
# ``_echelon`` keeps integer rows over one positive denominator d, the true
# rows being rows / d, and ``_bareiss`` is its row update.  The simplex keeps
# a condensed tableau column by column: each kept column, and last the
# right-hand side, is one integer list over the rows (while the objective is
# in play, its entry last) over its own positive denominator, kept in lowest
# terms.  A basic column, e_r, is not kept, and ``slots`` names each kept
# column's variable; one slot, the + part's, holds a free pair x+_i, x-_i or
# t+, t-, whose columns are each other's negation.  A pivot on row r changes
# only the columns with a nonzero entry in row r.  Every choice reads only
# signs, and the ratios of the entering column to the right-hand side, which
# the two denominators scale alike, so the pivots are those of the row-major
# Bareiss tableau; and a column in lowest terms is that tableau's column
# (over the basis determinant, a multiple of its denominator) divided by a
# positive integer, so no entry is larger.


def _bareiss(rows, top: int, c: int, d: int) -> int:
    """Fraction-free pivot on entry (top, c) of the rows from ``top`` down;
    returns the new denominator.

    With ``p = rows[top][c]``, every row below becomes ``(p * row - row[c]
    * rows[top]) // d``; the division is exact, each entry being a minor of
    the starting rows (Sylvester's identity, as in Bareiss elimination).  A
    negative pivot negates the pivot row first, so ``p`` stays positive.
    Rows above ``top`` are not touched.
    """
    prow = rows[top]
    p = prow[c]
    if p < 0:
        p = -p
        prow = rows[top] = [-x for x in prow]
    for i in range(top + 1, len(rows)):
        row = rows[i]
        f = row[c]
        if f != 0:
            rows[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
        elif p != d:
            rows[i] = [p * x // d for x in row]
    return p


def _echelon(rows: list[list[int]], ncols: int) -> tuple[int, int, int]:
    """Fraction-free elimination to echelon form on the first ``ncols`` columns.

    Column by column, the first row at or below the current rank with a
    nonzero entry is swapped up to that rank and pivoted on in place with
    ``_bareiss``, which updates only the rows below it; columns with no such
    row are skipped.  Returns ``(d, sign, rank)``: ``d`` is the last pivot,
    ``rank`` the pivot count, and ``sign`` (+-1) flips on every swap and
    every negative pivot, so that for a square matrix of full rank ``sign *
    d`` is its determinant.  ``rows`` is reduced in place.
    """
    d, sign, rank = 1, 1, 0
    for c in range(ncols):
        r = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if r is None:
            continue
        if r != rank:
            rows[rank], rows[r] = rows[r], rows[rank]
            sign = -sign
        if rows[rank][c] < 0:
            sign = -sign
        d = _bareiss(rows, rank, c, d)
        rank += 1
    return d, sign, rank


def _pivot(cols, dens, basis, slots, r: int, c: int, enter: int, dim: int) -> None:
    """Simplex pivot: ``enter``, in slot ``c``, replaces row ``r``'s basic
    variable.

    With the pivot column ``C / dc`` and ``p = C[r]`` of sign ``s``, a
    column ``K / dk`` with ``f = K[r]`` nonzero becomes ``K * |p| - s * f *
    C`` with ``s * f * dc`` in row r, over ``dk * |p|``, reduced by one
    gcd; a column with ``f = 0`` keeps its values, and is left as it is.
    Slot ``c`` takes the leaving variable's column, once e_r: ``-s * C``
    with ``s * dc`` in row r, over ``|p|``, already in lowest terms, and
    negated if a minus part leaves.
    """
    pcol, dc = cols[c], dens[c]
    p = pcol[r]
    s, ap = (1, p) if p > 0 else (-1, -p)
    for k, col in enumerate(cols):
        f = col[r]
        if f and k != c:
            f *= s
            new = [x * ap - f * y for x, y in zip(col, pcol)]
            new[r] = f * dc
            den = dens[k] * ap
            g = gcd(den, *new)
            if g > 1:
                new = [x // g for x in new]
                den //= g
            cols[k], dens[k] = new, den
    leave = basis[r]
    if dim <= leave < 2 * dim or leave == 2 * dim + 1:
        s, leave = -s, leave - (dim if leave < 2 * dim else 1)
    new = [-s * y for y in pcol]
    new[r] = s * dc
    cols[c], dens[c] = new, ap
    slots[c], basis[r] = leave, enter


def _run_simplex(cols, dens, basis, slots, cost, dim: int) -> tuple[int, int]:
    """Maximize cost . z (integer costs, one per variable) over the columns.

    Bland's rule enters the least index with a positive reduced cost; a
    negative one on a pair slot is positive for the minus part, x-_i (index
    ``dim + i``) or t- (``2 * dim + 1``), whose column is the slot negated.
    The ratio test compares ``rhs / a`` by cross-multiplication within the
    entering column and the right-hand side, whose denominators scale every
    ratio alike, and breaks ties by the smaller basic index.  While this
    runs each column carries its objective entry last: the reduced cost, or
    on the right-hand side the negated value, over the column's
    denominator; they are dropped on return.  Returns ``(v, den)``: the
    optimum is ``v / den``, over the right-hand side's final denominator.
    """
    m = len(basis)
    weights = [(i, cost[b]) for i, b in enumerate(basis) if cost[b]]
    for col, den, v in zip(cols, dens, [*slots, None]):
        col.append((0 if v is None else den * cost[v]) - sum(w * col[i] for i, w in weights))
    while True:
        live = [(v if o > 0 else v + dim if v < dim else v + 1, k)
                for k, (v, col) in enumerate(zip(slots, cols))
                if (o := col[m]) > 0 or o < 0 and v <= 2 * dim]
        if not live:
            value = -cols[-1][m], dens[-1]
            for col in cols:
                col.pop()
            return value
        enter, c = min(live)
        col, rhs = cols[c], cols[-1]
        if enter != slots[c]:
            cols[c] = col = [-x for x in col]
        best = None
        for i in range(m):
            a = col[i]
            if a > 0 and (best is None or rhs[i] * ba < brhs * a
                          or rhs[i] * ba == brhs * a and basis[i] < basis[best]):
                best, brhs, ba = i, rhs[i], a
        if best is None:
            raise ArithmeticError("linear program is unbounded")
        _pivot(cols, dens, basis, slots, best, c, enter, dim)


def _max_min_slack(constraints: Sequence[Constraint], dim: int):
    """Maximize the least slack of the strict constraints, capped at 1.

    Returns ``(value, point)`` or ``(None, None)`` when even the closed
    relaxation is infeasible.  A strictly positive value certifies a point
    satisfying every strict constraint strictly.  The right-hand sides are
    scaled by the lcm of the bound denominators, which changes no sign and
    no ratio order, so the tableau starts out integer, every column over 1.
    The variables are x+ (0..dim-1), x- (dim..2*dim-1), t+, t-, a slack per
    row (the cap row last), and an artificial per row with a negative
    right-hand side.  The pivots are the full tableau's: each kept entry
    over its column's denominator is the full one, every choice reads full
    indices, the costs and the column updates keep a pair's columns
    negatives, and while one part is basic the other's column is -e_r, with
    reduced cost 0 and no entry in an artificial's row.  The columns are
    those of the row-major Bareiss tableau divided by positive integers, so
    they pivot alike and no entry grows larger.
    """
    m = len(constraints) + 1
    total = 2 * dim + 2 + m
    bounds, scale = cleared([c.bound for c in constraints])
    cols = [[c.normal[j] for c in constraints] + [0] for j in range(dim)]
    cols.append([int(c.strict) for c in constraints] + [1])
    cols.append(bounds + [scale])
    slots, basis = [*range(dim), 2 * dim], list(range(total - m, total))
    negative = [i for i in range(m) if cols[-1][i] < 0]
    for col in cols:
        for i in negative:
            col[i] = -col[i]
    for idx, i in enumerate(negative):
        col = [0] * m
        col[i] = -1
        cols.insert(-1, col)
        slots.append(basis[i])
        basis[i] = total + idx
    dens = [1] * len(cols)
    if negative:
        v, den = _run_simplex(cols, dens, basis, slots, [0] * total + [-1] * len(negative), dim)
        if v < 0:
            return None, None
        # Drive leftover artificials out of the basis.  Every row has its own
        # slack column, so the real columns keep full row rank and a row whose
        # basic variable is artificial always has a nonzero real entry.
        for i in range(m):
            if basis[i] >= total:
                c = min((k for k, v in enumerate(slots) if v < total and cols[k][i]),
                        key=slots.__getitem__)
                _pivot(cols, dens, basis, slots, i, c, slots[c], dim)
        keep = [k for k, v in enumerate(slots) if v < total] + [len(slots)]
        cols, dens = [cols[k] for k in keep], [dens[k] for k in keep]
        slots = [slots[k] for k in keep[:-1]]
    v, den = _run_simplex(cols, dens, basis, slots, [0] * 2 * dim + [1, -1] + [0] * m, dim)
    rhs, den = cols[-1], den * scale
    solution = [0] * total
    for x, b in zip(rhs, basis):
        solution[b] = x
    point = tuple(Fraction(solution[i] - solution[dim + i], den) for i in range(dim))
    return Fraction(v, den), point


def relint_intersection_nonempty(p: RationalPolyhedron, q: RationalPolyhedron):
    """Exact emptiness test for the intersection of two constraint systems.

    Strict constraints mark relative interiors.  Returns ``(True, witness)``
    with an exact rational witness satisfying every constraint (strict ones
    strictly), or ``(False, None)``.  Decided by maximizing the minimum
    slack over the strict constraints with exact fraction-free pivoting and
    requiring a strictly positive optimum.

    The system solved is the union of both constraint tuples, sorted by
    ``Constraint.sort_key`` with repeats dropped.  A polyhedron queried
    against itself is one constraint system: the result is kept on it, so
    the self-query that ``check_faithful`` makes once per pair of strata
    on one vertex set solves once per vertex set.  Its constraints are
    solved as they stand when their sort keys strictly increase, as those
    of ``simplex_image_polyhedron`` always do; only a hand-built tuple
    that is unsorted or repeats a constraint is sorted first.  A query on
    two distinct objects solves on every call.
    """
    if p.ambient_dim != q.ambient_dim:
        raise ValueError("polyhedra live in different ambient dimensions")
    if p is not q:
        system = sorted(set(p.constraints) | set(q.constraints), key=Constraint.sort_key)
    elif "_relint_self" in p.__dict__:
        return p._relint_self
    else:
        system = p.constraints
        keys = list(map(Constraint.sort_key, system))
        if not all(map(lt, keys, keys[1:])):
            system = sorted(set(system), key=Constraint.sort_key)
    value, point = _max_min_slack(system, p.ambient_dim)
    result = (False, None) if value is None or value <= 0 else (True, point)
    if p is q:
        object.__setattr__(p, "_relint_self", result)
    return result
