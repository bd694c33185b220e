"""Exact integer and rational linear algebra kernels.

Smith normal form, lattice saturation tests, and rational feasibility
queries for relative interiors of polyhedra.  No floating point ever enters
a code path, so every verdict and witness is exact.  One elimination routine
computes the Smith form: ``smith_normal_form`` runs it with its transform
matrices, while ``elementary_divisors``, ``extends_to_basis`` and the
unimodularity check run it on the matrix alone, because the diagonal is
unique and needs no transforms.  The rank, Fourier-Motzkin and simplex
kernels run on Python ints:
rows are cleared of denominators once and kept integer by fraction-free
(Bareiss) updates and gcd reduction.  ``fractions.Fraction`` appears at the
API boundary, in rational vertex images, constraint bounds and witnesses.

Everything in this module is a pure function on immutable values and is
safe to call concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

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

def _as_fraction(x) -> Fraction:
    """Coerce to Fraction, refusing floats (exactness would be lost)."""
    if isinstance(x, bool) or isinstance(x, float):
        raise TypeError(f"expected an exact rational, got {x!r}")
    return Fraction(x)


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix with exact arbitrary-precision entries."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows in matrix entries")
            for x in row:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise TypeError(f"matrix entries must be ints, got {x!r}")

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

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(tuple(self.entries[i][j] for i in range(self.rows))
                               for j in range(self.cols)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("incompatible shapes for matrix product")
        data = tuple(
            tuple(sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                  for j in range(other.cols))
            for i in range(self.rows))
        return IntMatrix(self.rows, other.cols, data)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def det(self) -> int:
        """Exact determinant by Bareiss fraction-free elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(row) for row in self.entries]
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

    def rank(self) -> int:
        """Rank over the rationals by Bareiss fraction-free elimination."""
        a = [list(row) for row in self.entries]
        rank = 0
        prev = 1
        for col in range(self.cols):
            pivot = next((i for i in range(rank, self.rows) if a[i][col] != 0), None)
            if pivot is None:
                continue
            a[rank], a[pivot] = a[pivot], a[rank]
            prow = a[rank]
            p = prow[col]
            for i in range(rank + 1, self.rows):
                f = a[i][col]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], prow)]
            prev = p
            rank += 1
        return rank


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
                     v: list[list[int]] | None = None) -> None:
    """Reduce the rows ``a`` (``nc`` columns) in place to Smith normal form.

    Pivots are chosen as the smallest nonzero entry in absolute value (the
    first one in row-major order), which keeps coefficient growth tame at
    the sizes handled here.  When ``u`` and ``v`` are given (square, starting
    as identities) every row operation is repeated on ``u`` and every column
    operation on ``v``, so that afterwards ``u @ m @ v == a``.  Without them
    the work is confined to ``a``: the diagonal is unique, so it needs no
    transforms.
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


def _inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix with determinant +-1."""
    n = m.rows
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m.entries)]
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
    return IntMatrix(n, n, tuple(out))


def complete_to_basis(vectors: Sequence[Sequence[int]]) -> IntMatrix:
    """Complete lattice vectors to a square matrix of determinant +-1.

    The input vectors become the first rows of the result.  Raises if they
    do not extend to a basis.  The completion is read off the Smith factors:
    if ``u @ m @ v`` has unit diagonal, the missing rows are the last rows
    of ``v`` inverse.
    """
    mat = _vectors_matrix(vectors)
    k, n = mat.rows, mat.cols
    snf = smith_normal_form(mat)
    if k > n or any(x != 1 for x in snf.diagonal):
        raise ValueError("vectors do not extend to a lattice basis")
    v_inv = _inverse_unimodular(snf.v)
    rows = list(mat.entries) + [v_inv.entries[i] for i in range(k, n)]
    return IntMatrix.from_rows(rows, cols=n)


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
        normal = tuple(self.normal)
        if not normal or all(x == 0 for x in normal):
            raise ValueError("constraint normal must be a nonzero vector")
        for x in normal:
            if isinstance(x, bool) or not isinstance(x, int):
                raise TypeError("constraint normals must be integer vectors")
        bound = _as_fraction(self.bound)
        g = gcd(*(abs(x) for x in normal))
        if g > 1:
            normal = tuple(x // g for x in normal)
            bound = bound / g
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "bound", bound)

    def holds_at(self, x: Sequence[Fraction]) -> bool:
        lhs = sum(a * xi for a, xi in zip(self.normal, x))
        return lhs < self.bound if self.strict else lhs <= self.bound

    def sort_key(self):
        return (self.normal, self.bound, self.strict)


@dataclass(frozen=True)
class RationalPolyhedron:
    """Finite conjunction of closed/strict rational half-spaces."""

    ambient_dim: int
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be positive")
        for c in self.constraints:
            if len(c.normal) != self.ambient_dim:
                raise ValueError("constraint dimension does not match ambient space")

    def contains(self, x: Sequence) -> bool:
        pt = [_as_fraction(v) for v in x]
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
    out: dict[tuple[int, ...], tuple[Fraction, bool]] = {}

    def push(normal, rhs, strict):
        cand = Constraint(tuple(normal), rhs, strict)
        prev = out.get(cand.normal)
        # Same normal: the smaller bound wins; at a tie, strict is tighter.
        if prev is None or (cand.bound, not cand.strict) < (prev[0], not prev[1]):
            out[cand.normal] = (cand.bound, cand.strict)

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
        if rel == _EQ:
            push(xcoeffs, rhs, False)
            push([-c for c in xcoeffs], -rhs, False)
        else:
            push(xcoeffs, rhs, rel == _LT)
    made = [Constraint(n, b, s) for n, (b, s) in out.items()]
    made.sort(key=Constraint.sort_key)
    return made


def simplex_image_polyhedron(vertex_images: Sequence[Sequence],
                             relative_interior: bool = True) -> RationalPolyhedron:
    """Constraint form of the image of a standard simplex under an affine map.

    ``vertex_images`` are the images of the simplex vertices.  With
    ``relative_interior`` the description carries strict inequalities and
    cuts out exactly the image of the open simplex (affine maps carry
    relative interiors onto relative interiors).  Computed by eliminating
    the barycentric coordinates from ``x = sum_a lambda_a w_a``.
    """
    verts = [tuple(_as_fraction(x) for x in w) for w in vertex_images]
    if not verts:
        raise ValueError("need at least one vertex image")
    n = len(verts[0])
    if any(len(w) != n for w in verts):
        raise ValueError("vertex images of mixed dimension")
    r = len(verts)
    width = r + n
    rows = []
    for i in range(n):
        # Coordinate i, cleared of denominators: sum_a den*w_a[i]*lambda_a - den*x_i = 0.
        den = lcm(*(w[i].denominator for w in verts))
        coeffs = [w[i].numerator * (den // w[i].denominator) for w in verts] + [0] * n
        coeffs[r + i] = -den
        rows.append((coeffs, _EQ, 0))
    rows.append(([1] * r + [0] * n, _EQ, 1))
    rel = _LT if relative_interior else _LE
    for a in range(r):
        coeffs = [0] * width
        coeffs[a] = -1
        rows.append((coeffs, rel, 0))
    return RationalPolyhedron(n, tuple(_emit_constraints(_eliminate_variables(rows, r), r)))


# --- exact simplex method ---------------------------------------------------
#
# The tableau is a list of integer rows, each its coefficients followed by its
# right-hand side, over one positive common denominator d: the true tableau
# is rows / d.  The objective row has the same layout and denominator.


def _pivot(rows, obj, basis, d: int, r: int, c: int) -> int:
    """Fraction-free pivot on entry (r, c); returns the new denominator.

    With ``p = rows[r][c]``, every other row and the objective row become
    ``(p * row - row[c] * rows[r]) // d``, and ``p`` is the new denominator.
    The division is exact: each entry is then a minor of the starting
    tableau (Sylvester's identity, as in Bareiss elimination).  The pivot
    row is kept.  A negative pivot, which only driving an artificial
    variable out of the basis can meet, negates the pivot row first, which
    negates the whole tableau and keeps the denominator positive.
    """
    prow = rows[r]
    p = prow[c]
    if p < 0:
        p = -p
        prow = rows[r] = [-x for x in prow]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            if f != 0:
                rows[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
            elif p != d:
                rows[i] = [p * x // d for x in row]
    if obj is not None:
        f = obj[c]
        obj[:] = [(p * x - f * y) // d for x, y in zip(obj, prow)]
    basis[r] = c
    return p


def _run_simplex(rows, basis, cost, d: int):
    """Maximize cost . z over the integer tableau ``rows / d``.

    ``cost`` holds integer costs, one per column.  Bland's rule picks the
    entering column; the ratio test compares ``rhs / a`` by
    cross-multiplication and breaks ties by the smaller basic index.  The
    objective row stores reduced costs and, in its last slot, the negated
    objective value, over the same denominator as the tableau.  Returns
    ``(v, d)``: the optimal value is ``v / d``, and ``d`` is the denominator
    of the final tableau.
    """
    obj = [d * x for x in cost] + [0]
    for row, b in zip(rows, basis):
        f = cost[b]
        if f != 0:
            obj = [x - f * y for x, y in zip(obj, row)]
    ncols = len(cost)
    while True:
        enter = next((j for j in range(ncols) if obj[j] > 0), None)
        if enter is None:
            return -obj[-1], d
        best = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                if best is None:
                    best, brhs, ba = i, row[-1], a
                    continue
                lhs, rhs = row[-1] * ba, brhs * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best, brhs, ba = i, row[-1], a
        if best is None:
            raise ArithmeticError("linear program is unbounded")
        d = _pivot(rows, obj, basis, d, best, enter)


def _max_min_slack(constraints: Sequence[Constraint], dim: int):
    """Maximize the least slack of the strict constraints, capped at 1.

    Returns ``(value, point)`` or ``(None, None)`` when even the closed
    relaxation is infeasible.  A strictly positive value certifies a point
    satisfying every strict constraint strictly.  The right-hand sides are
    scaled by the lcm of the bound denominators, which changes no sign and
    no ratio order, so the tableau starts out integer.
    """
    m = len(constraints) + 1
    base = 2 * dim + 2  # x split into +/- parts, then the slack variable t
    total = base + m
    scale = lcm(*(c.bound.denominator for c in constraints))
    rows = []
    for c in constraints:
        row = [0] * (total + 1)
        for i, ai in enumerate(c.normal):
            row[i] = ai
            row[dim + i] = -ai
        if c.strict:
            row[2 * dim] = 1
            row[2 * dim + 1] = -1
        row[-1] = c.bound.numerator * (scale // c.bound.denominator)
        rows.append(row)
    cap = [0] * (total + 1)
    cap[2 * dim] = 1
    cap[2 * dim + 1] = -1
    cap[-1] = scale
    rows.append(cap)
    for i in range(m):
        rows[i][base + i] = 1

    negative = [i for i in range(m) if rows[i][-1] < 0]
    nart = len(negative)
    basis = list(range(base, base + m))
    d = 1
    if nart:
        rows = [row[:-1] + [0] * nart + row[-1:] for row in rows]
        for idx, i in enumerate(negative):
            rows[i] = [-x for x in rows[i]]
            rows[i][total + idx] = 1
            basis[i] = total + idx
        v, d = _run_simplex(rows, basis, [0] * total + [-1] * nart, d)
        if v < 0:
            return None, None
        # Drive leftover artificials out of the basis.  Every row has its own
        # slack column, so the real columns keep full row rank and a row whose
        # basic variable is artificial always has a nonzero real entry.
        for i in range(m):
            if basis[i] >= total:
                col = next(j for j in range(total) if rows[i][j] != 0)
                d = _pivot(rows, None, basis, d, i, col)
        rows = [row[:total] + row[-1:] for row in rows]

    cost2 = [0] * total
    cost2[2 * dim] = 1
    cost2[2 * dim + 1] = -1
    v, d = _run_simplex(rows, basis, cost2, d)
    den = d * scale
    solution = [0] * total
    for row, b in zip(rows, basis):
        solution[b] = row[-1]
    point = tuple(Fraction(solution[i] - solution[dim + i], den) for i in range(dim))
    return Fraction(v, den), point


def relint_intersection_nonempty(p: RationalPolyhedron, q: RationalPolyhedron):
    """Exact emptiness test for the intersection of two constraint systems.

    Strict constraints mark relative interiors.  Returns ``(True, witness)``
    with an exact rational witness satisfying every constraint (strict ones
    strictly), or ``(False, None)``.  Decided by maximizing the minimum
    slack over the strict constraints with exact fraction-free pivoting and
    requiring a strictly positive optimum.
    """
    if p.ambient_dim != q.ambient_dim:
        raise ValueError("polyhedra live in different ambient dimensions")
    merged = sorted(set(p.constraints) | set(q.constraints), key=Constraint.sort_key)
    value, point = _max_min_slack(merged, p.ambient_dim)
    if value is None or value <= 0:
        return False, None
    return True, point
