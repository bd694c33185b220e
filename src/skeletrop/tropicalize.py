"""Piecewise affine coordinates on a skeleton and faithfulness certification.

From an order matrix the skeleton acquires, stratum by stratum, an integer
affine map into R^ell whose i-th coordinate is the affine restriction of
``-log|s_i/s_0|``.  Vertex ``v`` maps to column ``v`` of the order matrix,
its orders along component ``v``, and each stratum's piece is the affine
map onto the simplex its vertices' images span.  So ``PiecewiseAffineMap``
holds one image per vertex label, read once, and derives every piece from
it: pieces agree by label by construction.  This module certifies two
things about the resulting piecewise map:

* unimodularity of every piece: the image edge-difference vectors have
  full rank and all elementary divisors 1.  A signed selector of the
  stratum's own coordinates that is an integer right inverse of the edge
  matrix proves it outright, which the order axioms guarantee on every
  validated piece; any other piece gets the Smith normal form; and
* global injectivity, by showing the images of the open simplices of any
  two distinct strata are disjoint.

Disjointness is established along two independent routes.  The certificate
route picks a vertex of one stratum missing from the other and checks the
vertex-value table of that coordinate (0 once and 1 elsewhere on the first
stratum, at least 1 everywhere on the second, plus the concavity flag).
The exact route decides emptiness of the intersection of the two image
polytopes outright, by coordinate-interval separation when a single
coordinate suffices and by exact rational LP feasibility otherwise.

``check_faithful`` works on bitsets over the sorted stratum order.  The
O(S^2) pairs are settled a row at a time, stratum ``a`` against all later
strata at once, and before either route runs each row splits into three
disjoint masks: ``faces``, the strata ``a`` is a face of, from one pass
over the face map; ``shared``, the other strata on ``a``'s vertex set,
from one pass over the strata; and ``apart``, all the others.  Face pairs
are discharged by their ambient piece, with no test per pair.  On a
validated input the order axioms let a flagged vertex of either stratum
that the other lacks separate an ``apart`` pair, and a coordinate separate
it: the certificate route takes ``a``'s flagged vertices in turn, then,
for the pairs ``a`` leaves over, those of the partner; the exact route asks
``_IntervalRule`` once per row which of the ``apart`` partners some
coordinate's image projection separates from ``a``'s, reading only the
vertex images.  ``shared`` pairs have one image, so no vertex and no
coordinate separates them.  The exact route sends each to the LP, on one
relative-interior image polyhedron per vertex set: every stratum on it
yields the same one (see ``simplex_image_polyhedron``), so each vertex
set's system is built and solved once per call, and a row's LP pairs form
one group with one verdict.  The certificate route leaves them unsettled
as one mask.  Each row is kept as it was decided (``PairRow``): the one
shape most of its pairs share, each other shape with the bitmask of its
pairs, and the mask of the face pairs.  No per-pair record is built
unless ``FaithfulnessReport.pairs`` is read.  Pairs are reported in
sorted order.  The order axioms, validated first, make every piece
unimodular, so injective, and let a coordinate separate every ``apart``
pair.  Each is a guard that raises ``ArithmeticError``, never a defect:
unimodularity is checked once per stratum, separation once per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import compress, repeat
from operator import and_, gt, itemgetter, lt, mul, sub
from typing import Iterable, Mapping, NamedTuple, Sequence

from ._exact import at_least, cleared, ints
from .complexes import DualComplex, SimplexPoint, Stratum, validate_complex
# ``smith_normal_form`` is unused here but stays importable from this module:
# perfbench's traced run wraps it under this name.
from .lattice import (IntMatrix, RationalPolyhedron, elementary_divisors,  # noqa: F401
                      relint_intersection_nonempty, simplex_image_polyhedron,
                      smith_normal_form)
from .sections import OrderMatrix, validate_orders
from .tropical import TropicalProjectivePoint, trop_normalize

__all__ = [
    "PiecewiseAffineMap",
    "UnimodularityCertificate",
    "SeparationCertificate",
    "ExactVerdict",
    "FaceDischarge",
    "PairEvidence",
    "PairRow",
    "FaithfulnessReport",
    "build_map",
    "check_unimodular",
    "piece_injective",
    "separation_certificate",
    "images_relint_disjoint_exact",
    "check_faithful",
]

MODES = ("certificate", "exact", "both")


@dataclass(frozen=True, eq=False)
class PiecewiseAffineMap:
    """One integer image in Z^n per vertex label; each stratum's affine piece
    sends its barycentric weights to the same combination of its vertices'
    images.

    ``images[v]`` is the image of vertex ``v``, coordinate ``i`` (section
    index) at position ``i-1``; a key that is not an ``int``, such as the
    stratum id of a piece, is refused, and so is an image that is not ``n``
    ints, kept as the checked tuple; the edge matrices built from the images
    are not checked again.  Everything per stratum is a view computed from
    them and never stored: ``vertex_images``, ``vertex_image``,
    ``edge_vectors``, and ``piece``, the n x k matrix whose row ``i-1``
    holds coordinate ``i`` over the stratum's vertex slots.

    Label consistency holds by construction: a piece's entries depend only
    on vertex labels, so pieces agree on shared faces, and strata with one
    vertex set have one piece up to the order of its columns.  The exact
    route relies on it: no coordinate separates two strata on one vertex
    set, so ``check_faithful`` sends them to the LP without asking
    ``_IntervalRule``.  ``build_map`` reads the images off the order matrix;
    ``from_pieces`` reads them off given pieces and refuses pieces that
    give a vertex two images.
    """

    complex: DualComplex
    n: int
    images: Mapping[int, tuple[int, ...]]

    def __post_init__(self):
        at_least(self.n, 1, "a map needs at least one coordinate")
        images = {}
        for v, image in self.images.items():
            if type(v) is not int:
                raise ValueError(f"images are keyed by vertex label, got key {v!r}; "
                                 f"build a map from per-stratum pieces with "
                                 f"PiecewiseAffineMap.from_pieces")
            image = images[v] = ints(image, "image entries must be ints, got {x!r}")
            if len(image) != self.n:
                raise ValueError(f"image of vertex {v} has {len(image)} entries, not {self.n}")
        object.__setattr__(self, "images", images)

    @classmethod
    def _from_checked(cls, c: DualComplex, n: int,
                      images: dict[int, tuple[int, ...]]) -> "PiecewiseAffineMap":
        """The map of ``images``, which the caller guarantees to be tuples of
        ``n`` ints keyed by vertex label: nothing is checked again."""
        f = object.__new__(cls)
        object.__setattr__(f, "complex", c)
        object.__setattr__(f, "n", n)
        object.__setattr__(f, "images", images)
        return f

    @classmethod
    def from_pieces(cls, c: DualComplex, n: int,
                    pieces: Mapping[str, Sequence[Sequence[int]]]) -> "PiecewiseAffineMap":
        """The map whose stratum ``sid`` has the n x k piece ``pieces[sid]``.

        Each vertex's image is its column in the pieces that hold it; a
        ``ValueError`` names any vertex that two pieces give different
        images, and any piece of the wrong shape.
        """
        images: dict[int, tuple[int, ...]] = {}
        owner: dict[int, str] = {}
        for sid, piece in pieces.items():
            st = c.stratum(sid)
            if len(piece) != n or any(len(row) != len(st.vertices) for row in piece):
                raise ValueError(f"piece of stratum {st.id} is not {n} x {len(st.vertices)}")
            for slot, v in enumerate(st.vertices):
                image = tuple(row[slot] for row in piece)
                known = images.get(v)
                if known is None:
                    images[v], owner[v] = image, st.id
                elif known != image:
                    raise ValueError(f"vertex {v} has image {known} in stratum {owner[v]} "
                                     f"and {image} in stratum {st.id}")
        return cls(c, n, images)

    def vertex_images(self, s: "Stratum | str") -> tuple[tuple[int, ...], ...]:
        return tuple(map(self.images.__getitem__, self.complex.stratum(s).vertices))

    def vertex_image(self, s: "Stratum | str", slot: int) -> tuple[int, ...]:
        ints((slot,), "slots must be ints, got {x!r}")
        vertices = self.complex.stratum(s).vertices
        if not 0 <= slot < len(vertices):
            raise ValueError(f"slot index {slot} out of range 0..{len(vertices) - 1}")
        return self.images[vertices[slot]]

    def edge_vectors(self, s: "Stratum | str") -> tuple[tuple[int, ...], ...]:
        """Row ``a-1`` is ``img(v_a) - img(v_0)``, for ``a`` in 1..k."""
        base, *rest = self.vertex_images(s)
        return tuple([tuple(map(sub, img, base)) for img in rest])

    def piece(self, s: "Stratum | str") -> tuple[tuple[int, ...], ...]:
        """The n x k matrix with the vertex images as its columns."""
        return tuple(zip(*self.vertex_images(s)))

    @property
    def pieces(self) -> dict[str, tuple[tuple[int, ...], ...]]:
        """Every stratum's piece, by stratum id, computed on each read."""
        return {s.id: self.piece(s) for s in self.complex.strata}

    def apply(self, p: SimplexPoint) -> tuple[Fraction, ...]:
        images = self.vertex_images(p.stratum)
        if len(images) != len(p.u):
            raise ValueError("point arity does not match the piece")
        # Clear the weights once; each coordinate is then an integer dot product.
        nums, den = cleared(p.u)
        return tuple(Fraction(sum(map(mul, row, nums)), den) for row in zip(*images))

    def projective_image(self, p: SimplexPoint) -> TropicalProjectivePoint:
        """Image in tropical projective space, with the base chart coordinate 0."""
        return trop_normalize((Fraction(0),) + self.apply(p))


def build_map(c: DualComplex, m: OrderMatrix, check: bool = True) -> PiecewiseAffineMap:
    """The piecewise map of an order matrix: vertex ``v``'s image is column
    ``v-1`` of the section rows, the orders along component ``v``.

    With ``check`` (the default) the complex and the order matrix are
    validated first and any violation raises; without it, only the matrix
    size and the vertex range, which the images need, are checked.
    """
    if check:
        problems = validate_complex(c)
        if problems:
            raise ValueError("invalid complex: " + "; ".join(v.message for v in problems))
        problems = validate_orders(m, c)
        if problems:
            raise ValueError("invalid order matrix: " + "; ".join(v.message for v in problems))
    else:
        # Validation has proved both of these; an unchecked pair may break them.
        if m.ell != c.ell:
            raise ValueError("order matrix size does not match the complex")
        components = frozenset(range(1, m.ell + 1))
        for s in c.strata:
            if not s.vertex_set <= components:
                v = next(v for v in s.vertices if v not in components)
                raise ValueError(f"component index {v} out of range 1..{m.ell}")
    # The columns of rows that ``OrderMatrix`` has checked to be ell ints each.
    return PiecewiseAffineMap._from_checked(c, m.ell, dict(enumerate(zip(*m.orders[1:]), 1)))


@dataclass(frozen=True)
class UnimodularityCertificate:
    """Per-stratum evidence: edge-difference vectors and their elementary
    divisors, the nonzero entries of the Smith diagonal."""

    stratum: str
    edge_matrix: IntMatrix
    elementary_divisors: tuple[int, ...]
    verdict: bool


def _selector_inverts(vectors: Sequence[Sequence[int]], vertices: Sequence[int]) -> bool:
    """Whether the signed selector X = -(e_{v_1} ... e_{v_k}) is an integer
    right inverse of the edge matrix E of a stratum with vertices
    v_0..v_k: E[a][v_c - 1] == -(a == c) for all a, c in 1..k, which is
    E @ X == I_k."""
    for a, vec in enumerate(vectors, 1):
        for c, v in enumerate(vertices[1:], 1):
            if vec[v - 1] != -(a == c):
                return False
    return True


def check_unimodular(f: PiecewiseAffineMap, s: "Stratum | str") -> UnimodularityCertificate:
    """Unimodularity of one piece.

    The piece is affine on the whole simplex, so it suffices that the image
    edge-difference vectors extend to a lattice basis: full rank with every
    elementary divisor equal to 1.  A true verdict implies the piece is
    injective on its simplex.  Vertex strata pass vacuously.

    The signed selector is tried first (``_selector_inverts``).  When it is
    an integer right inverse of the k x ell edge matrix E, E has rank k and,
    by Cauchy-Binet on det(E @ X) = 1, its k x k minors have gcd 1, so every
    elementary divisor is 1.  The order axioms make this hold on every
    piece of a validated map: along a stratum's own vertices, row v_c has
    order 0 at v_c and exactly 1 at the other vertices.  Only pieces the
    test rejects (an unvalidated map, ``build_map(check=False)``) run the
    Smith elimination, so a non-unimodular piece is reported exactly.
    """
    st = f.complex.stratum(s)
    vectors = f.edge_vectors(st)
    # Differences of the map's images, which it has checked to be n ints each.
    matrix = IntMatrix.from_checked(len(vectors), f.n, vectors)
    if not vectors:
        return UnimodularityCertificate(st.id, matrix, (), True)
    if _selector_inverts(vectors, st.vertices):
        return UnimodularityCertificate(st.id, matrix, (1,) * len(vectors), True)
    divisors = elementary_divisors(matrix)
    verdict = len(divisors) == len(vectors) and all(x == 1 for x in divisors)
    return UnimodularityCertificate(st.id, matrix, divisors, verdict)


def piece_injective(f: PiecewiseAffineMap, s: "Stratum | str") -> bool:
    """Injectivity of one piece on its simplex: edge vectors of full rank."""
    st = f.complex.stratum(s)
    vectors = f.edge_vectors(st)
    if not vectors:
        return True
    return IntMatrix.from_rows(vectors, cols=f.n).rank() == len(vectors)


def separation_certificate(f: PiecewiseAffineMap, m: OrderMatrix,
                           s: "Stratum | str", t: "Stratum | str") -> int | None:
    """A coordinate separating the open simplex of ``s`` from all of ``t``.

    Looks for a vertex ``j`` of ``s`` that is not a vertex of ``t`` whose
    coordinate has vertex values 0 at ``j`` and exactly 1 at the remaining
    vertices of ``s`` (so the open simplex maps into [0, 1), and into (0, 1)
    when ``s`` has an edge), while every vertex value on ``t`` is at least 1
    and row ``j`` carries the horizontal-effectivity flag (so the whole
    simplex of ``t`` maps into [1, oo)).  Returns the first such component
    index in the vertex order of ``s``, or None when no vertex qualifies.

    The rule is checked in full, so it holds for any order matrix of the
    map's size, including one that breaks the order axioms.  With a
    validated matrix every flagged vertex of ``s`` outside ``t`` qualifies,
    which is the table ``check_faithful`` reads instead.
    """
    c = f.complex
    st = c.stratum(s)
    tt = c.stratum(t)
    if st.id == tt.id:
        raise ValueError("separation requires two distinct strata")
    if c.face_related(st, tt):
        raise ValueError("face pairs are discharged by injectivity, not separation")
    if m.ell != f.n:
        raise ValueError("order matrix size does not match the complex")
    for v in st.vertices + tt.vertices:
        if not 1 <= v <= m.ell:
            raise ValueError(f"component index {v} out of range 1..{m.ell}")
    for j in st.vertices:
        row = m.orders[j]
        if (m.horizontal_effective[j] and j not in tt.vertex_set and row[j - 1] == 0
                and all(row[v - 1] == 1 for v in st.vertices if v != j)
                and all(row[w - 1] >= 1 for w in tt.vertices)):
            return j
    return None


@dataclass(frozen=True)
class ExactVerdict:
    """Outcome of the exact disjointness oracle for one stratum pair."""

    disjoint: bool
    witness: tuple[Fraction, ...] | None
    method: str  # "face-injectivity" | "interval" | "lp"


@dataclass(frozen=True)
class SeparationCertificate:
    interior: str  # stratum whose open simplex maps below the separating value
    coordinate: int


@dataclass(frozen=True)
class FaceDischarge:
    ambient: str
    injective: bool


class PairEvidence(NamedTuple):
    """The evidence for one unordered pair of distinct strata.

    A ``NamedTuple`` rather than a dataclass: ``FaithfulnessReport.pairs``
    builds one per pair, O(S^2) of them, and a tuple is built several times
    faster.  ``check_faithful`` itself keeps rows (``PairRow``) and builds
    these only when ``pairs`` is first read.  Instances are immutable,
    hashable and equal by value.  The fields, in the order of the v1
    certificate record:

    * ``left``, ``right``: the two stratum ids, ``left`` first in the
      report's sorted order;
    * ``relation``: ``"face"`` when one stratum is a face of the other,
      else ``"independent"``;
    * ``face``: for a face pair, the ambient (larger) stratum and whether
      its piece is injective (always true in a ``check_faithful`` report);
      None for independent pairs;
    * ``separation``: for an independent pair, the certificate route's
      separating coordinate and the stratum mapped below it; None when
      that route was not run or found none;
    * ``exact``: the exact route's verdict; None when it was not run, and
      for a face pair whose ambient piece is injective;
    * ``disjoint``: whether the two open images are disjoint; None when
      the routes that ran could not tell.
    """

    left: str
    right: str
    relation: str  # "face" | "independent"
    face: FaceDischarge | None
    separation: SeparationCertificate | None
    exact: ExactVerdict | None
    disjoint: bool | None


class PairRow(NamedTuple):
    """The pairs of one stratum ``left`` with the strata ``rights``, in order.

    A pair's evidence without its two ids is its shape, the tuple
    ``(relation, face, separation, exact, disjoint)`` of ``PairEvidence``'s
    other fields.  Records share few shapes, so a row holds each shape once,
    and the pairs that carry it as a bitmask over the row: bit ``k`` stands
    for ``rights[k]``.  ``groups`` pairs a shape with its mask; ``faces``
    is the mask of the face pairs, whose shape the right-hand stratum fixes,
    ``("face", FaceDischarge(right, True), None, None, True)`` (0, the
    default, when the row has none); ``fill`` is the shape of every pair
    that neither names (None when they name them all).  The masks are
    disjoint.
    """

    left: str
    rights: Sequence[str]
    fill: tuple | None
    groups: Sequence[tuple[tuple, int]]
    faces: int = 0


_FACE_INJECTIVE = ExactVerdict(True, None, "face-injectivity")
_INTERVAL = ExactVerdict(True, None, "interval")


class _IntervalRule:
    """The exact route's interval rule, settled a row at a time.

    Built on the strata ``order`` of a map, whose vertex images it takes as
    given.  Bit ``b`` of a mask stands for ``order[b]``.
    ``separated(a, targets)`` returns the strata in ``targets`` whose image
    projection lies wholly above or wholly below that of stratum ``a`` on
    some coordinate.  One such coordinate proves the two open images
    disjoint; this is the module's one interval rule.

    A coordinate's vertex values on a stratum span [lo, hi]; the open
    simplex projects onto the point lo when lo == hi and onto the open
    interval (lo, hi) otherwise.  With GE(i, t) the strata whose vertex
    values on coordinate ``i`` are all at least ``t`` (the AND of
    ``lacking[v]`` over the vertices valued below ``t``) and LE(i, t) those
    whose values are all at most ``t``, a point p separates exactly
    GE(p) ^ LE(p), and an open (lo, hi) separates GE(hi) | LE(lo).  These
    masks, per coordinate and threshold or interval, are computed on first
    use and kept.

    Built once, in O(S·k) steps plus one transpose of the images of the
    vertices in use: ``lacking[v]``, the strata without vertex ``v``, and,
    per stratum, its vertex slots in the transposed columns, through which
    ``_test`` reads coordinate ``i``'s values on it.  The map is
    label-consistent by construction (see ``PiecewiseAffineMap``), so strata
    with one vertex set have one image polytope and no coordinate separates
    them: ``separated`` leaves them out, and ``check_faithful`` does not ask
    for them.  A row tries ``a``'s own coordinates first (vertex ``v`` is
    coordinate ``v``), then every other coordinate, and stops once every
    target is separated.  The order only finds a witness sooner; the answer
    is the union over all coordinates.  On a validated map the order axioms
    make ``a``'s own coordinates separate it from every stratum that lacks
    one of its vertices.
    """

    def __init__(self, f: PiecewiseAffineMap, order: Sequence[str]):
        full = (1 << len(order)) - 1
        strata = [f.complex.stratum(sid) for sid in order]
        lacking: dict[int, int] = {}
        for b, st in enumerate(strata):
            for v in st.vertices:
                lacking[v] = lacking.get(v, full) ^ 1 << b
        slot = {v: k for k, v in enumerate(lacking)}
        # A stratum's values on one coordinate, read from its column; the
        # first slot twice, so that a vertex stratum also reads a tuple.
        self._values = [itemgetter(slot[st.vertices[0]], *map(slot.__getitem__, st.vertices))
                        for st in strata]
        n = f.n
        self._own = [[v - 1 for v in st.vertices if 0 < v <= n] for st in strata]
        self._coordinates = range(n)
        self._lacking = list(lacking.values())
        # Coordinate i's values on the vertices, in the order of ``_lacking``.
        self._columns = list(zip(*map(f.images.__getitem__, lacking)))
        self._full = full
        self._bounds: dict[tuple[int, int, bool], int] = {}
        self._masks: dict[tuple[int, int, int], int] = {}

    def separated(self, a: int, targets: int) -> int:
        """The strata in ``targets`` that some coordinate separates from ``a``."""
        start = todo = targets
        own = self._own[a]
        for i in own:
            if not todo:
                return start
            todo &= ~self._test(a, i)
        for i in self._coordinates:
            if not todo:
                break
            if i not in own:
                todo &= ~self._test(a, i)
        return start ^ todo

    def _test(self, a: int, i: int) -> int:
        """The strata that coordinate ``i`` separates from stratum ``a``."""
        row = self._values[a](self._columns[i])
        key = i, min(row), max(row)
        mask = self._masks.get(key)
        if mask is None:
            _, lo, hi = key
            if lo == hi:
                mask = self._bound(i, lo, True) ^ self._bound(i, lo, False)
            else:
                mask = self._bound(i, hi, True) | self._bound(i, lo, False)
            self._masks[key] = mask
        return mask

    def _bound(self, i: int, t: int, above: bool) -> int:
        """GE(i, t) when ``above``, else LE(i, t)."""
        key = (i, t, above)
        mask = self._bounds.get(key)
        if mask is None:
            # The vertices on the wrong side of t: below it for GE, above it for LE.
            outside = map(lt if above else gt, self._columns[i], repeat(t))
            mask = self._bounds[key] = reduce(and_, compress(self._lacking, outside), self._full)
        return mask


def _members(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _placed(where: Mapping[int, int], mask: int) -> int:
    """``mask`` with each bit ``b`` moved to bit ``where[b]``."""
    return sum(1 << where[b] for b in _members(mask))


def images_relint_disjoint_exact(f: PiecewiseAffineMap,
                                 s: "Stratum | str", t: "Stratum | str") -> ExactVerdict:
    """Exact verdict on disjointness of the two open-simplex images.

    Face pairs reduce to injectivity of the ambient piece; other pairs are
    decided on the image polytopes, first by a one-coordinate interval
    separation and otherwise by the exact rational LP oracle, which returns
    a collision witness when the images meet.  Any map is label-consistent
    by construction, so the interval rule applies to every pair; two strata
    on one vertex set have one image, and it finds no coordinate.  The LP
    runs on the two strata's relative-interior image polyhedra, each built
    from the stratum's own vertex images.
    """
    c = f.complex
    sid = c.stratum(s).id
    tid = c.stratum(t).id
    if sid == tid:
        raise ValueError("disjointness query requires two distinct strata")
    ambient = sid if c.is_face(tid, sid) else tid if c.is_face(sid, tid) else None
    if ambient is not None and piece_injective(f, ambient):
        return _FACE_INJECTIVE
    if _IntervalRule(f, (sid, tid)).separated(0, 2):
        return _INTERVAL
    hit, witness = relint_intersection_nonempty(
        *(simplex_image_polyhedron(f.vertex_images(x)) for x in (sid, tid)))
    return ExactVerdict(not hit, witness, "lp")


@dataclass(frozen=True, eq=False, repr=False)
class FaithfulnessReport:
    """The outcome of ``check_faithful``: immutable, and equal by value.

    ``overall`` is "faithful", "not_faithful" or "certificate_incomplete".
    The pair evidence is kept as ``rows``, one ``PairRow`` per stratum and
    its later partners, which is how ``check_faithful`` decides it and how
    the certificate writer renders it; ``pairs`` is the same evidence as
    one ``PairEvidence`` per pair in report order, built on first use and
    then kept: it expands each row's fill, group masks and face mask.  The
    sequence fields are stored as tuples.  A report of given records holds
    each record ``e`` as a row of its own,
    ``PairRow(e.left, (e.right,), tuple(e[2:]), ())``.  Equality and the
    hash read ``pairs``, so two reports with the same evidence are equal
    however their rows group it.
    """

    mode: str
    certificates: Sequence[UnimodularityCertificate]
    rows: Sequence[PairRow]
    overall: str
    defects: Sequence[str]

    def __post_init__(self):
        for name in ("certificates", "rows", "defects"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @cached_property
    def pairs(self) -> tuple[PairEvidence, ...]:
        new = tuple.__new__
        face_shapes: dict[str, tuple] = {}
        evidence = []
        for left, rights, fill, groups, faces in self.rows:
            shapes = [fill] * len(rights)
            for shape, mask in groups:
                for k in _members(mask):
                    shapes[k] = shape
            for k in _members(faces):
                right = rights[k]
                shape = face_shapes.get(right)
                if shape is None:
                    shape = face_shapes[right] = ("face", FaceDischarge(right, True),
                                                  None, None, True)
                shapes[k] = shape
            evidence += [new(PairEvidence, (left, right, *shape))
                         for right, shape in zip(rights, shapes)]
        return tuple(evidence)

    def _key(self):
        return self.mode, self.certificates, self.pairs, self.overall, self.defects

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return ("FaithfulnessReport(mode={!r}, certificates={!r}, pairs={!r}, overall={!r}, "
                "defects={!r})".format(*self._key()))


def check_faithful(c: DualComplex, m: OrderMatrix, mode: str = "both",
                   pair_filter: "Iterable[Sequence[str]] | None" = None) -> FaithfulnessReport:
    """Full faithfulness check: per-stratum unimodularity plus pairwise disjointness.

    ``mode`` selects the evidence route per independent pair: "certificate"
    (separating coordinate), "exact" (polytope oracle), or "both".  The one
    defect a report can carry is a "both"-mode pair that no vertex
    separates and that the exact oracle finds colliding.  Pairs are
    checked serially, in sorted order.  ``pair_filter`` restricts which
    unordered pairs are examined, each entry two distinct strata (a
    ``Stratum`` or its id); the overall verdict then only speaks for the
    examined pairs.

    The input is validated first (``build_map(check=True)``), so the order
    axioms of ``validate_orders`` hold and the certificate route reads its
    rule off them.  Row ``j`` is 0 at vertex ``j`` (diagonal), exactly 1 at
    every vertex that shares a stratum with ``j`` (edge-order) and at least
    1 at every other vertex (zero-extension).  So ``separation_certificate``
    accepts ``j`` for the interior ``s`` against ``t`` exactly when ``j`` is
    a flagged vertex of ``s`` and not a vertex of ``t``.  The axioms also
    make every piece unimodular (``check_unimodular``'s selector rule) and
    let a coordinate separate any two strata on different vertex sets, so a
    certificate with a false verdict, or an independent pair on two vertex
    sets that no coordinate separates, raises ``ArithmeticError``: the
    first is checked once per stratum, the second once per row, as guards.
    Every face pair is therefore discharged by its ambient piece, injective
    because unimodular, and needs no route at all.

    The pairs are settled from tables over the sorted stratum order, built
    once per call: from one pass over ``c.face_map`` (on a validated complex
    the same relation as ``is_face``), ``up[x]``, the strata ``x`` is a
    face of, as a bitset; a face has fewer vertices than its ambient stratum
    and comes first, so these are the face pairs of row ``x``.  From one
    pass over the strata, ``same``, the strata on each vertex set, and, for
    the certificate route, ``candidates[a]``, the flagged vertices of
    stratum ``a`` in vertex order, and ``lacking[j]``, the strata without
    vertex ``j``.  For the exact route, ``_IntervalRule`` on the vertex
    images (its threshold masks are built on first use, so a
    ``pair_filter`` computes only the rows it names).  Each row of pairs
    ``(a, b)``, ``b`` after ``a`` (and wanted by ``pair_filter``), first
    splits into three disjoint masks: ``faces``, its pairs in ``up[a]``;
    ``shared``, those on ``a``'s vertex set; and ``apart``, the rest.

    ``apart`` pairs lie on two vertex sets.  The exact route's guard
    runs once per row, before any pair of it: ``_IntervalRule`` must find a
    coordinate for every ``apart`` partner, or the first of the others, in
    sorted order, raises ``ArithmeticError``.  The certificate route
    settles them with whole-row mask operations: ``a``'s candidates ``j``
    in turn take the later strata in ``lacking[j]``, and the largest group
    is the row's fill, the one evidence shape most of its pairs share.  Only
    the pairs that ``a`` leaves over try the reverse direction, the first of
    ``candidates[b]`` that ``a`` lacks, each a group of its own; those with
    no separation either way form one group.  ``shared`` pairs have one
    image, so neither a vertex nor a coordinate separates them.  The exact
    route keeps one relative-interior image polyhedron per vertex set, in
    one dict built the first time a row on that vertex set has ``shared``
    partners.  This is exact: the map is label-keyed, so all strata on one
    vertex set have the same vertex images up to order, and every piece has
    passed the unimodularity guard, so its images are affinely independent
    and ``simplex_image_polyhedron`` returns one polyhedron whatever the
    order.
    The LP oracle is asked once per pair, on that polyhedron against
    itself, so each vertex set's system is built and solved once per call,
    and the row's ``shared`` mask is one group with one ``ExactVerdict``.
    Without the exact route they join the unseparated group, as one mask.
    Defects are listed in pair order.

    The report keeps rows, not records (``PairRow``, one per stratum
    ``a``): the row's ids, its fill, its other groups as (shape, mask) with
    bit ``k`` for ``rights[k]``, and the mask of its face pairs, whose shape
    the ambient stratum fixes.  A complete row's masks are the stratum-order
    masks shifted by ``a + 1``; a pair filter's row moves each bit to its
    place.  So a row costs a few mask operations, with no step per pair,
    except for the reverse searches and the LP pairs.
    ``FaithfulnessReport.pairs`` expands the rows into records on first
    use, and the certificate writer renders straight from them.  The exact
    route reads only the vertex data, never the axioms: ``same`` comes from
    the vertex sets.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    f = build_map(c, m, check=True)

    order = c.stratum_ids()
    count = len(order)
    index = {sid: k for k, sid in enumerate(order)}
    certificates = tuple(check_unimodular(f, sid) for sid in order)
    for cert in certificates:
        if not cert.verdict:
            raise ArithmeticError(f"stratum {cert.stratum}: validated piece is not unimodular")

    # The rows: each stratum ``a`` with the later strata it is paired with,
    # as their ids in order and as a bitmask, and ``place``, which moves a
    # mask's bits to their places in the row (a shift when it is complete).
    if pair_filter is None:
        rows = ((a, order[a + 1:], (1 << count) - (2 << a), (a + 1).__rrshift__)
                for a in range(count - 1))
    else:
        wanted: dict[int, set[int]] = {}
        for p in pair_filter:
            # A string iterates as its characters, so it names no pair; a
            # Stratum stands for its id.
            p = p if isinstance(p, str) else tuple(p)
            ids = set() if isinstance(p, str) else {c.stratum(x).id for x in p}
            if len(p) != 2 or len(ids) != 2 or not ids <= index.keys():
                raise ValueError(f"pair filter entry {p!r} is not two distinct stratum ids")
            a, b = sorted(map(index.__getitem__, ids))
            wanted.setdefault(a, set()).add(b)
        rows = []
        for a, later in sorted(wanted.items()):
            cols = sorted(later)
            rows.append((a, [order[b] for b in cols], sum(1 << b for b in cols),
                         partial(_placed, {b: k for k, b in enumerate(cols)})))

    # The face pairs of row ``x``: the strata ``x`` is a face of (see above).
    up = [0] * count
    for (owner, _), fid in c.face_map.items():
        up[index[fid]] |= 1 << index[owner]
    # One pass over the strata: ``same``, by vertex set, and the certificate
    # route's tables from the order axioms (see above), which exact mode
    # does not read.
    certify = mode != "exact"
    flags = m.horizontal_effective
    same: dict[frozenset[int], int] = {}
    candidates = []
    lacking = [(1 << count) - 1] * (m.ell + 1)
    strata = [c.stratum(sid) for sid in order]
    for b, st in enumerate(strata):
        same[st.vertex_set] = same.get(st.vertex_set, 0) | 1 << b
        if certify:
            candidates.append([j for j in st.vertices if flags[j]])
            for v in st.vertices:
                lacking[v] ^= 1 << b
    exact_route = mode != "certificate"
    if exact_route:
        intervals = _IntervalRule(f, order)
    # The relative-interior image polyhedron of each vertex set that has LP
    # pairs, built from the first of its strata to need it (see above).
    polyhedra: dict[frozenset[int], RationalPolyhedron] = {}

    new = tuple.__new__
    # The exact verdict of the pairs on two vertex sets: a coordinate
    # separates them; and the shape of those no vertex separates.
    interval = _INTERVAL if exact_route else None
    unseparated = ("independent", None, None, interval, True if exact_route else None)
    decided = []
    defects = []
    collision = unknown = False
    for a, ids, want, place in rows:
        sid = order[a]
        faces = want & up[a]
        shared = want & same[strata[a].vertex_set]
        apart = want ^ faces ^ shared
        if exact_route:
            # Only strata on a's vertex set may share its image (see above).
            stray = apart & ~intervals.separated(a, apart)
            if stray:
                tid = order[_members(stray)[0]]
                raise ArithmeticError(f"pair {sid}/{tid}: no coordinate separates the images "
                                      f"of two strata with different vertex images")
        # Groups of the pairs on two vertex sets that share a separation:
        # a's candidates j in turn take the later strata in ``lacking[j]``,
        # and ``rest`` keeps those a cannot separate.  In exact mode the one
        # group is all of them.
        if certify:
            groups = []
            rest = apart
            for j in candidates[a]:
                got = rest & lacking[j]
                if got:
                    groups.append((SeparationCertificate(sid, j), got))
                    rest ^= got
        else:
            groups = [(None, apart)]
            rest = 0
        # The largest group is the row's fill; every other group keeps its
        # shape and its mask over the row.
        fill = (groups[0] if len(groups) == 1
                else max(groups, key=lambda group: group[1].bit_count(), default=(None, 0)))
        others = [(("independent", None, sep, interval, True), place(got))
                  for sep, got in groups if sep is not fill[0]]
        if rest:
            # a separates nothing from b: try b's candidates against a.
            for b in _members(rest):
                j = next((j for j in candidates[b] if lacking[j] >> a & 1), None)
                if j is not None:
                    rest ^= 1 << b
                    others.append((("independent", None, SeparationCertificate(order[b], j),
                                    interval, True), place(1 << b)))
        if not exact_route:
            # Without the exact route the pairs on a's vertex set, which no
            # vertex separates, are left unsettled with the others.
            rest |= shared
            shared = 0
            unknown = unknown or bool(rest)
        if rest:
            others.append((unseparated, place(rest)))
        if shared:
            # The LP pairs: every stratum on a's vertex set has a's image
            # polyhedron, so the oracle is asked on it against itself, once
            # per pair, and the row's LP pairs share one verdict and one group.
            vertex_set = strata[a].vertex_set
            poly = polyhedra.get(vertex_set)
            if poly is None:
                poly = polyhedra[vertex_set] = simplex_image_polyhedron(f.vertex_images(sid))
            for b in _members(shared):
                hit, witness = relint_intersection_nonempty(poly, poly)
                if hit and mode == "both":
                    # Only both-mode actually consulted the certificate route,
                    # so only there can its silence be reported as a gap.
                    defects.append(f"pair {sid}/{order[b]}: no separating vertex exists "
                                   f"and the exact oracle reports a collision")
            collision = collision or hit
            others.append((("independent", None, None, ExactVerdict(not hit, witness, "lp"),
                            not hit), place(shared)))
        decided.append(new(PairRow, (sid, ids, ("independent", None, fill[0], interval, True)
                                         if fill[1] else None, others, place(faces))))

    if collision:
        overall = "not_faithful"
    elif unknown:
        overall = "certificate_incomplete"
    else:
        overall = "faithful"
    return FaithfulnessReport(mode, certificates, decided, overall, defects)
