"""Piecewise affine coordinates on a skeleton and faithfulness certification.

From an order matrix the skeleton acquires, stratum by stratum, an integer
affine map into R^ell whose i-th coordinate is the affine restriction of
``-log|s_i/s_0|``.  This module certifies two things about the resulting
piecewise map:

* unimodularity of every piece, via Smith normal form of the image
  edge-difference vectors (all elementary divisors 1 and full rank); and
* global injectivity, by showing the images of the open simplices of any
  two distinct strata are disjoint.

Disjointness is established along two independent routes.  The certificate
route picks a vertex of one stratum missing from the other and checks the
vertex-value table of that coordinate (0 once and 1 elsewhere on the first
stratum, at least 1 everywhere on the second, plus the concavity flag).
The exact route decides emptiness of the intersection of the two image
polytopes outright, by coordinate-interval separation when a single
coordinate suffices and by exact rational LP feasibility otherwise.

Pairs are checked serially, in sorted order, with one per-call memo of the
per-stratum data the checks reuse.  A thread pool over the pairs was
measured slower than the serial loop (the work is GIL-bound ``Fraction``
arithmetic), so ``jobs`` is accepted only for compatibility and never
changes the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Iterable, Sequence

from .complexes import DualComplex, SimplexPoint, Stratum, validate_complex
# ``smith_normal_form`` is unused here but stays importable from this module:
# perfbench's traced run wraps it under this name.
from .lattice import (IntMatrix, _smith_diagonal, relint_intersection_nonempty,  # noqa: F401
                      simplex_image_polyhedron, smith_normal_form)
from .sections import OrderMatrix, validate_orders
from .tropical import TropicalProjectivePoint, trop_normalize

__all__ = [
    "PiecewiseAffineMap",
    "UnimodularityCertificate",
    "SeparationCertificate",
    "ExactVerdict",
    "FaceDischarge",
    "PairEvidence",
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
    """For each stratum, an integer matrix sending barycentric weights to R^n.

    Row ``i-1`` of a piece holds the coefficients of coordinate ``i``
    (section index) over the stratum's vertex slots.  Pieces automatically
    agree on shared faces because entries depend only on vertex labels.
    """

    complex: DualComplex
    n: int
    pieces: dict[str, tuple[tuple[int, ...], ...]]

    def piece(self, s: "Stratum | str") -> tuple[tuple[int, ...], ...]:
        return self.pieces[self.complex.stratum(s).id]

    def vertex_image(self, s: "Stratum | str", slot: int) -> tuple[int, ...]:
        return tuple(row[slot] for row in self.piece(s))

    def vertex_images(self, s: "Stratum | str") -> tuple[tuple[int, ...], ...]:
        rows = self.piece(s)
        arity = len(self.complex.stratum(s).vertices)
        return tuple(tuple(row[a] for row in rows) for a in range(arity))

    def edge_vectors(self, s: "Stratum | str") -> tuple[tuple[int, ...], ...]:
        imgs = self.vertex_images(s)
        return tuple(tuple(b - a for a, b in zip(imgs[0], img)) for img in imgs[1:])

    def apply(self, p: SimplexPoint) -> tuple[Fraction, ...]:
        rows = self.piece(p.stratum)
        if len(rows[0]) != len(p.u):
            raise ValueError("point arity does not match the piece")
        return tuple(sum((c * w for c, w in zip(row, p.u)), Fraction(0)) for row in rows)

    def projective_image(self, p: SimplexPoint) -> TropicalProjectivePoint:
        """Image in tropical projective space, with the base chart coordinate 0."""
        return trop_normalize((Fraction(0),) + self.apply(p))


def build_map(c: DualComplex, m: OrderMatrix, check: bool = True) -> PiecewiseAffineMap:
    """Assemble the per-stratum affine pieces from an order matrix.

    With ``check`` (the default) the complex and the order matrix are
    validated first and any violation raises.
    """
    if check:
        problems = validate_complex(c)
        if problems:
            raise ValueError("invalid complex: " + "; ".join(v.message for v in problems))
        problems = validate_orders(m, c)
        if problems:
            raise ValueError("invalid order matrix: " + "; ".join(v.message for v in problems))
    elif m.ell != c.ell:
        raise ValueError("order matrix size does not match the complex")
    ell = m.ell
    # Column v-1 of the section rows holds the orders along component v, so
    # a piece is the stratum's columns read row by row.
    columns = tuple(zip(*m.orders[1:]))
    pieces = {}
    for s in c.strata:
        for v in s.vertices:
            if not 1 <= v <= ell:
                raise ValueError(f"component index {v} out of range 1..{ell}")
        pieces[s.id] = tuple(zip(*[columns[v - 1] for v in s.vertices]))
    return PiecewiseAffineMap(c, ell, pieces)


@dataclass(frozen=True)
class UnimodularityCertificate:
    """Per-stratum evidence: edge-difference vectors and their divisors."""

    stratum: str
    edge_matrix: IntMatrix
    elementary_divisors: tuple[int, ...]
    verdict: bool


def check_unimodular(f: PiecewiseAffineMap, s: "Stratum | str") -> UnimodularityCertificate:
    """Unimodularity of one piece.

    The piece is affine on the whole simplex, so it suffices that the image
    edge-difference vectors extend to a lattice basis: full rank with every
    elementary divisor equal to 1.  A true verdict implies the piece is
    injective on its simplex.  Vertex strata pass vacuously.
    """
    st = f.complex.stratum(s)
    vectors = f.edge_vectors(st)
    matrix = IntMatrix.from_rows(vectors, cols=f.n)
    if not vectors:
        return UnimodularityCertificate(st.id, matrix, (), True)
    diag = _smith_diagonal(matrix)
    verdict = len(diag) == len(vectors) and all(x == 1 for x in diag)
    return UnimodularityCertificate(st.id, matrix, diag, verdict)


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
    simplex of ``t`` maps into [1, oo)).  Returns the component index ``j``,
    or None when no vertex qualifies; with a validated order matrix the
    first vertex of ``s`` outside ``t`` always does.
    """
    c = f.complex
    st = c.stratum(s)
    tt = c.stratum(t)
    if st.id == tt.id:
        raise ValueError("separation requires two distinct strata")
    if c.face_related(st, tt):
        raise ValueError("face pairs are discharged by injectivity, not separation")
    t_verts = tt.vertex_set
    for j in st.vertices:
        if j in t_verts:
            continue
        if not m.horizontal_effective[j]:
            continue
        if m.order(j, j) != 0:
            continue
        if any(m.order(j, v) != 1 for v in st.vertices if v != j):
            continue
        if any(m.order(j, w) < 1 for w in tt.vertices):
            continue
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


@dataclass(frozen=True)
class PairEvidence:
    left: str
    right: str
    relation: str  # "face" | "independent"
    face: FaceDischarge | None
    separation: SeparationCertificate | None
    exact: ExactVerdict | None
    disjoint: bool | None


def _piece_memo(f: PiecewiseAffineMap):
    """One memo for the per-stratum data the pair checks reuse.

    ``memo(kind, sid)`` returns, computed on first use, the coordinate
    interval table ("intervals"), the relative-interior image polyhedron
    ("polyhedron") or the piece injectivity flag ("injective") of a stratum.
    """

    @cache
    def memo(kind: str, sid: str):
        if kind == "intervals":
            return tuple((min(vals), max(vals)) for vals in zip(*f.vertex_images(sid)))
        if kind == "polyhedron":
            return simplex_image_polyhedron(f.vertex_images(sid), relative_interior=True)
        return piece_injective(f, sid)

    return memo


def _ambient(c: DualComplex, sid: str, tid: str) -> str | None:
    """The larger stratum when one of the two is a face of the other, else None."""
    if c.is_face(tid, sid):
        return sid
    if c.is_face(sid, tid):
        return tid
    return None


def _intervals_separate(ta, tb) -> bool:
    # Projections of the two open images; a single coordinate with disjoint
    # projections proves the images disjoint.
    for (alo, ahi), (blo, bhi) in zip(ta, tb):
        if alo == ahi and blo == bhi:
            if alo != blo:
                return True
        elif alo == ahi:
            if alo <= blo or alo >= bhi:
                return True
        elif blo == bhi:
            if blo <= alo or blo >= ahi:
                return True
        elif ahi <= blo or bhi <= alo:
            return True
    return False


def _exact_verdict(memo, sid: str, tid: str, ambient: str | None) -> ExactVerdict:
    """The exact oracle on one pair; ``ambient`` is the larger stratum of a
    face pair (see ``_ambient``) and None for an independent pair."""
    if ambient is not None and memo("injective", ambient):
        return ExactVerdict(True, None, "face-injectivity")
    # Degenerate ambient piece or independent pair: decide on the images.
    if _intervals_separate(memo("intervals", sid), memo("intervals", tid)):
        return ExactVerdict(True, None, "interval")
    hit, witness = relint_intersection_nonempty(memo("polyhedron", sid),
                                                memo("polyhedron", tid))
    return ExactVerdict(not hit, witness, "lp")


def images_relint_disjoint_exact(f: PiecewiseAffineMap,
                                 s: "Stratum | str", t: "Stratum | str") -> ExactVerdict:
    """Exact verdict on disjointness of the two open-simplex images.

    Face pairs reduce to injectivity of the ambient piece; other pairs are
    decided on the image polytopes, first by a one-coordinate interval
    separation and otherwise by the exact rational LP oracle, which returns
    a collision witness when the images meet.
    """
    sid = f.complex.stratum(s).id
    tid = f.complex.stratum(t).id
    if sid == tid:
        raise ValueError("disjointness query requires two distinct strata")
    return _exact_verdict(_piece_memo(f), sid, tid, _ambient(f.complex, sid, tid))


@dataclass(frozen=True)
class FaithfulnessReport:
    mode: str
    certificates: tuple[UnimodularityCertificate, ...]
    pairs: tuple[PairEvidence, ...]
    overall: str  # "faithful" | "not_faithful" | "certificate_incomplete"
    defects: tuple[str, ...]


def _pair_evidence(f: PiecewiseAffineMap, m: OrderMatrix, sid: str, tid: str,
                   mode: str, memo) -> PairEvidence:
    ambient = _ambient(f.complex, sid, tid)
    if ambient is not None:
        ok = memo("injective", ambient)
        exact = None if ok or mode == "certificate" else _exact_verdict(memo, sid, tid, ambient)
        disjoint = True if ok else (exact.disjoint if exact is not None else None)
        return PairEvidence(sid, tid, "face", FaceDischarge(ambient, ok),
                            None, exact, disjoint)

    separation = None
    if mode != "exact":
        for interior, other in ((sid, tid), (tid, sid)):
            coord = separation_certificate(f, m, interior, other)
            if coord is not None:
                separation = SeparationCertificate(interior, coord)
                break
    exact = None if mode == "certificate" else _exact_verdict(memo, sid, tid, ambient)
    disjoint = exact.disjoint if exact is not None else (True if separation is not None else None)
    return PairEvidence(sid, tid, "independent", None, separation, exact, disjoint)


def check_faithful(c: DualComplex, m: OrderMatrix, mode: str = "both",
                   jobs: int = 1,
                   pair_filter: "Iterable[Sequence[str]] | None" = None) -> FaithfulnessReport:
    """Full faithfulness check: per-stratum unimodularity plus pairwise disjointness.

    ``mode`` selects the evidence route per pair: "certificate" (separating
    coordinate), "exact" (polytope oracle), or "both", in which case any
    disagreement between the routes is recorded as a defect.  Pairs are
    checked serially, in sorted order; ``jobs`` (at least 1) is accepted for
    compatibility and never changes the work done or the report.
    ``pair_filter`` restricts which unordered pairs are examined, each entry
    two distinct stratum ids; the overall verdict then only speaks for the
    examined pairs.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    f = build_map(c, m, check=True)

    order = c.stratum_ids()
    certificates = tuple(check_unimodular(f, sid) for sid in order)

    wanted = None
    if pair_filter is not None:
        wanted = set()
        for p in pair_filter:
            p = tuple(p)
            if len(p) != 2 or p[0] == p[1]:
                raise ValueError(f"pair filter entry {p!r} is not two distinct stratum ids")
            for sid in p:
                c.stratum(sid)  # raises on unknown ids
            wanted.add(frozenset(p))

    # combinations() of the sorted ids yields the pairs already in report order.
    memo = _piece_memo(f)
    evidence = [_pair_evidence(f, m, a, b, mode, memo)
                for a, b in combinations(order, 2)
                if wanted is None or frozenset((a, b)) in wanted]

    defects = []
    for e in evidence:
        if e.separation is not None and e.exact is not None and not e.exact.disjoint:
            defects.append(f"pair {e.left}/{e.right}: separation certificate "
                           f"contradicts the exact oracle")
        # Only both-mode actually consulted the certificate route, so only
        # there can its silence be reported as a gap.
        if (mode == "both" and e.relation == "independent" and e.separation is None
                and e.exact is not None and not e.exact.disjoint):
            defects.append(f"pair {e.left}/{e.right}: no separating vertex exists "
                           f"and the exact oracle reports a collision")

    unimodular_ok = all(cert.verdict for cert in certificates)
    collision = any(e.disjoint is False for e in evidence)
    unknown = any(e.disjoint is None for e in evidence)
    if not unimodular_ok or collision:
        overall = "not_faithful"
    elif unknown:
        overall = "certificate_incomplete"
    else:
        overall = "faithful"
    return FaithfulnessReport(mode, certificates, tuple(evidence), overall, tuple(defects))
