"""Dual intersection complexes of semistable degenerations.

Vertices stand for the irreducible components of a degenerate fiber,
simplices for the strata cut out by intersecting components.  Two modes
are supported: plain simplicial complexes, where a stratum is determined
by its vertex set, and Delta-complexes, where distinct strata may share a
vertex set (several connected components of the same intersection) and
face maps must be given explicitly.

Complexes are immutable after construction and safe to share across
threads.  Construction is permissive; :func:`validate_complex` reports
every invariant violation rather than raising on the first one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Stratum",
    "Violation",
    "DualComplex",
    "SimplexPoint",
    "build_from_facets",
    "build_delta_complex",
    "validate_complex",
    "connected_components",
    "relint_membership",
    "face_restriction",
]


@dataclass(frozen=True)
class Stratum:
    """A stratum: an identifier plus its ordered, distinct vertex indices.

    The vertex order is fixed at construction; barycentric coordinates and
    all matrices built later refer to exactly this order.
    """

    id: str
    vertices: tuple[int, ...]
    # The vertices as a set, for face-map keys and membership tests.
    vertex_set: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(int(v) for v in self.vertices))
        if not self.id or not isinstance(self.id, str):
            raise ValueError("stratum id must be a nonempty string")
        if len(self.vertices) == 0:
            raise ValueError(f"stratum {self.id!r} has no vertices")
        vertex_set = frozenset(self.vertices)
        if len(vertex_set) != len(self.vertices):
            raise ValueError(f"stratum {self.id!r} repeats a vertex")
        object.__setattr__(self, "vertex_set", vertex_set)

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1


@dataclass(frozen=True)
class Violation:
    rule: str
    subject: str | None
    message: str


@dataclass(frozen=True)
class DualComplex:
    """Strata plus explicit face maps.

    ``face_map`` sends ``(stratum id, vertex subset)`` to the id of the
    face stratum along that subset, for every nonempty proper subset of the
    stratum's vertex set.
    """

    ell: int
    dim_bound: int
    strata: tuple[Stratum, ...]
    face_map: Mapping[tuple[str, frozenset[int]], str]
    _by_id: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("a complex needs at least one vertex")
        if self.dim_bound < 0:
            raise ValueError("dimension bound must be nonnegative")
        by_id = {}
        for s in self.strata:
            if s.id in by_id:
                raise ValueError(f"duplicate stratum id {s.id!r}")
            by_id[s.id] = s
        object.__setattr__(self, "strata", tuple(self.strata))
        object.__setattr__(self, "face_map", dict(self.face_map))
        object.__setattr__(self, "_by_id", by_id)

    def stratum(self, s: "Stratum | str") -> Stratum:
        if isinstance(s, Stratum):
            return s
        try:
            return self._by_id[s]
        except KeyError:
            raise ValueError(f"unknown stratum id {s!r}") from None

    def has_stratum(self, sid: str) -> bool:
        return sid in self._by_id

    def sort_key(self, s: "Stratum | str"):
        st = self.stratum(s)
        return (len(st.vertices), st.vertices, st.id)

    def stratum_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in sorted(self.strata, key=lambda s: self.sort_key(s)))

    def faces_of(self, s: "Stratum | str") -> dict[frozenset[int], str]:
        sid = self.stratum(s).id
        return {subset: fid for (owner, subset), fid in self.face_map.items() if owner == sid}

    def is_face(self, face: "Stratum | str", ambient: "Stratum | str") -> bool:
        f = self.stratum(face)
        a = self.stratum(ambient)
        return self.face_map.get((a.id, f.vertex_set)) == f.id

    def face_related(self, s: "Stratum | str", t: "Stratum | str") -> bool:
        return self.is_face(s, t) or self.is_face(t, s)

    def edges(self) -> frozenset[frozenset[int]]:
        """Unordered vertex pairs lying together on some stratum."""
        cached = self.__dict__.get("_edges")
        if cached is None:
            pairs = set()
            for s in self.strata:
                for a, b in itertools.combinations(s.vertices, 2):
                    pairs.add(frozenset((a, b)))
            cached = frozenset(pairs)
            object.__setattr__(self, "_edges", cached)
        return cached

    def adjacent(self, i: int, j: int) -> bool:
        return frozenset((i, j)) in self.edges()

    def vertex_stratum(self, v: int) -> str | None:
        for s in self.strata:
            if s.vertices == (v,):
                return s.id
        return None


def _check_facet(facet: Sequence[int], ell: int, d: int) -> tuple[int, ...]:
    verts = tuple(int(v) for v in facet)
    if not verts:
        raise ValueError("empty facet")
    if len(set(verts)) != len(verts):
        raise ValueError(f"facet {list(facet)} repeats a vertex")
    if len(verts) > d + 1:
        raise ValueError(f"facet {list(facet)} exceeds d+1 = {d + 1} vertices")
    for v in verts:
        if not 1 <= v <= ell:
            raise ValueError(f"vertex index {v} out of range 1..{ell}")
    return verts


def build_from_facets(ell: int, d: int, facets: Iterable[Sequence[int]]) -> DualComplex:
    """Plain simplicial complex: one stratum per nonempty subset of a facet.

    Vertex order inside each stratum is ascending, ids are the dash-joined
    vertices, and the face map is subset inclusion.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if d < 0:
        raise ValueError("d must be nonnegative")
    vertex_sets: set[tuple[int, ...]] = set()
    for facet in facets:
        verts = tuple(sorted(_check_facet(facet, ell, d)))
        for r in range(1, len(verts) + 1):
            for sub in itertools.combinations(verts, r):
                vertex_sets.add(sub)
    ordered = sorted(vertex_sets, key=lambda vs: (len(vs), vs))
    strata = tuple(Stratum("-".join(map(str, vs)), vs) for vs in ordered)
    ids = {s.vertices: s.id for s in strata}
    face_map = {}
    for s in strata:
        r = len(s.vertices)
        for size in range(1, r):
            for sub in itertools.combinations(s.vertices, size):
                face_map[(s.id, frozenset(sub))] = ids[sub]
    return DualComplex(ell, d, strata, face_map)


def build_delta_complex(ell: int, d: int,
                        strata: Iterable[Stratum | tuple[str, Sequence[int]]],
                        face_entries: Iterable[tuple[str, Iterable[int], str]]) -> DualComplex:
    """Delta-complex from explicit strata and face assignments.

    Vertex order is taken verbatim from the input.  No face closure is
    performed; whatever is missing will be reported by
    :func:`validate_complex`.
    """
    built = []
    for s in strata:
        if isinstance(s, Stratum):
            built.append(s)
        else:
            sid, verts = s
            built.append(Stratum(str(sid), tuple(verts)))
    face_map = {}
    for owner, subset, fid in face_entries:
        key = (str(owner), frozenset(int(v) for v in subset))
        if key in face_map and face_map[key] != str(fid):
            raise ValueError(f"conflicting face assignments for {owner!r} along {sorted(key[1])}")
        face_map[key] = str(fid)
    return DualComplex(ell, d, tuple(built), face_map)


def validate_complex(c: DualComplex) -> list[Violation]:
    """All invariant violations of a complex; empty list means valid."""
    out: list[Violation] = []

    def bad(rule, subject, message):
        out.append(Violation(rule, subject, message))

    covered = set()
    for s in c.strata:
        for v in s.vertices:
            if not 1 <= v <= c.ell:
                bad("vertex-range", s.id, f"vertex {v} outside 1..{c.ell}")
        if len(s.vertices) == 1:
            covered.add(s.vertices[0])
        if len(s.vertices) - 1 > c.dim_bound:
            bad("dim-bound", s.id,
                f"{len(s.vertices)} vertices exceed dimension bound {c.dim_bound}")
    for v in range(1, c.ell + 1):
        if v not in covered:
            bad("vertex-cover", None, f"vertex {v} has no 0-dimensional stratum")

    known = {s.id for s in c.strata}
    for (owner, subset), fid in c.face_map.items():
        if owner not in known:
            bad("face-key", owner, "face map entry for unknown stratum")
            continue
        verts = c.stratum(owner).vertex_set
        if not subset or not subset < verts:
            bad("face-key", owner,
                f"{sorted(subset)} is not a nonempty proper subset of {sorted(verts)}")
            continue
        if fid not in known:
            bad("face-dangling", owner, f"face along {sorted(subset)} points to unknown {fid!r}")
            continue
        if c.stratum(fid).vertex_set != subset:
            bad("face-vertex-set", owner,
                f"face {fid!r} along {sorted(subset)} has vertex set "
                f"{sorted(c.stratum(fid).vertices)}")

    for s in c.strata:
        r = len(s.vertices)
        for size in range(1, r):
            for sub in itertools.combinations(s.vertices, size):
                key = (s.id, frozenset(sub))
                if key not in c.face_map:
                    bad("face-missing", s.id, f"no face assigned along {list(sub)}")
        # Restricting in two steps must agree with restricting directly.
        for size_b in range(2, r):
            for mid in itertools.combinations(s.vertices, size_b):
                mid_id = c.face_map.get((s.id, frozenset(mid)))
                if mid_id is None or mid_id not in known:
                    continue
                for size_a in range(1, size_b):
                    for sub in itertools.combinations(mid, size_a):
                        direct = c.face_map.get((s.id, frozenset(sub)))
                        via = c.face_map.get((mid_id, frozenset(sub)))
                        if direct is not None and via is not None and direct != via:
                            bad("face-composition", s.id,
                                f"faces along {list(sub)} disagree through {mid_id!r}")
    out.sort(key=lambda v: (v.rule, v.subject or "", v.message))
    return out


def connected_components(c: DualComplex) -> list[list[int]]:
    """Vertex components under stratum adjacency (reported, never required)."""
    parent = {v: v for v in range(1, c.ell + 1)}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for pair in c.edges():
        a, b = tuple(pair)
        parent[find(a)] = find(b)
    groups: dict[int, list[int]] = {}
    for v in range(1, c.ell + 1):
        groups.setdefault(find(v), []).append(v)
    return sorted(sorted(g) for g in groups.values())


def _as_weight(x) -> Fraction:
    if isinstance(x, bool) or isinstance(x, float):
        raise TypeError(f"barycentric weights must be exact rationals, got {x!r}")
    return Fraction(x)


@dataclass(frozen=True)
class SimplexPoint:
    """A point of a canonical simplex in barycentric coordinates.

    Weights are exact rationals, nonnegative, and sum to one; they follow
    the vertex order of the named stratum.
    """

    stratum: str
    u: tuple[Fraction, ...]

    def __post_init__(self):
        weights = tuple(_as_weight(x) for x in self.u)
        if not weights:
            raise ValueError("a simplex point needs at least one weight")
        if any(w < 0 for w in weights):
            raise ValueError("barycentric weights must be nonnegative")
        if sum(weights) != 1:
            raise ValueError("barycentric weights must sum to 1")
        object.__setattr__(self, "u", weights)


def relint_membership(p: SimplexPoint) -> bool:
    """True iff the point lies in the open simplex (every weight positive)."""
    return all(w > 0 for w in p.u)


def face_restriction(c: DualComplex, p: SimplexPoint, target: "Stratum | str") -> SimplexPoint:
    """Re-express a boundary point on the face stratum carrying it.

    The point's weights must vanish outside the target face's vertex set;
    the result re-indexes the surviving weights to the face's vertex order
    and denotes the same skeleton point.
    """
    s = c.stratum(p.stratum)
    f = c.stratum(target)
    if len(p.u) != len(s.vertices):
        raise ValueError("weight vector does not match the stratum arity")
    if f.id == s.id:
        return p
    subset = f.vertex_set
    if c.face_map.get((s.id, subset)) != f.id:
        raise ValueError(f"{f.id!r} is not the face of {s.id!r} along its vertex set")
    slot = {v: i for i, v in enumerate(s.vertices)}
    for v, w in zip(s.vertices, p.u):
        if v not in subset and w != 0:
            raise ValueError(f"weight at vertex {v} is nonzero outside the face")
    return SimplexPoint(f.id, tuple(p.u[slot[v]] for v in f.vertices))
