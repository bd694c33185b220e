"""Dual intersection complexes of semistable degenerations.

Vertices stand for the irreducible components of a degenerate fiber,
simplices for the strata cut out by intersecting components.  Two modes
are supported: plain simplicial complexes, where a stratum is determined
by its vertex set, and Delta-complexes, where distinct strata may share a
vertex set (several connected components of the same intersection) and
face maps must be given explicitly.

Complexes are immutable after construction and safe to share across
threads.  Construction is permissive; :func:`validate_complex` reports
every invariant violation, each rule worded in one place, rather than
raising on the first one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from ._exact import at_least, fraction, ints

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
        object.__setattr__(self, "vertices", ints(self.vertices, "vertices must be ints, got {x!r}"))
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
        at_least(self.ell, 1, "a complex needs at least one vertex")
        at_least(self.dim_bound, 0, "dimension bound must be nonnegative")
        self._index()

    @classmethod
    def _from_checked(cls, ell: int, dim_bound: int, strata: Iterable[Stratum],
                      face_map: Mapping[tuple[str, frozenset[int]], str]) -> "DualComplex":
        """The complex of these parts, whose ``ell`` and ``dim_bound`` the
        caller has checked: they are not checked again."""
        c = object.__new__(cls)
        object.__setattr__(c, "ell", ell)
        object.__setattr__(c, "dim_bound", dim_bound)
        object.__setattr__(c, "strata", strata)
        object.__setattr__(c, "face_map", face_map)
        c._index()
        return c

    def _index(self):
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
        return frozenset(ints((i, j), "vertex labels must be ints, got {x!r}")) in self.edges()

    def vertex_stratum(self, v: int) -> str | None:
        ints((v,), "vertex labels must be ints, got {x!r}")
        for s in self.strata:
            if s.vertices == (v,):
                return s.id
        return None


def _check_facet(facet: Sequence[int], ell: int, d: int) -> tuple[int, ...]:
    verts = ints(facet, "facet vertices must be ints, got {x!r}")
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
    vertices, and the face map is subset inclusion.  Each face-map key holds
    the face stratum's own ``vertex_set``, so the map makes no set of its
    own and every key's hash is computed once, with the face.
    """
    at_least(ell, 1, "ell must be at least 1")
    at_least(d, 0, "d must be nonnegative")
    return _facet_complex(ell, d, facets)


def _facet_complex(ell: int, d: int, facets: Iterable[Sequence[int]]) -> DualComplex:
    """``build_from_facets`` for an ``ell`` and ``d`` that the caller has checked."""
    vertex_sets: set[tuple[int, ...]] = set()
    for facet in facets:
        verts = tuple(sorted(_check_facet(facet, ell, d)))
        for r in range(1, len(verts) + 1):
            for sub in itertools.combinations(verts, r):
                vertex_sets.add(sub)
    ordered = sorted(vertex_sets, key=lambda vs: (len(vs), vs))
    strata = tuple(Stratum("-".join(map(str, vs)), vs) for vs in ordered)
    by_vertices = {s.vertices: s for s in strata}
    face_map = {}
    for s in strata:
        r = len(s.vertices)
        for size in range(1, r):
            for sub in itertools.combinations(s.vertices, size):
                face = by_vertices[sub]
                face_map[(s.id, face.vertex_set)] = face.id
    return DualComplex._from_checked(ell, d, strata, face_map)


def build_delta_complex(ell: int, d: int,
                        strata: Iterable[Stratum | tuple[str, Sequence[int]]],
                        face_entries: Iterable[tuple[str, Iterable[int], str]]) -> DualComplex:
    """Delta-complex from explicit strata and face assignments.

    Vertex order and stratum ids are taken verbatim from the input: an id
    that is not a nonempty string, in a stratum or in a face entry, raises
    ``ValueError``.  No face closure is performed; whatever is missing will
    be reported by :func:`validate_complex`.
    """
    return DualComplex(ell, d, *_delta_parts(strata, face_entries))


def _delta_parts(strata, face_entries) -> tuple[tuple[Stratum, ...], dict]:
    """The strata and the face map that ``build_delta_complex`` builds its
    complex from."""
    built = []
    for s in strata:
        if isinstance(s, Stratum):
            built.append(s)
        else:
            sid, verts = s
            built.append(Stratum(sid, tuple(verts)))
    face_map = {}
    for owner, subset, fid in face_entries:
        _file_face(face_map, owner, subset, fid)
    return tuple(built), face_map


def _file_face(face_map: dict, owner, subset, fid) -> None:
    """File ``owner``'s face ``fid`` along ``subset`` in ``face_map``.

    Both ids must be nonempty strings, and a subset holds one face: filing
    the same face again is harmless, another one is refused.
    """
    if not (isinstance(owner, str) and isinstance(fid, str) and owner and fid):
        raise ValueError(f"face map entry {owner!r} -> {fid!r}: stratum ids must be "
                         f"nonempty strings")
    key = (owner, frozenset(ints(subset, "face vertices must be ints, got {x!r}")))
    if face_map.setdefault(key, fid) != fid:
        raise ValueError(f"conflicting face assignments for {owner!r} along {sorted(key[1])}")


def validate_complex(c: DualComplex) -> list[Violation]:
    """All invariant violations of a complex; empty list means valid.

    The list is sorted by rule, subject and message.  A valid complex is
    proved valid from its codimension-one faces (see :func:`_find_violations`).

    Complexes are immutable, so the violations are found once per complex
    and kept on it: a caller that validates before ``check_faithful``
    validates again does no second pass.
    """
    if not isinstance(c, DualComplex):
        raise TypeError(f"validate_complex takes a DualComplex, got {type(c).__name__}")
    cached = c.__dict__.get("_complex_violations")
    if cached is None:
        cached = tuple(_find_violations(c))
        object.__setattr__(c, "_complex_violations", cached)
    return list(cached)


def _find_violations(c: DualComplex) -> list[Violation]:
    """Every violation of ``c``, each rule worded in one place.

    One pass over the strata words the vertex-range, dim-bound and
    vertex-cover rules, and one over ``c.face_map`` the face-key,
    face-dangling and face-vertex-set rules, filing each valid face under
    its owner.  :func:`_chain_violations` adds the face-missing and
    face-composition ones, unless the complex is valid so far and
    :func:`_proved_by_codimension_one` holds.
    """
    out: list[Violation] = []

    def bad(rule, subject, message):
        out.append(Violation(rule, subject, message))

    by_id = c._by_id
    covered = set()
    faces: dict[str, dict[frozenset[int], str]] = {}
    for s in c.strata:
        for v in s.vertices:
            if not 1 <= v <= c.ell:
                bad("vertex-range", s.id, f"vertex {v} outside 1..{c.ell}")
        if len(s.vertices) == 1:
            covered.add(s.vertices[0])
        if len(s.vertices) - 1 > c.dim_bound:
            bad("dim-bound", s.id,
                f"{len(s.vertices)} vertices exceed dimension bound {c.dim_bound}")
        faces[s.id] = {}
    for v in range(1, c.ell + 1):
        if v not in covered:
            bad("vertex-cover", None, f"vertex {v} has no 0-dimensional stratum")

    for (owner, subset), fid in c.face_map.items():
        own = faces.get(owner)
        if own is None or not subset or not subset < by_id[owner].vertex_set:
            bad("face-key", owner, "face map entry for unknown stratum" if own is None else
                f"{sorted(subset)} is not a nonempty proper subset "
                f"of {sorted(by_id[owner].vertex_set)}")
        elif fid not in by_id:
            bad("face-dangling", owner, f"face along {sorted(subset)} points to unknown {fid!r}")
        elif by_id[fid].vertex_set != subset:
            bad("face-vertex-set", owner,
                f"face {fid!r} along {sorted(subset)} has vertex set "
                f"{sorted(by_id[fid].vertices)}")
        else:
            own[subset] = fid

    if out or not _proved_by_codimension_one(c, faces):
        out += _chain_violations(c)
        out.sort(key=lambda v: (v.rule, v.subject or "", v.message))
    return out


def _proved_by_codimension_one(c: DualComplex, faces: dict) -> bool:
    """Whether ``faces``, the faces of ``c`` by owner, prove them complete
    and composing.  They are distinct nonempty proper subsets of their
    owner, so a stratum with r vertices misses no face exactly when it
    owns 2^r - 2 of them.  Composition is tested locally: for each stratum
    s and vertex v, the faces of s inside mid = s - {v} must be the faces
    of t = F(s, mid), r * 2^(r-1) lookups instead of the ~3^r chains.

    Lemma: the local test gives F(s, sub) = F(F(s, mid), sub) for every
    chain sub < mid < s.  By induction on the codimension of mid in s:
    codimension one is the test itself; otherwise take v in s - mid and
    t = F(s, s - {v}), which contains mid, so F(s, sub) = F(t, sub) and
    F(s, mid) = F(t, mid), and t restricts in two steps by induction.
    """
    for s in c.strata:
        own = faces[s.id]
        if len(own) != 2 ** len(s.vertices) - 2:
            return False
        if len(s.vertices) > 2:
            items = own.items()
            for v in s.vertices:
                if not faces[own[s.vertex_set - {v}]].items() <= items:
                    return False
    return True


def _chain_violations(c: DualComplex) -> list[Violation]:
    """The face-missing and face-composition violations, subset by subset
    and chain by chain; run only on a complex not proved valid."""
    out: list[Violation] = []
    for s in c.strata:
        r = len(s.vertices)
        for size in range(1, r):
            for sub in itertools.combinations(s.vertices, size):
                if (s.id, frozenset(sub)) not in c.face_map:
                    out.append(Violation("face-missing", s.id,
                                         f"no face assigned along {list(sub)}"))
        # Restricting in two steps must agree with restricting directly.
        for size_b in range(2, r):
            for mid in itertools.combinations(s.vertices, size_b):
                mid_id = c.face_map.get((s.id, frozenset(mid)))
                if mid_id is None or not c.has_stratum(mid_id):
                    continue
                for size_a in range(1, size_b):
                    for sub in itertools.combinations(mid, size_a):
                        direct = c.face_map.get((s.id, frozenset(sub)))
                        via = c.face_map.get((mid_id, frozenset(sub)))
                        if direct is not None and via is not None and direct != via:
                            out.append(Violation(
                                "face-composition", s.id,
                                f"faces along {list(sub)} disagree through {mid_id!r}"))
    return out


def connected_components(c: DualComplex) -> list[list[int]]:
    """Vertex components under stratum adjacency (reported, never required).

    Vertices outside 1..ell, which ``vertex-range`` reports, are skipped.
    """
    parent = {v: v for v in range(1, c.ell + 1)}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for pair in c.edges():
        a, b = tuple(pair)
        if a in parent and b in parent:
            parent[find(a)] = find(b)
    groups: dict[int, list[int]] = {}
    for v in range(1, c.ell + 1):
        groups.setdefault(find(v), []).append(v)
    return sorted(sorted(g) for g in groups.values())


@dataclass(frozen=True)
class SimplexPoint:
    """A point of a canonical simplex in barycentric coordinates.

    Weights are exact rationals, nonnegative, and sum to one; they follow
    the vertex order of the named stratum.
    """

    stratum: str
    u: tuple[Fraction, ...]

    def __post_init__(self):
        weights = tuple(map(fraction, self.u))
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
