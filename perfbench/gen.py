"""Deterministic inputs for the skeletrop benchmark.

Every generator takes the workload seed and returns plain data; nothing
here imports skeletrop, so the inputs do not change when the program does.
Documents are written in the program's canonical input form (sorted keys,
two-space indent, trailing newline), so the certificate's input digest is
the SHA-256 of the document bytes.

The amount of work per workload is fixed: the seed chooses order-matrix
entries, vertex orders, exponents and weights, never the number or size
of the complexes, so run-to-run spread reflects the program, not the draw.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction

SCHEMA_VERSION = 1

# Shapes of the fixed-size workloads.
SCALE_CYCLE_N = 100
SCALE_SIMPLEX_DIM = 6
# Many small Delta documents rather than a few large ones, so that per-document
# percentiles have samples to spare and each pass averages over many order
# matrices; ell <= 8 keeps one LP in the tens of milliseconds.
DELTA_RINGS = ((8, 3),) * 2 + ((6, 4),) * 3      # (n vertices, k parallel edges)
DELTA_STACKS = ((6, 5),) * 4 + ((5, 6),) * 4     # (k triangles, ell)
VALUATION_SUPPORTS = 200
VALUATION_POINTS = 20
AFFINE_COMPLEXES = 20
AFFINE_GROUPS_PER_COMPLEX = 10
AFFINE_POINTS_PER_GROUP = 100


@dataclass(frozen=True)
class Doc:
    """One input document plus what an independent oracle expects of it.

    ``collide`` lists the unordered stratum pairs whose images must meet
    (the strata sharing a vertex set); every other pair must be disjoint.
    ``vertices`` and ``orders`` let the oracle rebuild every piece without
    the program.
    """

    name: str
    text: str
    ell: int
    vertices: dict[str, tuple[int, ...]]
    faces: frozenset[tuple[str, str]]
    orders: tuple[tuple[int, ...], ...]
    collide: frozenset[frozenset[str]]

    @property
    def expect_overall(self) -> str:
        return "not_faithful" if self.collide else "faithful"

    @property
    def expect_exit(self) -> int:
        return 2 if self.collide else 0


def doc_text(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def random_valid_orders(rng: random.Random, ell: int,
                        vertex_sets) -> tuple[tuple[int, ...], ...]:
    """Order matrix obeying the axioms: row 0 zero, 0 on the diagonal,
    1 between components that meet, a random 1..5 elsewhere."""
    adjacent = set()
    for verts in vertex_sets:
        adjacent.update(itertools.permutations(verts, 2))
    rows = [(0,) * ell]
    for i in range(1, ell + 1):
        rows.append(tuple(0 if i == j else 1 if (i, j) in adjacent else rng.randint(1, 5)
                          for j in range(1, ell + 1)))
    return tuple(rows)


def canonical_orders(ell: int) -> tuple[tuple[int, ...], ...]:
    return ((0,) * ell,) + tuple(tuple(0 if i == j else 1 for j in range(1, ell + 1))
                                 for i in range(1, ell + 1))


def _orders_spec(orders) -> dict:
    return {"orders": [list(r) for r in orders],
            "horizontal_effective": [True] * len(orders)}


def simplicial_doc(name: str, ell: int, d: int, facets, orders=None) -> Doc:
    """Face-closed simplicial complex; ``orders=None`` leaves the canonical
    matrix implicit, as documents without an ``order_matrix`` do."""
    facets = [list(f) for f in facets]
    data = {"schema_version": SCHEMA_VERSION,
            "complex": {"ell": ell, "d": d, "mode": "simplicial", "facets": facets}}
    if orders is not None:
        data["order_matrix"] = _orders_spec(orders)
    vertices = {}
    for f in facets:
        top = tuple(sorted(f))
        for r in range(1, len(top) + 1):
            for sub in itertools.combinations(top, r):
                vertices["-".join(map(str, sub))] = sub
    faces = frozenset((a, b) for a, va in vertices.items() for b, vb in vertices.items()
                      if len(vb) < len(va) and set(vb) < set(va))
    return Doc(name, doc_text(data), ell, vertices, faces,
               orders if orders is not None else canonical_orders(ell), frozenset())


def delta_doc(name: str, ell: int, d: int, strata, rng: random.Random) -> Doc:
    """Delta complex from (id, ordered vertices) strata.

    Each vertex set appears once among the vertex and edge strata; only
    top strata repeat one, so every face is found by its vertex set.
    """
    by_set: dict[frozenset, list[str]] = {}
    for sid, verts in strata:
        by_set.setdefault(frozenset(verts), []).append(sid)
    face_map = []
    faces = set()
    for sid, verts in strata:
        for r in range(1, len(verts)):
            for sub in itertools.combinations(sorted(verts), r):
                (fid,) = by_set[frozenset(sub)]
                face_map.append({"stratum": sid, "subset": list(sub), "face": fid})
                faces.add((sid, fid))
    orders = random_valid_orders(rng, ell, [v for _, v in strata])
    data = {"schema_version": SCHEMA_VERSION,
            "complex": {"ell": ell, "d": d, "mode": "delta",
                        "strata": [{"id": sid, "vertices": list(v)} for sid, v in strata],
                        "face_map": face_map},
            "order_matrix": _orders_spec(orders)}
    collide = frozenset(frozenset(p) for group in by_set.values()
                        for p in itertools.combinations(group, 2))
    return Doc(name, doc_text(data), ell, {sid: tuple(v) for sid, v in strata},
               frozenset(faces), orders, collide)


def banana_ring(n: int, k: int, rng: random.Random) -> Doc:
    """n components in a ring, each neighbouring pair meeting in k points."""
    strata = [(f"v{i}", (i,)) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        pair = [i, i % n + 1]
        for p in range(1, k + 1):
            rng.shuffle(pair)
            strata.append((f"e{i}.{p}", tuple(pair)))
    return delta_doc(f"ring-{n}x{k}", n, 1, strata, rng)


def triangle_stack(k: int, ell: int, rng: random.Random) -> Doc:
    """k triangles glued along the same three edges, plus isolated vertices."""
    strata = [(f"v{i}", (i,)) for i in range(1, ell + 1)]
    strata += [("e12", (1, 2)), ("e13", (1, 3)), ("e23", (2, 3))]
    for p in range(1, k + 1):
        tri = [1, 2, 3]
        rng.shuffle(tri)
        strata.append((f"t{p}", tuple(tri)))
    return delta_doc(f"stack-{k}x{ell}", ell, 2, strata, rng)


def random_facets(ell: int, dim: int, seed: int) -> list[list[int]]:
    """The acceptance battery's random complex for (ell, dim, seed): up to
    four random facets, padded with singletons so every vertex appears."""
    rng = random.Random(seed)
    facets = []
    for _ in range(rng.randint(1, min(4, ell))):
        size = rng.randint(1, min(dim + 1, ell))
        facets.append(sorted(rng.sample(range(1, ell + 1), size)))
    covered = {v for f in facets for v in f}
    facets += [[v] for v in range(1, ell + 1) if v not in covered]
    unique = []
    for f in facets:
        if f not in unique:
            unique.append(f)
    return unique


def battery_shapes() -> list[tuple[str, int, int, list[list[int]]]]:
    """(name, ell, d, facets) of the 217 acceptance-battery complexes."""
    shapes = []
    for k in range(200):
        ell, dim = 2 + k % 5, 1 + k % 3
        shapes.append((f"random-{k}", ell, dim, random_facets(ell, dim, k)))
    for n in range(3, 9):
        shapes.append((f"cycle-{n}", n, 1, [[i, i + 1] for i in range(1, n)] + [[1, n]]))
    for n in range(2, 9):
        shapes.append((f"path-{n}", n, 1, [[i, i + 1] for i in range(1, n)]))
    for k in range(1, 5):
        verts = list(range(1, k + 2))
        shapes.append((f"simplex-boundary-{k}", k + 1, max(k - 1, 0),
                       [sorted(set(verts) - {v}) for v in reversed(verts)]))
    return shapes


def battery_docs(seed: int) -> list[Doc]:
    """The acceptance battery; every other document carries random orders."""
    rng = random.Random(seed)
    docs = []
    for idx, (name, ell, d, facets) in enumerate(battery_shapes()):
        orders = random_valid_orders(rng, ell, facets) if idx % 2 == 0 else None
        docs.append(simplicial_doc(name, ell, d, facets, orders))
    return docs


def scale_docs(seed: int) -> list[Doc]:
    rng = random.Random(seed)
    n = SCALE_CYCLE_N
    cycle = [[i, i + 1] for i in range(1, n)] + [[1, n]]
    dim = SCALE_SIMPLEX_DIM
    verts = list(range(1, dim + 2))
    boundary = [sorted(set(verts) - {v}) for v in reversed(verts)]
    return [simplicial_doc(f"cycle-{n}", n, 1, cycle, random_valid_orders(rng, n, cycle)),
            simplicial_doc(f"simplex-boundary-{dim}", dim + 1, dim - 1, boundary,
                           random_valid_orders(rng, dim + 1, boundary))]


def delta_docs(seed: int) -> list[Doc]:
    rng = random.Random(seed)
    docs = ([banana_ring(n, k, rng) for n, k in DELTA_RINGS]
            + [triangle_stack(k, ell, rng) for k, ell in DELTA_STACKS])
    return [replace(d, name=f"{k:02d}-{d.name}") for k, d in enumerate(docs)]


def random_weights(rng: random.Random, arity: int, max_denominator: int) -> tuple[Fraction, ...]:
    """Random point of the closed standard simplex with a bounded denominator."""
    denom = rng.randint(1, max_denominator)
    cuts = sorted(rng.randint(0, denom) for _ in range(arity - 1))
    return tuple(Fraction(b - a, denom) for a, b in zip([0] + cuts, cuts + [denom]))


@dataclass(frozen=True)
class MinPlusItem:
    exponents: tuple[tuple[int, ...], ...]
    points: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class AffineItem:
    """Points on strata of one complex: (section i, stratum vertices, weights)."""

    orders: tuple[tuple[int, ...], ...]
    points: tuple[tuple[int, tuple[int, ...], tuple[Fraction, ...]], ...]


def valuation_items(seed: int) -> list:
    """Min-plus supports shaped like c06 (arity 1-6, 1-100 terms, exponents
    0-7, 20 points each) and affine groups shaped like c04 (100 random
    points on random strata of one battery complex).  Arity and term
    counts follow a fixed schedule; only the draws depend on the seed."""
    rng = random.Random(seed)
    items: list = []
    for k in range(VALUATION_SUPPORTS):
        arity, terms = 1 + k % 6, 1 + (k * 37) % 100
        exps = tuple(tuple(rng.randint(0, 7) for _ in range(arity)) for _ in range(terms))
        pts = tuple(random_weights(rng, arity, 30) for _ in range(VALUATION_POINTS))
        items.append(MinPlusItem(exps, pts))
    shapes = battery_shapes()[:AFFINE_COMPLEXES]
    for _, ell, _, facets in shapes:
        orders = random_valid_orders(rng, ell, facets)
        strata = sorted({sub for f in facets for r in range(1, len(f) + 1)
                         for sub in itertools.combinations(sorted(f), r)})
        for _ in range(AFFINE_GROUPS_PER_COMPLEX):
            pts = []
            for _ in range(AFFINE_POINTS_PER_GROUP):
                verts = strata[rng.randrange(len(strata))]
                pts.append((rng.randint(1, ell), verts, random_weights(rng, len(verts), 60)))
            items.append(AffineItem(orders, tuple(pts)))
    return items


def workload_docs(workload: str, seed: int) -> list[Doc]:
    return {"battery": battery_docs, "scale": scale_docs, "delta": delta_docs}[workload](seed)
