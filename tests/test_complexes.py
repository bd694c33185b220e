"""Dual complex construction, validation, and simplex point operations."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeletrop import complexes
from skeletrop.complexes import (DualComplex, SimplexPoint, Violation,
                                 build_delta_complex, build_from_facets,
                                 connected_components, face_restriction,
                                 relint_membership, validate_complex)
from skeletrop.documents import generate_fixture
from test_tropicalize import _shuffled, banana_ring, random_simplicial, triangle_stack


def triangle():
    return build_from_facets(3, 1, [[1, 2], [2, 3], [1, 3]])


def composition_clash():
    # a triangle whose vertex face along [2] is a second stratum on vertex 2,
    # while its edges' faces along [2] are the first one: every face is
    # present with the right vertex set, so only face composition breaks
    strata = [("v1", [1]), ("v2", [2]), ("v2b", [2]), ("v3", [3]),
              ("e12", [1, 2]), ("e13", [1, 3]), ("e23", [2, 3]), ("t", [1, 2, 3])]
    faces = [("e12", [1], "v1"), ("e12", [2], "v2"),
             ("e13", [1], "v1"), ("e13", [3], "v3"),
             ("e23", [2], "v2"), ("e23", [3], "v3"),
             ("t", [1, 2], "e12"), ("t", [1, 3], "e13"), ("t", [2, 3], "e23"),
             ("t", [1], "v1"), ("t", [2], "v2b"), ("t", [3], "v3")]
    return build_delta_complex(3, 2, strata, faces)


def banana():
    return build_delta_complex(
        2, 1,
        [("v1", [1]), ("v2", [2]), ("e1", [1, 2]), ("e2", [1, 2])],
        [("e1", [1], "v1"), ("e1", [2], "v2"),
         ("e2", [1], "v1"), ("e2", [2], "v2")])


class TestBuildFromFacets:
    def test_single_edge(self):
        c = build_from_facets(2, 1, [[1, 2]])
        assert {s.vertices for s in c.strata} == {(1,), (2,), (1, 2)}
        assert c.is_face("1", "1-2") and c.is_face("2", "1-2")

    def test_triangle_boundary(self):
        c = triangle()
        assert len(c.strata) == 6
        assert sorted(len(s.vertices) for s in c.strata) == [1, 1, 1, 2, 2, 2]

    def test_two_overlapping_facets(self):
        # oracle: enumerate nonempty subsets of each facet and dedupe
        facets = [(1, 2, 3), (3, 4, 5)]
        subsets = set()
        for f in facets:
            for r in range(1, len(f) + 1):
                subsets.update(itertools.combinations(f, r))
        assert len(subsets) == 13  # 7 + 7 with only {3} shared
        c = build_from_facets(5, 2, [list(f) for f in facets])
        assert {s.vertices for s in c.strata} == subsets

    def test_two_facets_sharing_an_edge(self):
        # 7 + 7 subsets with 3 shared, so 11 strata
        c = build_from_facets(4, 2, [[1, 2, 3], [2, 3, 4]])
        assert len(c.strata) == 11

    def test_facet_too_large(self):
        with pytest.raises(ValueError, match="exceeds d\\+1"):
            build_from_facets(3, 1, [[1, 2, 3]])

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            build_from_facets(2, 1, [[1, 3]])

    def test_repeated_vertex(self):
        with pytest.raises(ValueError, match="repeats"):
            build_from_facets(2, 1, [[1, 1]])

    def test_empty_facet(self):
        with pytest.raises(ValueError, match="empty"):
            build_from_facets(2, 1, [[]])

    def test_face_count_is_two_to_r_minus_two(self):
        c = build_from_facets(4, 3, [[1, 2, 3, 4]])
        for s in c.strata:
            faces = c.faces_of(s)
            assert len(faces) == 2 ** len(s.vertices) - 2


class TestValidation:
    def test_clean_complex(self):
        assert validate_complex(triangle()) == []

    def test_missing_face_is_reported(self):
        c = triangle()
        face_map = dict(c.face_map)
        del face_map[("1-2", frozenset({1}))]
        broken = DualComplex(c.ell, c.dim_bound, c.strata, face_map)
        problems = validate_complex(broken)
        assert any(v.rule == "face-missing" and v.subject == "1-2" for v in problems)

    def test_delta_complex_with_repeated_vertex_set_is_legal(self):
        assert validate_complex(banana()) == []

    def test_uncovered_vertex(self):
        c = build_from_facets(3, 1, [[1, 2]])
        problems = validate_complex(c)
        assert any(v.rule == "vertex-cover" and "vertex 3" in v.message
                   for v in problems)

    def test_dimension_bound(self):
        c = build_delta_complex(2, 0, [("v1", [1]), ("v2", [2]), ("e", [1, 2])],
                                [("e", [1], "v1"), ("e", [2], "v2")])
        problems = validate_complex(c)
        assert any(v.rule == "dim-bound" and v.subject == "e" for v in problems)

    def test_face_vertex_set_mismatch(self):
        c = build_delta_complex(2, 1, [("v1", [1]), ("v2", [2]), ("e", [1, 2])],
                                [("e", [1], "v2"), ("e", [2], "v2")])
        problems = validate_complex(c)
        assert any(v.rule == "face-vertex-set" for v in problems)

    def test_face_composition(self):
        problems = validate_complex(composition_clash())
        assert problems and {v.rule for v in problems} == {"face-composition"}

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_delta_complex(1, 0, [("v", [1]), ("v", [1])], [])

    def test_face_map_entry_for_unknown_stratum(self):
        c = triangle()
        face_map = dict(c.face_map)
        face_map[("ghost", frozenset({1}))] = "1"
        broken = DualComplex(c.ell, c.dim_bound, c.strata, face_map)
        problems = validate_complex(broken)
        assert problems == [Violation("face-key", "ghost", "face map entry for unknown stratum")]
        assert problems == ref_find_violations(broken)

    def test_conflicting_face_assignments_rejected(self):
        strata = [("v1", [1]), ("v2", [2]), ("e", [1, 2])]
        # Repeating an assignment is harmless; changing it is refused.
        c = build_delta_complex(2, 1, strata, [("e", [1], "v1"), ("e", [2], "v2"),
                                               ("e", [1], "v1")])
        assert validate_complex(c) == []
        with pytest.raises(ValueError, match=r"^conflicting face assignments for 'e' along \[1\]$"):
            build_delta_complex(2, 1, strata, [("e", [1], "v1"), ("e", [2], "v2"),
                                               ("e", [1], "v2")])

    def test_int_stratum_id_is_refused(self):
        # Ids are taken as given: the int 1 is not the stratum "1".
        with pytest.raises(ValueError, match="^stratum id must be a nonempty string$"):
            build_delta_complex(1, 0, [(1, [1])], [])

    def test_stratum_tuple_must_be_a_pair(self):
        # An id and a vertex list, nothing more: a third item is refused,
        # not dropped.
        with pytest.raises(ValueError, match="too many values to unpack"):
            build_delta_complex(1, 0, [("v", [1], "extra")], [])

    @pytest.mark.parametrize("entry", [("e", [1], None), ("e", [1], 1), (1, [1], "v1"),
                                       ("e", [1], "")])
    def test_face_entry_ids_must_be_nonempty_strings(self, entry):
        # A face pointing at None would otherwise name a stratum "None".
        strata = [("v1", [1]), ("v2", [2]), ("None", [1]), ("e", [1, 2])]
        with pytest.raises(ValueError, match="stratum ids must be nonempty strings$"):
            build_delta_complex(2, 1, strata, [entry, ("e", [2], "v2")])


def ref_find_violations(c: DualComplex) -> list[Violation]:
    """Reference: the exhaustive pass over every entry and every chain
    sub < mid < s, as ``validate_complex`` ran it before composition was
    proved from codimension-one faces."""
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


def twin_vertex(rng, c, edge=None):
    """``c`` plus a second 0-dimensional stratum on a vertex ``a`` of an edge
    ``(a, b)`` (drawn unless given) and a parallel edge whose face at ``a``
    is that twin: the two edges share a vertex set but not their faces."""
    edge = edge or rng.choice([s for s in c.strata if len(s.vertices) == 2])
    a, b = edge.vertices
    twin, parallel = f"v{a}'", f"{edge.id}'"
    strata = list(c.strata) + [(twin, (a,)), (parallel, _shuffled(rng, (a, b)))]
    faces = [(owner, subset, fid) for (owner, subset), fid in c.face_map.items()]
    faces += [(parallel, [a], twin), (parallel, [b], c.face_map[(edge.id, frozenset([b]))])]
    return build_delta_complex(c.ell, c.dim_bound, strata, faces)


def mutated(rng, c, count):
    """``c`` after ``count`` random edits of its face map, or of ``ell`` and
    the dimension bound."""
    ell, dim_bound, face_map = c.ell, c.dim_bound, dict(c.face_map)
    ids = [s.id for s in c.strata]
    for _ in range(count):
        keys = list(face_map)
        # Keys along a vertex set that another stratum shares.
        twinned = [k for k in keys if any(s.vertex_set == k[1] and s.id != face_map[k]
                                          for s in c.strata)]
        op = rng.choice(("delete", "reassign", "same-set", "outside", "unknown", "frame"))
        if op == "frame":
            ell, dim_bound = rng.choice(((ell + 1, dim_bound), (max(ell - 1, 1), dim_bound),
                                         (ell, max(dim_bound - 1, 0))))
        elif op == "outside" or not keys:
            owner = rng.choice(c.strata)
            subset = frozenset(rng.sample(range(0, c.ell + 2), rng.randint(1, 3)))
            if subset < owner.vertex_set:
                subset |= {c.ell + 1}
            face_map[(owner.id, subset)] = rng.choice(ids)
        elif op == "same-set" and twinned:
            # Another stratum on the same vertex set: when only the faces of
            # the two differ, face-composition is the one rule broken.
            key = rng.choice(twinned)
            face_map[key] = rng.choice([s.id for s in c.strata
                                        if s.vertex_set == key[1] and s.id != face_map[key]])
        elif op == "delete":
            del face_map[rng.choice(keys)]
        elif op in ("reassign", "same-set"):
            face_map[rng.choice(keys)] = rng.choice(ids)
        else:
            face_map[rng.choice(keys)] = "nowhere"
    return DualComplex(ell, dim_bound, c.strata, face_map)


class TestCodimensionOneProof:
    """``validate_complex`` against the exhaustive pass it replaced."""

    @pytest.fixture
    def chain_calls(self, monkeypatch):
        calls = []

        def counted(c):
            calls.append(c)
            return chains(c)

        chains = complexes._chain_violations
        monkeypatch.setattr(complexes, "_chain_violations", counted)
        return calls

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_exhaustive_reference(self, data):
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        make = data.draw(st.sampled_from((random_simplicial, banana_ring, triangle_stack)))
        c = make(rng)
        if make is not random_simplicial and data.draw(st.booleans()):
            c = twin_vertex(rng, c)
        if data.draw(st.booleans()):
            c = mutated(rng, c, data.draw(st.integers(1, 3)))
        assert validate_complex(c) == ref_find_violations(c)

    def test_same_set_reassignment_breaks_composition_alone(self, chain_calls):
        # Every other rule holds, so the local test is what finds the clash.
        rng = random.Random(3)
        stack = triangle_stack(rng, k=2, ell=4)
        c = twin_vertex(rng, stack, stack.stratum("e12"))
        assert validate_complex(c) == []
        face_map = dict(c.face_map)
        face_map[("t0", frozenset({1, 2}))] = "e12'"
        clash = DualComplex(c.ell, c.dim_bound, c.strata, face_map)
        problems = validate_complex(clash)
        assert chain_calls == [clash]
        assert problems == ref_find_violations(clash)
        assert problems and {v.rule for v in problems} == {"face-composition"}

    @pytest.mark.parametrize("make", [
        lambda: generate_fixture("simplex_boundary", dim=6).complex,
        lambda: generate_fixture("cycle", n=100).complex,
        lambda: banana_ring(random.Random(5)),
    ], ids=["simplex_boundary-6", "cycle-100", "banana-ring"])
    def test_valid_complexes_skip_the_exhaustive_pass(self, monkeypatch, make):
        def refuse(c):
            raise AssertionError("the chain enumeration ran on a valid complex")

        monkeypatch.setattr(complexes, "_chain_violations", refuse)
        assert validate_complex(make()) == []

    def test_composition_clash_takes_the_exhaustive_pass(self, chain_calls):
        c = composition_clash()
        problems = validate_complex(c)
        assert chain_calls == [c]
        assert problems == ref_find_violations(c)
        assert problems and {v.rule for v in problems} == {"face-composition"}


class TestConnectivity:
    def test_connected(self):
        assert connected_components(triangle()) == [[1, 2, 3]]

    def test_disconnected(self):
        c = build_from_facets(4, 1, [[1, 2], [3, 4]])
        assert connected_components(c) == [[1, 2], [3, 4]]

    def test_vertex_out_of_range_is_skipped(self):
        c = build_delta_complex(2, 1, [("v1", [1]), ("v2", [2]), ("e", [1, 3])], [])
        assert any(v.rule == "vertex-range" for v in validate_complex(c))
        assert connected_components(c) == [[1], [2]]


class TestSimplexPoints:
    def test_validation(self):
        SimplexPoint("s", (Fraction(1, 2), Fraction(1, 2)))
        with pytest.raises(ValueError):
            SimplexPoint("s", (Fraction(1, 2), Fraction(1, 4)))
        with pytest.raises(ValueError):
            SimplexPoint("s", (Fraction(3, 2), Fraction(-1, 2)))
        with pytest.raises(TypeError):
            SimplexPoint("s", (0.5, 0.5))

    def test_relint_membership(self):
        assert relint_membership(SimplexPoint("s", (Fraction(1, 2), Fraction(1, 2))))
        assert not relint_membership(SimplexPoint("s", (1, 0)))
        assert relint_membership(
            SimplexPoint("s", (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))))

    def test_face_restriction_projects_coordinates(self):
        c = build_from_facets(3, 2, [[1, 2, 3]])
        p = SimplexPoint("1-2-3", (Fraction(1, 2), Fraction(1, 2), 0))
        q = face_restriction(c, p, "1-2")
        assert q.stratum == "1-2" and q.u == (Fraction(1, 2), Fraction(1, 2))

    def test_face_restriction_to_vertex(self):
        c = build_from_facets(2, 1, [[1, 2]])
        q = face_restriction(c, SimplexPoint("1-2", (1, 0)), "1")
        assert q.stratum == "1" and q.u == (Fraction(1),)

    def test_face_restriction_rejects_interior_point(self):
        c = build_from_facets(3, 2, [[1, 2, 3]])
        p = SimplexPoint("1-2-3", (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
        with pytest.raises(ValueError, match="nonzero outside"):
            face_restriction(c, p, "1-2")

    def test_face_restriction_commutes(self):
        c = build_from_facets(4, 3, [[1, 2, 3, 4]])
        p = SimplexPoint("1-2-3-4", (Fraction(2, 5), Fraction(3, 5), 0, 0))
        direct = face_restriction(c, p, "1-2")
        via = face_restriction(c, face_restriction(c, p, "1-2-3"), "1-2")
        assert direct == via

    def test_support_face_is_relint_home(self):
        # Every point restricts to the face spanned by its positive weights,
        # where it is a relative-interior point: the skeleton decomposes as
        # the disjoint union of open simplices.
        c = build_from_facets(4, 3, [[1, 2, 3, 4]])
        s = c.stratum("1-2-3-4")
        weights = (0, Fraction(1, 4), 0, Fraction(3, 4))
        support = tuple(v for v, w in zip(s.vertices, weights) if w > 0)
        home = "-".join(map(str, support))
        q = face_restriction(c, SimplexPoint(s.id, weights), home)
        assert relint_membership(q)

    def test_restriction_needs_actual_face(self):
        c = banana()
        p = SimplexPoint("e1", (Fraction(1, 2), Fraction(1, 2)))
        with pytest.raises(ValueError):
            face_restriction(c, p, "e2")

    def test_restriction_respects_face_vertex_order(self):
        # Delta mode may declare a face whose own vertex order differs from
        # the ambient order; weights follow the face's order.
        c = build_delta_complex(
            3, 2,
            [("v1", [1]), ("v2", [2]), ("v3", [3]), ("e31", [3, 1]),
             ("e12", [1, 2]), ("e23", [2, 3]), ("t", [1, 2, 3])],
            [("e31", [3], "v3"), ("e31", [1], "v1"),
             ("e12", [1], "v1"), ("e12", [2], "v2"),
             ("e23", [2], "v2"), ("e23", [3], "v3"),
             ("t", [1], "v1"), ("t", [2], "v2"), ("t", [3], "v3"),
             ("t", [1, 2], "e12"), ("t", [2, 3], "e23"), ("t", [1, 3], "e31")])
        assert validate_complex(c) == []
        p = SimplexPoint("t", (Fraction(1, 4), 0, Fraction(3, 4)))
        q = face_restriction(c, p, "e31")
        assert q.stratum == "e31"
        assert q.u == (Fraction(3, 4), Fraction(1, 4))  # (weight at 3, weight at 1)
