"""Piecewise map assembly, unimodularity, separation, and faithfulness."""

import dataclasses
import gc
import hashlib
import itertools
import json
import random
import re
from fractions import Fraction
from operator import or_
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeletrop import lattice, tropicalize
from skeletrop.complexes import (DualComplex, SimplexPoint, Stratum, build_delta_complex,
                                 build_from_facets)
from skeletrop.documents import emit_certificate, generate_fixture, input_digest, parse_input
from skeletrop.lattice import IntMatrix, relint_intersection_nonempty, simplex_image_polyhedron
from skeletrop.sections import OrderMatrix, canonical_order_matrix
from skeletrop.tropical import trop_eq
from skeletrop.tropicalize import (MODES, ExactVerdict, FaceDischarge, FaithfulnessReport,
                                   PairEvidence, PairRow, PiecewiseAffineMap,
                                   SeparationCertificate, UnimodularityCertificate,
                                   _IntervalRule, _selector_inverts,
                                   build_map, check_faithful, check_unimodular,
                                   images_relint_disjoint_exact, piece_injective,
                                   separation_certificate)


def one_record_rows(pairs):
    """Rows that hold each ``PairEvidence`` record as a row of its own."""
    return tuple(PairRow(e.left, (e.right,), tuple(e[2:]), ()) for e in pairs)


def cycle(n):
    return generate_fixture("cycle", n=n).complex


def canonical_map(c):
    return build_map(c, canonical_order_matrix(c))


def barycentric_grid(arity, max_denominator):
    """All simplex points with denominator up to the given bound."""
    points = set()
    for q in range(1, max_denominator + 1):
        for cuts in itertools.combinations_with_replacement(range(q + 1), arity - 1):
            parts = [b - a for a, b in zip((0,) + cuts, cuts + (q,))]
            points.add(tuple(Fraction(p, q) for p in parts))
    return sorted(points)


class TestBuildMap:
    def test_three_cycle_edge_piece(self):
        f = canonical_map(cycle(3))
        assert f.vertex_images("1-2") == ((0, 1, 1), (1, 0, 1))

    def test_vertex_images_follow_orders(self):
        c = cycle(3)
        m = canonical_order_matrix(c)
        f = build_map(c, m)
        for i in range(1, 4):
            img = f.vertex_image(str(i), 0)
            assert img == tuple(m.order(k, i) for k in range(1, 4))
            # restricted to its own coordinate the image is 1 - e_i
            assert img[i - 1] == 0

    def test_single_component_constant_map(self):
        c = build_from_facets(1, 1, [[1]])
        f = canonical_map(c)
        assert f.pieces == {"1": ((0,),)}
        assert f.apply(SimplexPoint("1", (1,))) == (0,)

    def test_pieces_agree_on_faces(self):
        c = generate_fixture("simplex_boundary", dim=3).complex
        f = canonical_map(c)
        for s in c.strata:
            slot = {v: k for k, v in enumerate(s.vertices)}
            for subset, fid in c.faces_of(s).items():
                face = c.stratum(fid)
                for a, v in enumerate(face.vertices):
                    assert f.vertex_image(face, a) == f.vertex_image(s, slot[v])

    @pytest.mark.parametrize("slot", [-1, 2])
    def test_vertex_image_slot_out_of_range_raises(self, slot):
        # A negative slot would otherwise read from the end of the stratum.
        f = canonical_map(cycle(3))
        with pytest.raises(ValueError, match=rf"^slot index {slot} out of range 0\.\.1$"):
            f.vertex_image("1-2", slot)

    def test_validation_failures_propagate(self):
        bad_complex = build_from_facets(3, 1, [[1, 2]])  # vertex 3 uncovered
        with pytest.raises(ValueError, match="invalid complex"):
            build_map(bad_complex, canonical_order_matrix(bad_complex))
        c = cycle(3)
        doubled = OrderMatrix(((0, 0, 0), (0, 2, 2), (2, 0, 2), (2, 2, 0)),
                              (True,) * 4)
        with pytest.raises(ValueError, match="invalid order matrix"):
            build_map(c, doubled)

    @pytest.mark.parametrize("vertex", [0, 4])
    def test_unchecked_vertex_out_of_range_raises(self, vertex):
        # Without validation a vertex 0 would otherwise read the last column.
        c = DualComplex(3, 1, (Stratum("bad", (vertex,)),), {})
        m = canonical_order_matrix(cycle(3))
        with pytest.raises(ValueError, match="out of range 1..3"):
            build_map(c, m, check=False)

    def test_pieces_are_the_order_columns(self):
        c = build_from_facets(4, 2, [[1, 2, 3], [3, 4]])
        m = OrderMatrix(((0, 0, 0, 0), (0, 1, 1, 2), (1, 0, 1, 3),
                         (1, 1, 0, 1), (5, 4, 1, 0)), (True,) * 5)
        f = build_map(c, m)
        for s in c.strata:
            assert f.piece(s) == tuple(tuple(m.order(i, v) for v in s.vertices)
                                       for i in range(1, 5))
            assert all(type(x) is int for row in f.piece(s) for x in row)

    def test_one_image_per_vertex_and_no_stored_piece(self):
        c = build_from_facets(4, 2, [[1, 2, 3], [3, 4]])
        m = OrderMatrix(((0, 0, 0, 0), (0, 1, 1, 2), (1, 0, 1, 3),
                         (1, 1, 0, 1), (5, 4, 1, 0)), (True,) * 5)
        f = build_map(c, m)
        assert f.images == {v: tuple(m.order(i, v) for i in range(1, 5)) for v in range(1, 5)}
        assert [field.name for field in dataclasses.fields(f)] == ["complex", "n", "images"]
        # Each read computes the pieces afresh.
        assert f.pieces == f.pieces and f.pieces is not f.pieces

    def test_from_pieces_reads_the_images_back(self):
        for c in (generate_fixture("simplex_boundary", dim=3).complex, cycle(2)):
            f = canonical_map(c)
            g = PiecewiseAffineMap.from_pieces(c, f.n, f.pieces)
            assert g.images == f.images and g.pieces == f.pieces

    @pytest.mark.parametrize("piece", [((0, 1),), ((0, 1), (1,)), ((0, 1), (1, 0), (1, 1))])
    def test_from_pieces_refuses_a_piece_of_the_wrong_shape(self, piece):
        c = build_from_facets(2, 1, [[1, 2]])
        with pytest.raises(ValueError, match="piece of stratum 1-2 is not 2 x 2"):
            PiecewiseAffineMap.from_pieces(c, 2, {"1-2": piece})

    def test_pieces_keyed_by_stratum_are_refused_with_a_pointer(self):
        # The pieces of the canonical map, passed where images belong: their
        # keys are stratum ids, not vertex labels.
        c = build_from_facets(2, 1, [[1, 2]])
        pieces = {"1": ((0,), (1,)), "2": ((1,), (0,)), "1-2": ((0, 1), (1, 0))}
        with pytest.raises(ValueError, match=r"keyed by vertex label, got key '1'.*"
                                             r"PiecewiseAffineMap\.from_pieces"):
            PiecewiseAffineMap(c, 2, pieces)
        f = PiecewiseAffineMap.from_pieces(c, 2, pieces)
        assert check_unimodular(f, "1-2").verdict
        # A map with no images is still a map.
        assert PiecewiseAffineMap(c, 3, {}).images == {}

    @pytest.mark.parametrize("bad", [0.5, 1.0, True, False], ids=repr)
    def test_image_entries_are_checked_where_they_enter(self, bad):
        c = build_from_facets(2, 1, [[1, 2]])
        with pytest.raises(TypeError, match=f"image entries must be ints, got {bad!r}"):
            PiecewiseAffineMap(c, 2, {1: (0, 1), 2: (bad, 0)})
        with pytest.raises(TypeError, match=f"image entries must be ints, got {bad!r}"):
            PiecewiseAffineMap.from_pieces(c, 2, {"1-2": ((0, bad), (1, 0))})
        with pytest.raises(ValueError, match="image of vertex 2 has 1 entries, not 2"):
            PiecewiseAffineMap(c, 2, {1: (0, 1), 2: (1,)})
        # Images given as lists are kept as the tuples that were checked.
        assert PiecewiseAffineMap(c, 2, {1: [0, 1], 2: [1, 0]}).images == {1: (0, 1), 2: (1, 0)}

    def test_edge_matrices_are_not_checked_again(self, monkeypatch):
        # The entries were checked once, as order-matrix rows or as images;
        # the edge matrices built from their differences check nothing.
        for doc in (generate_fixture("cycle", n=5), generate_fixture("simplex_boundary", dim=3)):
            c = doc.complex
            f = canonical_map(c)
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(lattice, "ints", lambda *args: calls.append(args))
                certs = [check_unimodular(f, s) for s in c.strata]
            assert calls == []
            assert all(cert.verdict for cert in certs)
            assert [cert.edge_matrix for cert in certs] == [
                IntMatrix.from_rows(f.edge_vectors(s), cols=f.n) for s in c.strata]


class TestUnimodularity:
    def test_canonical_pieces_are_unimodular(self):
        for doc in (generate_fixture("cycle", n=5),
                    generate_fixture("simplex_boundary", dim=3),
                    generate_fixture("random", ell=6, dim=3, seed=3)):
            c = doc.complex
            f = canonical_map(c)
            for s in c.strata:
                cert = check_unimodular(f, s)
                assert cert.verdict
                assert all(x == 1 for x in cert.elementary_divisors)

    def test_doubled_orders_fail(self):
        c = build_from_facets(2, 1, [[1, 2]])
        doubled = OrderMatrix(((0, 0), (0, 2), (2, 0)), (True,) * 3)
        f = build_map(c, doubled, check=False)
        cert = check_unimodular(f, "1-2")
        assert cert.elementary_divisors == (2,)
        assert not cert.verdict

    def test_vertex_stratum_vacuous(self):
        f = canonical_map(cycle(3))
        cert = check_unimodular(f, "1")
        assert cert.verdict and cert.elementary_divisors == ()
        assert cert.edge_matrix.rows == 0

    def test_degenerate_piece_has_no_elementary_divisors(self):
        # All-zero orders flatten the triangle: its Smith diagonal is (0, 0),
        # and the certificate keeps only the nonzero entries.
        c = build_from_facets(3, 2, [[1, 2, 3]])
        f = build_map(c, OrderMatrix(((0, 0, 0),) * 4, (True,) * 4), check=False)
        cert = check_unimodular(f, "1-2-3")
        assert lattice._smith_diagonal(cert.edge_matrix) == (0, 0)
        assert cert.elementary_divisors == () == lattice.elementary_divisors(cert.edge_matrix)
        assert not cert.verdict and not smith_injective(cert)

    def test_unimodular_implies_injective_on_rational_points(self):
        # exhaustive over barycentric points with denominators up to 8
        c = generate_fixture("simplex_boundary", dim=3).complex
        f = canonical_map(c)
        for s in c.strata:
            assert check_unimodular(f, s).verdict
            grid = barycentric_grid(len(s.vertices), 8)
            images = {f.apply(SimplexPoint(s.id, u)) for u in grid}
            assert len(images) == len(grid)


class TestSeparation:
    def test_edge_vs_edge(self):
        c = cycle(3)
        f = canonical_map(c)
        m = canonical_order_matrix(c)
        assert separation_certificate(f, m, "1-2", "2-3") == 1

    def test_edge_vs_vertex(self):
        c = cycle(3)
        f = canonical_map(c)
        m = canonical_order_matrix(c)
        assert separation_certificate(f, m, "1-2", "3") in (1, 2)

    def test_banana_has_no_separating_vertex(self):
        c = cycle(2)
        f = canonical_map(c)
        m = canonical_order_matrix(c)
        assert separation_certificate(f, m, "e1", "e2") is None

    def test_preconditions(self):
        c = cycle(3)
        f = canonical_map(c)
        m = canonical_order_matrix(c)
        with pytest.raises(ValueError):
            separation_certificate(f, m, "1-2", "1-2")
        with pytest.raises(ValueError):
            separation_certificate(f, m, "1", "1-2")

    def test_unflagged_row_is_skipped(self):
        c = cycle(3)
        m = canonical_order_matrix(c)
        unflagged = OrderMatrix(m.orders, (True, False, True, True))
        f = build_map(c, unflagged)
        assert separation_certificate(f, unflagged, "1-2", "2-3") is None
        # swapping orientation still works through vertex 3
        assert separation_certificate(f, unflagged, "2-3", "1-2") == 3

    def test_matrix_for_another_size_raises(self):
        c = cycle(4)
        f = canonical_map(c)
        with pytest.raises(ValueError, match="order matrix size does not match"):
            separation_certificate(f, canonical_order_matrix(cycle(5)), "1-2", "3-4")
        with pytest.raises(ValueError, match="order matrix size does not match"):
            separation_certificate(f, canonical_order_matrix(cycle(3)), "1-2", "3-4")

    def test_vertex_out_of_range_raises(self):
        # A map over cycle(4) that claims three components: vertex 4 has no row.
        c = cycle(4)
        f = PiecewiseAffineMap(c, 3, {})
        m = canonical_order_matrix(cycle(3))
        with pytest.raises(ValueError, match="component index 4 out of range 1..3"):
            separation_certificate(f, m, "1-2", "3-4")
        with pytest.raises(ValueError, match="component index 4 out of range 1..3"):
            separation_certificate(f, m, "3-4", "1-2")

    # Each entry breaks one condition of the rule for row j of the interior
    # "1-2" against "3-4" on cycle(4), where both 1 and 2 are candidates.
    BROKEN = {
        "own vertex not 0": lambda j: {j: 1},
        "other interior vertex 0": lambda j: {3 - j: 0},
        "other interior vertex 2": lambda j: {3 - j: 2},
        "below 1 on the other stratum": lambda j: {3: 0},
    }

    @pytest.mark.parametrize("broken", sorted(BROKEN))
    def test_full_rule_on_orders_that_break_the_axioms(self, broken):
        c = cycle(4)
        base = canonical_order_matrix(c)

        def with_broken(rows):
            orders = [list(row) for row in base.orders]
            for j in rows:
                for w, x in self.BROKEN[broken](j).items():
                    orders[j][w - 1] = x
            return OrderMatrix(tuple(map(tuple, orders)), base.horizontal_effective)

        assert separation_certificate(canonical_map(c), base, "1-2", "3-4") == 1
        m = with_broken([1])
        f = build_map(c, m, check=False)
        assert separation_certificate(f, m, "1-2", "3-4") == 2
        m = with_broken([1, 2])
        f = build_map(c, m, check=False)
        assert separation_certificate(f, m, "1-2", "3-4") is None


class TestExactOracle:
    def test_three_cycle_edges_disjoint_with_grid_confirmation(self):
        c = cycle(3)
        f = canonical_map(c)
        verdict = images_relint_disjoint_exact(f, "1-2", "2-3")
        assert verdict.disjoint and verdict.witness is None
        grid = barycentric_grid(2, 16)
        a = {f.apply(SimplexPoint("1-2", u)) for u in grid if all(w > 0 for w in u)}
        b = {f.apply(SimplexPoint("2-3", u)) for u in grid if all(w > 0 for w in u)}
        assert not a & b

    def test_banana_collision_witness_is_midpoint_image(self):
        c = cycle(2)
        f = canonical_map(c)
        verdict = images_relint_disjoint_exact(f, "e1", "e2")
        assert not verdict.disjoint
        half = Fraction(1, 2)
        assert verdict.witness == f.apply(SimplexPoint("e1", (half, half)))
        assert verdict.witness == f.apply(SimplexPoint("e2", (half, half)))

    def test_edge_vs_endpoint_discharged_by_injectivity(self):
        c = cycle(3)
        f = canonical_map(c)
        verdict = images_relint_disjoint_exact(f, "1-2", "1")
        assert verdict.disjoint and verdict.method == "face-injectivity"

    def test_same_stratum_rejected(self):
        f = canonical_map(cycle(3))
        with pytest.raises(ValueError):
            images_relint_disjoint_exact(f, "1-2", "1-2")

    def test_interval_shortcut_agrees_with_lp(self):
        # Force the LP on every non-face pair and compare with the oracle.
        for doc in (generate_fixture("cycle", n=5),
                    generate_fixture("simplex_boundary", dim=3)):
            c = doc.complex
            f = canonical_map(c)
            polys = {sid: simplex_image_polyhedron(f.vertex_images(sid), relative_interior=True)
                     for sid in c.stratum_ids()}
            for a, b in itertools.combinations(c.stratum_ids(), 2):
                if c.face_related(a, b):
                    continue
                hit, _ = relint_intersection_nonempty(polys[a], polys[b])
                assert (not hit) == images_relint_disjoint_exact(f, a, b).disjoint

    def test_triangle_stack_methods_and_witnesses_are_pinned(self):
        # Three triangles on the same three edges, under the canonical
        # orders: all three map onto one triangle, so each pair of them
        # collides, and the LP's witness is the image of the barycentre.
        strata = [("v1", (1,)), ("v2", (2,)), ("v3", (3,)),
                  ("e12", (1, 2)), ("e13", (1, 3)), ("e23", (2, 3)),
                  ("t1", (1, 2, 3)), ("t2", (1, 2, 3)), ("t3", (1, 2, 3))]
        faces = [(e, [v], f"v{v}") for e, vs in strata[3:6] for v in vs]
        faces += [(t, [v], f"v{v}") for t in ("t1", "t2", "t3") for v in (1, 2, 3)]
        faces += [(t, sub, "e" + "".join(map(str, sub))) for t in ("t1", "t2", "t3")
                  for sub in ([1, 2], [1, 3], [2, 3])]
        c = build_delta_complex(3, 2, strata, faces)
        f = canonical_map(c)
        third = Fraction(1, 3)
        witness = (Fraction(2, 3),) * 3
        for t in ("t1", "t2", "t3"):
            assert f.apply(SimplexPoint(t, (third,) * 3)) == witness
        triangles = {"t1", "t2", "t3"}
        methods = {}
        for a, b in itertools.combinations(c.stratum_ids(), 2):
            verdict = images_relint_disjoint_exact(f, a, b)
            methods[verdict.method] = methods.get(verdict.method, 0) + 1
            if c.face_related(a, b):
                assert verdict == ExactVerdict(True, None, "face-injectivity"), (a, b)
            elif {a, b} <= triangles:
                assert verdict == ExactVerdict(False, witness, "lp"), (a, b)
            else:
                assert verdict == ExactVerdict(True, None, "interval"), (a, b)
        assert methods == {"face-injectivity": 24, "interval": 9, "lp": 3}
        report = check_faithful(c, canonical_order_matrix(c), mode="exact")
        assert report.overall == "not_faithful"
        collisions = {(e.left, e.right): e.exact for e in report.pairs if e.disjoint is False}
        assert collisions == {pair: ExactVerdict(False, witness, "lp")
                              for pair in (("t1", "t2"), ("t1", "t3"), ("t2", "t3"))}

    def test_degenerate_ambient_falls_back_to_oracle(self):
        # A constant piece maps an edge and its endpoints to one point: the
        # face pair cannot be discharged by injectivity and must collide.
        c = build_from_facets(2, 1, [[1, 2]])
        f = PiecewiseAffineMap(c, 2, {1: (0, 0), 2: (0, 0)})
        assert not piece_injective(f, "1-2")
        verdict = images_relint_disjoint_exact(f, "1-2", "1")
        assert not verdict.disjoint and verdict.method == "lp"
        assert verdict.witness == (0, 0)


class TestCheckFaithful:
    def test_cycles_are_faithful(self):
        for n in range(3, 9):
            c = cycle(n)
            report = check_faithful(c, canonical_order_matrix(c), mode="both")
            assert report.overall == "faithful"
            assert not report.defects

    def test_simplex_boundary_faithful(self):
        c = generate_fixture("simplex_boundary", dim=3).complex
        assert c.ell == 4 and c.dim_bound == 2
        report = check_faithful(c, canonical_order_matrix(c), mode="both")
        assert report.overall == "faithful"

    def test_banana_not_faithful_with_witness(self):
        c = cycle(2)
        report = check_faithful(c, canonical_order_matrix(c), mode="both")
        assert report.overall == "not_faithful"
        offending = [e for e in report.pairs if e.disjoint is False]
        assert len(offending) == 1
        e = offending[0]
        assert {e.left, e.right} == {"e1", "e2"}
        assert e.separation is None
        assert e.exact.witness == (Fraction(1, 2), Fraction(1, 2))
        assert any("e1/e2" in d for d in report.defects)

    def test_banana_certificate_mode_incomplete(self):
        c = cycle(2)
        report = check_faithful(c, canonical_order_matrix(c), mode="certificate")
        assert report.overall == "certificate_incomplete"

    def test_banana_exact_mode_reports_collision_without_gap_claim(self):
        # exact mode never consults the certificate route, so the report
        # must not claim a certificate gap
        c = cycle(2)
        report = check_faithful(c, canonical_order_matrix(c), mode="exact")
        assert report.overall == "not_faithful"
        assert report.defects == ()

    def test_certificates_sound_and_complete_on_simplicial_fixtures(self):
        # every separation certificate is confirmed by the oracle, and on
        # plain simplicial complexes no valid pair lacks one
        for seed in range(10):
            c = generate_fixture("random", ell=5, dim=2, seed=seed).complex
            report = check_faithful(c, canonical_order_matrix(c), mode="both")
            assert report.overall == "faithful"
            for e in report.pairs:
                if e.relation == "independent":
                    assert e.separation is not None
                    assert e.exact.disjoint

    def test_modes_agree_on_overall(self):
        c = generate_fixture("simplex_boundary", dim=2).complex
        m = canonical_order_matrix(c)
        overalls = {mode: check_faithful(c, m, mode=mode).overall
                    for mode in ("certificate", "exact", "both")}
        assert set(overalls.values()) == {"faithful"}

    def test_noncanonical_valid_orders_stay_faithful(self):
        # the order axioms force the 1 - e_a pattern on every stratum's own
        # coordinates, so any admissible matrix certifies, not just all-ones
        import random
        from skeletrop.sections import validate_orders
        rng = random.Random(77)
        for seed in range(8):
            c = generate_fixture("random", ell=5, dim=2, seed=seed).complex
            rows = [[0] * c.ell]
            for i in range(1, c.ell + 1):
                rows.append([0 if i == j else (1 if c.adjacent(i, j) else rng.randint(1, 5))
                             for j in range(1, c.ell + 1)])
            m = OrderMatrix(tuple(map(tuple, rows)), (True,) * (c.ell + 1))
            assert validate_orders(m, c) == []
            report = check_faithful(c, m, mode="both")
            assert report.overall == "faithful"
            assert not report.defects

    def test_missing_horizontal_flag_degrades_to_incomplete(self):
        # without the effectivity flag no row can justify the lower bound on
        # the far stratum; the certificate route stalls but the oracle does not
        c = cycle(4)
        m = canonical_order_matrix(c)
        unflagged = OrderMatrix(m.orders, (True,) + (False,) * 4)
        assert check_faithful(c, unflagged, mode="certificate").overall \
            == "certificate_incomplete"
        assert check_faithful(c, unflagged, mode="exact").overall == "faithful"
        assert check_faithful(c, unflagged, mode="both").overall == "faithful"

    def test_pair_filter_restricts_scope(self):
        c = cycle(4)
        m = canonical_order_matrix(c)
        report = check_faithful(c, m, pair_filter=[("1-2", "3-4")])
        assert len(report.pairs) == 1
        assert report.pairs[0].disjoint
        for bad in [("1-2", "7-9")], [("1-2", "1-2")], [("1-2", "2-3", "3-4")]:
            with pytest.raises(ValueError):
                check_faithful(c, m, pair_filter=bad)

    def test_pair_filter_takes_strata_as_their_ids(self):
        c = cycle(4)
        m = canonical_order_matrix(c)
        by_id = check_faithful(c, m, pair_filter=[("1-2", "3-4"), ("2", "2-3")])
        by_stratum = check_faithful(c, m, pair_filter=[(c.stratum("1-2"), "3-4"),
                                                       (c.stratum("2"), c.stratum("2-3"))])
        assert by_stratum == by_id and len(by_id.pairs) == 2
        # "12" would iterate as the ids "1" and "2".
        for bad in ([(c.stratum("1-2"), "1-2")], [(Stratum("7-9", (7, 9)), "1-2")], ["12"],
                    ["1-2"]):
            with pytest.raises(ValueError, match="not two distinct stratum ids"):
                check_faithful(c, m, pair_filter=bad)

    def test_mode_validation(self):
        c = cycle(3)
        with pytest.raises(ValueError):
            check_faithful(c, canonical_order_matrix(c), mode="fast")

    def test_pair_evidence_contract(self):
        # The v1 record's fields, in order; immutable; equal and hashed by value.
        assert PairEvidence._fields == ("left", "right", "relation", "face", "separation",
                                        "exact", "disjoint")
        e = PairEvidence("1", "2", "independent", None, SeparationCertificate("1", 1),
                         ExactVerdict(True, None, "interval"), True)
        with pytest.raises(AttributeError):
            e.disjoint = False
        twin = PairEvidence("1", "2", "independent", None, SeparationCertificate("1", 1),
                            ExactVerdict(True, None, "interval"), True)
        assert twin == e and hash(twin) == hash(e) and twin is not e
        assert e != e._replace(disjoint=None)
        c = cycle(3)
        pairs = check_faithful(c, canonical_order_matrix(c)).pairs
        assert type(pairs) is tuple
        assert all(type(p) is PairEvidence for p in pairs)

    def test_report_contract(self):
        # A frozen record of its rows: sequences stored as tuples, hashable,
        # and ``pairs`` built once and kept.
        c = cycle(3)
        report = check_faithful(c, canonical_order_matrix(c))
        for name in ("mode", "certificates", "rows", "overall", "defects", "pairs"):
            with pytest.raises(AttributeError):
                setattr(report, name, None)
            with pytest.raises(AttributeError):
                delattr(report, name)
        made = FaithfulnessReport(report.mode, list(report.certificates), list(report.rows),
                                  report.overall, ["a defect"])
        assert type(made.certificates) is type(made.rows) is type(made.defects) is tuple
        assert made.certificates == report.certificates and made.rows == report.rows
        assert made.defects == ("a defect",)
        assert hash(report) == hash(check_faithful(c, canonical_order_matrix(c)))
        assert made != report
        assert report.pairs is report.pairs
        # One record per row holds the same evidence, so the reports are equal.
        assert FaithfulnessReport(report.mode, report.certificates,
                                  one_record_rows(report.pairs), report.overall,
                                  report.defects) == report


class TestProjectiveCoherence:
    def test_chart_embedding_preserves_equality(self):
        # appending the base chart coordinate 0 and normalizing identifies
        # two skeleton points exactly when their affine images agree
        c = cycle(4)
        f = canonical_map(c)
        points = []
        for sid in c.stratum_ids():
            arity = len(c.stratum(sid).vertices)
            for u in barycentric_grid(arity, 3):
                points.append(SimplexPoint(sid, u))
        for p, q in itertools.combinations(points, 2):
            same_affine = f.apply(p) == f.apply(q)
            same_projective = trop_eq(f.projective_image(p), f.projective_image(q))
            assert same_affine == same_projective


# ---------------------------------------------------------------------------
# The table-driven pair loop against the public per-pair functions
# ---------------------------------------------------------------------------


def raw_intervals_separate(ta, tb) -> bool:
    """Interval separation on raw (min, max) vertex-value tables, case by case."""
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


def ref_interval_table(piece: Sequence[Sequence[int]]) -> tuple[tuple[int, int], ...]:
    """Per coordinate, integer endpoints of a stratum's open image projection.

    A coordinate's vertex values span [lo, hi]; the open simplex projects
    onto the point lo when lo == hi and onto the open interval (lo, hi)
    otherwise.  Doubled, these become the integer ranges (2lo, 2lo) and
    (2lo+1, 2hi-1), and since all endpoints are integers, projection a lies
    wholly below projection b exactly when right_a < left_b.
    """
    return tuple((2 * lo, 2 * lo) if lo == hi else (2 * lo + 1, 2 * hi - 1)
                 for lo, hi in zip(map(min, piece), map(max, piece)))


def ref_separation_masks(pieces: Sequence[Sequence[Sequence[int]]]) -> list[int]:
    """Per stratum ``a``, the bitmask of the strata ``b`` (bit ``b`` for
    position ``b`` in ``pieces``) whose image projection lies wholly above
    or wholly below ``a``'s on some coordinate: right_a < left_b or
    right_b < left_a on the doubled endpoints of ``_interval_table``.  One
    such coordinate proves the two open images disjoint; this is the
    module's one interval rule, and a single pair reads it as
    ``_separation_masks([piece_a, piece_b])[0]``.  Per coordinate, strata
    with equal vertex values share one row and strata with equal endpoints
    one mask, so endpoints and the rule are computed for distinct values
    only."""
    out = [0] * len(pieces)
    for rows in zip(*pieces):
        by_row: dict[tuple[int, ...], int] = {}
        bit = 1
        for row in rows:
            by_row[row] = by_row.get(row, 0) | bit
            bit <<= 1
        ends = ref_interval_table(by_row)
        groups: dict[tuple[int, int], int] = {}
        for end, members in zip(ends, by_row.values()):
            groups[end] = groups.get(end, 0) | members
        items = groups.items()
        masks = {}
        for end in groups:
            left, right = end
            mask = 0
            for (other_left, other_right), members in items:
                if right < other_left or other_right < left:
                    mask |= members
            masks[end] = mask
        row_masks = dict(zip(by_row, map(masks.__getitem__, ends)))
        out = list(map(or_, out, map(row_masks.__getitem__, rows)))
    return out


def label_map(c, matrix) -> PiecewiseAffineMap:
    """The map whose coordinate ``i`` is row ``i-1`` of the integer matrix
    ``matrix``: vertex ``v``'s image is column ``v-1``, as ``build_map``
    reads an order matrix; any integers, so no order axiom need hold."""
    return PiecewiseAffineMap(c, len(matrix), dict(enumerate(zip(*matrix), 1)))


def disjoint_edges_map(pieces) -> PiecewiseAffineMap:
    """Stratum ``s<a>`` on vertices 2a+1, 2a+2 with piece ``pieces[a]``: no
    two strata share a vertex, so any pieces agree by label."""
    c = build_delta_complex(2 * len(pieces), 1,
                            [(f"s{a}", (2 * a + 1, 2 * a + 2)) for a in range(len(pieces))], [])
    return PiecewiseAffineMap.from_pieces(c, len(pieces[0]), {f"s{a}": piece
                                                              for a, piece in enumerate(pieces)})


def random_valid_orders(rng, c, cleared=0.25) -> OrderMatrix:
    rows = [[0] * c.ell]
    for i in range(1, c.ell + 1):
        rows.append([0 if i == j else (1 if c.adjacent(i, j) else rng.randint(1, 3))
                     for j in range(1, c.ell + 1)])
    flags = tuple(rng.random() >= cleared for _ in range(c.ell + 1))
    return OrderMatrix(tuple(map(tuple, rows)), flags)


def random_simplicial(rng):
    ell = rng.randint(2, 6)
    facets = [sorted(rng.sample(range(1, ell + 1), rng.randint(1, min(4, ell))))
              for _ in range(rng.randint(1, 4))]
    covered = {v for f in facets for v in f}
    facets += [[v] for v in range(1, ell + 1) if v not in covered]
    return build_from_facets(ell, max(map(len, facets)) - 1, facets)


def _shuffled(rng, verts):
    verts = list(verts)
    rng.shuffle(verts)
    return tuple(verts)


def banana_ring(rng):
    """``n`` vertices in a ring, ``k`` parallel edges between neighbours."""
    n, k = rng.randint(2, 4), rng.randint(1, 3)
    strata = [(f"v{v}", (v,)) for v in range(1, n + 1)]
    faces = []
    ends = {(v, v % n + 1) for v in range(1, n + 1)} if n > 2 else {(1, 2)}
    for a, b in sorted(ends):
        for r in range(k):
            eid = f"e{a}{b}.{r}"
            strata.append((eid, _shuffled(rng, (a, b))))
            faces += [(eid, [a], f"v{a}"), (eid, [b], f"v{b}")]
    return build_delta_complex(n, 1, strata, faces)


def triangle_stack(rng, k=None, ell=None, spares=None):
    """``k`` triangles on the edges of vertices 1, 2, 3, a path out to ``ell``
    and ``spares``, up to two, more edges on 1, 2 that are no triangle's face
    (their open images lie on the triangles' boundary, below them in
    coordinate 3).  ``k``, ``ell`` and ``spares`` are drawn from ``rng``
    unless given."""
    k = rng.randint(1, 3) if k is None else k
    ell = rng.randint(3, 5) if ell is None else ell
    strata = [(f"v{v}", (v,)) for v in range(1, ell + 1)]
    faces = []
    edges = [(1, 2), (1, 3), (2, 3)] + [(v, v + 1) for v in range(3, ell)]
    for eid, (a, b) in ([(f"e{a}{b}", (a, b)) for a, b in edges]
                        + [(f"e12.{r}", (1, 2))
                           for r in range(rng.randint(0, 2) if spares is None else spares)]):
        strata.append((eid, _shuffled(rng, (a, b))))
        faces += [(eid, [a], f"v{a}"), (eid, [b], f"v{b}")]
    for t in range(k):
        tid = f"t{t}"
        strata.append((tid, _shuffled(rng, (1, 2, 3))))
        faces += [(tid, [v], f"v{v}") for v in (1, 2, 3)]
        faces += [(tid, [a, b], f"e{a}{b}") for a, b in edges[:3]]
    return build_delta_complex(ell, 2, strata, faces)


def reference_evidence(c, m, f, a, b, mode) -> PairEvidence:
    """One pair's evidence from the public per-pair functions alone."""
    if c.face_related(a, b):
        ambient = a if c.is_face(b, a) else b
        ok = piece_injective(f, ambient)
        exact = None if ok or mode == "certificate" else images_relint_disjoint_exact(f, a, b)
        disjoint = True if ok else (exact.disjoint if exact is not None else None)
        return PairEvidence(a, b, "face", FaceDischarge(ambient, ok), None, exact, disjoint)
    separation = None
    if mode != "exact":
        for interior, other in ((a, b), (b, a)):
            j = separation_certificate(f, m, interior, other)
            if j is not None:
                separation = SeparationCertificate(interior, j)
                break
    exact = None if mode == "certificate" else images_relint_disjoint_exact(f, a, b)
    disjoint = exact.disjoint if exact is not None else (True if separation is not None else None)
    return PairEvidence(a, b, "independent", None, separation, exact, disjoint)


class TestTableDrivenPairLoop:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_evidence_matches_public_per_pair_functions(self, data):
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        make = data.draw(st.sampled_from((random_simplicial, banana_ring, triangle_stack)))
        c = make(rng)
        m = random_valid_orders(rng, c, cleared=data.draw(st.sampled_from((0.0, 0.25, 0.6))))
        mode = data.draw(st.sampled_from(("certificate", "exact", "both")))
        ids = c.stratum_ids()
        all_pairs = list(itertools.combinations(ids, 2))
        chosen = set(all_pairs)
        pair_filter = None
        if all_pairs and data.draw(st.booleans()):
            chosen = data.draw(st.sets(st.sampled_from(all_pairs), max_size=8))
            # Either orientation of a pair selects it.
            pair_filter = [p if rng.random() < 0.5 else p[::-1] for p in chosen]
        report = check_faithful(c, m, mode=mode, pair_filter=pair_filter)
        f = build_map(c, m)
        assert [(e.left, e.right) for e in report.pairs] == [p for p in all_pairs if p in chosen]
        for e in report.pairs:
            assert e == reference_evidence(c, m, f, e.left, e.right, mode), (e.left, e.right)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                             min_size=3, max_size=3), min_size=1, max_size=12))
    def test_bulk_masks_match_pairwise_interval_rule(self, raw):
        # Each stratum: per coordinate a vertex-value range [lo, hi], a point
        # when lo == hi; small values make touching endpoints common.
        # As pieces, each coordinate's row holds the two vertex values, in
        # the order drawn; equal rows in either order share endpoints.
        # Stratum a owns vertices 2a+1 and 2a+2, so the map is label-consistent.
        pieces = raw
        raw = [[(min(x, y), max(x, y)) for x, y in coords] for coords in raw]
        rule = _IntervalRule(disjoint_edges_map(pieces), [f"s{a}" for a in range(len(pieces))])
        everything = (1 << len(pieces)) - 1
        separated = [rule.separated(a, everything) for a in range(len(pieces))]
        for a, b in itertools.product(range(len(pieces)), repeat=2):
            bulk = bool(separated[a] >> b & 1)
            assert bulk == raw_intervals_separate(raw[a], raw[b]), (raw[a], raw[b])
        assert all(mask >> len(pieces) == 0 for mask in separated)

    def test_touching_endpoints(self):
        def separate(piece_a, piece_b):
            return bool(_IntervalRule(disjoint_edges_map([piece_a, piece_b]),
                                      ["s0", "s1"]).separated(0, 2))

        point = [(1, 1)]
        assert ref_interval_table([(1, 3)]) == ((3, 5),)
        assert separate(point, [(1, 3)])      # point at an end
        assert separate([(0, 1)], [(1, 2)])
        assert not separate([(0, 2)], point)  # point inside
        assert not separate(point, point)

    # sha256 of the cycle n=40 certificate under seeded random orders with
    # some horizontal flags cleared, taken before the pair loop was built
    # from per-stratum tables.
    CYCLE40_SHA256 = {
        "both": "66775bc1f7c0dabfac1ea259d91a8712a14b8a18b9c9731ff6babee68f64e30c",
        "exact": "c3fd23b9ecec1aa0a91afb31c3e637c4888bd1846c258a9222d3947c5cdf2637",
        "certificate": "156d55bc221d76c9d7f8b0816c0fb2284478fcd97461331a44f6bb3696fd996b",
    }

    @pytest.mark.parametrize("mode", sorted(CYCLE40_SHA256))
    def test_cycle40_random_orders_certificate_is_pinned(self, mode):
        doc = random_orders_document(generate_fixture("cycle", n=40), random.Random(40), 0.2)
        report = check_faithful(doc.complex, doc.effective_orders(), mode=mode)
        text = emit_certificate(report, input_digest(doc))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.CYCLE40_SHA256[mode]

    # sha256 of the dim-6 simplex boundary's certificate under seeded random
    # orders with some horizontal flags cleared, taken while each row still
    # listed its groups by position and made each face pair a group.  Every
    # two vertices share a facet, so the only valid orders are the canonical
    # ones; the seed clears the flags of vertices 4 and 5, which gives
    # reverse separations and, in certificate mode, pairs that no vertex
    # separates.
    SIMPLEX6_SHA256 = {
        "both": "444423443be3570710bb4f0a943692586e3853a251988765821cc14e05195c87",
        "exact": "feed635e23c33cbc038e639e6ba792c5f9a6b3c50f2e6e56b7826ecd6d0cbd28",
        "certificate": "f45ef27d08da35e58413f7dc9b143e26de2a28f0eab1188664b53f0e253f9e88",
    }

    @pytest.mark.parametrize("mode", sorted(SIMPLEX6_SHA256))
    def test_simplex6_random_orders_certificate_is_pinned(self, mode):
        doc = random_orders_document(generate_fixture("simplex_boundary", dim=6),
                                     random.Random(6), 0.3)
        report = check_faithful(doc.complex, doc.effective_orders(), mode=mode)
        text = emit_certificate(report, input_digest(doc))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.SIMPLEX6_SHA256[mode]

    def test_complete_lp_free_check_walks_no_mask(self, monkeypatch):
        # A complete row shifts its masks into place, so a check with no LP
        # pair and no pair that the row's stratum leaves unseparated lists no
        # position bit by bit.
        walked = []
        members = tropicalize._members

        def spy(mask):
            walked.append(mask)
            return members(mask)

        monkeypatch.setattr(tropicalize, "_members", spy)
        docs = [generate_fixture("simplex_boundary", dim=6), generate_fixture("cycle", n=30),
                random_orders_document(generate_fixture("cycle", n=30), random.Random(3), 0.0)]
        for doc in docs:
            for mode in MODES:
                report = check_faithful(doc.complex, doc.effective_orders(), mode=mode)
                assert report.overall == "faithful"
                assert all(shape[3] is None or shape[3].method == "interval"
                           for row in report.rows for shape, _ in row.groups)
        assert walked == []
        # The spy sees the walks that do happen: a pair filter's rows and
        # the records read afterwards.
        assert report.pairs and walked
        walked.clear()
        check_faithful(docs[0].complex, docs[0].effective_orders(), pair_filter=[("1", "2-3")])
        assert walked

    def test_certificate_mode_walks_no_mask_on_one_vertex_set(self, monkeypatch):
        # With every flag set, each row's stratum separates all its partners
        # on other vertex sets.  Those on its own vertex set meet, and no
        # vertex of either lies outside the other, so they are left unsettled
        # as one mask, with no reverse search or other step per pair.
        walked = []
        members = tropicalize._members

        def spy(mask):
            walked.append(mask)
            return members(mask)

        monkeypatch.setattr(tropicalize, "_members", spy)
        rng = random.Random(9)  # a ring of 3 with 3 parallel edges
        for c in (banana_ring(rng), triangle_stack(rng, k=4, ell=5, spares=0)):
            m = canonical_order_matrix(c)
            assert all(m.horizontal_effective)
            report = check_faithful(c, m, mode="certificate")
            assert report.overall == "certificate_incomplete"
        assert walked == []


def random_orders_document(base, rng, cleared):
    """``base`` with seeded random valid orders and each vertex's horizontal
    flag cleared with probability ``cleared``."""
    c = base.complex
    ell = c.ell
    rows = [[0] * ell] + [[0 if i == j else (1 if c.adjacent(i, j) else rng.randint(1, 4))
                           for j in range(1, ell + 1)] for i in range(1, ell + 1)]
    flags = [True] + [rng.random() > cleared for _ in range(ell)]
    return parse_input(json.dumps(dict(
        base.canonical, order_matrix={"orders": rows, "horizontal_effective": flags})))


def banana_document(n, k, seed):
    """A Delta input document: ``n`` components in a ring, ``k`` parallel
    edges between neighbours in shuffled vertex order, and seeded random
    valid orders with some horizontal flags cleared."""
    rng = random.Random(seed)
    strata = [{"id": f"v{v}", "vertices": [v]} for v in range(1, n + 1)]
    faces = []
    for a in range(1, n + 1):
        b = a % n + 1
        for r in range(k):
            eid = f"e{a}-{b}.{r}"
            strata.append({"id": eid, "vertices": list(_shuffled(rng, (a, b)))})
            faces += [{"stratum": eid, "subset": [v], "face": f"v{v}"} for v in (a, b)]
    data = {"schema_version": 1,
            "complex": {"ell": n, "d": 1, "mode": "delta", "strata": strata, "face_map": faces}}
    m = random_valid_orders(rng, parse_input(json.dumps(data)).complex)
    data["order_matrix"] = {"orders": m.orders, "horizontal_effective": m.horizontal_effective}
    return parse_input(json.dumps(data))


class TestCheckNeedsNoPiece:
    """``check_faithful`` reads the vertex images, never a stratum's piece."""

    # sha256 of the certificates, taken while the map still stored one
    # piece per stratum.
    CERTIFICATE_SHA256 = {
        ("cycle100", "both"):
            "d5c58c535de0eb8da8981fdf5aa72210f01a489acc49a5720205289f12a58ad0",
        ("cycle100", "exact"):
            "111e2537d524d85323a2ece7bc026d1987bc6d65a8b87189c2f83d73eafa713a",
        ("cycle100", "certificate"):
            "9812a1efdc62202c1ef22b9f599ac2d237631ee643aa446f369c08e5130e3468",
        ("banana", "both"):
            "d57f47e7ccf5dfcfbbfd9419df0ec80d42923904a2365c89f750299af9acbeb1",
        ("banana", "exact"):
            "8c47e7606281e1be5ff8e8a390e7fead3560ce66a45456a302052de2b349060f",
        ("banana", "certificate"):
            "d3ca1424d878b351cc67bdf313caa2f1b019cc46236a7b54b7df19c87870f50c",
    }

    def test_certificates_unchanged_without_pieces(self, monkeypatch):
        def no_piece(*args):
            raise AssertionError("check_faithful built a piece")

        monkeypatch.setattr(PiecewiseAffineMap, "piece", no_piece)
        monkeypatch.setattr(PiecewiseAffineMap, "pieces", property(no_piece))
        docs = {"cycle100": generate_fixture("cycle", n=100), "banana": banana_document(5, 3, 21)}
        for (name, mode), digest in sorted(self.CERTIFICATE_SHA256.items()):
            doc = docs[name]
            report = check_faithful(doc.complex, doc.effective_orders(), mode=mode)
            text = emit_certificate(report, input_digest(doc))
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, (name, mode)


def count_coordinate_tests(monkeypatch) -> list[tuple[int, int]]:
    """Patch ``_IntervalRule`` to record each (row, coordinate) it tests."""
    tested = []
    test = _IntervalRule._test

    def counting(self, a, i):
        tested.append((a, i))
        return test(self, a, i)

    monkeypatch.setattr(_IntervalRule, "_test", counting)
    return tested


class TestRowSeparation:
    """``_IntervalRule`` settles the exact route's interval rule a row at a time."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rows_match_bulk_reference(self, data):
        # Any integers (negative too), strata in shuffled vertex orders, some
        # on a vertex set drawn before, and a shuffled stratum order.
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        ell, n = rng.randint(1, 6), rng.randint(1, 6)
        strata = []
        for k in range(rng.randint(1, 10)):
            if strata and rng.random() < 0.3:
                verts = rng.choice(strata)[1]
            else:
                verts = rng.sample(range(1, ell + 1), rng.randint(1, ell))
            strata.append((f"s{k}", _shuffled(rng, verts)))
        c = build_delta_complex(ell, ell - 1, strata, [])
        f = label_map(c, [[rng.randint(-3, 3) for _ in range(ell)] for _ in range(n)])
        order = [sid for sid, _ in strata]
        rng.shuffle(order)
        ref = ref_separation_masks([f.pieces[sid] for sid in order])
        rule = _IntervalRule(f, order)
        everything = (1 << len(order)) - 1
        for a in range(len(order)):
            for targets in (everything, rng.getrandbits(len(order)), 0):
                assert rule.separated(a, targets) == ref[a] & targets, (a, targets)

    def test_cycle_rows_need_only_their_own_coordinates(self, monkeypatch):
        c = cycle(100)
        tested = count_coordinate_tests(monkeypatch)
        report = check_faithful(c, canonical_order_matrix(c), mode="exact")
        assert report.overall == "faithful"
        assert 0 < len(tested) <= sum(len(s.vertices) for s in c.strata)
        order = c.stratum_ids()
        assert all(i + 1 in c.stratum(order[a]).vertex_set for a, i in tested)

    def test_separation_outside_both_vertex_sets_takes_the_last_stage(self, monkeypatch):
        # Coordinates 1 and 2 are 0 on every vertex; coordinate 3 puts
        # vertex 1 at 0 and vertex 2 at 2.  No axiom holds, so build_map
        # runs unchecked.
        c = build_delta_complex(3, 0, [("a", (1,)), ("b", (2,))], [])
        m = OrderMatrix(((0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 2, 0)), (True,) * 4)
        f = build_map(c, m, check=False)

        def no_lp(p, q):
            raise AssertionError("an interval pair reached the LP")

        tested = count_coordinate_tests(monkeypatch)
        monkeypatch.setattr(tropicalize, "relint_intersection_nonempty", no_lp)
        assert images_relint_disjoint_exact(f, "a", "b") == ExactVerdict(True, None, "interval")
        # a's own coordinate, then the rest in order.
        assert [i for _, i in tested] == [0, 1, 2]

    def test_from_pieces_refuses_pieces_that_disagree_by_label(self):
        # Vertex 2 is 1 in a's piece and -1 in b's, so a's open image (0, 1)
        # meets b's (-1, 2); read by label, b would lie in GE(1) and look
        # separated.  Such a map can no longer be built.
        c = build_delta_complex(3, 1, [("a", (1, 2)), ("b", (2, 3))], [])
        for b_piece in (((-1, 2),), ((5, 6),)):
            with pytest.raises(ValueError, match=r"vertex 2 has image \(1,\) in stratum a "
                                                 r"and \(\S+,\) in stratum b"):
                PiecewiseAffineMap.from_pieces(c, 1, {"a": ((0, 1),), "b": b_piece})
        # Pieces that agree on vertex 2 build the map of their columns.
        f = PiecewiseAffineMap.from_pieces(c, 1, {"a": ((0, 1),), "b": ((1, 6),)})
        assert f.images == {1: (0,), 2: (1,), 3: (6,)}
        assert f.pieces == {"a": ((0, 1),), "b": ((1, 6),)}
        assert images_relint_disjoint_exact(f, "a", "b") == ExactVerdict(True, None, "interval")

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_public_verdict_matches_lp_on_any_images(self, data):
        # One image per vertex label, any integers (negative too), so no
        # order axiom need hold; the verdict must be the LP's.
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        ell, n = rng.randint(2, 4), rng.randint(1, 3)
        verts = [_shuffled(rng, rng.sample(range(1, ell + 1), rng.randint(1, ell)))
                 for _ in range(2)]
        c = build_delta_complex(ell, ell - 1, [("a", verts[0]), ("b", verts[1])], [])
        f = PiecewiseAffineMap(c, n, {v: tuple(rng.randint(-2, 2) for _ in range(n))
                                      for v in range(1, ell + 1)})
        hit, _ = relint_intersection_nonempty(
            *(simplex_image_polyhedron(f.vertex_images(sid)) for sid in ("a", "b")))
        assert images_relint_disjoint_exact(f, "a", "b").disjoint == (not hit)

    def test_one_pair_filter_runs_one_row(self, monkeypatch):
        base = generate_fixture("cycle", n=100)
        doc = parse_input(json.dumps(dict(
            base.canonical, check={"mode": "exact", "pairs": [["50", "3"]]})))
        rows = []
        separated = _IntervalRule.separated

        def counting(self, a, targets):
            rows.append(a)
            return separated(self, a, targets)

        monkeypatch.setattr(_IntervalRule, "separated", counting)
        tested = count_coordinate_tests(monkeypatch)
        report = check_faithful(doc.complex, doc.effective_orders(), mode="exact",
                                pair_filter=doc.pair_filter)
        assert [(e.left, e.right, e.exact) for e in report.pairs] == [
            ("3", "50", ExactVerdict(True, None, "interval"))]
        assert rows == [doc.complex.stratum_ids().index("3")]
        assert len(tested) == 1


# ---------------------------------------------------------------------------
# Shared exact-route work, injectivity from the Smith diagonal, and which
# rule settles each pair
# ---------------------------------------------------------------------------


def random_simplicial_or_delta(data):
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    make = data.draw(st.sampled_from((random_simplicial, banana_ring, triangle_stack)))
    return rng, make(rng)


class TestSharedExactWork:
    def test_one_solve_per_distinct_merged_system_per_call(self, monkeypatch):
        rng = random.Random(6)
        c = triangle_stack(rng, k=6, ell=5)
        m = random_valid_orders(rng, c, cleared=0.0)
        solves, builds = [], []
        solve = lattice._max_min_slack
        build = tropicalize.simplex_image_polyhedron

        def counting_solve(constraints, dim):
            solves.append(tuple(constraints))
            return solve(constraints, dim)

        def counting_build(images, relative_interior=True):
            builds.append(images)
            return build(images, relative_interior)

        monkeypatch.setattr(lattice, "_max_min_slack", counting_solve)
        monkeypatch.setattr(tropicalize, "simplex_image_polyhedron", counting_build)
        report = check_faithful(c, m, mode="both")

        f = build_map(c, m)
        lp = [(e.left, e.right) for e in report.pairs
              if e.exact is not None and e.exact.method == "lp"]
        images = {sid: f.vertex_images(sid) for pair in lp for sid in pair}
        systems = {sid: frozenset(build(imgs).constraints) for sid, imgs in images.items()}
        merged = {systems[a] | systems[b] for a, b in lp}
        vertex_sets = {c.stratum(sid).vertex_set for sid in images}
        distinct_images = set(images.values())
        # Shuffled vertex orders give the strata on one vertex set several
        # distinct inputs, and all of them one system.
        assert len(lp) > len(distinct_images) > len(vertex_sets) == len(merged) == 2
        assert len(solves) == len(set(solves)) == len(merged)
        # One build per vertex set with LP pairs, not one per image tuple.
        assert len(builds) == len({frozenset(b) for b in builds}) == len(vertex_sets)

        # Nothing outlives the call: the same inputs are solved again.
        assert check_faithful(c, m, mode="both") == report
        assert len(solves) == 2 * len(merged)
        assert len(builds) == 2 * len(vertex_sets)

    def test_lp_pairs_share_one_group_per_verdict(self, monkeypatch):
        # Triangles on one vertex set in shuffled vertex orders: every
        # stratum on a vertex set has one polyhedron, the LP pairs of a row
        # share one ExactVerdict, and the row keeps them as one group.  The
        # oracle is still asked once per LP pair, in pair order, and the
        # defects follow the pairs.
        rng = random.Random(6)
        c = triangle_stack(rng, k=8, ell=5)
        m = random_valid_orders(rng, c, cleared=0.0)
        f = build_map(c, m)
        asked = []
        relint = tropicalize.relint_intersection_nonempty

        def spy(p, q):
            asked.append((p, q))
            return relint(p, q)

        monkeypatch.setattr(tropicalize, "relint_intersection_nonempty", spy)
        report = check_faithful(c, m, mode="both")
        lp = [e for e in report.pairs if e.exact is not None and e.exact.method == "lp"]
        assert len(asked) == len(lp) > 0
        for (p, q), e in zip(asked, lp):
            assert p is q
            assert p == simplex_image_polyhedron(f.vertex_images(e.left))
            assert p == simplex_image_polyhedron(f.vertex_images(e.right))
        lp_rows = 0
        for row in report.rows:
            mine = [(shape[3], mask) for shape, mask in row.groups
                    if shape[3] is not None and shape[3].method == "lp"]
            partners = [e for e in lp if e.left == row.left]
            assert len(mine) == (1 if partners else 0)
            if partners:
                lp_rows += 1
                (exact, mask), = mine
                assert mask.bit_count() == len(partners)
                assert all(e.exact is exact for e in partners)
        assert 0 < lp_rows < len(lp)
        assert list(report.defects) == [
            f"pair {e.left}/{e.right}: no separating vertex exists and the exact oracle "
            f"reports a collision" for e in report.pairs if e.disjoint is False]

    def test_no_polyhedron_outlives_the_call(self):
        # The LP memo holds the other polyhedron by a weak reference, so
        # with the cyclic collector off nothing of the exact route survives.
        rng = random.Random(5)
        c = banana_ring(rng)
        m = random_valid_orders(rng, c, cleared=0.0)

        def alive():
            return sum(isinstance(x, lattice.RationalPolyhedron) for x in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = alive()
            report = check_faithful(c, m, mode="both")
            after = alive()
        finally:
            gc.enable()
        assert report.overall == "not_faithful"
        assert any(e.exact is not None and e.exact.method == "lp" for e in report.pairs)
        assert after == before

    def test_public_oracle_builds_fresh_polyhedra(self, monkeypatch):
        c = generate_fixture("cycle", n=2).complex
        f = canonical_map(c)
        solves = []
        solve = lattice._max_min_slack

        def counting_solve(constraints, dim):
            solves.append(tuple(constraints))
            return solve(constraints, dim)

        monkeypatch.setattr(lattice, "_max_min_slack", counting_solve)
        first = images_relint_disjoint_exact(f, "e1", "e2")
        assert images_relint_disjoint_exact(f, "e1", "e2") == first
        assert first.method == "lp" and not first.disjoint
        assert len(solves) == 2


def smith_injective(cert):
    """Piece injectivity read off a unimodularity certificate: the rank is
    the number of elementary divisors, and the piece is injective when that
    is the number of edge vectors."""
    return len(cert.elementary_divisors) == cert.edge_matrix.rows


class TestInjectivityFromSmithDiagonal:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_piece_injective_on_arbitrary_orders(self, data):
        # Orders drawn from 0..top violate the axioms, so build_map runs
        # unchecked and many pieces are rank-deficient (all of them at top 0).
        rng, c = random_simplicial_or_delta(data)
        top = data.draw(st.integers(0, 3))
        rows = [[rng.randint(0, top) for _ in range(c.ell)] for _ in range(c.ell + 1)]
        f = build_map(c, OrderMatrix(tuple(map(tuple, rows)), (True,) * (c.ell + 1)),
                      check=False)
        for sid in c.stratum_ids():
            assert smith_injective(check_unimodular(f, sid)) == piece_injective(f, sid), sid

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_sympy_rank(self, data):
        sympy = pytest.importorskip("sympy")
        rng, c = random_simplicial_or_delta(data)
        rows = [[rng.randint(0, 2) for _ in range(c.ell)] for _ in range(c.ell + 1)]
        f = build_map(c, OrderMatrix(tuple(map(tuple, rows)), (True,) * (c.ell + 1)),
                      check=False)
        for sid in c.stratum_ids():
            edges = f.edge_vectors(sid)
            expected = not edges or sympy.Matrix(edges).rank() == len(edges)
            assert smith_injective(check_unimodular(f, sid)) == expected, sid

    def test_rank_deficient_and_non_unimodular_pieces(self):
        c = build_from_facets(3, 2, [[1, 2, 3]])
        flat = OrderMatrix(((0, 0, 0),) * 4, (True,) * 4)
        doubled = OrderMatrix(((0, 0, 0), (0, 2, 2), (2, 0, 2), (2, 2, 0)), (True,) * 4)
        for m, edge_ok in ((flat, False), (doubled, True)):
            f = build_map(c, m, check=False)
            for s in c.strata:
                cert = check_unimodular(f, s)
                expected = edge_ok or len(s.vertices) == 1
                assert smith_injective(cert) == piece_injective(f, s) == expected, s.id
        # Doubled orders: injective everywhere, unimodular only on vertices.
        assert not check_unimodular(build_map(c, doubled, check=False), "1-2").verdict


def ref_verdict(report):
    """Defects and overall verdict recomputed from the evidence in separate
    passes, as ``check_faithful`` once did after its pair loop."""
    defects = []
    for e in report.pairs:
        if e.separation is not None and e.exact is not None and not e.exact.disjoint:
            defects.append(f"pair {e.left}/{e.right}: separation certificate "
                           f"contradicts the exact oracle")
        if (report.mode == "both" and e.relation == "independent" and e.separation is None
                and e.exact is not None and not e.exact.disjoint):
            defects.append(f"pair {e.left}/{e.right}: no separating vertex exists "
                           f"and the exact oracle reports a collision")
    if (not all(cert.verdict for cert in report.certificates)
            or any(e.disjoint is False for e in report.pairs)):
        overall = "not_faithful"
    elif any(e.disjoint is None for e in report.pairs):
        overall = "certificate_incomplete"
    else:
        overall = "faithful"
    return tuple(defects), overall


class TestSinglePassVerdict:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_verdict_recomputed_from_evidence(self, data):
        rng, c = random_simplicial_or_delta(data)
        m = random_valid_orders(rng, c, cleared=data.draw(st.sampled_from((0.0, 0.25, 0.6))))
        for mode in ("certificate", "exact", "both"):
            report = check_faithful(c, m, mode=mode)
            assert (report.defects, report.overall) == ref_verdict(report), mode

    def test_non_unimodular_certificate_raises_in_every_mode(self, monkeypatch):
        # The order axioms make every validated piece unimodular; a false
        # verdict is a broken invariant, not a verdict to report.
        c = cycle(4)
        check = tropicalize.check_unimodular

        def failing(f, s):
            cert = check(f, s)
            return UnimodularityCertificate(cert.stratum, cert.edge_matrix, (2,), False)

        monkeypatch.setattr(tropicalize, "check_unimodular", failing)
        for mode in ("certificate", "exact", "both"):
            with pytest.raises(ArithmeticError, match="not unimodular"):
                check_faithful(c, canonical_order_matrix(c), mode=mode)


class TestLpGuard:
    """The LP runs only for independent pairs with equal vertex images."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_lp_only_confirms_equal_vertex_images(self, data):
        rng, c = random_simplicial_or_delta(data)
        m = random_valid_orders(rng, c, cleared=data.draw(st.sampled_from((0.0, 0.25, 0.6))))
        f = build_map(c, m)
        calls = []
        relint = tropicalize.relint_intersection_nonempty

        def recording(p, q):
            calls.append((p, q))
            return relint(p, q)

        tropicalize.relint_intersection_nonempty = recording
        try:
            # Raises ArithmeticError if the guard fires.
            reports = [check_faithful(c, m, mode=mode) for mode in ("exact", "both")]
        finally:
            tropicalize.relint_intersection_nonempty = relint
        lp = [(e.left, e.right) for report in reports for e in report.pairs
              if e.exact is not None and e.exact.method == "lp"]
        assert len(calls) == len(lp)
        for (p, q), (sid, tid) in zip(calls, lp):
            assert not c.face_related(sid, tid)
            assert sorted(f.vertex_images(sid)) == sorted(f.vertex_images(tid)), (sid, tid)
            # The invariant the check per row enforces: one vertex set.
            assert c.stratum(sid).vertex_set == c.stratum(tid).vertex_set, (sid, tid)
            # So both strata have the one polyhedron the oracle was asked on.
            assert p is q == simplex_image_polyhedron(f.vertex_images(tid)), (sid, tid)

    def test_guard_fires_when_no_coordinate_separates(self, monkeypatch):
        c = cycle(4)
        m = canonical_order_matrix(c)

        def no_lp(p, q):
            raise AssertionError("the LP ran before the guard")

        monkeypatch.setattr(_IntervalRule, "separated", lambda self, a, targets: 0)
        monkeypatch.setattr(tropicalize, "relint_intersection_nonempty", no_lp)
        # No two strata of the cycle share a vertex set, so every independent
        # pair is unseparated; the error names the first in sorted order, and
        # the last one for a row of the pair filter that names it alone.
        order = c.stratum_ids()
        independent = [(s, t) for k, s in enumerate(order) for t in order[k + 1:]
                       if not c.face_related(s, t)]
        for mode in ("exact", "both"):
            for pair_filter, (s, t) in ((None, independent[0]),
                                        ([independent[-1][::-1]], independent[-1])):
                message = re.escape(f"pair {s}/{t}: ") + ".*different vertex images"
                with pytest.raises(ArithmeticError, match=message):
                    check_faithful(c, m, mode=mode, pair_filter=pair_filter)
        # The certificate route never asks the exact oracle.
        assert check_faithful(c, m, mode="certificate").overall == "faithful"


class TestWhichRuleSettlesEachPair:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rules_follow_the_order_axioms(self, data):
        rng, c = random_simplicial_or_delta(data)
        m = random_valid_orders(rng, c, cleared=data.draw(st.sampled_from((0.0, 0.25, 0.6))))
        all_flags = all(m.horizontal_effective[1:])
        for e in check_faithful(c, m, mode="both").pairs:
            same = c.stratum(e.left).vertex_set == c.stratum(e.right).vertex_set
            if e.relation == "face":
                assert e.face.injective and e.exact is None and e.disjoint
            elif same:
                # Equal vertex sets: one image, so the LP finds a collision.
                assert e.exact.method == "lp" and not e.exact.disjoint
                assert e.exact.witness is not None and e.disjoint is False
            else:
                assert e.exact == ExactVerdict(True, None, "interval") and e.disjoint
                if all_flags:
                    assert e.separation is not None


# ---------------------------------------------------------------------------
# Unimodularity from the signed selector, the Smith diagonal as reference
# ---------------------------------------------------------------------------


def reference_edge_matrix(c, m, sid) -> IntMatrix:
    """A stratum's edge matrix read off the order matrix, not the map: row
    ``a`` holds ``m.orders[i][v_a - 1] - m.orders[i][v_0 - 1]`` for each
    section ``i``."""
    first, *rest = c.stratum(sid).vertices
    return IntMatrix.from_rows([[row[v - 1] - row[first - 1] for row in m.orders[1:]]
                                for v in rest], cols=m.ell)


def reference_unimodularity(c, m, sid) -> UnimodularityCertificate:
    """The certificate from the Smith diagonal of the edge matrix alone."""
    matrix = reference_edge_matrix(c, m, sid)
    divisors = lattice.elementary_divisors(matrix)
    verdict = len(divisors) == matrix.rows and all(x == 1 for x in divisors)
    return UnimodularityCertificate(sid, matrix, divisors, verdict)


class TestUnimodularityFromSelector:
    def test_matches_smith_certificate_on_arbitrary_orders(self):
        # Valid orders with a drawn share of entries redrawn from 0..3, so
        # that pieces both pass and fail the selector test.
        selector = set()

        @settings(max_examples=200, deadline=None)
        @given(st.data())
        def run(data):
            rng, c = random_simplicial_or_delta(data)
            noise = data.draw(st.sampled_from((0.0, 0.1, 0.4, 1.0)))
            rows = [[rng.randint(0, 3) if rng.random() < noise else x for x in row]
                    for row in random_valid_orders(rng, c).orders]
            m = OrderMatrix(tuple(map(tuple, rows)), (True,) * (c.ell + 1))
            f = build_map(c, m, check=False)
            for sid in c.stratum_ids():
                assert check_unimodular(f, sid) == reference_unimodularity(c, m, sid), sid
                vectors = reference_edge_matrix(c, m, sid).entries
                if vectors:
                    selector.add(_selector_inverts(vectors, c.stratum(sid).vertices))

        run()
        assert selector == {True, False}

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_edge_matrices_are_read_from_the_order_matrix(self, data):
        rng, c = random_simplicial_or_delta(data)
        valid = random_valid_orders(rng, c)
        for cert in check_faithful(c, valid, mode="both").certificates:
            assert cert.edge_matrix == reference_edge_matrix(c, valid, cert.stratum)
        # Unvalidated orders that fail the selector on every edge: even
        # entries make every edge-matrix entry even, never the selector's -1.
        # Doubled valid orders, or any even orders.
        if data.draw(st.booleans()):
            rows = [[2 * x for x in row] for row in valid.orders]
        else:
            rows = [[2 * rng.randint(0, 3) for _ in row] for row in valid.orders]
        m = OrderMatrix(tuple(map(tuple, rows)), valid.horizontal_effective)
        f = build_map(c, m, check=False)
        for s in c.strata:
            cert = check_unimodular(f, s)
            assert cert.edge_matrix == reference_edge_matrix(c, m, s.id), s.id
            if len(s.vertices) > 1:
                assert not _selector_inverts(cert.edge_matrix.entries, s.vertices), s.id

    def test_validated_documents_run_no_smith_elimination(self, monkeypatch):
        calls = []
        diagonal = lattice._smith_diagonal

        def counting(m):
            calls.append(m)
            return diagonal(m)

        monkeypatch.setattr(lattice, "_smith_diagonal", counting)
        rng = random.Random(14)
        # The shapes of the acceptance battery, with canonical and random
        # valid orders, then banana rings and triangle stacks.
        docs = [generate_fixture("random", ell=2 + k % 5, dim=1 + k % 3, seed=k)
                for k in range(200)]
        docs += [generate_fixture("cycle", n=n) for n in range(2, 9)]
        docs += [generate_fixture("path", n=n) for n in range(2, 9)]
        docs += [generate_fixture("simplex_boundary", dim=k) for k in range(1, 5)]
        cases = [(doc.complex, orders) for doc in docs
                 for orders in (doc.effective_orders(), random_valid_orders(rng, doc.complex))]
        for _ in range(20):
            for make in (banana_ring, triangle_stack):
                c = make(rng)
                cases.append((c, random_valid_orders(rng, c)))
        for c, m in cases:
            # "both" runs every route, face discharges included.
            report = check_faithful(c, m, mode="both")
            assert all(cert.verdict for cert in report.certificates)
        assert calls == []
        # The counter sees the elimination when a piece fails the selector.
        c = build_from_facets(2, 1, [[1, 2]])
        doubled = OrderMatrix(((0, 0), (0, 2), (2, 0)), (True,) * 3)
        assert not check_unimodular(build_map(c, doubled, check=False), "1-2").verdict
        assert len(calls) == 1
