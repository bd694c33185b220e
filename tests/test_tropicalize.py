"""Piecewise map assembly, unimodularity, separation, and faithfulness."""

import itertools
from fractions import Fraction

import pytest

from skeletrop.complexes import SimplexPoint, build_delta_complex, build_from_facets
from skeletrop.documents import generate_fixture
from skeletrop.lattice import relint_intersection_nonempty, simplex_image_polyhedron
from skeletrop.sections import OrderMatrix, canonical_order_matrix
from skeletrop.tropical import trop_eq
from skeletrop.tropicalize import (ExactVerdict, PiecewiseAffineMap, build_map,
                                   check_faithful, check_unimodular,
                                   images_relint_disjoint_exact, piece_injective,
                                   separation_certificate)


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

    def test_validation_failures_propagate(self):
        bad_complex = build_from_facets(3, 1, [[1, 2]])  # vertex 3 uncovered
        with pytest.raises(ValueError, match="invalid complex"):
            build_map(bad_complex, canonical_order_matrix(bad_complex))
        c = cycle(3)
        doubled = OrderMatrix(((0, 0, 0), (0, 2, 2), (2, 0, 2), (2, 2, 0)),
                              (True,) * 4)
        with pytest.raises(ValueError, match="invalid order matrix"):
            build_map(c, doubled)


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
        f = PiecewiseAffineMap(c, 2, {
            "1": ((0,), (0,)), "2": ((0,), (0,)), "1-2": ((0, 0), (0, 0))})
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

    def test_jobs_do_not_change_the_report(self):
        c = generate_fixture("simplex_boundary", dim=3).complex
        m = canonical_order_matrix(c)
        assert check_faithful(c, m, jobs=1) == check_faithful(c, m, jobs=8)

    def test_pair_filter_restricts_scope(self):
        c = cycle(4)
        m = canonical_order_matrix(c)
        report = check_faithful(c, m, pair_filter=[("1-2", "3-4")])
        assert len(report.pairs) == 1
        assert report.pairs[0].disjoint
        for bad in [("1-2", "7-9")], [("1-2", "1-2")], [("1-2", "2-3", "3-4")]:
            with pytest.raises(ValueError):
                check_faithful(c, m, pair_filter=bad)

    def test_mode_validation(self):
        c = cycle(3)
        with pytest.raises(ValueError):
            check_faithful(c, canonical_order_matrix(c), mode="fast")
        with pytest.raises(ValueError):
            check_faithful(c, canonical_order_matrix(c), jobs=0)


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
