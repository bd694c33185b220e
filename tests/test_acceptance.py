"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The fixture set is the standard battery: 200 seeded random
face-closed complexes on up to 6 vertices with dimension up to 3, cycles
of lengths 3..8, paths of lengths 2..8, and boundaries of the 1..4
simplices.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from skeletrop.bounds import BoundQuery, coordinate_count, corollary_twist, phi_upper_bound
from skeletrop.cli import main
from skeletrop.complexes import SimplexPoint
from skeletrop.documents import generate_fixture, input_text
from skeletrop.lattice import IntMatrix, smith_normal_form
from skeletrop.sections import (OrderMatrix, canonical_order_matrix,
                                concavity_lower_bound, restrict_affine)
from skeletrop.tropical import MonomialSupport, eval_min_plus
from skeletrop.tropicalize import build_map, check_faithful


def _fixture_battery():
    docs = []
    for seed in range(200):
        ell = 2 + seed % 5
        dim = 1 + seed % 3
        docs.append((f"random-{seed}", generate_fixture("random", ell=ell, dim=dim, seed=seed)))
    for n in range(3, 9):
        docs.append((f"cycle-{n}", generate_fixture("cycle", n=n)))
    for n in range(2, 9):
        docs.append((f"path-{n}", generate_fixture("path", n=n)))
    for k in range(1, 5):
        docs.append((f"simplex-boundary-{k}", generate_fixture("simplex_boundary", dim=k)))
    return docs


@pytest.fixture(scope="module")
def battery():
    return _fixture_battery()


@pytest.fixture(scope="module")
def both_reports(battery):
    start = time.monotonic()
    reports = {name: check_faithful(doc.complex, canonical_order_matrix(doc.complex),
                                    mode="both")
               for name, doc in battery}
    elapsed = time.monotonic() - start
    return reports, elapsed


def random_weights(rng, arity, max_denominator=60):
    denom = rng.randint(1, max_denominator)
    cuts = sorted(rng.randint(0, denom) for _ in range(arity - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
    return tuple(Fraction(p, denom) for p in parts)


def random_valid_orders(rng, c) -> OrderMatrix:
    rows = [[0] * c.ell]
    for i in range(1, c.ell + 1):
        row = []
        for j in range(1, c.ell + 1):
            if i == j:
                row.append(0)
            elif c.adjacent(i, j):
                row.append(1)
            else:
                row.append(rng.randint(1, 5))
        rows.append(row)
    return OrderMatrix(tuple(map(tuple, rows)), (True,) * (c.ell + 1))


def test_c01_canonical_unimodularity(battery):
    """Every stratum of every fixture: unit divisors and the 1 - e_a pattern."""
    start = time.monotonic()
    strata_seen = 0
    for name, doc in battery:
        c = doc.complex
        f = build_map(c, canonical_order_matrix(c))
        report = check_faithful(c, canonical_order_matrix(c), mode="certificate")
        for cert in report.certificates:
            assert cert.verdict, (name, cert.stratum)
            assert all(x == 1 for x in cert.elementary_divisors), (name, cert.stratum)
        for s in c.strata:
            slots = {v: k for k, v in enumerate(s.vertices)}
            for a, v in enumerate(s.vertices):
                image = f.vertex_image(s, a)
                own = tuple(image[w - 1] for w in s.vertices)
                expected = tuple(0 if w == v else 1 for w in s.vertices)
                assert own == expected, (name, s.id, v)
            strata_seen += len(s.vertices)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"\ncriterion 01 PASS: unit elementary divisors and 1-e_a vertex images "
          f"on {strata_seen} stratum vertices across {len(battery)} complexes "
          f"({elapsed:.1f}s < 60s)")


def test_c02_faithfulness_dual_path_agreement(battery, both_reports):
    """Both evidence routes succeed and agree on every stratum pair."""
    reports, elapsed = both_reports
    pair_count = 0
    for name, doc in battery:
        report = reports[name]
        assert report.overall == "faithful", name
        assert not report.defects, name
        for e in report.pairs:
            pair_count += 1
            if e.relation == "face":
                assert e.face is not None and e.face.injective, (name, e)
                assert e.disjoint is True
            else:
                assert e.separation is not None, (name, e.left, e.right)
                assert e.exact is not None and e.exact.disjoint, (name, e.left, e.right)
    assert elapsed < 300
    print(f"\ncriterion 02 PASS: certificate and exact oracle agree on all "
          f"{pair_count} pairs, every fixture faithful ({elapsed:.1f}s < 300s)")


def test_c03_vertex_value_table(battery):
    """g_i is 0 at its own vertex, 1 at adjacent vertices, >= 1 elsewhere."""
    checks = 0
    for name, doc in battery:
        c = doc.complex
        m = canonical_order_matrix(c)
        for i in range(1, c.ell + 1):
            for j in range(1, c.ell + 1):
                vertex = c.vertex_stratum(j)
                assert vertex is not None, (name, j)
                value = restrict_affine(m, i, c.stratum(vertex)).evaluate((1,))
                if i == j:
                    assert value == 0
                elif c.adjacent(i, j):
                    assert value == 1
                else:
                    assert value >= 1
                checks += 1
    print(f"\ncriterion 03 PASS: vertex value table verified "
          f"({checks} section/vertex combinations)")


def test_c04_concavity_bound_coincides(battery):
    """Exact affine value equals the concavity lower bound at random points."""
    rng = random.Random(20260810)
    points = 0
    for name, doc in battery:
        c = doc.complex
        m = random_valid_orders(rng, c)
        strata = list(c.strata)
        for _ in range(1000):
            s = strata[rng.randrange(len(strata))]
            u = random_weights(rng, len(s.vertices))
            i = rng.randint(1, c.ell)
            exact = restrict_affine(m, i, s).evaluate(u)
            bound = concavity_lower_bound(m, i, s, u)
            assert exact >= bound
            assert exact == bound
            points += 1
    print(f"\ncriterion 04 PASS: exact value meets and equals the lower bound "
          f"at {points} random points")


def test_c05_separation_interval(battery, both_reports):
    """Certified coordinates squeeze relint(S) under 1 and keep T at or above 1."""
    reports, _ = both_reports
    certified = 0
    for name, doc in battery:
        c = doc.complex
        m = canonical_order_matrix(c)
        for e in reports[name].pairs:
            if e.separation is None:
                continue
            interior = c.stratum(e.separation.interior)
            other = c.stratum(e.right if e.separation.interior == e.left else e.left)
            a = e.separation.coordinate
            assert a in interior.vertices and a not in other.vertices
            g_s = restrict_affine(m, a, interior).vertex_values()
            # 0 exactly once (at the distinguished vertex), 1 at the others:
            # the open simplex maps into (0, 1), or onto {0} for a vertex stratum
            assert sorted(g_s) == [0] + [1] * (len(g_s) - 1)
            assert g_s[interior.vertices.index(a)] == 0
            if len(g_s) >= 2:
                assert min(g_s) == 0 and max(g_s) == 1
            g_t = restrict_affine(m, a, other).vertex_values()
            assert all(v >= 1 for v in g_t)
            assert m.horizontal_effective[a]
            # exact interval arithmetic: images are disjoint subsets of the line
            upper_s = 0 if len(g_s) == 1 else 1  # sup over the open simplex
            assert upper_s <= 1 and min(g_t) >= 1
            certified += 1
    assert certified > 0
    print(f"\ncriterion 05 PASS: separation intervals verified on "
          f"{certified} certified pairs")


def test_c06_min_plus_oracle_equivalence():
    """eval_min_plus matches brute-force enumeration; uniformizer evaluates to 1."""
    rng = random.Random(606)
    start = time.monotonic()
    for _ in range(500):
        arity = rng.randint(1, 6)
        terms = rng.randint(1, 100)
        exps = [tuple(rng.randint(0, 7) for _ in range(arity)) for _ in range(terms)]
        support = MonomialSupport.from_exponents(exps)
        for _ in range(20):
            u = random_weights(rng, arity, max_denominator=30)
            # integer-arithmetic oracle over a common denominator
            denom = math.lcm(*(w.denominator for w in u))
            numer = [int(w * denom) for w in u]
            brute = min(sum(n * e for n, e in zip(numer, m)) for m in support.exponents)
            assert eval_min_plus(support, u) == Fraction(brute, denom)
    for arity in range(1, 7):
        ones = MonomialSupport.from_exponents([(1,) * arity])
        for _ in range(25):
            assert eval_min_plus(ones, random_weights(rng, arity)) == 1
    elapsed = time.monotonic() - start
    assert elapsed < 10
    print(f"\ncriterion 06 PASS: min-plus evaluation matches enumeration on 500 "
          f"supports x 20 points; uniformizer support evaluates to 1 "
          f"({elapsed:.1f}s < 10s)")


def laplace_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j]
               * laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(n))


def test_c07_smith_normal_form_battery():
    """500 random matrices: exact factorization, chain, minor-gcd products."""
    rng = random.Random(707)
    start = time.monotonic()
    for _ in range(500):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(nc)]
                                 for _ in range(nr)])
        snf = smith_normal_form(m)
        assert (snf.u @ m @ snf.v) == snf.d
        assert abs(snf.u.det()) == 1 and abs(snf.v.det()) == 1
        diag = snf.diagonal
        for a, b in zip(diag, diag[1:]):
            if b != 0:
                assert a != 0 and b % a == 0
        prod = 1
        for k in range(1, min(nr, nc) + 1):
            prod *= diag[k - 1]
            g = 0
            for ridx in itertools.combinations(range(nr), k):
                for cidx in itertools.combinations(range(nc), k):
                    g = math.gcd(g, laplace_det([[m.entries[i][j] for j in cidx]
                                                 for i in ridx]))
            assert prod == g
    elapsed = time.monotonic() - start
    assert elapsed < 30
    print(f"\ncriterion 07 PASS: 500 Smith decompositions verified against "
          f"minor-gcd enumeration ({elapsed:.1f}s < 30s)")


def test_c08_bounds_table():
    """Threshold tables, section counts, and twist values are exact."""
    assert {d: phi_upper_bound(BoundQuery(d=d)) for d in (1, 2, 3, 4)} \
        == {1: 2, 2: 4, 3: 7, 4: 11}
    assert {d: phi_upper_bound(BoundQuery(d=d, mode="fujita")) for d in (2, 3, 4)} \
        == {2: 3, 3: 4, 4: 5}
    for ell, d in ((2, 1), (1, 1), (5, 3), (7, 4)):
        assert coordinate_count(ell, d) == ell + d + 1
    assert corollary_twist(3, "trivial_canonical") == 4
    assert corollary_twist(4, "ample_canonical") == 6
    for d in (1, 2, 3, 4):
        assert corollary_twist(d, "trivial_canonical") == d + 1
        assert corollary_twist(d, "ample_canonical") == d + 2
    with pytest.raises(ValueError):
        BoundQuery(d=5, mode="fujita")
    with pytest.raises(ValueError):
        corollary_twist(5, "ample_canonical")
    print("\ncriterion 08 PASS: threshold tables, coordinate counts, and "
          "twists match the published values")


def test_c09_delta_complex_regression():
    """Two edges on the same vertices: collision found, certificate gap recorded."""
    start = time.monotonic()
    doc = generate_fixture("cycle", n=2)
    c = doc.complex
    m = canonical_order_matrix(c)
    report = check_faithful(c, m, mode="both")
    assert report.overall == "not_faithful"
    colliding = [e for e in report.pairs if e.disjoint is False]
    assert len(colliding) == 1
    e = colliding[0]
    assert {e.left, e.right} == {"e1", "e2"}
    assert e.separation is None
    witness = e.exact.witness
    assert witness == (Fraction(1, 2), Fraction(1, 2))
    half = Fraction(1, 2)
    f = build_map(c, m)
    assert f.apply(SimplexPoint("e1", (half, half))) == witness
    assert f.apply(SimplexPoint("e2", (half, half))) == witness
    assert any("e1/e2" in d and "collision" in d for d in report.defects)
    elapsed = time.monotonic() - start
    assert elapsed < 1
    print(f"\ncriterion 09 PASS: repeated-vertex-set regression yields an exact "
          f"collision witness and a recorded certificate gap ({elapsed:.2f}s < 1s)")


def test_c10_certificate_determinism(battery, tmp_path):
    """check --jobs 1 and --jobs 8 emit byte-identical certificates."""
    for name, doc in battery:
        src = tmp_path / f"{name}.json"
        src.write_text(input_text(doc), encoding="utf-8")
        out1 = tmp_path / f"{name}-j1.json"
        out8 = tmp_path / f"{name}-j8.json"
        code1 = main(["check", str(src), "--jobs", "1", "--out", str(out1)])
        code8 = main(["check", str(src), "--jobs", "8", "--out", str(out8)])
        assert code1 == code8 == 0  # every battery fixture is faithful
        assert out1.read_bytes() == out8.read_bytes(), name
    print(f"\ncriterion 10 PASS: byte-identical certificates for jobs 1 and 8 "
          f"on all {len(battery)} fixtures")
