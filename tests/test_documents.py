"""Input parsing, fixtures, digests, and certificate serialization."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeletrop._version import __version__
from skeletrop.documents import (SCHEMA_VERSION, InputError, emit_certificate,
                                 format_rational, generate_fixture, input_digest,
                                 input_text, parse_input, parse_rational)
from skeletrop.lattice import IntMatrix
from skeletrop.sections import canonical_order_matrix
from skeletrop.tropicalize import (MODES, ExactVerdict, FaceDischarge, FaithfulnessReport,
                                   PairEvidence, SeparationCertificate,
                                   UnimodularityCertificate, check_faithful)

MINIMAL = '{"schema_version": 1, "complex": {"ell": 2, "d": 1, "facets": [[1, 2]]}}'


class TestParseInput:
    def test_minimal_document(self):
        doc = parse_input(MINIMAL)
        assert doc.complex.ell == 2
        assert {s.vertices for s in doc.complex.strata} == {(1,), (2,), (1, 2)}
        assert doc.order_matrix is None
        assert doc.effective_orders().orders == ((0, 0), (0, 1), (1, 0))

    def test_facet_exceeding_dimension(self):
        text = '{"schema_version": 1, "complex": {"ell": 3, "d": 1, "facets": [[1, 2, 3]]}}'
        with pytest.raises(InputError, match="exceeds d\\+1"):
            parse_input(text)

    def test_not_json(self):
        with pytest.raises(InputError, match="not valid JSON"):
            parse_input("{")

    def test_missing_fields_carry_paths(self):
        with pytest.raises(InputError, match=r"\$\.complex\.ell"):
            parse_input('{"schema_version": 1, "complex": {"d": 1, "facets": []}}')
        with pytest.raises(InputError, match="schema_version"):
            parse_input('{"complex": {"ell": 1, "d": 1, "facets": [[1]]}}')

    def test_unsupported_version(self):
        with pytest.raises(InputError, match="unsupported version"):
            parse_input('{"schema_version": 2, "complex": {"ell": 1, "d": 1, "facets": [[1]]}}')

    def test_delta_mode_roundtrips_builder_output(self):
        doc = generate_fixture("cycle", n=2)
        again = parse_input(input_text(doc))
        assert {s.id: s.vertices for s in again.complex.strata} \
            == {s.id: s.vertices for s in doc.complex.strata}
        assert again.complex.face_map == doc.complex.face_map

    def test_order_matrix_override(self):
        data = json.loads(MINIMAL)
        data["order_matrix"] = {"orders": [[0, 0], [0, 1], [1, 0]]}
        doc = parse_input(json.dumps(data))
        assert doc.order_matrix is not None
        assert doc.order_matrix.orders == ((0, 0), (0, 1), (1, 0))
        assert all(doc.order_matrix.horizontal_effective)

    def test_order_matrix_shape_mismatch(self):
        data = json.loads(MINIMAL)
        data["order_matrix"] = {"orders": [[0], [0]]}
        with pytest.raises(InputError, match="order"):
            parse_input(json.dumps(data))

    def test_check_options(self):
        data = json.loads(MINIMAL)
        data["check"] = {"mode": "exact", "jobs": 2, "pairs": [["1", "2"]]}
        doc = parse_input(json.dumps(data))
        assert doc.check_mode == "exact" and doc.jobs == 2
        assert doc.pair_filter == (("1", "2"),)

    def test_unknown_pair_id(self):
        data = json.loads(MINIMAL)
        data["check"] = {"pairs": [["1", "9"]]}
        with pytest.raises(InputError, match="unknown stratum"):
            parse_input(json.dumps(data))
        for bad, message in ((["1", "1"], "two distinct strata"),
                             (["1", "2", "1-2"], "expected a pair")):
            data["check"] = {"pairs": [["1", "2"], bad]}
            with pytest.raises(InputError, match=r"\$\.check\.pairs\[1\].*" + message):
                parse_input(json.dumps(data))

    def test_bad_mode(self):
        data = json.loads(MINIMAL)
        data["complex"]["mode"] = "cellular"
        with pytest.raises(InputError, match="simplicial"):
            parse_input(json.dumps(data))

    def test_unknown_fields_rejected(self):
        data = json.loads(MINIMAL)
        data["orders"] = []  # typo for order_matrix
        with pytest.raises(InputError, match="unknown field"):
            parse_input(json.dumps(data))
        data = json.loads(MINIMAL)
        data["complex"]["facet"] = [[1]]
        with pytest.raises(InputError, match=r"\$\.complex\.facet"):
            parse_input(json.dumps(data))


class TestRationals:
    def test_parse_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-2") == Fraction(-2)
        assert parse_rational(5) == Fraction(5)

    def test_rejects_floats_and_garbage(self):
        with pytest.raises(InputError):
            parse_rational(0.5)
        with pytest.raises(InputError, match="malformed"):
            parse_rational("x/y")
        with pytest.raises(InputError, match="malformed"):
            parse_rational("1/0")


class TestFixtures:
    def test_cycle_three_is_triangle(self):
        doc = generate_fixture("cycle", n=3)
        assert doc.canonical["complex"]["facets"] == [[1, 2], [2, 3], [1, 3]]

    def test_cycle_two_is_delta_mode(self):
        doc = generate_fixture("cycle", n=2)
        assert doc.complex_mode == "delta"
        edges = [s for s in doc.complex.strata if len(s.vertices) == 2]
        assert len(edges) == 2
        assert {tuple(e.vertices) for e in edges} == {(1, 2)}

    def test_simplex_boundary(self):
        doc = generate_fixture("simplex_boundary", dim=2)
        assert doc.complex.ell == 3
        assert sorted(doc.canonical["complex"]["facets"]) \
            == [[1, 2], [1, 3], [2, 3]]

    def test_path(self):
        doc = generate_fixture("path", n=4)
        assert doc.canonical["complex"]["facets"] == [[1, 2], [2, 3], [3, 4]]

    def test_random_is_reproducible(self):
        a = generate_fixture("random", ell=5, dim=2, seed=42)
        b = generate_fixture("random", ell=5, dim=2, seed=42)
        assert input_text(a) == input_text(b)
        c = generate_fixture("random", ell=5, dim=2, seed=43)
        assert input_text(a) != input_text(c)

    def test_random_covers_every_vertex(self):
        for seed in range(30):
            doc = generate_fixture("random", ell=6, dim=2, seed=seed)
            covered = {v for f in doc.canonical["complex"]["facets"] for v in f}
            assert covered == set(range(1, 7))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_fixture("cycle", n=1)
        with pytest.raises(ValueError):
            generate_fixture("simplex_boundary", dim=0)
        with pytest.raises(ValueError):
            generate_fixture("random", ell=3, dim=1)
        with pytest.raises(ValueError):
            generate_fixture("torus")


class TestCanonicalSerialization:
    def test_roundtrip_fixpoint(self):
        for doc in (parse_input(MINIMAL), generate_fixture("cycle", n=2),
                    generate_fixture("random", ell=4, dim=2, seed=1)):
            once = input_text(parse_input(input_text(doc)))
            assert once == input_text(doc)

    def test_digest_is_stable(self):
        doc = parse_input(MINIMAL)
        again = parse_input(input_text(doc))
        assert input_digest(doc) == input_digest(again)
        assert input_digest(doc).startswith("sha256:")

    def test_certificate_bytes_stable_across_runs_and_jobs(self):
        doc = generate_fixture("simplex_boundary", dim=3)
        m = canonical_order_matrix(doc.complex)
        digest = input_digest(doc)
        texts = {emit_certificate(check_faithful(doc.complex, m, jobs=j), digest)
                 for j in (1, 1, 4, 8)}
        assert len(texts) == 1

    def test_certificate_records_witness_as_rational_strings(self):
        doc = generate_fixture("cycle", n=2)
        report = check_faithful(doc.complex, doc.effective_orders(), mode="both")
        cert = json.loads(emit_certificate(report, input_digest(doc)))
        assert cert["overall"] == "not_faithful"
        colliding = [p for p in cert["pairs"] if p["disjoint"] is False]
        assert colliding[0]["exact"]["witness"] == ["1/2", "1/2"]
        assert cert["defects"]


def reference_emit_certificate(report: FaithfulnessReport, digest: str) -> str:
    """The v1 certificate as a dict through ``json.dumps``: the layout that
    ``emit_certificate`` writes from record templates."""
    strata_records = []
    for cert in report.certificates:
        strata_records.append({
            "id": cert.stratum,
            "edge_matrix": [list(row) for row in cert.edge_matrix.entries],
            "elementary_divisors": list(cert.elementary_divisors),
            "unimodular": cert.verdict,
        })
    pair_records = []
    for e in report.pairs:
        record = {"left": e.left, "right": e.right, "relation": e.relation,
                  "disjoint": e.disjoint}
        if e.face is not None:
            record["face"] = {"ambient": e.face.ambient, "injective": e.face.injective}
        if e.separation is not None:
            record["separation"] = {"interior": e.separation.interior,
                                    "coordinate": e.separation.coordinate}
        if e.exact is not None:
            record["exact"] = {
                "disjoint": e.exact.disjoint,
                "method": e.exact.method,
                "witness": (None if e.exact.witness is None
                            else [format_rational(x) for x in e.exact.witness]),
            }
        pair_records.append(record)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "skeletrop", "version": __version__},
        "input_digest": digest,
        "mode": report.mode,
        "overall": report.overall,
        "strata": strata_records,
        "pairs": pair_records,
        "defects": list(report.defects),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# sha256 of the certificate text for (fixture, mode), taken from the
# dict-and-json.dumps emitter that the record templates replaced.
CERTIFICATE_SHA256 = [
    (("cycle", {"n": 2}), "both",
     "30ef3112d04865ce1cbd13feb14d15e768f3d1e24f6170c438c052982749e1af"),
    (("cycle", {"n": 2}), "exact",
     "406121fc46dfbbc1bf91cbcbcbf1e6575f37bf6ec67b211e3e72edf1ac26f26e"),
    (("cycle", {"n": 2}), "certificate",
     "1b7dc0075f19fc055f0ab18417defa0654c5449fc50c1124ab04040871f06c51"),
    (("cycle", {"n": 5}), "both",
     "a2b18a4a7b3683c6afbb9cbbae667a15d7c2e9c261ea6439c9c4c3e3c8a2f086"),
    (("simplex_boundary", {"dim": 3}), "both",
     "c954e0a7067031352a63439e430a3e35b276c1dbf8a1e0ac63db3a6dc4444cc5"),
    (("random", {"ell": 6, "dim": 3, "seed": 11}), "both",
     "fd9bc553a3e85b043691af2c5712acb6c198ba767c943876de01972d4f700560"),
]


class TestCertificateBytes:
    @pytest.mark.parametrize("fixture,mode,sha", CERTIFICATE_SHA256)
    def test_certificate_bytes_are_pinned(self, fixture, mode, sha):
        kind, params = fixture
        doc = generate_fixture(kind, **params)
        report = check_faithful(doc.complex, doc.effective_orders(), mode=mode)
        text = emit_certificate(report, input_digest(doc))
        assert text == reference_emit_certificate(report, input_digest(doc))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_reference_emitter_on_random_reports(self, data):
        text = st.one_of(st.text(max_size=6),
                         st.sampled_from(['"', "\\", 'a"b\\c', "\u00e9t\u00e9", "\n\t",
                                          "\u2028", "\U0001f600", "1-2"]))
        ints = st.integers(-10 ** 20, 10 ** 20)

        def certificate():
            nr = data.draw(st.integers(0, 3))
            nc = data.draw(st.integers(0, 4))
            rows = [[data.draw(ints) for _ in range(nc)] for _ in range(nr)]
            return UnimodularityCertificate(
                data.draw(text), IntMatrix.from_rows(rows, cols=nc),
                tuple(data.draw(st.lists(ints, max_size=3))), data.draw(st.booleans()))

        def optional(strategy):
            return data.draw(st.one_of(st.none(), strategy))

        def pair():
            witness = st.one_of(st.none(), st.lists(
                st.fractions(max_denominator=50).map(Fraction), max_size=3).map(tuple))
            return PairEvidence(
                data.draw(text), data.draw(text),
                data.draw(st.sampled_from(("face", "independent"))),
                optional(st.builds(FaceDischarge, text, st.booleans())),
                optional(st.builds(SeparationCertificate, text, st.integers(0, 10 ** 6))),
                optional(st.builds(ExactVerdict, st.booleans(), witness,
                                   st.sampled_from(("face-injectivity", "interval", "lp")))),
                data.draw(st.sampled_from((True, False, None))))

        report = FaithfulnessReport(
            data.draw(st.sampled_from(MODES)),
            tuple(certificate() for _ in range(data.draw(st.integers(0, 3)))),
            tuple(pair() for _ in range(data.draw(st.integers(0, 4)))),
            data.draw(st.sampled_from(("faithful", "not_faithful", "certificate_incomplete"))),
            tuple(data.draw(st.lists(text, max_size=3))))
        digest = data.draw(st.one_of(st.just("sha256:" + "0" * 64), text))
        assert emit_certificate(report, digest) == reference_emit_certificate(report, digest)
