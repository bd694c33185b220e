"""Input parsing, fixtures, digests, and certificate serialization."""

import dataclasses
import hashlib
import itertools
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeletrop import documents
from skeletrop._version import __version__
from skeletrop.cli import main
from skeletrop.documents import (MAX_DOCUMENT_BYTES, MAX_FACE_MAP_ENTRIES, MAX_STRATA,
                                 SCHEMA_VERSION, InputError, emit_certificate,
                                 format_rational, generate_fixture, input_digest,
                                 input_text, parse_input, parse_rational)
from skeletrop.lattice import IntMatrix
from skeletrop.sections import canonical_order_matrix
from skeletrop.tropicalize import (MODES, ExactVerdict, FaceDischarge, FaithfulnessReport,
                                   PairEvidence, PairRow, SeparationCertificate,
                                   UnimodularityCertificate, check_faithful)

from test_tropicalize import (banana_ring, one_record_rows, random_simplicial,
                              random_valid_orders, triangle_stack)

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

    def test_expansion_limit(self):
        def doc(spec):
            return json.dumps({"schema_version": 1, "complex": spec})

        # Two 11-vertex facets would need 2 * 173,052 face-map entries.
        facets = [list(range(1, 12)), list(range(2, 13))]
        with pytest.raises(InputError, match="face-map entries") as info:
            parse_input(doc({"ell": 12, "d": 10, "facets": facets}))
        assert info.value.path == "$.complex.facets"
        strata = [{"id": "big", "vertices": list(range(1, 13))}]
        with pytest.raises(InputError, match="face-map entries") as info:
            parse_input(doc({"ell": 12, "d": 11, "mode": "delta", "strata": strata,
                             "face_map": []}))
        assert info.value.path == "$.complex.strata"
        # A list far longer than any complex still costs nothing to bound.
        with pytest.raises(InputError, match="face-map entries"):
            parse_input(doc({"ell": 1, "d": 0, "facets": [[1] * 10 ** 5]}))
        assert MAX_FACE_MAP_ENTRIES > 7 * (3 ** 6 - 2 ** 7 + 1)  # simplex boundary, dim 6

    def test_ell_beyond_listed_vertices(self):
        def doc(spec):
            return json.dumps({"schema_version": 1, "complex": spec})

        for ell in (3, 10 ** 9, 10 ** 12):
            with pytest.raises(InputError, match="only 2 distinct vertices") as info:
                parse_input(doc({"ell": ell, "d": 1, "facets": [[1, 2]]}))
            assert info.value.path == "$.complex.ell"
        strata = [{"id": "a", "vertices": [1]}, {"id": "b", "vertices": [2]}]
        with pytest.raises(InputError, match="only 2 distinct vertices") as info:
            parse_input(doc({"ell": 3, "d": 1, "mode": "delta", "strata": strata,
                             "face_map": []}))
        assert info.value.path == "$.complex.ell"
        # As many entries as ell passes the bound.
        assert parse_input(doc({"ell": 2, "d": 1, "mode": "delta", "strata": strata,
                                "face_map": []})).complex.ell == 2

    def test_repeated_vertices_count_once(self):
        def doc(spec):
            return json.dumps({"schema_version": 1, "complex": spec})

        # Repeated facets list 20,000 vertex entries but only two vertices.
        with pytest.raises(InputError, match="only 2 distinct vertices") as info:
            parse_input(doc({"ell": 3, "d": 1, "facets": [[1, 2]] * 10_000}))
        assert info.value.path == "$.complex.ell"
        strata = [{"id": f"e{k}", "vertices": [1, 2]} for k in range(10)]
        with pytest.raises(InputError, match="only 2 distinct vertices"):
            parse_input(doc({"ell": 3, "d": 1, "mode": "delta", "strata": strata,
                             "face_map": []}))
        assert parse_input(doc({"ell": 2, "d": 1, "facets": [[1, 2]] * 10_000})).complex.ell == 2

    def test_stratum_limit(self):
        def doc(spec):
            return json.dumps({"schema_version": 1, "complex": spec})

        def singletons(count):
            return [[v] for v in range(1, count + 1)]

        parse_input(doc({"ell": MAX_STRATA, "d": 0, "facets": singletons(MAX_STRATA)}))
        with pytest.raises(InputError, match="1001 strata, more than the 1000") as info:
            parse_input(doc({"ell": MAX_STRATA + 1, "d": 0,
                             "facets": singletons(MAX_STRATA + 1)}))
        assert info.value.path == "$.complex.facets"
        strata = [{"id": f"v{v}", "vertices": [v]} for v in range(1, MAX_STRATA + 2)]
        with pytest.raises(InputError, match="1001 strata") as info:
            parse_input(doc({"ell": MAX_STRATA + 1, "d": 0, "mode": "delta",
                             "strata": strata, "face_map": []}))
        assert info.value.path == "$.complex.strata"
        # The length of a Delta list is checked before its entries: this
        # error wins over a fault in any of them.
        strata[0] = {"id": 1}
        with pytest.raises(InputError, match="1001 strata, more than the 1000") as info:
            parse_input(doc({"ell": MAX_STRATA + 1, "d": 0, "mode": "delta",
                             "strata": strata, "face_map": []}))
        assert info.value.path == "$.complex.strata"
        # Strata, not facets, are counted: a 10-vertex facet has 1,023.
        with pytest.raises(InputError, match="1023 strata"):
            parse_input(doc({"ell": 10, "d": 9, "facets": [list(range(1, 11))]}))
        # The largest fixture on the benchmark ladder still parses.
        assert len(generate_fixture("cycle", n=400).complex.strata) == 800

    def test_byte_limit(self):
        # A text of more characters than the limit has more bytes: it is
        # refused before json reads it.  Whitespace up to the limit is read.
        text = '{"schema_version": 1, "complex": {"ell": 2, "d": 1, "facets": [[1, 2]]}}'
        padded = text + " " * (MAX_DOCUMENT_BYTES - len(text))
        assert parse_input(padded).complex.ell == 2
        with pytest.raises(InputError, match=f"more than {MAX_DOCUMENT_BYTES} bytes") as info:
            parse_input(padded + " ")
        assert info.value.path == "$"

    def test_ell_beyond_stratum_limit(self):
        # Disjoint 5-vertex Delta strata list 5 distinct vertices each, so the
        # distinct-vertex rule alone lets ell reach 5 * MAX_STRATA.
        def doc(ell, count):
            strata = [{"id": f"s{k}", "vertices": list(range(5 * k + 1, 5 * k + 6))}
                      for k in range(count)]
            return json.dumps({"schema_version": 1, "complex": {
                "ell": ell, "d": 4, "mode": "delta", "strata": strata, "face_map": []}})

        assert parse_input(doc(MAX_STRATA, MAX_STRATA // 5)).complex.ell == MAX_STRATA
        with pytest.raises(InputError, match="1001 vertices need a 0-dimensional stratum "
                                             "each, more than the 1000") as info:
            parse_input(doc(MAX_STRATA + 1, MAX_STRATA // 5 + 1))
        assert info.value.path == "$.complex.ell"
        # The stratum count is checked first and keeps its path.
        with pytest.raises(InputError, match="1001 strata") as info:
            parse_input(doc(5 * (MAX_STRATA + 1), MAX_STRATA + 1))
        assert info.value.path == "$.complex.strata"

    def test_ell_and_d_are_checked_once(self, monkeypatch):
        # The parser checks ell and d under their document paths; the
        # complex it builds from them does not check them again.
        from skeletrop import complexes
        from skeletrop.complexes import build_delta_complex, build_from_facets

        checked = []
        monkeypatch.setattr(complexes, "at_least", lambda *args: checked.append(args))
        simplicial = parse_input(MINIMAL).complex
        delta = generate_fixture("cycle", n=2).complex
        assert checked == []
        monkeypatch.undo()
        assert simplicial == build_from_facets(2, 1, [[1, 2]])
        assert delta == build_delta_complex(delta.ell, delta.dim_bound, delta.strata,
                                            [(owner, subset, fid) for (owner, subset), fid
                                             in delta.face_map.items()])
        for text, path in (('{"schema_version": 1, "complex": {"ell": 0, "d": 1, '
                            '"facets": [[1, 2]]}}', "$.complex.ell"),
                           ('{"schema_version": 1, "complex": {"ell": 2, "d": -1, "mode": '
                            '"delta", "strata": [], "face_map": []}}', "$.complex.d")):
            with pytest.raises(InputError) as info:
                parse_input(text)
            assert info.value.path == path

    def test_not_json(self):
        with pytest.raises(InputError, match="not valid JSON"):
            parse_input("{")

    def test_hostile_json_fails_cleanly(self):
        # Nesting beyond the recursion limit, and an integer literal beyond
        # the interpreter's digit limit, are input errors at "$".
        deep = '{"schema_version": 1, "complex": ' + "[" * 100_000 + "]" * 100_000 + "}"
        with pytest.raises(InputError, match="nested too deeply") as info:
            parse_input(deep)
        assert info.value.path == "$"
        # Python before 3.10.7 has no digit limit.
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if limit:
            with pytest.raises(InputError, match=f"more than {limit} digits") as info:
                parse_input('{"schema_version": ' + "1" * (limit + 1) + "}")
            assert info.value.path == "$"

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

    def test_flag_count_error_points_at_the_flags(self):
        data = json.loads(MINIMAL)
        data["order_matrix"] = {"orders": [[0, 0], [0, 1], [1, 0]],
                                "horizontal_effective": [True]}
        with pytest.raises(InputError) as info:
            parse_input(json.dumps(data))
        assert str(info.value) == ("$.order_matrix.horizontal_effective: "
                                   "need one horizontal-effectivity flag per row")
        assert info.value.path == "$.order_matrix.horizontal_effective"
        # A row error is still reported at the rows, flags listed or not;
        # so is a row count that the default flags do not fit.
        for orders in ({"orders": [[0, 0], [0, -1], [1, 0]], "horizontal_effective": [True]},
                       {"orders": [[0, 0], [0, -1], [1, 0]]},
                       {"orders": [[0], [0]]}):
            data["order_matrix"] = orders
            with pytest.raises(InputError) as info:
                parse_input(json.dumps(data))
            assert info.value.path == "$.order_matrix.orders"

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


def _document(complex_spec=None, **fields) -> str:
    """MINIMAL, or its complex replaced, with further top-level fields."""
    spec = {"ell": 2, "d": 1, "facets": [[1, 2]]} if complex_spec is None else complex_spec
    return json.dumps({"schema_version": 1, "complex": spec, **fields})


def _delta_edge(strata=(), face_map=()) -> dict:
    """The Delta complex of one edge, with further strata and face-map entries."""
    return {"ell": 2, "d": 1, "mode": "delta",
            "strata": [{"id": "v1", "vertices": [1]}, {"id": "v2", "vertices": [2]},
                       {"id": "e", "vertices": [1, 2]}, *strata],
            "face_map": [{"stratum": "e", "subset": [1], "face": "v1"},
                         {"stratum": "e", "subset": [2], "face": "v2"}, *face_map]}


# Each refusal: the document, then the path and message of its InputError.
REFUSALS = {
    "integer-as-string": (_document({"ell": "2", "d": 1, "facets": [[1, 2]]}),
                          "$.complex.ell", "expected an integer, got '2'"),
    "integer-as-bool": (_document({"ell": 2, "d": True, "facets": [[1, 2]]}),
                        "$.complex.d", "expected an integer, got True"),
    "not-a-string": (_document({"ell": 2, "d": 1, "mode": 1, "facets": [[1, 2]]}),
                     "$.complex.mode", "expected a string, got 1"),
    "not-a-list": (_document({"ell": 2, "d": 1, "facets": 12}),
                   "$.complex.facets", "expected a list, got 12"),
    "not-an-object": (_document([]), "$.complex", "expected an object, got []"),
    "facet-not-a-list": (_document({"ell": 2, "d": 1, "facets": [[1, 2], 3]}),
                         "$.complex.facets[1]", "expected a list, got 3"),
    "facet-float-vertex": (_document({"ell": 2, "d": 1, "facets": [[1, 2.0]]}),
                           "$.complex.facets[0][1]", "expected an integer, got 2.0"),
    "order-bool-entry": (_document(order_matrix={"orders": [[0, 0], [0, 1], [True, 0]]}),
                         "$.order_matrix.orders[2][0]", "expected an integer, got True"),
    "ell-below-one": (_document({"ell": 0, "d": 1, "facets": [[1, 2]]}),
                      "$.complex.ell", "must be at least 1"),
    "negative-d": (_document({"ell": 2, "d": -1, "facets": [[1, 2]]}),
                   "$.complex.d", "must be nonnegative"),
    "stratum-not-an-object": (_document(_delta_edge(strata=[["x", [1]]])),
                              "$.complex.strata[3]", "expected an object with id and vertices"),
    "face-entry-not-an-object": (_document(_delta_edge(face_map=[["e", [1], "v1"]])),
                                 "$.complex.face_map[2]",
                                 "expected an object with stratum, subset, face"),
    "delta-builder": (_document(_delta_edge(face_map=[{"stratum": "e", "subset": [1],
                                                       "face": "v2"}])),
                      "$.complex.face_map[2]", "conflicting face assignments for 'e' along [1]"),
    "delta-empty-face-id": (_document(_delta_edge(face_map=[{"stratum": "e", "subset": [1],
                                                             "face": ""}])),
                            "$.complex.face_map[2]",
                            "face map entry 'e' -> '': stratum ids must be nonempty strings"),
    # A stratum's own fault is found before any face-map entry is filed.
    "delta-stratum-before-face-map": (
        _document(_delta_edge(strata=[{"id": "x", "vertices": [1, 1]}],
                              face_map=[{"stratum": "e", "subset": [1], "face": ""}])),
        "$.complex.strata", "stratum 'x' repeats a vertex"),
    # A repeated stratum id is found after the face map.
    "delta-repeated-id": (_document(_delta_edge(strata=[{"id": "e", "vertices": [1, 2]}])),
                          "$.complex.strata", "duplicate stratum id 'e'"),
    # The first face-map entry refused when the entries are filed in turn is
    # reported, also when a later entry or a repeated stratum id is at fault.
    "delta-two-filing-faults": (
        _document(_delta_edge(face_map=[{"stratum": "e", "subset": [1], "face": "v2"},
                                        {"stratum": "e", "subset": [2], "face": ""}])),
        "$.complex.face_map[2]", "conflicting face assignments for 'e' along [1]"),
    "delta-filing-fault-and-repeated-id": (
        _document(_delta_edge(strata=[{"id": "e", "vertices": [1, 2]}],
                              face_map=[{"stratum": "e", "subset": [1], "face": ""}])),
        "$.complex.face_map[2]",
        "face map entry 'e' -> '': stratum ids must be nonempty strings"),
    # Every entry is read before any stratum is built or any entry filed, and
    # the vertex count is checked before either.
    "delta-stratum-fault-and-float-subset": (
        _document(_delta_edge(strata=[{"id": "x", "vertices": [1, 1]}],
                              face_map=[{"stratum": "e", "subset": [1.5], "face": "v1"}])),
        "$.complex.face_map[2].subset[0]", "expected an integer, got 1.5"),
    "delta-filing-fault-and-ell-above-vertices": (
        _document({**_delta_edge(face_map=[{"stratum": "e", "subset": [1], "face": "v2"}]),
                   "ell": 3}),
        "$.complex.ell",
        "3 vertices need a 0-dimensional stratum each, but the complex lists only 2 "
        "distinct vertices"),
    "flag-not-a-bool": (_document(order_matrix={"orders": [[0, 0], [0, 1], [1, 0]],
                                                "horizontal_effective": [True, 1, True]}),
                        "$.order_matrix.horizontal_effective[1]", "expected a boolean, got 1"),
    # Rows for one component under a two-vertex complex: the same message
    # whether or not the document lists flags.
    "orders-for-fewer-components": (
        '{"schema_version": 1, "complex": {"ell": 2, "d": 1, "facets": [[1, 2]]}, '
        '"order_matrix": {"orders": [[0], [0]]}}',
        "$.order_matrix.orders", "matrix is for 1 components, complex has 2"),
    "orders-for-fewer-components-flags-listed": (
        _document(order_matrix={"orders": [[0], [0]], "horizontal_effective": [True, True]}),
        "$.order_matrix.orders", "matrix is for 1 components, complex has 2"),
    # Order rows that are not lists and entries that are not integers, which
    # the parser looks for only once OrderMatrix has refused the matrix; and
    # two faults at once, where the first in row, entry, flag order is
    # reported whatever the matrix meets first.
    "order-row-empty-string": (_document(order_matrix={"orders": [[0, 0], "", [1, 0]]}),
                               "$.order_matrix.orders[1]", "expected a list, got ''"),
    "order-row-null": (_document(order_matrix={"orders": [[0, 0], [0, 1], None]}),
                       "$.order_matrix.orders[2]", "expected a list, got None"),
    "order-row-number": (_document(order_matrix={"orders": [[0, 0], 5, [1, 0]]}),
                         "$.order_matrix.orders[1]", "expected a list, got 5"),
    "order-float-entry": (_document(order_matrix={"orders": [[0, 0], [0, 1.5], [1, 0]]}),
                          "$.order_matrix.orders[1][1]", "expected an integer, got 1.5"),
    "order-float-entry-and-flags-not-a-list": (
        _document(order_matrix={"orders": [[0, 0], [0, 1.5], [1, 0]],
                                "horizontal_effective": 5}),
        "$.order_matrix.orders[1][1]", "expected an integer, got 1.5"),
    "order-short-row-and-flag-not-a-bool": (
        _document(order_matrix={"orders": [[0, 0], [0], [1, 0]],
                                "horizontal_effective": [True, 1, True]}),
        "$.order_matrix.horizontal_effective[1]", "expected a boolean, got 1"),
    "top-level-not-an-object": ("[]", "$", "top level must be an object"),
    "unknown-check-mode": (_document(check={"mode": "fast"}),
                           "$.check.mode", "unknown mode 'fast'"),
    "check-jobs-below-one": (_document(check={"jobs": 0}),
                             "$.check.jobs", "must be at least 1"),
}


class TestRefusals:
    def test_valid_orders_are_checked_by_the_matrix_alone(self, monkeypatch):
        # _int_list runs on the rows of a refused order matrix only.
        paths = []

        def spy(values, path):
            paths.append(path)
            return int_list(values, path)

        int_list = documents._int_list
        monkeypatch.setattr(documents, "_int_list", spy)
        doc = parse_input(_document(order_matrix={"orders": [[0, 0], [0, 1], [1, 0]]}))
        assert doc.order_matrix.orders == ((0, 0), (0, 1), (1, 0))
        assert paths == ["$.complex.facets[0]"]
        paths.clear()
        with pytest.raises(InputError, match="expected an integer"):
            parse_input(_document(order_matrix={"orders": [[0, 0], [0, 1], [1, 0.5]]}))
        assert paths == ["$.complex.facets[0]"] + [f"$.order_matrix.orders[{k}]"
                                                   for k in range(3)]

    @pytest.mark.parametrize("name", ["delta-builder", "delta-empty-face-id",
                                      "delta-two-filing-faults"])
    def test_builder_refuses_with_the_parser_message(self, name):
        from skeletrop.complexes import build_delta_complex

        text, _, message = REFUSALS[name]
        spec = json.loads(text)["complex"]
        with pytest.raises(ValueError) as info:
            build_delta_complex(spec["ell"], spec["d"],
                                [(s["id"], s["vertices"]) for s in spec["strata"]],
                                [(e["stratum"], e["subset"], e["face"]) for e in spec["face_map"]])
        assert str(info.value) == message

    @pytest.mark.parametrize("name", REFUSALS)
    def test_path_and_message(self, name):
        text, path, message = REFUSALS[name]
        with pytest.raises(InputError) as info:
            parse_input(text)
        assert info.value.path == path
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("name", REFUSALS)
    def test_cli_exits_1_with_one_error_line(self, name, tmp_path, capsys):
        text, path, message = REFUSALS[name]
        doc = tmp_path / "doc.json"
        doc.write_text(text, encoding="utf-8")
        for verb in ("check", "validate"):
            assert main([verb, str(doc)]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"error: {path}: {message}\n"
            assert captured.out == ""


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
    @pytest.mark.parametrize("kind, sizes, message", [
        ("cycle", {}, "cycle fixtures need n >= 2"),
        ("path", {}, "path fixtures need n >= 2"),
        ("simplex_boundary", {}, "simplex_boundary fixtures need dim >= 1"),
        ("random", {"ell": 3, "dim": 1}, "random fixtures need ell >= 1, dim >= 1, and a seed"),
        ("random", {"dim": 1, "seed": 0}, "random fixtures need ell >= 1, dim >= 1, and a seed"),
    ])
    def test_an_omitted_size_is_a_value_error(self, kind, sizes, message):
        with pytest.raises(ValueError) as info:
            generate_fixture(kind, **sizes)
        assert str(info.value) == message

    @pytest.mark.parametrize("kind, name, size, largest", [
        ("cycle", "n", 501, 500),
        ("path", "n", 501, 500),
        ("simplex_boundary", "dim", 9, 8),
        ("simplex_boundary", "dim", 10 ** 12, 8),
        ("random", "ell", 1001, None),
    ])
    def test_sizes_beyond_the_strata_limit_are_refused_unbuilt(self, kind, name, size, largest,
                                                              monkeypatch):
        sizes = {"dim": 1, "seed": 0} if kind == "random" else {}
        if largest is not None:
            generate_fixture(kind, **sizes, **{name: largest})
        # Building would now fail at once instead of exhausting memory.
        monkeypatch.setattr(documents, "range", None, raising=False)
        monkeypatch.setattr(documents, "_doc_from_dict", None)
        with pytest.raises(ValueError) as info:
            generate_fixture(kind, **sizes, **{name: size})
        assert str(info.value) == (f"{name} = {size} gives a complex of more than "
                                   f"{MAX_STRATA} strata, the most a document may have")

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
        texts = {emit_certificate(check_faithful(doc.complex, m), digest)
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
    # The shapes of the benchmark's scale workload, taken while pair records
    # were still frozen dataclasses written field by field.
    (("cycle", {"n": 100}), "both",
     "d5c58c535de0eb8da8981fdf5aa72210f01a489acc49a5720205289f12a58ad0"),
    (("cycle", {"n": 100}), "exact",
     "111e2537d524d85323a2ece7bc026d1987bc6d65a8b87189c2f83d73eafa713a"),
    (("cycle", {"n": 100}), "certificate",
     "9812a1efdc62202c1ef22b9f599ac2d237631ee643aa446f369c08e5130e3468"),
    (("simplex_boundary", {"dim": 6}), "both",
     "77509e15db66e195e19460d007bafe705cc106dde4801cf777261c448d82a3ed"),
]


def delta_document(kind: str, size: int, extra: int, seed: int) -> str:
    """A Delta document with shuffled vertex orders and seeded random valid
    orders: ``("ring", n, k, seed)`` is ``n`` components in a ring with
    ``k`` parallel edges between neighbours, ``("stack", k, ell, seed)`` is
    ``k`` triangles on the edges of components 1, 2, 3 plus isolated
    components up to ``ell``."""
    rng = random.Random(seed)
    if kind == "ring":
        n, k = size, extra
        strata = [(f"v{i}", [i]) for i in range(1, n + 1)]
        for i in range(1, n + 1):
            for p in range(1, k + 1):
                pair = [i, i % n + 1]
                rng.shuffle(pair)
                strata.append((f"e{i}.{p}", pair))
        ell, d = n, 1
    else:
        k, ell, d = size, extra, 2
        strata = [(f"v{i}", [i]) for i in range(1, ell + 1)]
        strata += [("e12", [1, 2]), ("e13", [1, 3]), ("e23", [2, 3])]
        for p in range(1, k + 1):
            tri = [1, 2, 3]
            rng.shuffle(tri)
            strata.append((f"t{p}", tri))
    # Only top strata repeat a vertex set, so each face is found by its set.
    by_set = {}
    for sid, verts in strata:
        by_set.setdefault(frozenset(verts), sid)
    face_map = [{"stratum": sid, "subset": list(sub), "face": by_set[frozenset(sub)]}
                for sid, verts in strata for r in range(1, len(verts))
                for sub in itertools.combinations(sorted(verts), r)]
    adjacent = {pair for _, verts in strata for pair in itertools.permutations(verts, 2)}
    orders = [[0] * ell] + [[0 if i == j else 1 if (i, j) in adjacent else rng.randint(1, 5)
                             for j in range(1, ell + 1)] for i in range(1, ell + 1)]
    return json.dumps({
        "schema_version": SCHEMA_VERSION,
        "complex": {"ell": ell, "d": d, "mode": "delta",
                    "strata": [{"id": sid, "vertices": v} for sid, v in strata],
                    "face_map": face_map},
        "order_matrix": {"orders": orders, "horizontal_effective": [True] * (ell + 1)}})


# sha256 of Delta certificates for (shape, mode), taken before the exact
# route shared polyhedra and LP results between strata with equal images.
DELTA_CERTIFICATE_SHA256 = [
    (("ring", 6, 4, 7), "both",
     "cd9b2bc01fb9374c670da268f9680749ee3f3e4247090b48be239d25905cb1a4"),
    (("ring", 6, 4, 7), "exact",
     "ae8687e9e10b3e0549f8384e8de8165fca6e571b480f3e43f555d7b3a2521ba9"),
    (("ring", 6, 4, 7), "certificate",
     "2c226a54195600e5347f2c0eea027adfd49de3bb700a43cf02e11b89f8d1ac5b"),
    (("stack", 5, 6, 8), "both",
     "e922b144d654fe2952a27da1ef2103a079466dca128cdd830de693bdf2879357"),
    (("stack", 5, 6, 8), "exact",
     "ac1d579350c970ee6b65db7cebdb9fb88a9b5c5c2fadbe2c1dae40440d1fc80e"),
    (("stack", 5, 6, 8), "certificate",
     "c4aa1378b12b7e8bd34651401c20dcdc7941724cfe3f094b7becad3a1045569e"),
]


def row_pin_document(case: str, seed: int) -> str:
    """Inputs whose certificates pin the decision on every pair: seeded
    random valid orders with about half the horizontal flags cleared, so
    that reverse separations, unseparated pairs and incomplete verdicts
    occur.  ``cycle`` is the 40-cycle, ``filtered`` the same with 300
    seeded pairs in either orientation named in ``check.pairs``, ``ring``
    the Delta banana ring of 8 components with 3 parallel edges, and
    ``ring-filtered`` that ring with 300 seeded pairs, so that a filter's
    rows place LP and reverse-separation groups."""
    rng = random.Random(seed)
    if case.startswith("ring"):
        data = json.loads(delta_document("ring", 8, 3, seed))
    else:
        base = generate_fixture("cycle", n=40)
        c = base.complex
        data = dict(base.canonical, order_matrix={"orders": [[0] * 40] + [
            [0 if i == j else 1 if c.adjacent(i, j) else rng.randint(1, 4)
             for j in range(1, 41)] for i in range(1, 41)]})
    ell = data["complex"]["ell"]
    data["order_matrix"]["horizontal_effective"] = [True] + [rng.random() >= 0.5
                                                             for _ in range(ell)]
    if case.endswith("filtered"):
        ids = parse_input(json.dumps(data)).complex.stratum_ids()
        data["check"] = {"pairs": [rng.sample(ids, 2) for _ in range(300)]}
    return json.dumps(data)


# sha256 of the certificates of ``row_pin_document`` for (case, mode),
# taken while every pair record was still built as its own PairEvidence;
# the ``ring-filtered`` pins were taken before rows were split by vertex set.
ROW_PIN_SHA256 = [
    (("cycle", 41), "both",
     "30dffda322ae761c767df9f62f78423405dcce384bbd0df085affefb99ba6158"),
    (("cycle", 41), "exact",
     "c7ccac970143bd16f720fc8dd37f9695f64f0a256ee59290a1554408b22a5707"),
    (("cycle", 41), "certificate",
     "96e8f2e3ad1d3ce3ed5c00f9a147a34cc0f9de2e56a5b71bd3502a16326a8e45"),
    (("filtered", 42), "both",
     "a95c599258ac33227c113e802b0d2f2e4391e0d5777601864b43d618b6719b03"),
    (("filtered", 42), "exact",
     "bc869b58c783f42417680ab3f18e5a4c0832c34fbaf678ef924fe38ccc958658"),
    (("filtered", 42), "certificate",
     "8959edcdae1a5abf3e9616c5be0e4d294cc29799e60696a38b6bb8b001c7584a"),
    (("ring", 43), "both",
     "aec5810393d511110d9607463d296c78bf0bd0b1636ff9b9ac76b1437e861e5f"),
    (("ring", 43), "exact",
     "c785334e9fc1f519ae0cbfb7a465f6126e22c76808bd7d8009d9879f1c643254"),
    (("ring", 43), "certificate",
     "535f12116505f00439b17200d41258347ceee2beb6e5ed5f04bffb7f18fcd7c0"),
    (("ring-filtered", 44), "both",
     "060ec758ef71542e74b9fa207226c0a3e59162ff35b7be1cd95d1e3b6ff441fb"),
    (("ring-filtered", 44), "exact",
     "031cb8ba393bedc35283cdcfc105566c7467f09b878793b1eb2e2c9cb12ac281"),
    (("ring-filtered", 44), "certificate",
     "0917ed0966df24426eaef0191354e15edd8997fa039966c99bb6845fa3f80425"),
]


class TestCertificateBytes:
    @pytest.mark.parametrize("case,mode,sha", ROW_PIN_SHA256)
    def test_pair_decisions_are_pinned(self, case, mode, sha):
        doc = parse_input(row_pin_document(*case))
        report = check_faithful(doc.complex, doc.effective_orders(), mode=mode,
                                pair_filter=doc.pair_filter)
        text = emit_certificate(report, input_digest(doc))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha

    @pytest.mark.parametrize("fixture,mode,sha", CERTIFICATE_SHA256)
    def test_certificate_bytes_are_pinned(self, fixture, mode, sha):
        kind, params = fixture
        doc = generate_fixture(kind, **params)
        report = check_faithful(doc.complex, doc.effective_orders(), mode=mode)
        text = emit_certificate(report, input_digest(doc))
        assert text == reference_emit_certificate(report, input_digest(doc))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha

    @pytest.mark.parametrize("shape,mode,sha", DELTA_CERTIFICATE_SHA256)
    def test_delta_certificate_bytes_are_pinned(self, shape, mode, sha):
        # Delta certificates carry the LP collision witnesses.
        doc = parse_input(delta_document(*shape))
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

        drawn = {FaceDischarge: [], SeparationCertificate: [], ExactVerdict: []}
        witness = st.one_of(st.none(), st.lists(
            st.fractions(max_denominator=50).map(Fraction), max_size=3).map(tuple))
        strategies = {
            FaceDischarge: st.builds(FaceDischarge, text, st.booleans()),
            SeparationCertificate: st.builds(SeparationCertificate, text,
                                             st.integers(0, 10 ** 6)),
            ExactVerdict: st.builds(ExactVerdict, st.booleans(), witness,
                                    st.sampled_from(("face-injectivity", "interval", "lp"))),
        }

        def optional(kind, required=False):
            # None, a new object, or, as check_faithful shares them, an
            # earlier object itself or an equal but distinct copy of one.
            earlier = drawn[kind]
            how = data.draw(st.sampled_from(("new", "same", "equal")[:3 if earlier else 1]
                                            + (() if required else ("none",))))
            if how == "none":
                return None
            if how == "new":
                earlier.append(data.draw(strategies[kind]))
                return earlier[-1]
            x = data.draw(st.sampled_from(earlier))
            return x if how == "same" else dataclasses.replace(x)

        def shape():
            disjoint = data.draw(st.sampled_from((True, False, None)))
            if data.draw(st.booleans()):
                # A face pair's shape, which the writer renders from its
                # plain fields, or a near miss: another relation, or a
                # separation or an exact verdict as well.
                near = data.draw(st.sampled_from((None, "relation", "separation", "exact")))
                return ("independent" if near == "relation" else "face",
                        optional(FaceDischarge, required=True),
                        optional(SeparationCertificate, required=True) if near == "separation"
                        else None,
                        optional(ExactVerdict, required=True) if near == "exact" else None,
                        disjoint)
            return (data.draw(st.sampled_from(("face", "independent"))),
                    optional(FaceDischarge), optional(SeparationCertificate),
                    optional(ExactVerdict), disjoint)

        def grouped_row():
            # A row as check_faithful keeps one: a fill, or None, groups of
            # shapes by mask over the row, and the mask of the face pairs; a
            # position no mask names takes the fill.  A slot is a group's
            # index, "fill", "face", or "near", a one-pair group whose shape
            # is the face shape of its right-hand stratum with one field
            # changed, or unchanged.
            count = data.draw(st.integers(0, 8))
            fill = shape() if data.draw(st.booleans()) else None
            shapes = [shape() for _ in range(data.draw(st.integers(1, 4)))]
            kinds = [*range(len(shapes)), "face", "near"] + ([] if fill is None else ["fill"])
            slots = [data.draw(st.sampled_from(kinds)) for _ in range(count)]
            rights = [data.draw(text) for _ in range(count)]
            groups = [(x, sum(1 << k for k, g in enumerate(slots) if g == at))
                      for at, x in enumerate(shapes)]
            for k, g in enumerate(slots):
                if g == "near":
                    near = data.draw(st.sampled_from((None, "ambient", "injective", "disjoint",
                                                      "relation")))
                    groups.append(((
                        "independent" if near == "relation" else "face",
                        FaceDischarge(data.draw(text) if near == "ambient" else rights[k],
                                      near != "injective"),
                        None, None,
                        data.draw(st.sampled_from((False, None))) if near == "disjoint"
                        else True), 1 << k))
            faces = sum(1 << k for k, g in enumerate(slots) if g == "face")
            if not faces and data.draw(st.booleans()):
                return PairRow(data.draw(text), rights, fill, groups)
            return PairRow(data.draw(text), rights, fill, groups, faces)

        rows = []
        for _ in range(data.draw(st.integers(0, 4))):
            if data.draw(st.booleans()):
                rows.append(grouped_row())
            else:
                rows += one_record_rows([PairEvidence(data.draw(text), data.draw(text),
                                                      *shape())])
        report = FaithfulnessReport(
            data.draw(st.sampled_from(MODES)),
            tuple(certificate() for _ in range(data.draw(st.integers(0, 3)))),
            rows,
            data.draw(st.sampled_from(("faithful", "not_faithful", "certificate_incomplete"))),
            tuple(data.draw(st.lists(text, max_size=3))))
        digest = data.draw(st.one_of(st.just("sha256:" + "0" * 64), text))
        assert emit_certificate(report, digest) == reference_emit_certificate(report, digest)

    def test_rows_render_as_the_reference_emitter(self):
        # Reports straight from check_faithful, whose rows hold groups of
        # records: random simplicial complexes, banana rings and triangle
        # stacks, valid orders with some flags cleared, every mode, and
        # sparse rows from a pair filter.
        seen = set()

        @settings(max_examples=150, deadline=None)
        @given(st.data())
        def run(data):
            rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
            make = data.draw(st.sampled_from((random_simplicial, banana_ring, triangle_stack)))
            c = make(rng)
            m = random_valid_orders(rng, c, cleared=data.draw(st.sampled_from((0.0, 0.25, 0.6))))
            mode = data.draw(st.sampled_from(MODES))
            pairs = list(itertools.combinations(c.stratum_ids(), 2))
            pair_filter = None
            if pairs and data.draw(st.booleans()):
                chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=8))
                pair_filter = [p if rng.random() < 0.5 else p[::-1] for p in chosen]
                seen.add("filtered")
            report = check_faithful(c, m, mode=mode, pair_filter=pair_filter)
            digest = "sha256:" + "0" * 64
            text = emit_certificate(report, digest)
            assert "pairs" not in vars(report), "emitting built the PairEvidence tuple"
            # The records read afterwards are the records emitted.
            assert text == reference_emit_certificate(report, digest)
            rebuilt = FaithfulnessReport(report.mode, report.certificates,
                                         one_record_rows(report.pairs), report.overall,
                                         report.defects)
            assert emit_certificate(rebuilt, digest) == text
            # Equality compares the pair records, however rows group them.
            assert rebuilt == report == check_faithful(c, m, mode=mode,
                                                       pair_filter=pair_filter)
            if report.pairs:
                assert FaithfulnessReport(report.mode, report.certificates,
                                          one_record_rows(report.pairs[1:]), report.overall,
                                          report.defects) != report
            seen.add(mode)
            seen.add(report.overall)
            if any(e.separation is not None and e.separation.interior == e.right
                   for e in report.pairs):
                seen.add("reverse")

        run()
        assert seen >= {*MODES, "filtered", "reverse", "faithful", "not_faithful",
                        "certificate_incomplete"}


def reference_delta_complex(spec: dict, path: str = "$.complex"):
    """A Delta ``complex`` spec read and filed entry by entry, as the parser
    did before it checked and filed the face map in one pass: the same
    fault, at the same path, is the first one reported.  Returns the
    strata and the face map, or raises the parser's ``InputError``."""
    from skeletrop.complexes import DualComplex, _delta_parts, _file_face

    strata = []
    for k, entry in enumerate(documents._expect(spec, "strata", list, path)):
        epath = f"{path}.strata[{k}]"
        if not isinstance(entry, dict):
            raise InputError(epath, "expected an object with id and vertices")
        documents._reject_unknown(entry, ("id", "vertices"), epath)
        sid = documents._expect(entry, "id", str, epath)
        verts = documents._int_list(documents._expect(entry, "vertices", list, epath),
                                    f"{epath}.vertices")
        strata.append((sid, verts))
    faces = []
    for k, entry in enumerate(documents._expect(spec, "face_map", list, path)):
        epath = f"{path}.face_map[{k}]"
        if not isinstance(entry, dict):
            raise InputError(epath, "expected an object with stratum, subset, face")
        documents._reject_unknown(entry, ("stratum", "subset", "face"), epath)
        owner = documents._expect(entry, "stratum", str, epath)
        subset = documents._int_list(documents._expect(entry, "subset", list, epath),
                                     f"{epath}.subset")
        fid = documents._expect(entry, "face", str, epath)
        faces.append((owner, subset, fid))
    documents._check_expansion((len(verts) for _, verts in strata), f"{path}.strata")
    documents._check_vertex_count(spec["ell"], (verts for _, verts in strata), path)
    try:
        built, face_map = _delta_parts(strata, ())
    except ValueError as exc:
        raise InputError(f"{path}.strata", str(exc)) from None
    for k, (owner, subset, fid) in enumerate(faces):
        try:
            _file_face(face_map, owner, subset, fid)
        except ValueError as exc:
            raise InputError(f"{path}.face_map[{k}]", str(exc)) from None
    try:
        cx = DualComplex._from_checked(spec["ell"], spec["d"], built, face_map)
    except ValueError as exc:
        raise InputError(f"{path}.strata", str(exc)) from None
    return cx.strata, cx.face_map


FACE_FAULTS = ("not-an-object", "missing-key", "extra-key", "non-string-id", "empty-id",
               "bool-in-subset", "float-in-subset", "conflicting-filing", "repeated-filing")
STRATUM_FAULTS = ("not-an-object", "repeated-vertex", "no-vertices", "empty-id",
                  "repeated-id", "float-vertex")


def plant_face_fault(data, fault: str, draw) -> None:
    face_map = data["complex"]["face_map"]
    k = draw(st.integers(0, len(face_map) - 1))
    entry = face_map[k]
    if fault == "not-an-object":
        face_map[k] = draw(st.sampled_from([list(entry.values()), "e", 3, None]))
    elif fault == "missing-key":
        del entry[draw(st.sampled_from(["stratum", "subset", "face"]))]
    elif fault == "extra-key":
        entry[draw(st.sampled_from(["id", "faces", "a"]))] = 1
    elif fault == "non-string-id":
        entry[draw(st.sampled_from(["stratum", "face"]))] = draw(
            st.sampled_from([1, None, True, ["v1"]]))
    elif fault == "empty-id":
        entry[draw(st.sampled_from(["stratum", "face"]))] = ""
    elif fault in ("bool-in-subset", "float-in-subset"):
        i = draw(st.integers(0, len(entry["subset"]) - 1))
        entry["subset"][i] = (draw(st.booleans()) if fault == "bool-in-subset"
                              else draw(st.sampled_from([float(entry["subset"][i]), 1.5])))
    else:
        # Another entry along the same subset of the same stratum, before or
        # after this one: a second face refused, the same face filed again.
        other = [s["id"] for s in data["complex"]["strata"] if s["id"] != entry["face"]]
        face = entry["face"] if fault == "repeated-filing" else draw(st.sampled_from(other))
        face_map.insert(draw(st.integers(0, len(face_map))),
                        dict(entry, subset=list(reversed(entry["subset"])), face=face))


def plant_stratum_fault(data, fault: str, draw) -> None:
    strata = data["complex"]["strata"]
    k = draw(st.integers(0, len(strata) - 1))
    if fault == "not-an-object":
        strata[k] = [strata[k]["id"], strata[k]["vertices"]]
    elif fault == "repeated-vertex":
        strata[k]["vertices"].append(strata[k]["vertices"][0])
    elif fault == "no-vertices":
        strata[k]["vertices"] = []
    elif fault == "empty-id":
        strata[k]["id"] = ""
    elif fault == "repeated-id":
        strata.append(dict(strata[k]))
    else:
        strata[k]["vertices"][0] = 1.0


class TestFaceMapFallback:
    """``parse_input`` checks and files a Delta face map in one pass and
    reads it entry by entry only to word a fault: every fault is reported
    at the path and with the message of ``reference_delta_complex``."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["ring", "stack"]), st.integers(0, 50),
           st.sampled_from(FACE_FAULTS), st.sampled_from((None,) + STRATUM_FAULTS), st.data())
    def test_planted_fault_matches_the_entry_loop(self, kind, seed, fault, stratum_fault,
                                                  data):
        size, extra = (3, 2) if kind == "ring" else (2, 4)
        doc = json.loads(delta_document(kind, size, extra, seed))
        plant_face_fault(doc, fault, data.draw)
        if stratum_fault is not None:
            plant_stratum_fault(doc, stratum_fault, data.draw)
        text = json.dumps(doc)
        try:
            expected = reference_delta_complex(doc["complex"])
        except InputError as exc:
            with pytest.raises(InputError) as info:
                parse_input(text)
            assert (info.value.path, str(info.value)) == (exc.path, str(exc))
        else:
            assert fault == "repeated-filing" and stratum_fault is None
            cx = parse_input(text).complex
            assert (cx.strata, cx.face_map) == expected
            assert list(cx.face_map) == list(expected[1])

    def test_bulk_filing_matches_the_entry_loop(self):
        doc = json.loads(delta_document("stack", 5, 6, 8))
        cx = parse_input(json.dumps(doc)).complex
        assert (cx.strata, cx.face_map) == reference_delta_complex(doc["complex"])
        assert list(cx.face_map) == list(reference_delta_complex(doc["complex"])[1])

    def test_entry_loop_runs_only_on_a_fault(self, monkeypatch):
        calls = []
        expect = documents._expect
        monkeypatch.setattr(documents, "_expect",
                            lambda obj, key, *rest, **kw: calls.append(key)
                            or expect(obj, key, *rest, **kw))
        doc = json.loads(delta_document("ring", 3, 2, 1))
        parse_input(json.dumps(doc))
        assert {"stratum", "subset", "face"}.isdisjoint(calls)
        doc["complex"]["face_map"][-1]["face"] = ""
        with pytest.raises(InputError, match=r"face_map\[\d+\]: face map entry"):
            parse_input(json.dumps(doc))
        assert {"stratum", "subset", "face"} <= set(calls)


def permuted_stack(tops: int, seed: int) -> str:
    """The permuted 6-vertex Delta stack, written as the benchmark's Delta
    generator writes a document: every nonempty proper subset of
    components 1..6 as a stratum once (id the dash-joined vertices), then
    ``tops`` top strata ``t1``, ``t2``, ... on all six, each listing them in
    another order drawn with ``seed``; each stratum files each nonempty
    proper subset of its vertices at the stratum on that subset, and every
    order off the diagonal is 1, since all components meet."""
    rng = random.Random(seed)
    vertices = range(1, 7)
    strata = [("-".join(map(str, sub)), sub) for r in range(1, 6)
              for sub in itertools.combinations(vertices, r)]
    strata += [(f"t{k}", order) for k, order in enumerate(
        rng.sample(list(itertools.permutations(vertices)), tops), start=1)]
    ids = {frozenset(v): sid for sid, v in strata}
    face_map = [{"stratum": sid, "subset": list(sub), "face": ids[frozenset(sub)]}
                for sid, v in strata for r in range(1, len(v))
                for sub in itertools.combinations(sorted(v), r)]
    data = {"schema_version": SCHEMA_VERSION,
            "complex": {"ell": 6, "d": 5, "mode": "delta",
                        "strata": [{"id": sid, "vertices": list(v)} for sid, v in strata],
                        "face_map": face_map},
            "order_matrix": {"orders": [[0] * 6] + [[int(i != j) for j in vertices]
                                                    for i in vertices],
                             "horizontal_effective": [True] * 7}}
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


# sha256 of the permuted stack with 50 tops (seed 1): its canonical input
# text, then its certificate in each mode, taken before the face map was
# checked and filed in one pass.
STACK_SHA256 = "4f1b88a42cbe5e4eb5495bf4a62fe84e6b926a414fd978d4b34b52d0caf975bf"
STACK_CERTIFICATE_SHA256 = {
    "both": "1c0a21756117fe270ef3f5bf3ee2ed904610ef1eeadbedfce25414df2266bb1f",
    "exact": "c59810be8c6985f3c3e0b193b49faf573f771e5f97338c081af516ce73b5dfef",
    "certificate": "1e13fd586111c7b018692db3672227f4daa26c89df4b4593e556cc70f7360fe2",
}


class TestPermutedStack:
    """The face-map shape of large Delta documents: 3,640 entries, 62
    distinct subsets shared by 50 tops on one vertex set."""

    @pytest.fixture(scope="class")
    def stack(self):
        text = permuted_stack(50, 1)
        return text, parse_input(text)

    def test_canonical_text_is_pinned(self, stack):
        text, doc = stack
        assert len(doc.complex.strata) == 112 and len(doc.complex.face_map) == 3640
        assert input_text(doc) == text == reference_input_text(doc)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == STACK_SHA256
        assert input_digest(doc) == f"sha256:{STACK_SHA256}"

    @pytest.mark.parametrize("mode", MODES)
    def test_certificate_bytes_are_pinned(self, stack, mode):
        _, doc = stack
        report = check_faithful(doc.complex, doc.effective_orders(), mode=mode)
        text = emit_certificate(report, input_digest(doc))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == STACK_CERTIFICATE_SHA256[mode]


def reference_input_text(doc) -> str:
    """The canonical input through ``json.dumps``: the layout that
    ``input_text`` writes from per-field templates."""
    return json.dumps(doc.canonical, sort_keys=True, indent=2) + "\n"


def reference_canonical(text: str) -> dict:
    """The canonical form of a document that parses, built field by field
    as a second tree next to the parsed JSON, the way ``parse_input`` built
    it before it normalized the parsed document in place."""
    data = json.loads(text)
    spec = data["complex"]
    ell, d = spec["ell"], spec["d"]
    if spec.get("mode", "simplicial") == "simplicial":
        canon_complex = {"ell": ell, "d": d, "mode": "simplicial",
                         "facets": [list(f) for f in spec["facets"]]}
    else:
        canon_complex = {"ell": ell, "d": d, "mode": "delta",
                         "strata": [{"id": e["id"], "vertices": list(e["vertices"])}
                                    for e in spec["strata"]],
                         "face_map": [{"stratum": e["stratum"], "subset": sorted(e["subset"]),
                                       "face": e["face"]} for e in spec["face_map"]]}
    canonical = {"schema_version": SCHEMA_VERSION, "complex": canon_complex}
    if "order_matrix" in data:
        spec = data["order_matrix"]
        canonical["order_matrix"] = {
            "orders": [list(r) for r in spec["orders"]],
            "horizontal_effective": list(spec.get("horizontal_effective", [True] * (ell + 1)))}
    if "check" in data:
        spec = data["check"]
        canon_check = {}
        if "mode" in spec:
            canon_check["mode"] = spec["mode"]
        if "jobs" in spec:
            canon_check["jobs"] = spec["jobs"]
        if "pairs" in spec:
            canon_check["pairs"] = [list(p) for p in spec["pairs"]]
        if canon_check:
            canonical["check"] = canon_check
    return canonical


# Stratum ids that exercise the writer's escaping: quotes, backslashes,
# control characters, non-ASCII text and astral characters.
ODD_IDS = ['"', "\\", 'a"b\\c', "été", "\n\t", "\x00\x1f\x7f", " ",
           "\U0001f600", "1-2", "é"]


def random_input_document(data) -> dict:
    """A document that parses: a simplicial or Delta complex, with or
    without an order matrix (any nonnegative orders: parse does not check
    the axioms), and any subset of the check options."""
    ell = data.draw(st.integers(1, 4), label="ell")
    subsets = st.lists(st.integers(1, ell), min_size=1, max_size=ell, unique=True)
    extra = data.draw(st.lists(subsets, max_size=3), label="extra strata")
    # Each vertex listed alone covers the vertex-count rule.
    vertex_lists = [[v] for v in range(1, ell + 1)] + extra
    if data.draw(st.booleans(), label="delta"):
        ids = st.one_of(st.text(min_size=1, max_size=5), st.sampled_from(ODD_IDS))
        sids = data.draw(st.lists(ids, min_size=len(vertex_lists), max_size=len(vertex_lists),
                                  unique=True), label="ids")
        faces = {}
        for _ in range(data.draw(st.integers(0, 4), label="face entries")):
            owner, face = data.draw(st.sampled_from(sids)), data.draw(st.sampled_from(sids))
            subset = data.draw(subsets)
            faces[owner, frozenset(subset)] = {"stratum": owner, "subset": subset, "face": face}
        complex_ = {"ell": ell, "d": data.draw(st.integers(0, 3)), "mode": "delta",
                    "strata": [{"id": sid, "vertices": vs}
                               for sid, vs in zip(sids, vertex_lists)],
                    "face_map": list(faces.values())}
    else:
        complex_ = {"ell": ell, "d": max(map(len, vertex_lists)) - 1 + data.draw(st.integers(0, 1)),
                    "facets": vertex_lists}
        if data.draw(st.booleans(), label="explicit mode"):
            complex_["mode"] = "simplicial"
    doc = {"schema_version": SCHEMA_VERSION, "complex": complex_}
    if data.draw(st.booleans(), label="orders"):
        orders = {"orders": [[data.draw(st.integers(0, 10 ** 20)) for _ in range(ell)]
                             for _ in range(ell + 1)]}
        if data.draw(st.booleans(), label="flags"):
            orders["horizontal_effective"] = [data.draw(st.booleans()) for _ in range(ell + 1)]
        doc["order_matrix"] = orders
    if data.draw(st.booleans(), label="check"):
        check = {}
        if data.draw(st.booleans(), label="mode"):
            check["mode"] = data.draw(st.sampled_from(MODES))
        if data.draw(st.booleans(), label="jobs"):
            check["jobs"] = data.draw(st.integers(1, 10 ** 6))
        if data.draw(st.booleans(), label="pairs"):
            ids = parse_input(json.dumps(doc)).complex.stratum_ids()
            pair = st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True)
            check["pairs"] = data.draw(st.lists(pair, max_size=3) if len(ids) > 1
                                       else st.just([]))
        doc["check"] = check
    return doc


def scramble(node) -> None:
    """Reverse every list of a JSON tree in place, innermost first, and
    repeat its new first item at its end."""
    if isinstance(node, dict):
        for child in node.values():
            scramble(child)
    elif isinstance(node, list):
        for child in node:
            scramble(child)
        if node:
            node.reverse()
            node.append(node[0])


# A Delta document whose face map lists subsets out of order and lists
# some entries twice, once in another order.
DELTA_UNSORTED = {
    "schema_version": 1,
    "complex": {"ell": 3, "d": 2, "mode": "delta",
                "strata": [{"id": "a", "vertices": [1]}, {"id": "b", "vertices": [2]},
                           {"id": "c", "vertices": [3]}, {"id": "e", "vertices": [2, 1]},
                           {"id": "t", "vertices": [3, 2, 1]}],
                "face_map": [{"stratum": "e", "subset": [2], "face": "b"},
                             {"stratum": "e", "subset": [1], "face": "a"},
                             {"stratum": "e", "subset": [2], "face": "b"},
                             {"stratum": "t", "subset": [2, 1], "face": "e"},
                             {"stratum": "t", "subset": [1, 2], "face": "e"},
                             {"stratum": "t", "subset": [3], "face": "c"}]},
    "order_matrix": {"orders": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]],
                     "horizontal_effective": [True, False, True, True]},
    "check": {"mode": "exact", "jobs": 2, "pairs": [["t", "a"], ["e", "c"]]},
}


class TestCanonical:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_reference_on_random_documents(self, data):
        text = json.dumps(random_input_document(data))
        assert parse_input(text).canonical == reference_canonical(text)

    @pytest.mark.parametrize("document", [
        # No complex mode.
        json.loads(MINIMAL),
        # Orders without flags.
        {**json.loads(MINIMAL), "order_matrix": {"orders": [[0, 0], [0, 1], [1, 0]]}},
        # An empty check, and an empty pair list.
        {**json.loads(MINIMAL), "check": {}},
        {**json.loads(MINIMAL), "check": {"pairs": []}},
        DELTA_UNSORTED,
    ])
    def test_matches_reference_on_edge_cases(self, document):
        text = json.dumps(document)
        doc = parse_input(text)
        assert doc.canonical == reference_canonical(text)
        assert input_text(doc) == reference_input_text(doc)

    @pytest.mark.parametrize("document", [
        DELTA_UNSORTED,
        {**json.loads(MINIMAL), "order_matrix": {"orders": [[0, 0], [0, 1], [1, 0]]},
         "check": {"pairs": [["1", "1-2"], ["2", "1"]]}},
    ])
    def test_parsed_fields_share_no_list_with_canonical(self, document):
        text = json.dumps(document)
        doc, fresh = parse_input(text), parse_input(text)
        scramble(doc.canonical)
        assert doc.canonical != fresh.canonical
        assert doc.complex.strata == fresh.complex.strata
        assert doc.complex.face_map == fresh.complex.face_map
        assert doc.order_matrix.orders == fresh.order_matrix.orders
        assert doc.order_matrix.horizontal_effective == fresh.order_matrix.horizontal_effective
        assert doc.pair_filter == fresh.pair_filter


class TestInputText:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_reference_writer_on_random_documents(self, data):
        doc = parse_input(json.dumps(random_input_document(data)))
        text = input_text(doc)
        assert text == reference_input_text(doc)
        assert input_text(parse_input(text)) == text

    @pytest.mark.parametrize("document", [
        # A Delta complex of vertices alone, with an empty face map.
        {"schema_version": 1, "complex": {"ell": 2, "d": 0, "mode": "delta",
                                          "strata": [{"id": "a", "vertices": [1]},
                                                     {"id": "b", "vertices": [2]}],
                                          "face_map": []}},
        # Delta ids that need escaping, in strata, face map and pairs.
        {"schema_version": 1, "complex": {
            "ell": 2, "d": 1, "mode": "delta",
            "strata": [{"id": '"', "vertices": [1]}, {"id": "\\é", "vertices": [2]},
                       {"id": "\x01\n\U0001f600", "vertices": [2, 1]}],
            "face_map": [{"stratum": "\x01\n\U0001f600", "subset": [2], "face": "\\é"},
                         {"stratum": "\x01\n\U0001f600", "subset": [1], "face": '"'}]},
         "check": {"pairs": [['"', "\x01\n\U0001f600"]]}},
        # Every subset of the check options, an empty pair list and an empty check.
        *({"schema_version": 1, "complex": {"ell": 2, "d": 1, "facets": [[1, 2]]},
           "check": dict(options)}
          for r in range(4)
          for options in itertools.combinations(
              (("mode", "exact"), ("jobs", 3), ("pairs", [])), r)),
        {"schema_version": 1, "complex": {"ell": 2, "d": 1, "facets": [[1, 2]]},
         "order_matrix": {"orders": [[0, 0], [0, 1], [1, 0]],
                          "horizontal_effective": [True, False, True]},
         "check": {"mode": "both", "jobs": 8, "pairs": [["1", "1-2"], ["2", "1"]]}},
    ])
    def test_matches_reference_writer_on_edge_cases(self, document):
        doc = parse_input(json.dumps(document))
        assert input_text(doc) == reference_input_text(doc)

    # sha256 of ``skeletrop fixtures gen`` output per kind, taken from the
    # ``json.dumps`` writer that the templates replaced.
    @pytest.mark.parametrize("args,sha", [
        (["cycle", "--n", "2"],
         "77cc62ecacf213b3ab9aec3e87e7bea21213faf595b0c04c6a1204e8efa5182f"),
        (["cycle", "--n", "6"],
         "be0e1bdd6efc5749124523a268cf420300b0354078c3729a3b035260e389f3fd"),
        (["path", "--n", "4"],
         "ce8b200848954e7d624428fde50a77b0d5c648f7cccdbc9702da7b6a0e3bd87b"),
        (["simplex_boundary", "--dim", "3"],
         "8c1b1954b5d0e44ae9035e1e6ea64371ff8355a56584aadcda29cd8baa03e674"),
        (["random", "--ell", "6", "--dim", "3", "--seed", "11"],
         "ee95412a7432f218d1a659af533f3c621b99fcb3b6f146e7a6c2b0bd27ee2198"),
    ])
    def test_fixtures_gen_output_is_pinned(self, args, sha, capsys):
        assert main(["fixtures", "gen", *args]) == 0
        out = capsys.readouterr().out
        assert out == reference_input_text(parse_input(out))
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha


def _orders_document(base: str, orders) -> str:
    data = json.loads(base)
    data["order_matrix"] = {"orders": [list(r) for r in orders]}
    return json.dumps(data)


class TestIntegerTexts:
    """Integers are written through one table of small integers' texts; the
    bytes stay those of ``json.dumps`` for integers of every size and sign."""

    def _assert_reference_bytes(self, text, tmp_path):
        doc = parse_input(text)
        assert input_text(doc) == reference_input_text(doc)
        digest = input_digest(doc)
        entries = set()
        for mode in MODES:
            report = check_faithful(doc.complex, doc.effective_orders(), mode=mode)
            want = reference_emit_certificate(report, digest)
            assert emit_certificate(report, digest) == want
            for cert in report.certificates:
                entries.update(itertools.chain.from_iterable(cert.edge_matrix.entries))
        src, out = tmp_path / "doc.json", tmp_path / "cert.json"
        src.write_text(text, encoding="utf-8")
        main(["check", str(src), "--out", str(out)])
        assert out.read_text(encoding="utf-8") == want
        return entries

    def test_orders_of_every_size(self, tmp_path):
        # Non-neighbours of the 6-cycle take 7, 99, 100, 999, 1000 and 10**20;
        # the edge vectors then hold their differences with 1, of both signs.
        c = generate_fixture("cycle", n=6).complex
        orders = [[0] * 6] + [[0 if i == j else 1 for j in range(1, 7)] for i in range(1, 7)]
        for (i, j), x in zip([(1, 4), (2, 5), (3, 5), (3, 1), (4, 6), (5, 2)],
                             [10 ** 20, 7, 999, 1000, 100, 99]):
            assert not c.adjacent(i, j)
            orders[i][j - 1] = x
        size = len(documents._INT_TEXT)
        base = input_text(generate_fixture("cycle", n=6))
        entries = self._assert_reference_bytes(_orders_document(base, orders), tmp_path)
        assert {10 ** 20 - 1, 1 - 10 ** 20, 998, -999, 99, -98} <= entries
        # Integers beyond the table are rendered each time and not kept.
        assert len(documents._INT_TEXT) == size and 10 ** 20 not in documents._INT_TEXT

    @pytest.mark.parametrize("seed", range(4))
    def test_random_orders(self, seed, tmp_path):
        rng = random.Random(seed)
        c = random_simplicial(rng)
        while not c.edges():
            c = random_simplicial(rng)
        m = random_valid_orders(rng, c)
        facets = [list(s.vertices) for s in c.strata]
        base = json.dumps({"schema_version": SCHEMA_VERSION,
                           "complex": {"ell": c.ell, "d": c.dim_bound, "facets": facets}})
        entries = self._assert_reference_bytes(_orders_document(base, m.orders), tmp_path)
        assert min(entries) < 0

    @pytest.mark.parametrize("shape", [("ring", 5, 3, 2), ("stack", 4, 6, 3)])
    def test_delta_document(self, shape, tmp_path):
        entries = self._assert_reference_bytes(delta_document(*shape), tmp_path)
        assert min(entries) < 0
