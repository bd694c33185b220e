"""Command-line surface: verbs, exit codes, and output determinism."""

import json
import tracemalloc

import pytest

from skeletrop import cli, documents
from skeletrop.cli import build_parser, main
from skeletrop.documents import generate_fixture, input_text


@pytest.fixture
def cycle3_file(tmp_path):
    path = tmp_path / "cycle3.json"
    path.write_text(input_text(generate_fixture("cycle", n=3)), encoding="utf-8")
    return path


@pytest.fixture
def banana_file(tmp_path):
    path = tmp_path / "banana.json"
    path.write_text(input_text(generate_fixture("cycle", n=2)), encoding="utf-8")
    return path


def test_check_faithful_cycle(cycle3_file, tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = main(["check", str(cycle3_file), "--out", str(out)])
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["overall"] == "faithful"
    assert len(cert["strata"]) == 6
    assert all(rec["unimodular"] for rec in cert["strata"])


def test_check_banana_exit_code_and_witness(banana_file, tmp_path):
    out = tmp_path / "cert.json"
    code = main(["check", str(banana_file), "--out", str(out)])
    assert code == 2
    cert = json.loads(out.read_text())
    assert cert["overall"] == "not_faithful"
    assert any(p.get("exact", {}).get("witness") == ["1/2", "1/2"]
               for p in cert["pairs"] if p["disjoint"] is False)


def test_check_certificate_mode_incomplete(banana_file, tmp_path):
    code = main(["check", str(banana_file), "--mode", "certificate",
                 "--out", str(tmp_path / "c.json")])
    assert code == 3


def test_parse_error_goes_to_stderr(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1, "complex": {"ell": 3, "d": 1, '
                   '"facets": [[1, 2, 3]]}}', encoding="utf-8")
    code = main(["check", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert "exceeds d+1" in captured.err


def test_unreadable_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_validate_clean_and_defective(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(input_text(generate_fixture("path", n=3)), encoding="utf-8")
    assert main(["validate", str(good)]) == 0
    assert "valid" in capsys.readouterr().out

    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({
        "schema_version": 1,
        "complex": {"ell": 2, "d": 1, "mode": "delta",
                    "strata": [{"id": "v1", "vertices": [1]},
                               {"id": "v2", "vertices": [2]},
                               {"id": "e", "vertices": [1, 2]}],
                    "face_map": [{"stratum": "e", "subset": [1], "face": "v1"}]},
    }), encoding="utf-8")
    assert main(["validate", str(broken)]) == 2
    assert "face-missing" in capsys.readouterr().out


def test_validate_vertex_out_of_range_exits_2(tmp_path, capsys):
    # The component count skips vertex 3 instead of failing on it.
    doc = tmp_path / "range.json"
    doc.write_text(json.dumps({
        "schema_version": 1,
        "complex": {"ell": 2, "d": 1, "mode": "delta",
                    "strata": [{"id": "v1", "vertices": [1]},
                               {"id": "v2", "vertices": [2]},
                               {"id": "e", "vertices": [1, 3]}],
                    "face_map": [{"stratum": "e", "subset": [1], "face": "v1"}]},
    }), encoding="utf-8")
    assert main(["validate", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "complex: [face-missing] no face assigned along [3] (stratum e)",
        "complex: [vertex-range] vertex 3 outside 1..2 (stratum e)",
    ]
    assert captured.err == "warning: complex is disconnected (2 components)\n"


def test_check_validates_each_document_once(cycle3_file, tmp_path, capsys, monkeypatch):
    import skeletrop.complexes as complexes
    import skeletrop.sections as sections

    runs = {"complex": 0, "orders": 0}

    def counting(name, fn):
        def wrapped(*args):
            runs[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(complexes, "_find_violations",
                        counting("complex", complexes._find_violations))
    monkeypatch.setattr(sections, "_order_violations",
                        counting("orders", sections._order_violations))
    assert main(["check", str(cycle3_file), "--out", str(tmp_path / "c.json")]) == 0
    assert runs == {"complex": 1, "orders": 1}

    # Invalid orders still stop the check with exit 1 and one stderr line per violation.
    doc = json.loads(cycle3_file.read_text())
    doc["order_matrix"] = {"orders": [[0, 0, 0], [0, 2, 2], [2, 0, 2], [2, 2, 0]]}
    bad = tmp_path / "bad-orders.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", str(bad)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 6 and all(line.startswith("orders: [edge-order] ") for line in err)


def _child_env() -> dict:
    """The environment for a child interpreter that imports this skeletrop."""
    import os
    from pathlib import Path

    import skeletrop

    src = str(Path(skeletrop.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_oversized_facet_exits_1_before_expansion(tmp_path):
    # One 20-vertex facet would expand into about 3.5e9 face-map entries.
    # The child's address space is capped, so a regression fails with a
    # MemoryError instead of exhausting the machine's memory.
    import subprocess
    import sys

    doc = tmp_path / "big.json"
    doc.write_text(json.dumps({"schema_version": 1,
                               "complex": {"ell": 20, "d": 19,
                                           "facets": [list(range(1, 21))]}}),
                   encoding="utf-8")
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
            "from skeletrop.cli import main\n"
            "sys.exit(main(['check', sys.argv[1]]))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(doc)], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: $.complex.facets: ")
    assert "face-map entries" in proc.stderr


def test_huge_ell_exits_1_before_sizing(tmp_path):
    # ell-sized rows (canonical orders, default flags) would exhaust the
    # capped address space; the vertex count rejects the document first.
    import subprocess
    import sys

    docs = {"canonical": {"schema_version": 1,
                          "complex": {"ell": 10 ** 12, "d": 1, "facets": [[1]]}},
            "flags": {"schema_version": 1,
                      "complex": {"ell": 10 ** 9, "d": 1, "facets": [[1]]},
                      "order_matrix": {"orders": [[0]]}}}
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
            "from skeletrop.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    for name, data in docs.items():
        doc = tmp_path / f"{name}.json"
        doc.write_text(json.dumps(data), encoding="utf-8")
        for verb in ("check", "validate"):
            proc = subprocess.run([sys.executable, "-c", code, verb, str(doc)],
                                  env=_child_env(), capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 1, (name, verb, proc.stderr)
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: $.complex.ell: ")
            assert "Traceback" not in proc.stderr


def test_small_documents_that_would_exhaust_memory_exit_1(tmp_path):
    # Repeated facets once let ell exceed the distinct vertices (an ell^2
    # order matrix), 2,000 singletons once reached the S^2 pair loop, and
    # 1,000 disjoint 5-vertex Delta strata once let ell reach 5,000; each
    # ended in a MemoryError or exit 2 under the capped address space.
    import subprocess
    import sys

    docs = {"repeated": ({"ell": 20_000, "d": 1, "facets": [[1, 2]] * 10_000},
                         "error: $.complex.ell: "),
            "strata": ({"ell": 2_000, "d": 0, "facets": [[v] for v in range(1, 2_001)]},
                       "error: $.complex.facets: "),
            "delta": ({"ell": 5_000, "d": 4, "mode": "delta", "face_map": [],
                       "strata": [{"id": f"s{k}", "vertices": list(range(5 * k + 1, 5 * k + 6))}
                                  for k in range(1_000)]},
                      "error: $.complex.ell: ")}
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
            "from skeletrop.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    for name, (spec, prefix) in docs.items():
        doc = tmp_path / f"{name}.json"
        doc.write_text(json.dumps({"schema_version": 1, "complex": spec}), encoding="utf-8")
        for verb in ("check", "validate", "canonical"):
            proc = subprocess.run([sys.executable, "-c", code, verb, str(doc)],
                                  env=_child_env(), capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 1, (name, verb, proc.stderr)
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith(prefix), (name, verb, lines)
            assert proc.stdout == ""


def test_hostile_json_exits_1_without_traceback(tmp_path):
    # Too deep for json's recursion, and an integer too long for int().
    import subprocess
    import sys

    docs = {"deep": '{"schema_version": 1, "complex": '
                    + "[" * 100_000 + "]" * 100_000 + "}"}
    # Python before 3.10.7 has no digit limit.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        docs["long"] = '{"schema_version": ' + "1" * (limit + 1) + "}"
    env = _child_env()
    for name, text in docs.items():
        doc = tmp_path / f"{name}.json"
        doc.write_text(text, encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "skeletrop.cli", "check", str(doc)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, name
        assert proc.stderr.startswith("error: $: "), name
        assert proc.stderr.count("\n") == 1, name
        assert "Traceback" not in proc.stderr, name


def test_validate_warns_on_disconnected(tmp_path, capsys):
    doc = tmp_path / "two.json"
    doc.write_text(json.dumps({
        "schema_version": 1,
        "complex": {"ell": 4, "d": 1, "facets": [[1, 2], [3, 4]]},
    }), encoding="utf-8")
    assert main(["validate", str(doc)]) == 0
    assert "disconnected" in capsys.readouterr().err


def test_canonical_matches_library(cycle3_file, capsys):
    assert main(["canonical", str(cycle3_file)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["orders"] == [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_fixtures_gen_roundtrip(tmp_path, capsys):
    assert main(["fixtures", "gen", "cycle", "--n", "4"]) == 0
    text = capsys.readouterr().out
    assert json.loads(text)["complex"]["ell"] == 4
    assert main(["fixtures", "gen", "random", "--ell", "5", "--dim", "2",
                 "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["fixtures", "gen", "random", "--ell", "5", "--dim", "2",
                 "--seed", "7"]) == 0
    assert capsys.readouterr().out == first


def test_fixtures_gen_bad_params(capsys):
    assert main(["fixtures", "gen", "cycle", "--n", "1"]) == 1
    assert "n >= 2" in capsys.readouterr().err


def test_fixtures_gen_refuses_a_size_beyond_the_strata_limit_unbuilt(capsys, monkeypatch):
    # Built, a cycle of 10^12 components would exhaust memory long before
    # the parser could refuse it; here building would fail at once.
    monkeypatch.setattr(documents, "range", None, raising=False)
    monkeypatch.setattr(documents, "_doc_from_dict", None)
    assert main(["fixtures", "gen", "cycle", "--n", "1000000000000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: n = 1000000000000 gives a complex of more than 1000 "
                            "strata, the most a document may have\n")


def test_bounds_command(capsys):
    assert main(["bounds", "--dim", "3", "--mode", "fujita", "--ell", "4",
                 "--case", "trivial_canonical"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"d": 3, "mode": "fujita", "phi_upper_bound": 4, "ell": 4,
                    "coordinate_count": 8, "case": "trivial_canonical",
                    "corollary_twist": 4}


def test_bounds_refuses_fujita_in_high_dimension(capsys):
    assert main(["bounds", "--dim", "5", "--mode", "fujita"]) == 1
    assert "dimension 4" in capsys.readouterr().err


def test_jobs_produce_identical_certificates(tmp_path):
    src = tmp_path / "fixture.json"
    src.write_text(input_text(generate_fixture("simplex_boundary", dim=3)),
                   encoding="utf-8")
    one = tmp_path / "one.json"
    eight = tmp_path / "eight.json"
    assert main(["check", str(src), "--jobs", "1", "--out", str(one)]) == 0
    assert main(["check", str(src), "--jobs", "8", "--out", str(eight)]) == 0
    assert one.read_bytes() == eight.read_bytes()


def test_jobs_below_one_exit_1(tmp_path, capsys):
    # --jobs never changes the work done, but a value below 1 is still refused.
    src = tmp_path / "fixture.json"
    src.write_text(input_text(generate_fixture("simplex_boundary", dim=3)), encoding="utf-8")
    out = tmp_path / "out.json"
    for jobs in ("0", "-3"):
        assert main(["check", str(src), "--jobs", jobs, "--out", str(out)]) == 1
        assert "jobs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_output_is_written_without_a_second_copy(tmp_path):
    # 15 MiB of text whose last characters are not ASCII: encoded in one
    # piece, its UTF-8 bytes alone would take more than 15 MiB.
    text = "x" * (15 << 20) + "éß\n" * 3
    out = tmp_path / "big.txt"
    tracemalloc.start()
    try:
        cli._write_output(text, str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_text(encoding="utf-8") == text
    assert peak < 4 << 20, peak


def test_stdin_input(monkeypatch, capsys):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(input_text(generate_fixture("path", n=2))))
    assert main(["validate", "-"]) == 0


def test_document_check_options_and_flag_precedence(tmp_path):
    # the document pins certificate mode and a single pair; the CLI flag wins
    doc = json.loads(input_text(generate_fixture("cycle", n=4)))
    doc["check"] = {"mode": "certificate", "pairs": [["1-2", "3-4"]]}
    src = tmp_path / "doc.json"
    src.write_text(json.dumps(doc), encoding="utf-8")

    out = tmp_path / "cert.json"
    assert main(["check", str(src), "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["mode"] == "certificate"
    assert len(cert["pairs"]) == 1
    assert "exact" not in cert["pairs"][0]

    assert main(["check", str(src), "--mode", "exact", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["mode"] == "exact"
    assert "separation" not in cert["pairs"][0]
    assert cert["pairs"][0]["exact"]["disjoint"] is True


def test_parser_is_built_once_per_process(cycle3_file, tmp_path, monkeypatch):
    assert build_parser() is not build_parser()
    main(["check", str(cycle3_file), "--out", str(tmp_path / "a.json")])
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    assert main(["check", str(cycle3_file), "--out", str(tmp_path / "b.json")]) == 0
    assert main(["check", str(cycle3_file), "--mode", "exact",
                 "--out", str(tmp_path / "c.json")]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert json.loads((tmp_path / "c.json").read_text())["mode"] == "exact"


def test_choice_lists_are_the_owners_vocabularies():
    import argparse

    from skeletrop import bounds, documents, tropicalize

    def sub(parser, name):
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices[name]

    def choices(parser, dest):
        return next(a.choices for a in parser._actions if a.dest == dest)

    parser = build_parser()
    assert choices(sub(parser, "check"), "mode") == tropicalize.MODES
    assert choices(sub(sub(parser, "fixtures"), "gen"), "kind") == documents.FIXTURE_KINDS
    assert choices(sub(parser, "bounds"), "mode") == bounds.MODES
    assert choices(sub(parser, "bounds"), "case") == bounds.CASES
