"""Command-line surface: verbs, exit codes, and output determinism."""

import json

import pytest

from skeletrop import cli
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
