"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from skeletrop import cli  # noqa: E402
from skeletrop.documents import generate_fixture  # noqa: E402


def _check(doc: gen.Doc, tmp_path: Path, jobs: int = 1) -> tuple[int, bytes]:
    src, out = tmp_path / f"{doc.name}.json", tmp_path / f"{doc.name}-j{jobs}.cert"
    src.write_text(doc.text, encoding="utf-8")
    code = cli.main(["check", str(src), "--jobs", str(jobs), "--out", str(out)])
    return code, out.read_bytes()


def _mutate(cert: bytes, change) -> bytes:
    data = json.loads(cert)
    change(data)
    return json.dumps(data).encode()


def test_same_seed_gives_identical_inputs():
    for workload in worker.CHECK_WORKLOADS:
        first = [d.text for d in gen.workload_docs(workload, 7)]
        assert first == [d.text for d in gen.workload_docs(workload, 7)]
        assert first != [d.text for d in gen.workload_docs(workload, 8)]
    assert gen.valuation_items(7) == gen.valuation_items(7)
    assert gen.valuation_items(7) != gen.valuation_items(8)


def test_battery_complexes_are_the_acceptance_battery():
    for name, ell, d, facets in gen.battery_shapes()[:200]:
        seed = int(name.split("-")[1])
        fixture = generate_fixture("random", ell=ell, dim=d, seed=seed)
        assert fixture.canonical["complex"]["facets"] == facets


def test_oracle_accepts_the_program_answers(tmp_path):
    for doc in gen.delta_docs(3)[:1] + gen.delta_docs(3)[-1:] + gen.battery_docs(3)[200:203]:
        code, cert = _check(doc, tmp_path)
        assert oracle.certificate_problems(doc, code, cert) == [], doc.name


def test_oracle_rejects_mutated_answers(tmp_path):
    doc = gen.triangle_stack(3, 4, gen.random.Random(5))
    code, cert = _check(doc, tmp_path)
    assert code == 2 and oracle.certificate_problems(doc, code, cert) == []

    def corrupt_witness(data):
        pair = next(p for p in data["pairs"] if p["disjoint"] is False)
        w = pair["exact"]["witness"]
        w[0] = str(Fraction(w[0]) + Fraction(1, 7))

    def flip_verdict(data):
        data["overall"] = "faithful"

    def flip_pair(data):
        next(p for p in data["pairs"] if p["disjoint"] is True)["disjoint"] = False

    def wrong_coordinate(data):
        pair = next(p for p in data["pairs"] if p.get("separation"))
        pair["separation"]["coordinate"] = 4 if pair["separation"]["coordinate"] != 4 else 1

    for change in (corrupt_witness, flip_verdict, flip_pair, wrong_coordinate):
        assert oracle.certificate_problems(doc, code, _mutate(cert, change)), change.__name__
    assert oracle.certificate_problems(doc, 0, cert), "wrong exit code"


def test_wrong_answers_count_as_failures(tmp_path):
    good = gen.delta_docs(3)[-1]
    wrong = replace(good, name="wrong", collide=frozenset())
    runner = worker.CheckRunner([good, wrong], tmp_path / "w")
    runner.run_pass()
    runner.run_pass(jobs=2)
    assert (runner.attempted, runner.failed) == (4, 2)

    items = gen.valuation_items(3)[:1] + gen.valuation_items(3)[-1:]
    results = [worker.valuation_item(item) for item in items]
    assert [oracle.valuation_failures(i, r) for i, r in zip(items, results)] == [0, 0]
    results[0][0] += 1
    value, bound = results[1][0]
    results[1][0] = (value, bound + 1)
    assert [oracle.valuation_failures(i, r) for i, r in zip(items, results)] == [1, 1]


def test_jobs_do_not_change_certificates(tmp_path):
    doc = gen.scale_docs(3)[1]
    assert _check(doc, tmp_path, jobs=1) == _check(doc, tmp_path, jobs=2)


def test_spans_account_for_the_check(tmp_path):
    import skeletrop.tropicalize as tropicalize

    original = tropicalize.separation_certificate
    runner = worker.CheckRunner(gen.delta_docs(3)[-2:], tmp_path / "w")
    rec = spans.Recorder()
    with spans.instrumented(rec):
        (start, end), _ = runner.run_pass(rec=rec)
    assert tropicalize.separation_certificate is original
    self_s, whole_s, calls = rec.totals()
    assert abs(sum(self_s.values()) - whole_s["cli.check"]) < 1e-6
    assert whole_s["cli.check"] <= end - start
    assert calls["cli.check"] == 2 and calls["complexes.validate_complex"] == 4
    assert calls["lattice.relint_intersection_nonempty"] == rec.counts["pairs.lp"] > 0
    assert rec.counts["pairs.collision"] == sum(len(d.collide) for d in runner.docs)
    assert runner.failed == 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == {"setup_s": "s", **worker.END_TO_END_UNITS}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(worker.WORKLOADS)


def test_speed_probe_normalizes_between_its_samples():
    probe = speed.SpeedProbe()
    probe.starts, probe.ends, probe.scale = [1.0, 2.0], [1.1, 2.1], [2.0, 4.0]
    # 0.5 s before the first sample at its scale, 0.9 s between the samples
    # at their mean scale, 0.4 s after the last at its scale; probe time excluded.
    assert abs(probe.normalized(0.5, 2.5) - (0.5 * 2 + 0.9 * 3 + 0.4 * 4)) < 1e-12
    assert abs(probe.normalized(1.2, 1.5) - 0.3 * 3) < 1e-12
    with speed.SpeedProbe() as live:
        deadline = perf_counter() + 0.2
        while perf_counter() < deadline:
            speed.reference_work()
    assert len(live.scale) >= 10


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "battery",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "{" not in proc.stdout
