"""One benchmark run in a fresh interpreter; started by run.py.

    worker.py --work DIR --trace-file F --workload W --seed S --seconds T --trace 0|1

Generates the workload's inputs from the seed, drives the program through
its public entry points for at least ``--seconds`` seconds (a single
client in a closed loop: each document or item starts after the previous
one returns), checks every answer with ``oracle`` and prints one JSON
object: ``attempted``, ``failed``, ``problems`` and ``metrics`` (name to
``[value, unit]``).  ``skeletrop`` must be importable from the checkout's
``src`` directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
from itertools import combinations
from pathlib import Path
from time import perf_counter

import gen
import oracle
import spans
import speed
from skeletrop import cli
from skeletrop.complexes import Stratum
from skeletrop.documents import parse_input
from skeletrop.sections import OrderMatrix, concavity_lower_bound, restrict_affine
from skeletrop.tropical import MonomialSupport, eval_min_plus
from skeletrop.tropicalize import build_map, images_relint_disjoint_exact

CHECK_WORKLOADS = ("battery", "scale", "delta")
WORKLOADS = CHECK_WORKLOADS + ("valuations",)

# Per-layer metrics whose value is the summed self time of one span name.
SELF_TIMED = (
    "documents.parse_input", "complexes.validate_complex", "sections.validate_orders",
    "tropicalize.build_map", "tropicalize.check_unimodular", "lattice.smith_normal_form",
    "tropicalize.separation_certificate", "lattice.simplex_image_polyhedron",
    "lattice.relint_intersection_nonempty", "documents.emit_certificate",
    "tropical.eval_min_plus", "sections.evaluate", "sections.concavity_lower_bound",
)
CALL_COUNTED = (
    "complexes.validate_complex", "tropicalize.check_unimodular",
    "tropicalize.separation_certificate", "lattice.relint_intersection_nonempty",
    "tropical.eval_min_plus", "sections.evaluate",
)
COUNTS = {"complexes.face_map_entries": "count", "pairs.face": "count",
          "pairs.interval": "count", "pairs.lp": "count", "pairs.collision": "count",
          "documents.emit_certificate.bytes": "bytes"}

END_TO_END_UNITS = {"batch_s": "s", "item_p50_ms": "ms", "item_p95_ms": "ms",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{f"{name}.s": "s" for name in SELF_TIMED},
    **{f"{name}.calls": "count" for name in CALL_COUNTED},
    **COUNTS,
    "tropicalize.separation_certificate.found": "ratio",
    "lattice.constraints_per_poly": "count",
    "lattice.witness_max_bits": "bits",
    "tropicalize.check_faithful.s": "s",
    "tropicalize.check_faithful.self_s": "s",
    "tropicalize.images_relint_disjoint_exact.s": "s",
    "cli.check.self_s": "s",
    "valuations.item.self_s": "s",
    "check_j2_s": "s",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_frac": "ratio",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def closed_loop(run, inputs, rec: spans.Recorder | None = None):
    """Each input starts after the previous one returns.

    Returns the pass's (start, end), each input's (start, end) and results.
    """
    intervals, results = [], []
    start = perf_counter()
    for k, x in enumerate(inputs):
        if rec is not None:
            rec.doc = k
        t = perf_counter()
        results.append(run(x))
        intervals.append((t, perf_counter()))
    return (start, perf_counter()), intervals, results


class CheckRunner:
    """The check workloads: every document through ``skeletrop check``."""

    def __init__(self, docs: list[gen.Doc], work: Path):
        self.docs = docs
        inputs = work / "in"
        inputs.mkdir(parents=True)
        self.outs = {jobs: work / f"out-j{jobs}" for jobs in (1, 2)}
        self.argv = {}
        for jobs, out in self.outs.items():
            out.mkdir()
            self.argv[jobs] = [["check", str(inputs / f"{d.name}.json"), "--jobs", str(jobs),
                                "--out", str(out / f"{d.name}.json")] for d in docs]
        for d in docs:
            (inputs / f"{d.name}.json").write_text(d.text, encoding="utf-8")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.expected: list[bytes] | None = None
        self.first_ok: list[bool] = []

    def run_pass(self, jobs: int = 1, rec: spans.Recorder | None = None):
        """One pass over the documents; returns the pass and per-document intervals."""
        run = cli.main if rec is None else rec.wrap("cli.check", cli.main)
        span, intervals, codes = closed_loop(run, self.argv[jobs], rec)
        self._verify(jobs, codes)
        return span, intervals

    def _verify(self, jobs: int, codes: list[int]) -> None:
        """Oracle-check the first pass; later passes, and jobs 2, must
        reproduce its exit codes and certificate bytes exactly."""
        certs = [(self.outs[jobs] / f"{d.name}.json").read_bytes() for d in self.docs]
        if self.expected is None:
            self.expected = [hashlib.sha256(c).digest() for c in certs]
            for d, code, cert in zip(self.docs, codes, certs):
                found = oracle.certificate_problems(d, code, cert)
                self.problems += [f"{d.name}: {msg}" for msg in found[:5]]
                self.first_ok.append(not found)
        for d, code, cert, want, ok in zip(self.docs, codes, certs, self.expected,
                                           self.first_ok):
            self.attempted += 1
            if not ok or code != d.expect_exit or hashlib.sha256(cert).digest() != want:
                self.failed += 1
                if ok:
                    self.problems.append(f"{d.name}: jobs {jobs} exit {code} or certificate "
                                         "differs from the first pass")

    def decomposition(self, rec: spans.Recorder) -> None:
        """The exact route on its own: every non-face pair through the public
        ``images_relint_disjoint_exact``, spans under ``rec``."""
        exact = rec.wrap("tropicalize.images_relint_disjoint_exact",
                         images_relint_disjoint_exact)
        for k, d in enumerate(self.docs):
            rec.doc = k
            parsed = parse_input(d.text)
            f = build_map(parsed.complex, parsed.effective_orders(), check=False)
            for a, b in combinations(sorted(d.vertices), 2):
                if (a, b) not in d.faces and (b, a) not in d.faces:
                    exact(f, a, b)


def affine_evaluate(m, i, s, u):
    return restrict_affine(m, i, s).evaluate(u)


def valuation_item(item, min_plus=eval_min_plus, evaluate=affine_evaluate,
                   bound=concavity_lower_bound):
    """One item: a support at its points, or a complex's affine group."""
    if isinstance(item, gen.MinPlusItem):
        support = MonomialSupport.from_exponents(item.exponents)
        return [min_plus(support, u) for u in item.points]
    m = OrderMatrix(item.orders, (True,) * len(item.orders))
    strata: dict = {}
    out = []
    for i, verts, u in item.points:
        s = strata.get(verts)
        if s is None:
            s = strata[verts] = Stratum("-".join(map(str, verts)), verts)
        out.append((evaluate(m, i, s, u), bound(m, i, s, u)))
    return out


class ValuationRunner:
    """The valuations workload: evaluators that ``check`` never calls."""

    def __init__(self, items: list):
        self.items = items
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.expected: list | None = None
        self.wrong: list[int] = []

    def run_pass(self, rec: spans.Recorder | None = None):
        """One pass over the items; returns the pass and per-item intervals."""
        if rec is None:
            run = valuation_item
        else:
            fns = (rec.wrap("tropical.eval_min_plus", eval_min_plus),
                   rec.wrap("sections.evaluate", affine_evaluate),
                   rec.wrap("sections.concavity_lower_bound", concavity_lower_bound))
            item_span = rec.wrap("valuations.item", valuation_item)

            def run(item):
                return item_span(item, *fns)
        span, intervals, results = closed_loop(run, self.items, rec)
        self._verify(results)
        return span, intervals

    def _verify(self, results: list) -> None:
        if self.expected is None:
            self.expected = results
            self.wrong = [oracle.valuation_failures(item, got)
                          for item, got in zip(self.items, results)]
            self.problems += [f"item {k}: {n} wrong values"
                              for k, n in enumerate(self.wrong) if n][:20]
        for item, got, want, wrong in zip(self.items, results, self.expected, self.wrong):
            self.attempted += len(item.points)
            if got != want:
                self.problems.append("a later pass disagrees with the first")
                wrong = len(item.points)
            self.failed += wrong


def layer_metrics(rec: spans.Recorder, duration, untraced: float,
                  traced: float) -> dict[str, float]:
    self_s, whole_s, calls = rec.totals(duration)
    out = {f"{name}.s": self_s.get(name, 0.0) for name in SELF_TIMED}
    out.update({f"{name}.calls": calls.get(name, 0) for name in CALL_COUNTED})
    out.update({name: rec.counts.get(name, 0) for name in COUNTS})
    sep_calls = calls.get("tropicalize.separation_certificate", 0)
    polys = calls.get("lattice.simplex_image_polyhedron", 0)
    out.update({
        "tropicalize.separation_certificate.found":
            rec.counts["separation.found"] / sep_calls if sep_calls else 0.0,
        "lattice.constraints_per_poly":
            rec.counts["lattice.constraints"] / polys if polys else 0.0,
        "lattice.witness_max_bits": rec.maxima.get("lattice.witness_max_bits", 0),
        "tropicalize.check_faithful.s": whole_s.get("tropicalize.check_faithful", 0.0),
        "tropicalize.check_faithful.self_s": self_s.get("tropicalize.check_faithful", 0.0),
        "cli.check.self_s": self_s.get("cli.check", 0.0),
        "valuations.item.self_s": self_s.get("valuations.item", 0.0),
        "trace.untraced_s": untraced,
        "trace.traced_s": traced,
        "trace.overhead_s": traced - untraced,
        "trace.accounted_frac": sum(self_s.values()) / traced,
    })
    return out


def measure(runner, workload: str, seconds: float, trace: bool, trace_path: Path) -> dict:
    """Passes until ``seconds`` have gone by (at least one), under a speed
    probe; every time reported is in reference-speed seconds except
    ``check_j2_s``, whose pool threads would compete with the probe."""
    check = workload in CHECK_WORKLOADS
    deadline = perf_counter() + seconds
    passes, rounds = [], []
    with speed.SpeedProbe() as probe:
        while not (passes or rounds) or perf_counter() < deadline:
            if not trace:
                passes.append(runner.run_pass())
                continue
            untraced, _ = runner.run_pass()
            rec = spans.Recorder()
            if check:
                with spans.instrumented(rec):
                    traced, _ = runner.run_pass(rec=rec)
            else:
                traced, _ = runner.run_pass(rec=rec)
            rounds.append((untraced, traced, rec))
        if trace and check:
            decomposition = spans.Recorder()
            with spans.instrumented(decomposition):
                runner.decomposition(decomposition)
    norm = probe.normalized
    plain = [span for span, _ in passes] or [u for u, _, _ in rounds]
    raw = statistics.median(b - a for a, b in plain)
    print(f"{workload}: {len(plain)} passes, median raw wall {raw:.4g} s, "
          f"median speed scale {statistics.median(probe.scale):.3f}", file=sys.stderr)

    if not trace:
        # Each item's latency is its median over the passes; the batch time is
        # their sum, one pass without the loop around the calls.
        latencies = [statistics.median(norm(*iv) for iv in item)
                     for item in zip(*(intervals for _, intervals in passes))]
        values = {"batch_s": sum(latencies),
                  "item_p50_ms": percentile(latencies, 50) * 1000,
                  "item_p95_ms": percentile(latencies, 95) * 1000,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        return {name: [values[name], unit] for name, unit in END_TO_END_UNITS.items()}

    per_round = [layer_metrics(rec, norm, norm(*untraced), norm(*traced))
                 for untraced, traced, rec in rounds]
    values = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    values["tropicalize.images_relint_disjoint_exact.s"] = 0.0
    values["check_j2_s"] = 0.0
    recorders = [rec for _, _, rec in rounds]
    if check:
        values["tropicalize.images_relint_disjoint_exact.s"] = \
            decomposition.totals(norm)[0]["tropicalize.images_relint_disjoint_exact"]
        recorders.append(decomposition)
        (a, b), _ = runner.run_pass(jobs=2)
        values["check_j2_s"] = b - a
    trace_path.unlink(missing_ok=True)
    for k, rec in enumerate(recorders):
        rec.write(trace_path, "decomposition" if k == len(rounds) else f"traced-pass-{k}")
    return {name: [values[name], unit] for name, unit in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--work", required=True, type=Path)
    p.add_argument("--trace-file", required=True, type=Path)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    src = Path(__file__).resolve().parents[1] / "src"
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"skeletrop was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    if args.workload in CHECK_WORKLOADS:
        runner = CheckRunner(gen.workload_docs(args.workload, args.seed), args.work)
    else:
        runner = ValuationRunner(gen.valuation_items(args.seed))
    metrics = measure(runner, args.workload, args.seconds, bool(args.trace), args.trace_file)
    print(json.dumps({"attempted": runner.attempted, "failed": runner.failed,
                      "problems": runner.problems[:20], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
