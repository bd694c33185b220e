"""Benchmark of the skeletrop checker.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a checkout; the program is imported from ``src``, so
nothing is built or installed.  Workloads: ``battery``, ``scale``,
``delta`` (documents through ``skeletrop check``) and ``valuations``
(the min-plus and affine evaluators).  With ``--trace 0`` the run measures
the end-to-end metrics with tracing off; with ``--trace 1`` it records
spans and counts and reports the per-layer metrics, and writes the spans
to ``.perfbench_out/trace-<workload>-<seed>.jsonl.gz``.  Every answer is
checked against an oracle that does not use the program.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, whose names and units are those listed in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170
# Builds the parser, then gauges the core's speed and prints both; the
# benchmark's directory is the first argument.
SETUP_CODE = """
import sys, time
import skeletrop.cli as cli
cli.build_parser()
done = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import speed
print(done, speed.scale_now())
"""


def program_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def measure_setup() -> float:
    """Median normalised time from starting a fresh interpreter to the CLI's
    parser being built.  The end is read from the child's own clock (the
    system-wide monotonic clock), so waiting for the child to exit is not
    counted; the child then measures its core's speed scale.  One unmeasured
    start first writes the bytecode cache."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(HERE)]
    times = []
    for k in range(SETUP_SAMPLES + 1):
        start = perf_counter()
        out = subprocess.run(cmd, env=program_env(), cwd=ROOT, check=True, timeout=60,
                             stdout=subprocess.PIPE, text=True).stdout
        done, scale = map(float, out.split())
        if k:
            times.append((done - start) * scale)
    return statistics.median(times)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="skeletrop benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    started = perf_counter()

    if not (ROOT / "src" / "skeletrop" / "cli.py").is_file():
        return fail(f"no program source under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    metrics = {}
    if not args.trace:
        metrics["setup_s"] = [measure_setup(), "s"]

    out_dir = ROOT / ".perfbench_out"
    work = out_dir / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    trace_file = out_dir / f"trace-{args.workload}-{args.seed}.jsonl.gz"
    cmd = [sys.executable, str(HERE / "worker.py"), "--work", str(work),
           "--trace-file", str(trace_file), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        work.mkdir(parents=True)
        proc = subprocess.run(cmd, env=program_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_LIMIT_S - (perf_counter() - started))
    except subprocess.TimeoutExpired:
        return fail("workload did not finish in time")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        return fail(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics.update(result["metrics"])
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != declared:
        return fail(f"metrics {sorted(set(got) ^ set(declared))} disagree with BENCHMARK.json")
    for msg in result["problems"]:
        print(f"perfbench: wrong answer: {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload}: {failed} of {attempted} checked answers wrong")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
