"""In-memory span and count recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: the
benchmark wraps the public functions of ``skeletrop`` where the calling
module refers to them (``skeletrop.cli`` for the check stages,
``skeletrop.tropicalize`` for the layers below ``check_faithful``) and
restores them afterwards.  The program's code is not changed, and nothing
is wrapped while end-to-end metrics are measured.

A span is ``[name, start, end, parent index, document id]``; spans of one
document share its id.  Counts are recorded at the same boundaries from
the wrapped call's arguments and result.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = defaultdict(int)
        self.doc = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(recorder, result, args)``
        records counts once the call returns."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.doc]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, result, args)
            return result

        return traced

    def totals(self, duration=lambda start, end: end - start):
        """Per span name: summed self time, summed whole-span time, call count.

        Self time is a span's duration minus the time its children cover;
        children of one span never overlap because tracing runs with one job.
        ``duration`` turns a span's (start, end) into seconds.
        """
        spent = [duration(start, end) for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for (_, _, _, parent, _), d in zip(self.spans, spent):
            if parent >= 0:
                child[parent] += d
        self_s: dict[str, float] = defaultdict(float)
        whole_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, _, _, _, _), d, inner in zip(self.spans, spent, child):
            self_s[name] += d - inner
            whole_s[name] += d
            calls[name] += 1
        return self_s, whole_s, calls

    def write(self, path, label: str) -> None:
        with gzip.open(path, "at", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"label": label, "fields": ["name", "start", "end",
                                                            "parent", "doc"],
                                 "spans": self.spans, "counts": dict(self.counts),
                                 "maxima": dict(self.maxima)}) + "\n")


def _count_faces(rec, doc, args):
    rec.counts["complexes.face_map_entries"] += len(doc.complex.face_map)


def _count_pairs(rec, report, args):
    for e in report.pairs:
        if e.relation == "face":
            rec.counts["pairs.face"] += 1
        elif e.exact is not None:
            rec.counts["pairs." + e.exact.method] += 1
        if e.disjoint is False:
            rec.counts["pairs.collision"] += 1


def _count_separation(rec, coord, args):
    rec.counts["separation.found"] += coord is not None


def _count_constraints(rec, poly, args):
    rec.counts["lattice.constraints"] += len(poly.constraints)


def _count_witness_bits(rec, result, args):
    hit, witness = result
    if witness is not None:
        bits = max(max(x.numerator.bit_length(), x.denominator.bit_length())
                   for x in witness)
        rec.maxima["lattice.witness_max_bits"] = max(rec.maxima["lattice.witness_max_bits"],
                                                     bits)


def _count_bytes(rec, text, args):
    rec.counts["documents.emit_certificate.bytes"] += len(text.encode("utf-8"))


# (module attribute, span name, count hook) for every layer boundary.
CLI_BOUNDARIES = (
    ("parse_input", "documents.parse_input", _count_faces),
    ("validate_complex", "complexes.validate_complex", None),
    ("validate_orders", "sections.validate_orders", None),
    ("check_faithful", "tropicalize.check_faithful", _count_pairs),
    ("emit_certificate", "documents.emit_certificate", _count_bytes),
)
TROPICALIZE_BOUNDARIES = (
    ("validate_complex", "complexes.validate_complex", None),
    ("validate_orders", "sections.validate_orders", None),
    ("build_map", "tropicalize.build_map", None),
    ("check_unimodular", "tropicalize.check_unimodular", None),
    ("smith_normal_form", "lattice.smith_normal_form", None),
    ("separation_certificate", "tropicalize.separation_certificate", _count_separation),
    ("simplex_image_polyhedron", "lattice.simplex_image_polyhedron", _count_constraints),
    ("relint_intersection_nonempty", "lattice.relint_intersection_nonempty",
     _count_witness_bits),
)


@contextmanager
def instrumented(rec: Recorder):
    """Route the check pipeline's layer calls through ``rec`` for the duration."""
    import skeletrop.cli as cli
    import skeletrop.tropicalize as tropicalize

    saved = []
    try:
        for module, boundaries in ((cli, CLI_BOUNDARIES),
                                   (tropicalize, TROPICALIZE_BOUNDARIES)):
            for attr, name, after in boundaries:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, rec.wrap(name, original, after))
        yield rec
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
