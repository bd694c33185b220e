"""Command-line interface.

Verbs: ``validate`` (complex and order axioms), ``canonical`` (print the
canonical order matrix), ``check`` (faithfulness certificate), ``fixtures
gen`` (deterministic test complexes), ``bounds`` (thresholds and counts).

Exit codes: 0 success/faithful/valid, 1 usage or input error, 2 not
faithful or invariant violations, 3 certificate incomplete.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import bounds
from ._exact import at_least
from ._version import __version__
from .bounds import BoundQuery, coordinate_count, corollary_twist, phi_upper_bound
from .complexes import DualComplex, connected_components, validate_complex
# ``emit_certificate`` is not called here; it stays importable from this
# module because the benchmark's traced run wraps it by this name.
from .documents import (FIXTURE_KINDS, MAX_DOCUMENT_BYTES, InputDocument, InputError,
                        certificate_texts, emit_certificate, generate_fixture,
                        input_digest, input_text, orders_texts, parse_input)
from .sections import OrderMatrix, canonical_order_matrix, validate_orders
from .tropicalize import MODES, check_faithful

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAILED = 2
EXIT_INCOMPLETE = 3
# Output is rendered as lists of texts and joined this many texts at a
# time, a few hundred kilobytes of pair records, so no string the size of
# a certificate is ever built.
WRITE_BATCH = 4096
# A joined batch or a single long text is written this many characters at
# a time, at most 4 MiB once encoded, so writing never holds a second copy
# of it in bytes.
WRITE_SLICE = 1 << 20
# A document is read this many bytes at a time after its first read, which
# asks for a regular file's whole size.
READ_CHUNK = 1 << 20


def _read_bounded(stream, first: int) -> bytes | None:
    """The binary ``stream`` to its end, or None once it gives more than
    ``MAX_DOCUMENT_BYTES``: ``first`` bytes, then ``READ_CHUNK`` at a time.
    A read of n bytes allocates n up front, so a small document never costs
    a buffer the size of the limit."""
    chunks, left, step = [], MAX_DOCUMENT_BYTES + 1, first
    while left > 0:
        chunk = stream.read(min(step, left))
        if not chunk:
            break
        chunks.append(chunk)
        left -= len(chunk)
        step = READ_CHUNK
    return None if left == 0 else b"".join(chunks)


def _read_text(path: str) -> str:
    """The text of the document in the file ``path``, or on stdin for ``-``.

    A document of more than ``MAX_DOCUMENT_BYTES`` bytes is refused before
    it is decoded: a regular file by its size, before anything is read, and
    stdin once it gives one byte more than the limit.  The bytes are
    decoded as UTF-8 and dropped on return, before anything parses the
    text; a file's line ends are translated as ``open`` in text mode
    translates them.  A text stream in stdin's place, such as a
    ``StringIO``, is in memory already: it is read whole, and
    ``parse_input`` bounds its characters.
    """
    limit = MAX_DOCUMENT_BYTES
    if path == "-":
        stream = getattr(sys.stdin, "buffer", None)
        if stream is None:
            return sys.stdin.read()
        data = _read_bounded(stream, READ_CHUNK)
    else:
        with open(path, "rb") as fh:
            # A pipe or a device has size 0: it is read a chunk at a time.
            size = os.fstat(fh.fileno()).st_size
            data = _read_bounded(fh, size + 1) if size <= limit else None
    if data is None:
        raise InputError("$", f"the document has more than {limit} bytes")
    text = data.decode("utf-8")
    if path != "-" and "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _read_document(path: str) -> InputDocument:
    return parse_input(_read_text(path))


def _write_batches(texts, fh) -> None:
    batch = []
    for part in texts:
        batch += part
        if len(batch) >= WRITE_BATCH:
            _write_text("".join(batch), fh)
            batch.clear()
    # The join of a single text is that text itself, not a copy.
    _write_text("".join(batch), fh)


def _write_text(text: str, fh) -> None:
    for start in range(0, len(text), WRITE_SLICE):
        fh.write(text[start:start + WRITE_SLICE])


def _write_output(texts, out: str | None) -> None:
    """Write ``texts``, one text or an iterable of lists of texts (such as
    ``certificate_texts``), to the file ``out``, or to stdout when ``out``
    is None or ``-``.

    The lists are rendered while they are written, so an error in
    rendering or writing comes after the file is truncated: the file is
    then removed before the error goes on, and no partial output is left
    behind.  What has already gone to stdout cannot be taken back.
    """
    if isinstance(texts, str):
        texts = ([texts],)
    if out in (None, "-"):
        _write_batches(texts, sys.stdout)
        return
    fh = open(out, "w", encoding="utf-8")
    try:
        with fh:
            _write_batches(texts, fh)
    except BaseException:
        # Only what this call wrote is removed: not a device such as /dev/null.
        if os.path.isfile(out):
            os.remove(out)
        raise


def _collect_problems(c: DualComplex, m: OrderMatrix) -> list[str]:
    problems = [f"complex: [{v.rule}] {v.message}" + (f" (stratum {v.subject})" if v.subject else "")
                for v in validate_complex(c)]
    if not problems:
        problems += [f"orders: [{v.rule}] {v.message}" for v in validate_orders(m, c)]
    return problems


def _cmd_validate(args) -> int:
    doc = _read_document(args.input)
    problems = _collect_problems(doc.complex, doc.effective_orders())
    for line in problems:
        print(line)
    components = connected_components(doc.complex)
    if len(components) > 1:
        print(f"warning: complex is disconnected ({len(components)} components)",
              file=sys.stderr)
    if problems:
        return EXIT_FAILED
    print(f"valid: {len(doc.complex.strata)} strata on {doc.complex.ell} vertices")
    return EXIT_OK


def _cmd_canonical(args) -> int:
    doc = _read_document(args.input)
    _write_output(orders_texts(canonical_order_matrix(doc.complex)), args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    doc = _read_document(args.input)
    # One matrix for both calls: check_faithful reuses the validation kept
    # on the complex and the matrix instead of validating again.
    m = doc.effective_orders()
    problems = _collect_problems(doc.complex, m)
    if problems:
        for line in problems:
            print(line, file=sys.stderr)
        return EXIT_ERROR
    mode = args.mode or doc.check_mode or "both"
    # --jobs and check.jobs are accepted for compatibility and never change
    # the work done; parse_input already refuses a check.jobs below 1.
    if args.jobs is not None:
        at_least(args.jobs, 1, "jobs must be at least 1")
    report = check_faithful(doc.complex, m, mode=mode, pair_filter=doc.pair_filter)
    _write_output(certificate_texts(report, input_digest(doc)), args.out)
    if report.overall == "faithful":
        return EXIT_OK
    if report.overall == "certificate_incomplete":
        return EXIT_INCOMPLETE
    return EXIT_FAILED


def _cmd_fixtures_gen(args) -> int:
    doc = generate_fixture(args.kind, n=args.n, dim=args.dim, ell=args.ell,
                           seed=args.seed)
    _write_output(input_text(doc), args.out)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    query = BoundQuery(d=args.dim, ell=args.ell or 1, mode=args.mode)
    out = {"d": args.dim, "mode": args.mode, "phi_upper_bound": phi_upper_bound(query)}
    if args.ell is not None:
        out["ell"] = args.ell
        out["coordinate_count"] = coordinate_count(args.ell, args.dim)
    if args.case is not None:
        out["case"] = args.case
        out["corollary_twist"] = corollary_twist(args.dim, args.case)
    sys.stdout.write(json.dumps(out, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skeletrop",
        description="Exact certification of unimodular and faithful "
                    "tropicalizations of degeneration skeletons.")
    parser.add_argument("--version", action="version", version=f"skeletrop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check complex and order-matrix invariants")
    p.add_argument("input", help="input document path, or - for stdin")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("canonical", help="print the canonical order matrix")
    p.add_argument("input", help="input document path, or - for stdin")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("check", help="run the faithfulness check and emit a certificate")
    p.add_argument("input", help="input document path, or - for stdin")
    p.add_argument("--mode", choices=MODES, default=None,
                   help="evidence route per stratum pair (default: both)")
    p.add_argument("--jobs", type=int, default=None,
                   help="accepted for compatibility (at least 1); pairs are checked "
                        "serially and the output never depends on it")
    p.add_argument("--out", default=None, help="write certificate to a file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("fixtures", help="fixture utilities")
    fix_sub = p.add_subparsers(dest="fixtures_command", required=True)
    g = fix_sub.add_parser("gen", help="generate a deterministic fixture document")
    g.add_argument("kind", choices=FIXTURE_KINDS)
    g.add_argument("--n", type=int, default=None, help="size for cycle/path")
    g.add_argument("--dim", type=int, default=None,
                   help="dimension for simplex_boundary/random")
    g.add_argument("--ell", type=int, default=None, help="vertex count for random")
    g.add_argument("--seed", type=int, default=None, help="seed for random")
    g.add_argument("--out", default=None, help="write to a file instead of stdout")
    g.set_defaults(func=_cmd_fixtures_gen)

    p = sub.add_parser("bounds", help="basepoint-freeness thresholds and counts")
    p.add_argument("--dim", type=int, required=True, help="variety dimension d")
    p.add_argument("--mode", choices=bounds.MODES, default="angehrn_siu")
    p.add_argument("--ell", type=int, default=None,
                   help="component count, to also report the section count")
    p.add_argument("--case", choices=bounds.CASES,
                   default=None, help="also report the special-case twist")
    p.set_defaults(func=_cmd_bounds)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Building the parser costs about as much as checking a small document,
    # so one parser serves every call in a process; parsing leaves it as built.
    return build_parser()


def main(argv: "list[str] | None" = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # an InputError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
