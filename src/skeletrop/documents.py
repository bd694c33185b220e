"""Input documents, fixture generation, and certificate serialization.

Documents are UTF-8 JSON.  Vertices are 1-indexed, rationals travel as
strings like ``"3/4"`` (plain integers allowed), and both input and
certificate serializations are canonical: the same content always produces
byte-identical text.  Input documents are written with ``json.dumps``;
certificates, which grow with the square of the stratum count, are written
record by record from fixed templates with the same layout.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode

from ._version import __version__
from .complexes import DualComplex, build_delta_complex, build_from_facets
from .sections import OrderMatrix, canonical_order_matrix
from .tropicalize import FaithfulnessReport

__all__ = [
    "SCHEMA_VERSION",
    "InputError",
    "InputDocument",
    "parse_input",
    "input_text",
    "input_digest",
    "generate_fixture",
    "emit_certificate",
    "format_rational",
    "parse_rational",
]

SCHEMA_VERSION = 1
FIXTURE_KINDS = ("cycle", "path", "simplex_boundary", "random")


class InputError(ValueError):
    """Malformed input document; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def format_rational(x) -> str:
    return str(Fraction(x))


def parse_rational(text, path: str = "value") -> Fraction:
    if isinstance(text, bool) or isinstance(text, float):
        raise InputError(path, f"rationals must be integers or 'p/q' strings, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(path, f"malformed rational {text!r}: {exc}") from None
    raise InputError(path, f"rationals must be integers or 'p/q' strings, got {text!r}")


def _reject_unknown(obj: dict, allowed: tuple, path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise InputError(f"{path}.{key}",
                             f"unknown field (expected one of {sorted(allowed)})")


def _expect(obj, key, kind, path, default=None, required=True):
    if key not in obj:
        if required:
            raise InputError(f"{path}.{key}", "missing field")
        return default
    value = obj[key]
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise InputError(f"{path}.{key}", f"expected an integer, got {value!r}")
    if kind is str and not isinstance(value, str):
        raise InputError(f"{path}.{key}", f"expected a string, got {value!r}")
    if kind is list and not isinstance(value, list):
        raise InputError(f"{path}.{key}", f"expected a list, got {value!r}")
    if kind is dict and not isinstance(value, dict):
        raise InputError(f"{path}.{key}", f"expected an object, got {value!r}")
    return value


def _int_list(values, path) -> list[int]:
    if not isinstance(values, list):
        raise InputError(path, f"expected a list, got {values!r}")
    out = []
    for k, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, int):
            raise InputError(f"{path}[{k}]", f"expected an integer, got {v!r}")
        out.append(v)
    return out


@dataclass(frozen=True, eq=False)
class InputDocument:
    """Parsed and validated input: complex, optional orders, check options."""

    schema_version: int
    complex: DualComplex
    complex_mode: str  # "simplicial" | "delta"
    order_matrix: OrderMatrix | None
    check_mode: str | None
    jobs: int | None
    pair_filter: tuple[tuple[str, str], ...] | None
    canonical: dict

    def effective_orders(self) -> OrderMatrix:
        if self.order_matrix is not None:
            return self.order_matrix
        return canonical_order_matrix(self.complex)


def _parse_complex(spec: dict, path: str) -> tuple[DualComplex, str, dict]:
    ell = _expect(spec, "ell", int, path)
    d = _expect(spec, "d", int, path)
    mode = _expect(spec, "mode", str, path, default="simplicial", required=False)
    if mode not in ("simplicial", "delta"):
        raise InputError(f"{path}.mode", f"expected 'simplicial' or 'delta', got {mode!r}")
    if ell < 1:
        raise InputError(f"{path}.ell", "must be at least 1")
    if d < 0:
        raise InputError(f"{path}.d", "must be nonnegative")
    if mode == "simplicial":
        _reject_unknown(spec, ("ell", "d", "mode", "facets"), path)
        facets_raw = _expect(spec, "facets", list, path)
        facets = [_int_list(f, f"{path}.facets[{k}]")
                  for k, f in enumerate(facets_raw)]
        try:
            cx = build_from_facets(ell, d, facets)
        except ValueError as exc:
            raise InputError(f"{path}.facets", str(exc)) from None
        canon = {"ell": ell, "d": d, "mode": "simplicial", "facets": facets}
        return cx, mode, canon
    _reject_unknown(spec, ("ell", "d", "mode", "strata", "face_map"), path)
    strata_raw = _expect(spec, "strata", list, path)
    strata = []
    for k, entry in enumerate(strata_raw):
        epath = f"{path}.strata[{k}]"
        if not isinstance(entry, dict):
            raise InputError(epath, "expected an object with id and vertices")
        _reject_unknown(entry, ("id", "vertices"), epath)
        sid = _expect(entry, "id", str, epath)
        verts = _int_list(_expect(entry, "vertices", list, epath), f"{epath}.vertices")
        strata.append((sid, verts))
    faces_raw = _expect(spec, "face_map", list, path)
    faces = []
    for k, entry in enumerate(faces_raw):
        epath = f"{path}.face_map[{k}]"
        if not isinstance(entry, dict):
            raise InputError(epath, "expected an object with stratum, subset, face")
        _reject_unknown(entry, ("stratum", "subset", "face"), epath)
        owner = _expect(entry, "stratum", str, epath)
        subset = _int_list(_expect(entry, "subset", list, epath), f"{epath}.subset")
        fid = _expect(entry, "face", str, epath)
        faces.append((owner, subset, fid))
    try:
        cx = build_delta_complex(ell, d, strata, faces)
    except ValueError as exc:
        raise InputError(f"{path}.strata", str(exc)) from None
    canon = {"ell": ell, "d": d, "mode": "delta",
             "strata": [{"id": sid, "vertices": list(vs)} for sid, vs in strata],
             "face_map": [{"stratum": o, "subset": sorted(sub), "face": fid}
                          for o, sub, fid in faces]}
    return cx, mode, canon


def _parse_orders(spec: dict, ell: int, path: str) -> tuple[OrderMatrix, dict]:
    _reject_unknown(spec, ("orders", "horizontal_effective"), path)
    rows_raw = _expect(spec, "orders", list, path)
    rows = [_int_list(r, f"{path}.orders[{k}]") for k, r in enumerate(rows_raw)]
    flags_raw = _expect(spec, "horizontal_effective", list, path,
                        default=None, required=False)
    if flags_raw is None:
        flags = [True] * (ell + 1)
    else:
        flags = []
        for k, v in enumerate(flags_raw):
            if not isinstance(v, bool):
                raise InputError(f"{path}.horizontal_effective[{k}]",
                                 f"expected a boolean, got {v!r}")
            flags.append(v)
    try:
        m = OrderMatrix(tuple(tuple(r) for r in rows), tuple(flags))
    except ValueError as exc:
        raise InputError(f"{path}.orders", str(exc)) from None
    if m.ell != ell:
        raise InputError(f"{path}.orders",
                         f"matrix is for {m.ell} components, complex has {ell}")
    canon = {"orders": [list(r) for r in m.orders],
             "horizontal_effective": list(m.horizontal_effective)}
    return m, canon


def parse_input(text: str) -> InputDocument:
    """Parse and structurally validate an input document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("$", f"not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InputError("$", "top level must be an object")
    _reject_unknown(data, ("schema_version", "complex", "order_matrix", "check"), "$")
    version = _expect(data, "schema_version", int, "$")
    if version != SCHEMA_VERSION:
        raise InputError("$.schema_version", f"unsupported version {version}")
    spec = _expect(data, "complex", dict, "$")
    cx, mode, canon_complex = _parse_complex(spec, "$.complex")
    canonical = {"schema_version": SCHEMA_VERSION, "complex": canon_complex}

    orders = None
    if "order_matrix" in data:
        spec = _expect(data, "order_matrix", dict, "$")
        orders, canon_orders = _parse_orders(spec, cx.ell, "$.order_matrix")
        canonical["order_matrix"] = canon_orders

    check_mode = None
    jobs = None
    pair_filter = None
    if "check" in data:
        spec = _expect(data, "check", dict, "$")
        _reject_unknown(spec, ("mode", "jobs", "pairs"), "$.check")
        check_mode = _expect(spec, "mode", str, "$.check", default=None, required=False)
        if check_mode is not None and check_mode not in ("certificate", "exact", "both"):
            raise InputError("$.check.mode", f"unknown mode {check_mode!r}")
        jobs = _expect(spec, "jobs", int, "$.check", default=None, required=False)
        if jobs is not None and jobs < 1:
            raise InputError("$.check.jobs", "must be at least 1")
        pairs_raw = _expect(spec, "pairs", list, "$.check", default=None, required=False)
        if pairs_raw is not None:
            pairs = []
            for k, entry in enumerate(pairs_raw):
                if (not isinstance(entry, list) or len(entry) != 2
                        or not all(isinstance(x, str) for x in entry)):
                    raise InputError(f"$.check.pairs[{k}]",
                                     "expected a pair of stratum ids")
                if not cx.has_stratum(entry[0]) or not cx.has_stratum(entry[1]):
                    raise InputError(f"$.check.pairs[{k}]",
                                     f"unknown stratum id in {entry}")
                if entry[0] == entry[1]:
                    raise InputError(f"$.check.pairs[{k}]",
                                     f"a pair needs two distinct strata, got {entry}")
                pairs.append((entry[0], entry[1]))
            pair_filter = tuple(pairs)
        canon_check = {}
        if check_mode is not None:
            canon_check["mode"] = check_mode
        if jobs is not None:
            canon_check["jobs"] = jobs
        if pair_filter is not None:
            canon_check["pairs"] = [list(p) for p in pair_filter]
        if canon_check:
            canonical["check"] = canon_check

    return InputDocument(version, cx, mode, orders, check_mode, jobs,
                         pair_filter, canonical)


def input_text(doc: InputDocument) -> str:
    """Canonical serialization of an input document."""
    return json.dumps(doc.canonical, sort_keys=True, indent=2) + "\n"


def input_digest(doc: InputDocument) -> str:
    return "sha256:" + hashlib.sha256(input_text(doc).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


def _doc_from_dict(data: dict) -> InputDocument:
    return parse_input(json.dumps(data))


def generate_fixture(kind: str, n: int | None = None, dim: int | None = None,
                     ell: int | None = None, seed: int | None = None) -> InputDocument:
    """Deterministic test complexes.

    ``cycle(n)``: n components in a ring (two components meeting twice for
    n = 2, which needs Delta mode).  ``path(n)``: a chain.
    ``simplex_boundary(k)``: all k-subsets of k+1 vertices.
    ``random(ell, dim, seed)``: face-closed complex from seeded random
    facets, padded with singletons so every vertex appears.
    """
    if kind not in FIXTURE_KINDS:
        raise ValueError(f"unknown fixture kind {kind!r}; expected one of {FIXTURE_KINDS}")
    if kind == "cycle":
        if n is None or n < 2:
            raise ValueError("cycle fixtures need n >= 2")
        if n == 2:
            data = {
                "schema_version": SCHEMA_VERSION,
                "complex": {
                    "ell": 2, "d": 1, "mode": "delta",
                    "strata": [{"id": "v1", "vertices": [1]},
                               {"id": "v2", "vertices": [2]},
                               {"id": "e1", "vertices": [1, 2]},
                               {"id": "e2", "vertices": [1, 2]}],
                    "face_map": [{"stratum": "e1", "subset": [1], "face": "v1"},
                                 {"stratum": "e1", "subset": [2], "face": "v2"},
                                 {"stratum": "e2", "subset": [1], "face": "v1"},
                                 {"stratum": "e2", "subset": [2], "face": "v2"}],
                },
            }
            return _doc_from_dict(data)
        facets = [[i, i + 1] for i in range(1, n)] + [[1, n]]
        return _doc_from_dict({"schema_version": SCHEMA_VERSION,
                               "complex": {"ell": n, "d": 1, "mode": "simplicial",
                                           "facets": facets}})
    if kind == "path":
        if n is None or n < 2:
            raise ValueError("path fixtures need n >= 2")
        facets = [[i, i + 1] for i in range(1, n)]
        return _doc_from_dict({"schema_version": SCHEMA_VERSION,
                               "complex": {"ell": n, "d": 1, "mode": "simplicial",
                                           "facets": facets}})
    if kind == "simplex_boundary":
        if dim is None or dim < 1:
            raise ValueError("simplex_boundary fixtures need dim >= 1")
        verts = list(range(1, dim + 2))
        facets = [sorted(set(verts) - {v}) for v in reversed(verts)]
        return _doc_from_dict({"schema_version": SCHEMA_VERSION,
                               "complex": {"ell": dim + 1, "d": max(dim - 1, 0),
                                           "mode": "simplicial", "facets": facets}})
    # random
    if ell is None or ell < 1 or dim is None or dim < 1 or seed is None:
        raise ValueError("random fixtures need ell >= 1, dim >= 1, and a seed")
    rng = random.Random(seed)
    nfacets = rng.randint(1, min(4, ell))
    facets = []
    for _ in range(nfacets):
        size = rng.randint(1, min(dim + 1, ell))
        facets.append(sorted(rng.sample(range(1, ell + 1), size)))
    covered = {v for f in facets for v in f}
    for v in range(1, ell + 1):
        if v not in covered:
            facets.append([v])
    unique = []
    for f in facets:
        if f not in unique:
            unique.append(f)
    return _doc_from_dict({"schema_version": SCHEMA_VERSION,
                           "complex": {"ell": ell, "d": dim, "mode": "simplicial",
                                       "facets": unique}})


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


# Certificates are written from fixed templates rather than through
# ``json.dumps(indent=2)``, whose indenting encoder is pure Python and was
# the slowest stage of a large check.  The templates keep its bytes: keys in
# sorted order, strings through the encoder's own ASCII escaping, integers
# and literals spelled as ``json`` spells them.


def _literal(x) -> str:
    if x is True:
        return "true"
    if x is False:
        return "false"
    if x is None:
        return "null"
    raise TypeError(f"expected a bool or None, got {x!r}")


def _items(texts, indent: str) -> str:
    """A JSON list of already-encoded items, one per line at ``indent``."""
    if not texts:
        return "[]"
    return f"[\n{indent}" + f",\n{indent}".join(texts) + f"\n{indent[:-2]}]"


def _stratum_record(cert) -> str:
    rows = cert.edge_matrix.entries
    matrix = _items([_items([str(x) for x in row], " " * 10) for row in rows], " " * 8)
    divisors = _items([str(x) for x in cert.elementary_divisors], " " * 8)
    return ("    {\n"
            f'      "edge_matrix": {matrix},\n'
            f'      "elementary_divisors": {divisors},\n'
            f'      "id": {_encode(cert.stratum)},\n'
            f'      "unimodular": {_literal(cert.verdict)}\n'
            "    }")


def _pair_record(e) -> str:
    parts = [f'    {{\n      "disjoint": {_literal(e.disjoint)}']
    if e.exact is not None:
        x = e.exact
        witness = ("null" if x.witness is None else
                   _items([_encode(format_rational(q)) for q in x.witness], " " * 10))
        parts.append(',\n      "exact": {\n'
                     f'        "disjoint": {_literal(x.disjoint)},\n'
                     f'        "method": {_encode(x.method)},\n'
                     f'        "witness": {witness}\n'
                     "      }")
    if e.face is not None:
        parts.append(',\n      "face": {\n'
                     f'        "ambient": {_encode(e.face.ambient)},\n'
                     f'        "injective": {_literal(e.face.injective)}\n'
                     "      }")
    parts.append(f',\n      "left": {_encode(e.left)},\n'
                 f'      "relation": {_encode(e.relation)},\n'
                 f'      "right": {_encode(e.right)}')
    if e.separation is not None:
        parts.append(',\n      "separation": {\n'
                     f'        "coordinate": {e.separation.coordinate:d},\n'
                     f'        "interior": {_encode(e.separation.interior)}\n'
                     "      }")
    parts.append("\n    }")
    return "".join(parts)


def _records(out: list, records) -> None:
    """Append a JSON list of records at indent 2 to ``out``, piece by piece."""
    first = True
    for record in records:
        out.append("[\n" if first else ",\n")
        out.append(record)
        first = False
    out.append("[]" if first else "\n  ]")


def emit_certificate(report: FaithfulnessReport, digest: str) -> str:
    """Canonical certificate document for a completed faithfulness report.

    Records are sorted (strata by dimension, vertices, id; pairs likewise),
    rationals appear as ``p/q`` strings, and identical inputs produce
    byte-identical text regardless of how many jobs computed the report.
    The text is exactly ``json.dumps(certificate, sort_keys=True, indent=2)``
    plus a newline; it is assembled from one string per stratum and per
    pair record and joined once.
    """
    out = ["{\n"
           f'  "defects": {_items([_encode(d) for d in report.defects], "    ")},\n'
           f'  "input_digest": {_encode(digest)},\n'
           f'  "mode": {_encode(report.mode)},\n'
           f'  "overall": {_encode(report.overall)},\n'
           '  "pairs": ']
    _records(out, map(_pair_record, report.pairs))
    out.append(f',\n  "schema_version": {SCHEMA_VERSION:d},\n  "strata": ')
    _records(out, map(_stratum_record, report.certificates))
    out.append(',\n  "tool": {\n'
               '    "name": "skeletrop",\n'
               f'    "version": {_encode(__version__)}\n'
               "  }\n}\n")
    return "".join(out)
