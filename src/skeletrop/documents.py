"""Input documents, fixture generation, and certificate serialization.

Documents are UTF-8 JSON.  Vertices are 1-indexed, rationals travel as
strings like ``"3/4"`` (plain integers allowed), and both input and
certificate serializations are canonical: the same content always produces
byte-identical text.  Both are written from fixed templates with the
layout of ``json.dumps(sort_keys=True, indent=2)``: input documents field
by field, and certificates, which grow with the square of the stratum
count, a row of pair records at a time from the rows ``check_faithful``
keeps.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode

from ._exact import at_least, fraction, ints, is_int
from ._version import __version__
from .complexes import DualComplex, _delta_parts, _facet_complex, _file_face
from .sections import OrderMatrix, canonical_order_matrix
from .tropicalize import MODES, FaceDischarge, FaithfulnessReport

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
# Most face-map entries a document may need.  A stratum with k vertices
# needs one per pair (face, nonempty proper subset of the face), that is
# 3^k - 2^(k+1) + 1, so a single 20-vertex facet in a document of a few
# hundred bytes would need about 3.5e9 and exhaust memory.  This bound is
# checked on the listed sizes before anything is expanded; the stratum limit
# below then refuses every facet of 10 or more vertices (an 11-vertex facet
# has 2,047 strata), so it no longer parses.  Every fixture lies far below
# both limits: the dimension-6 simplex boundary lists seven 6-vertex facets,
# bounded at 4,214 entries, and its built face map holds 1,806 entries on
# 126 strata; the 400-cycle is bounded at 800 entries and has 800 strata.
MAX_FACE_MAP_ENTRIES = 250_000
# Most strata a complex may have.  ``check`` records every unordered pair of
# strata, so its time, memory and certificate grow with S^2: 1,001 singleton
# facets (500,500 pairs) peak at 427 MB and write a 151 MB certificate.  The
# limit allows 499,500 pairs.
MAX_STRATA = 1_000


class InputError(ValueError):
    """Malformed input document; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def format_rational(x) -> str:
    """``x`` as ``p/q`` text (``n`` for an integer); ``bool`` and ``float`` are refused."""
    return str(fraction(x))


def parse_rational(text, path: str = "value") -> Fraction:
    """``text`` as a ``Fraction`` by the ``_exact`` rule, or an ``InputError`` at ``path``."""
    try:
        return fraction(text)
    except TypeError:
        raise InputError(path, f"rationals must be integers or 'p/q' strings, "
                               f"got {text!r}") from None
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(path, f"malformed rational {text!r}: {exc}") from None


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
    if kind is int and not is_int(value):
        raise InputError(f"{path}.{key}", f"expected an integer, got {value!r}")
    if kind is str and not isinstance(value, str):
        raise InputError(f"{path}.{key}", f"expected a string, got {value!r}")
    if kind is list and not isinstance(value, list):
        raise InputError(f"{path}.{key}", f"expected a list, got {value!r}")
    if kind is dict and not isinstance(value, dict):
        raise InputError(f"{path}.{key}", f"expected an object, got {value!r}")
    return value


def _int_list(values, path) -> list[int]:
    """``values`` itself, once it is checked to be a list of integers; only
    a refused list pays for finding its first non-integer."""
    if not isinstance(values, list):
        raise InputError(path, f"expected a list, got {values!r}")
    try:
        ints(values, "")
    except TypeError:
        k = next(k for k, v in enumerate(values) if not is_int(v))
        raise InputError(f"{path}[{k}]", f"expected an integer, got {values[k]!r}") from None
    return values


@dataclass(frozen=True, eq=False)
class InputDocument:
    """Parsed and validated input: complex, optional orders, check options.

    ``canonical`` is the parsed document with its defaults filled in
    (``complex.mode``, ``order_matrix.horizontal_effective``), its Delta
    face-map subsets sorted and an empty ``check`` dropped; ``input_text``
    writes it.  The other fields are built from copies of its lists, so
    changing it changes none of them.
    """

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


def _check_expansion(sizes, path: str) -> None:
    """Reject strata of these vertex counts before anything is expanded."""
    needed = 0
    for k in sizes:
        # From 12 vertices on one stratum alone exceeds the limit; the cap
        # keeps the powers small however long a list is.
        k = min(k, 12)
        needed += 3 ** k - 2 ** (k + 1) + 1
        if needed > MAX_FACE_MAP_ENTRIES:
            raise InputError(path, f"the complex would need more than "
                                   f"{MAX_FACE_MAP_ENTRIES} face-map entries")


def _check_vertex_count(ell: int, vertex_lists, path: str) -> None:
    """Reject an ``ell`` that the listed vertices cannot cover.

    Each vertex 1..ell needs a 0-dimensional stratum, so a valid document
    lists at least ``ell`` distinct vertices.  Checking this first keeps an
    oversized ``ell`` from sizing anything (order rows, default flags), and
    counting distinct vertices keeps repeated facets from standing in for
    missing ones.
    """
    distinct = len(set(itertools.chain.from_iterable(vertex_lists)))
    if distinct < ell:
        raise InputError(f"{path}.ell", f"{ell} vertices need a 0-dimensional stratum each, "
                                        f"but the complex lists only {distinct} distinct vertices")


def _check_count(count: int, path: str, key: str) -> None:
    """Reject more than ``MAX_STRATA`` strata."""
    if count > MAX_STRATA:
        raise InputError(f"{path}.{key}", f"the complex has {count} strata, "
                                          f"more than the {MAX_STRATA} a document may have")


def _check_strata(cx: DualComplex, path: str, key: str) -> None:
    """Reject more than ``MAX_STRATA`` strata, then an ``ell`` above it (each
    vertex of a valid complex has its own 0-dimensional stratum), before any
    pair or ell-wide order row exists."""
    _check_count(len(cx.strata), path, key)
    if cx.ell > MAX_STRATA:
        raise InputError(f"{path}.ell", f"{cx.ell} vertices need a 0-dimensional stratum "
                                        f"each, more than the {MAX_STRATA} strata a "
                                        f"document may have")


def _parse_complex(spec: dict, path: str) -> tuple[DualComplex, str]:
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
        facets = _expect(spec, "facets", list, path)
        for k, f in enumerate(facets):
            _int_list(f, f"{path}.facets[{k}]")
        _check_expansion(map(len, facets), f"{path}.facets")
        _check_vertex_count(ell, facets, path)
        try:
            cx = _facet_complex(ell, d, facets)
        except ValueError as exc:
            raise InputError(f"{path}.facets", str(exc)) from None
        _check_strata(cx, path, "facets")
        return cx, mode
    _reject_unknown(spec, ("ell", "d", "mode", "strata", "face_map"), path)
    strata_raw = _expect(spec, "strata", list, path)
    # One stratum per entry: an oversized list is refused before any is read.
    _check_count(len(strata_raw), path, "strata")
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
    _check_expansion((len(verts) for _, verts in strata), f"{path}.strata")
    _check_vertex_count(ell, (verts for _, verts in strata), path)
    # The strata are built, then the face-map entries filed, then the strata
    # indexed by id, and the first fault found is the one reported.
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
        cx = DualComplex._from_checked(ell, d, built, face_map)
    except ValueError as exc:
        raise InputError(f"{path}.strata", str(exc)) from None
    _check_strata(cx, path, "strata")
    return cx, mode


def _parse_orders(spec: dict, ell: int, path: str) -> OrderMatrix:
    _reject_unknown(spec, ("orders", "horizontal_effective"), path)
    rows = _expect(spec, "orders", list, path)
    try:
        # The one check on the entries of a matrix that it accepts.  It
        # refuses any other JSON value too: in place of a list, a number or
        # null is not iterable, and a string or an object yields strings or
        # nothing.
        m = OrderMatrix(rows, spec.get("horizontal_effective", [True] * len(rows)))
    except (TypeError, ValueError) as exc:
        refused = str(exc)
    else:
        if m.ell != ell:
            raise InputError(f"{path}.orders",
                             f"matrix is for {m.ell} components, complex has {ell}")
        return m
    # Refused: report the first fault in row, entry, flag order, whatever the
    # matrix met first, and else the matrix's own ValueError.
    for k, r in enumerate(rows):
        _int_list(r, f"{path}.orders[{k}]")
    flags = _expect(spec, "horizontal_effective", list, path, default=(), required=False)
    for k, v in enumerate(flags):
        if not isinstance(v, bool):
            raise InputError(f"{path}.horizontal_effective[{k}]",
                             f"expected a boolean, got {v!r}")
    # The matrix checks its rows before its flags, so a flag-count error
    # means the rows passed and the listed flags are at fault.
    field = ("horizontal_effective" if "horizontal_effective" in spec
             and "flag" in refused else "orders")
    raise InputError(f"{path}.{field}", refused)


def parse_input(text: str) -> InputDocument:
    """Parse and structurally validate an input document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("$", f"not valid JSON: {exc}") from None
    except RecursionError:
        raise InputError("$", "the document is nested too deeply") from None
    except ValueError:
        # ``json`` reads an integer through ``int``, which refuses a literal
        # longer than the interpreter's digit limit.
        raise InputError("$", f"an integer literal has more than "
                              f"{sys.get_int_max_str_digits()} digits") from None
    if not isinstance(data, dict):
        raise InputError("$", "top level must be an object")
    _reject_unknown(data, ("schema_version", "complex", "order_matrix", "check"), "$")
    version = _expect(data, "schema_version", int, "$")
    if version != SCHEMA_VERSION:
        raise InputError("$.schema_version", f"unsupported version {version}")
    cx, mode = _parse_complex(_expect(data, "complex", dict, "$"), "$.complex")

    orders = None
    if "order_matrix" in data:
        spec = _expect(data, "order_matrix", dict, "$")
        orders = _parse_orders(spec, cx.ell, "$.order_matrix")

    check_mode = None
    jobs = None
    pair_filter = None
    if "check" in data:
        spec = _expect(data, "check", dict, "$")
        _reject_unknown(spec, ("mode", "jobs", "pairs"), "$.check")
        check_mode = _expect(spec, "mode", str, "$.check", default=None, required=False)
        if check_mode is not None and check_mode not in MODES:
            raise InputError("$.check.mode", f"unknown mode {check_mode!r}")
        jobs = _expect(spec, "jobs", int, "$.check", default=None, required=False)
        if jobs is not None and jobs < 1:
            raise InputError("$.check.jobs", "must be at least 1")
        pairs = _expect(spec, "pairs", list, "$.check", default=None, required=False)
        if pairs is not None:
            for k, entry in enumerate(pairs):
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
            pair_filter = tuple(map(tuple, pairs))

    # The document is valid; normalize it in place into the canonical form.
    # The parsed objects hold tuples and frozensets built from its lists,
    # so nothing is shared with it.
    data["complex"]["mode"] = mode
    if mode == "delta":
        for entry in data["complex"]["face_map"]:
            entry["subset"].sort()
    if orders is not None:
        data["order_matrix"].setdefault("horizontal_effective", [True] * (cx.ell + 1))
    if data.get("check") == {}:
        del data["check"]
    return InputDocument(version, cx, mode, orders, check_mode, jobs, pair_filter, data)


# ---------------------------------------------------------------------------
# Canonical text
# ---------------------------------------------------------------------------


# Inputs and certificates are written from fixed templates rather than
# through ``json.dumps(indent=2)``, whose indenting encoder is pure Python:
# it was the slowest stage of a large check, and the input digest every
# check computes cost more than the emit on small documents.  The templates
# keep its bytes: keys in sorted order, strings through the encoder's own
# ASCII escaping, integers and literals spelled as ``json`` spells them.


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


def _ints(values, indent: str) -> str:
    return _items([str(x) for x in values], indent)


def input_text(doc: InputDocument) -> str:
    """Canonical serialization of an input document: exactly
    ``json.dumps(doc.canonical, sort_keys=True, indent=2)`` plus a newline,
    written field by field from templates."""
    canon = doc.canonical
    cx = canon["complex"]
    out = ["{\n"]
    check = canon.get("check")
    if check:
        fields = []
        if "jobs" in check:
            fields.append(f'    "jobs": {check["jobs"]:d}')
        if "mode" in check:
            fields.append(f'    "mode": {_encode(check["mode"])}')
        if "pairs" in check:
            pairs = [_items([_encode(x) for x in p], " " * 8) for p in check["pairs"]]
            fields.append(f'    "pairs": {_items(pairs, " " * 6)}')
        out.append('  "check": {\n' + ",\n".join(fields) + "\n  },\n")
    out.append(f'  "complex": {{\n    "d": {cx["d"]:d},\n    "ell": {cx["ell"]:d},\n')
    if cx["mode"] == "simplicial":
        facets = _items([_ints(f, " " * 8) for f in cx["facets"]], " " * 6)
        out.append(f'    "facets": {facets},\n    "mode": "simplicial"\n  }}')
    else:
        faces = _items([f'{{\n        "face": {_encode(e["face"])},\n'
                        f'        "stratum": {_encode(e["stratum"])},\n'
                        f'        "subset": {_ints(e["subset"], " " * 10)}\n      }}'
                        for e in cx["face_map"]], " " * 6)
        strata = _items([f'{{\n        "id": {_encode(e["id"])},\n'
                         f'        "vertices": {_ints(e["vertices"], " " * 10)}\n      }}'
                         for e in cx["strata"]], " " * 6)
        out.append(f'    "face_map": {faces},\n    "mode": "delta",\n'
                   f'    "strata": {strata}\n  }}')
    orders = canon.get("order_matrix")
    if orders is not None:
        flags = _items([_literal(x) for x in orders["horizontal_effective"]], " " * 6)
        rows = _items([_ints(r, " " * 8) for r in orders["orders"]], " " * 6)
        out.append(f',\n  "order_matrix": {{\n    "horizontal_effective": {flags},\n'
                   f'    "orders": {rows}\n  }}')
    out.append(f',\n  "schema_version": {canon["schema_version"]:d}\n}}\n')
    return "".join(out)


def input_digest(doc: InputDocument) -> str:
    return "sha256:" + hashlib.sha256(input_text(doc).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


def _doc_from_dict(data: dict) -> InputDocument:
    return parse_input(json.dumps(data))


def _simplicial_fixture(ell: int, d: int, facets: list) -> InputDocument:
    return _doc_from_dict({"schema_version": SCHEMA_VERSION,
                           "complex": {"ell": ell, "d": d, "mode": "simplicial",
                                       "facets": facets}})


def _fixture_strata(name: str, size: int, strata: int) -> None:
    """Refuse a fixture size whose complex would have more than
    ``MAX_STRATA`` strata, before any part of it is built."""
    if strata > MAX_STRATA:
        raise ValueError(f"{name} = {size} gives a complex of more than {MAX_STRATA} "
                         f"strata, the most a document may have")


def generate_fixture(kind: str, n: int | None = None, dim: int | None = None,
                     ell: int | None = None, seed: int | None = None) -> InputDocument:
    """Deterministic test complexes.

    ``cycle(n)``: n components in a ring (two components meeting twice for
    n = 2, which needs Delta mode).  ``path(n)``: a chain.
    ``simplex_boundary(k)``: all k-subsets of k+1 vertices.
    ``random(ell, dim, seed)``: face-closed complex from seeded random
    facets, padded with singletons so every vertex appears.  A size whose
    complex would have more than ``MAX_STRATA`` strata is refused before
    anything is built.
    """
    if kind not in FIXTURE_KINDS:
        raise ValueError(f"unknown fixture kind {kind!r}; expected one of {FIXTURE_KINDS}")
    if kind == "cycle":
        at_least(n, 2, "cycle fixtures need n >= 2")
        _fixture_strata("n", n, 2 * n)
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
        return _simplicial_fixture(n, 1, [[i, i + 1] for i in range(1, n)] + [[1, n]])
    if kind == "path":
        at_least(n, 2, "path fixtures need n >= 2")
        _fixture_strata("n", n, 2 * n - 1)
        return _simplicial_fixture(n, 1, [[i, i + 1] for i in range(1, n)])
    if kind == "simplex_boundary":
        at_least(dim, 1, "simplex_boundary fixtures need dim >= 1")
        # Every nonempty proper subset of dim + 1 vertices is a stratum; from
        # dim 9 on that alone exceeds the limit, and the cap keeps the power small.
        _fixture_strata("dim", dim, 2 ** (min(dim, 9) + 1) - 2)
        verts = list(range(1, dim + 2))
        facets = [sorted(set(verts) - {v}) for v in reversed(verts)]
        return _simplicial_fixture(dim + 1, max(dim - 1, 0), facets)
    # random
    message = "random fixtures need ell >= 1, dim >= 1, and a seed"
    at_least(ell, 1, message)
    at_least(dim, 1, message)
    if seed is None:
        raise ValueError(message)
    # Each vertex is a stratum of its own.
    _fixture_strata("ell", ell, ell)
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
    return _simplicial_fixture(ell, dim, unique)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def _stratum_record(cert) -> str:
    rows = cert.edge_matrix.entries
    matrix = _items([_ints(row, " " * 10) for row in rows], " " * 8)
    divisors = _ints(cert.elementary_divisors, " " * 8)
    return (",\n    {\n"
            f'      "edge_matrix": {matrix},\n'
            f'      "elementary_divisors": {divisors},\n'
            f'      "id": {_encode(cert.stratum)},\n'
            f'      "unimodular": {_literal(cert.verdict)}\n'
            "    }")


class _Rendered(dict):
    """The text of each distinct value, rendered on its first lookup.

    A certificate repeats few distinct values across its O(S^2) pair
    records: S stratum ids, a handful of exact verdicts, one face discharge
    per ambient stratum and one separation per (stratum, coordinate).
    Looking each up by value renders it once per certificate; the pair
    writer looks up the fields of each group of records once, and each
    right-hand stratum id once per record.
    """

    def __init__(self, render, known=()):
        super().__init__(known)
        self.render = render

    def __missing__(self, value):
        text = self[value] = self.render(value)
        return text


def _exact_field(x) -> str:
    witness = ("null" if x.witness is None else
               _items([_encode(format_rational(q)) for q in x.witness], " " * 10))
    return (',\n      "exact": {\n'
            f'        "disjoint": {_literal(x.disjoint)},\n'
            f'        "method": {_encode(x.method)},\n'
            f'        "witness": {witness}\n'
            "      }")


def _face_field(face) -> str:
    return (',\n      "face": {\n'
            f'        "ambient": {_encode(face.ambient)},\n'
            f'        "injective": {_literal(face.injective)}\n'
            "      }")


def _separation_field(sep) -> str:
    return (',\n      "separation": {\n'
            f'        "coordinate": {sep.coordinate:d},\n'
            f'        "interior": {_encode(sep.interior)}\n'
            "      }")


# For each byte value, the text offsets 3 * b of its set bits b.
_OFFSETS = [tuple(3 * b for b in range(8) if byte >> b & 1) for byte in range(256)]


def _pair_records(rows):
    """The texts of the pair records of ``FaithfulnessReport.rows`` in
    report order, one list per row, each record led by a comma and a
    newline.

    A record's keys sort as disjoint, exact, face, left, relation, right,
    separation, so it is a head that its shape and the row's stratum fix,
    the right-hand stratum's id, and a tail that only the separation fixes.
    A row is a list of (head, id, tail) triples: its fill's everywhere, then
    each group's head and tail, rendered once, at the positions its mask
    names.  A face record is three strings kept per certificate or row: the
    ``"disjoint"`` and ``"face"`` fields, one per ambient stratum; the
    row's left and relation text; and the ambient's id with the closing
    brace, one per stratum.  Each mask is walked once, as its texts are
    stored: a byte of bits at a time through ``_OFFSETS``, with a run of
    zero bytes skipped in one step, which costs less than a step per set
    bit on the dense masks and no more on the sparse ones.  The lists hold
    shared strings, so the certificate's one join is the only copy of the
    records' text.  An absent optional field renders as nothing; its key is
    None.  Each field is looked up by value in one ``_Rendered`` memo per
    kind, so each stratum id, exact verdict, face discharge and separation
    is encoded once per call.
    """
    name = _Rendered(_encode)
    literal = _Rendered(_literal)
    exact = _Rendered(_exact_field, {None: ""})
    face = _Rendered(_face_field, {None: ""})
    separation = _Rendered(_separation_field, {None: ""})
    face_head = _Rendered(lambda ambient: ',\n    {\n      "disjoint": true'
                                          + _face_field(FaceDischarge(ambient, True)))
    face_tail = _Rendered(lambda ambient: name[ambient] + "\n    }")

    for left, rights, fill, groups, faces in rows:
        left_text = f',\n      "left": {name[left]},\n      "relation": '
        if fill is None:
            texts = [""] * (3 * len(rights))
        else:
            relation, fc, sep, ex, disjoint = fill
            texts = [f',\n    {{\n      "disjoint": {literal[disjoint]}{exact[ex]}{face[fc]}'
                     f'{left_text}{name[relation]},\n      "right": ', "",
                     f"{separation[sep]}\n    }}"] * len(rights)
        texts[1::3] = map(name.__getitem__, rights)
        for (relation, fc, sep, ex, disjoint), mask in groups:
            head = (f',\n    {{\n      "disjoint": {literal[disjoint]}{exact[ex]}{face[fc]}'
                    f'{left_text}{name[relation]},\n      "right": ')
            tail = f"{separation[sep]}\n    }}"
            base = 0
            while mask:
                byte = mask & 255
                if byte:
                    for k in _OFFSETS[byte]:
                        k += base
                        texts[k] = head
                        texts[k + 2] = tail
                    mask >>= 8
                    base += 24
                else:
                    # On to the byte of the lowest set bit.
                    skip = ((mask & -mask).bit_length() - 1) & ~7
                    mask >>= skip
                    base += 3 * skip
        if faces:
            face_text = f'{left_text}"face",\n      "right": '
            base = 0
            while faces:
                byte = faces & 255
                if byte:
                    for k in _OFFSETS[byte]:
                        k += base
                        right = rights[k // 3]
                        texts[k] = face_head[right]
                        texts[k + 1] = face_text
                        texts[k + 2] = face_tail[right]
                    faces >>= 8
                    base += 24
                else:
                    skip = ((faces & -faces).bit_length() - 1) & ~7
                    faces >>= skip
                    base += 3 * skip
        yield texts


def _records(out: list, records) -> None:
    """Append a JSON list of records at indent 2 to ``out``.  ``records``
    yields the texts of the records in order, each record led by the comma
    and newline that separate it from the one before; the first record's
    comma is dropped."""
    out.append("[")
    start = len(out)
    out.extend(records)
    if len(out) == start:
        out[-1] = "[]"
    else:
        out[start] = out[start][1:]
        out.append("\n  ]")


def emit_certificate(report: FaithfulnessReport, digest: str) -> str:
    """Canonical certificate document for a completed faithfulness report.

    Records are sorted (strata by dimension, vertices, id; pairs likewise),
    rationals appear as ``p/q`` strings, and identical inputs produce
    byte-identical text: exactly ``json.dumps(certificate, sort_keys=True,
    indent=2)`` plus a newline.  It is assembled from one string per stratum
    and a few shared strings per pair record, and joined once.  The pair
    records are rendered from ``report.rows``, never from ``report.pairs``,
    so no ``PairEvidence`` is built: each group of records sharing a shape
    has one head and one tail, and only the right-hand stratum id changes
    from record to record (``_pair_records``).  Each distinct stratum id,
    exact verdict, face discharge and separation is rendered once per
    certificate (``_Rendered``), whatever the number of pairs that carry
    it.
    """
    out = ["{\n"
           f'  "defects": {_items([_encode(d) for d in report.defects], "    ")},\n'
           f'  "input_digest": {_encode(digest)},\n'
           f'  "mode": {_encode(report.mode)},\n'
           f'  "overall": {_encode(report.overall)},\n'
           '  "pairs": ']
    _records(out, itertools.chain.from_iterable(_pair_records(report.rows)))
    out.append(f',\n  "schema_version": {SCHEMA_VERSION:d},\n  "strata": ')
    _records(out, map(_stratum_record, report.certificates))
    out.append(',\n  "tool": {\n'
               '    "name": "skeletrop",\n'
               f'    "version": {_encode(__version__)}\n'
               "  }\n}\n")
    return "".join(out)
