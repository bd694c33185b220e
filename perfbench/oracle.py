"""Independent checks of the program's answers.

Nothing here imports skeletrop or solves an LP.  Verdicts come from the
structure of the generated input: with valid orders, strata with different
vertex sets have disjoint images (a vertex of one that the other lacks
separates them), and strata sharing a vertex set have identical images, so
they collide.  Each claim in a certificate is re-derived with integer and
rational arithmetic on the generator's own order matrix.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import lcm

from gen import AffineItem, Doc


def _column(orders, v: int) -> list[int]:
    return [orders[i][v - 1] for i in range(1, len(orders))]


def _edge_matrix(doc: Doc, verts) -> list[list[int]]:
    base = _column(doc.orders, verts[0])
    return [[x - y for x, y in zip(_column(doc.orders, v), base)] for v in verts[1:]]


def witness_problem(doc: Doc, sid: str, w: list[Fraction]) -> str | None:
    """Check that ``w`` is the image of an open-simplex point of ``sid``.

    With valid orders, coordinate ``v_a`` of the image is ``1 - lambda_a``
    (order 0 at its own vertex, 1 at the others), so the preimage is read
    off the witness and confirmed by recomputing the image.
    """
    verts = doc.vertices[sid]
    if len(w) != doc.ell:
        return f"witness {w} does not have {doc.ell} coordinates"
    lam = [1 - w[v - 1] for v in verts]
    if any(x <= 0 for x in lam) or sum(lam) != 1:
        return f"witness {w} has no open-simplex preimage on {sid}"
    image = [sum(lam_a * doc.orders[i][v - 1] for lam_a, v in zip(lam, verts))
             for i in range(1, doc.ell + 1)]
    if image != w:
        return f"witness {w} is not the image of {lam} on {sid}"
    return None


def separation_problem(doc: Doc, interior: str, other: str, j: int) -> str | None:
    """Re-check a separating coordinate against the order matrix."""
    sv, tv = doc.vertices[interior], doc.vertices[other]
    row = doc.orders[j]
    if j not in sv or j in tv:
        return f"coordinate {j} does not separate {interior} from {other}"
    if row[j - 1] != 0 or any(row[v - 1] != 1 for v in sv if v != j) \
            or any(row[v - 1] < 1 for v in tv):
        return f"coordinate {j} has the wrong vertex values on {interior}/{other}"
    return None


def certificate_problems(doc: Doc, exit_code: int, cert: bytes) -> list[str]:
    """Every disagreement between a ``check`` result and the expected answer."""
    out = []
    if exit_code != doc.expect_exit:
        out.append(f"exit code {exit_code}, expected {doc.expect_exit}")
    try:
        data = json.loads(cert)
    except ValueError as exc:
        return out + [f"certificate is not JSON: {exc}"]
    if data.get("overall") != doc.expect_overall:
        out.append(f"overall {data.get('overall')!r}, expected {doc.expect_overall!r}")
    digest = "sha256:" + hashlib.sha256(doc.text.encode("utf-8")).hexdigest()
    if data.get("input_digest") != digest:
        out.append("input digest does not match the document")

    strata = {r["id"]: r for r in data.get("strata", [])}
    if set(strata) != set(doc.vertices):
        out.append("certificate strata differ from the document's")
    for sid, verts in doc.vertices.items():
        r = strata.get(sid)
        if r is None:
            continue
        if r["edge_matrix"] != _edge_matrix(doc, verts):
            out.append(f"{sid}: edge matrix differs from the orders")
        if r["elementary_divisors"] != [1] * (len(verts) - 1) or r["unimodular"] is not True:
            out.append(f"{sid}: piece should be unimodular with unit divisors")

    seen = set()
    collisions = 0
    for p in data.get("pairs", []):
        a, b = p["left"], p["right"]
        key = frozenset((a, b))
        if key in seen or a not in doc.vertices or b not in doc.vertices or a == b:
            out.append(f"pair {a}/{b} is repeated or unknown")
            continue
        seen.add(key)
        if key in doc.collide:
            collisions += 1
            exact = p.get("exact") or {}
            if p["disjoint"] is not False or exact.get("disjoint") is not False \
                    or exact.get("witness") is None:
                out.append(f"pair {a}/{b} should collide with a witness")
                continue
            w = [Fraction(x) for x in exact["witness"]]
            out += [msg for msg in (witness_problem(doc, a, w), witness_problem(doc, b, w))
                    if msg]
            continue
        if p["disjoint"] is not True:
            out.append(f"pair {a}/{b} should be disjoint")
        if (a, b) in doc.faces or (b, a) in doc.faces:
            if p["relation"] != "face":
                out.append(f"pair {a}/{b} is a face pair")
            continue
        sep = p.get("separation")
        if p["relation"] != "independent" or sep is None:
            out.append(f"pair {a}/{b} should carry a separating coordinate")
            continue
        other = b if sep["interior"] == a else a
        msg = separation_problem(doc, sep["interior"], other, sep["coordinate"])
        if msg:
            out.append(f"pair {a}/{b}: {msg}")
    expected = len(doc.vertices) * (len(doc.vertices) - 1) // 2
    if len(seen) != expected:
        out.append(f"{len(seen)} distinct pairs, expected {expected}")
    if collisions != len(doc.collide):
        out.append(f"{collisions} colliding pairs found, expected {len(doc.collide)}")
    if len(data.get("defects", [])) != len(doc.collide):
        out.append(f"{len(data.get('defects', []))} defects, expected one per collision")
    return out


def min_plus(exponents, u) -> Fraction:
    """Min-plus value over a common denominator, in integers."""
    denom = lcm(*(w.denominator for w in u))
    numer = [w.numerator * (denom // w.denominator) for w in u]
    return Fraction(min(sum(n * e for n, e in zip(numer, m)) for m in exponents), denom)


def affine_value(orders, i: int, verts, u) -> Fraction:
    denom = lcm(*(w.denominator for w in u))
    return Fraction(sum(w.numerator * (denom // w.denominator) * orders[i][v - 1]
                        for w, v in zip(u, verts)), denom)


def valuation_failures(item, results) -> int:
    """Number of wrong results of one item.

    Min-plus results must equal the integer oracle.  Each affine result is
    a pair (exact value, concavity bound); both must equal the oracle, which
    is the identity between the value and the bound under valid orders.
    """
    if isinstance(item, AffineItem):
        want = [affine_value(item.orders, i, verts, u) for i, verts, u in item.points]
        return sum(got != (w, w) for got, w in zip(results, want)) \
            + abs(len(results) - len(want))
    want = [min_plus(item.exponents, u) for u in item.points]
    return sum(got != w for got, w in zip(results, want)) + abs(len(results) - len(want))
