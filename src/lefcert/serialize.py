"""Canonical JSON forms for every exchanged object.

Rationals travel as "p/q" strings with q > 0, complex values as
{"re": "p/q", "im": "r/s"}, (p,q)-forms as lists of
{"I": [...], "J": [...], "c": {...}} records, rank tables as
{"m": ..., "values": {"[1,3]": ...}}.  Round trips are bit-exact.

A matrix written that way is read in one pass: its parts are checked
against the rational grammar together, split once and read by one int()
map, then lifted to Z[i] rows.  Any other spelling an entry may have (an
int, a bare string, a record without a part) and every malformed value
are read one at a time by `rationals.rat_pair`, with its errors.
"""

from __future__ import annotations

import json
from math import lcm

from .certify import Certificate
from .discriminant import _elements, _masks
from .exterior import PQForm
from .linalg import HermitianMatrix
from .polymatroid import RankFunction, _rank_list, _read_ranks
from .rationals import GaussianRational, _rat_pairs, as_int, as_rat

__all__ = [
    "rat_to_str",
    "complex_to_json",
    "complex_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "form_to_json",
    "form_from_json",
    "rank_function_to_json",
    "rank_function_from_json",
    "certificate_to_json",
]


def rat_to_str(x) -> str:
    x = as_rat(x)
    return f"{x.numerator}/{x.denominator}"


def complex_to_json(c: GaussianRational) -> dict:
    return {"re": rat_to_str(c.re), "im": rat_to_str(c.im)}


def complex_from_json(obj) -> GaussianRational:
    if not isinstance(obj, dict):
        return GaussianRational(obj)
    return GaussianRational(obj.get("re", 0), obj.get("im", 0))


def matrix_to_json(m: HermitianMatrix) -> dict:
    return {
        "n": m.n,
        "entries": [[complex_to_json(x) for x in row] for row in m.rows],
    }


def matrix_from_json(obj) -> HermitianMatrix:
    """A matrix from its JSON record, read straight into Z[i] rows.

    The real and imaginary parts of the entries, in row-major order, are
    read by one call of `rationals._rat_pairs` into (p, q) ints, in bulk
    when each part is spelled "p/q" as `matrix_to_json` writes it.  The
    p are lifted to the lcm L of all q and cut into rows, and
    `_from_integer_rows` divides out the one gcd they share with L, then
    checks that the rows are square and Hermitian.  A refused part raises
    before any shape error.  No scalar object is built per entry.
    """
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ValueError("a matrix must be a JSON object with 'entries'")
    rows = obj["entries"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise TypeError("entries must be a list of rows, each a JSON array")
    parts = []
    for row in rows:
        for x in row:
            parts += (x.get("re", 0), x.get("im", 0)) if isinstance(x, dict) else (x, 0)
    ps, qs = _rat_pairs(parts)
    den = lcm(*set(qs))
    if den != 1:
        ps = [p * (den // q) for p, q in zip(ps, qs)]
    re, im, start = [], [], 0
    for row in rows:
        end = start + 2 * len(row)
        re.append(ps[start:end:2])
        im.append(ps[start + 1:end:2])
        start = end
    mat = HermitianMatrix._from_integer_rows(re, im, den)
    n = obj.get("n", mat.n)
    if type(n) is not int or n != mat.n:
        raise ValueError("matrix dimension field disagrees with entries")
    return mat


def form_to_json(phi: PQForm) -> dict:
    terms = [
        {"I": list(i), "J": list(j), "c": complex_to_json(c)}
        for (i, j), c in sorted(phi.coeffs.items())
    ]
    return {"n": phi.n, "p": phi.p, "q": phi.q, "terms": terms}


def form_from_json(obj) -> PQForm:
    """A form from its JSON record; each (I, J) names one term, exactly once.

    A malformed entry, such as a missing field, a non-int index, a float
    coefficient or a second record for one (I, J), raises ValueError.
    """
    try:
        coeffs = {}
        for t in obj["terms"]:
            key = tuple(t["I"]), tuple(t["J"])
            if key in coeffs:
                raise ValueError(f"form names the term I={list(key[0])}, J={list(key[1])} twice")
            coeffs[key] = complex_from_json(t["c"])
        return PQForm(obj["n"], obj["p"], obj["q"], coeffs)
    except KeyError as exc:
        raise ValueError(f"form: missing field {exc}") from None
    except TypeError as exc:
        raise ValueError(f"form: {exc}") from None


def rank_function_to_json(r: RankFunction) -> dict:
    """A rank table's JSON record, its keys in the order of discriminant._masks after "[]"."""
    rank = _rank_list(r.m, r.values)
    values = {json.dumps(_elements(mask)): rank[mask] for mask in (0, *_masks(r.m))}
    return {"m": r.m, "values": values, "provenance": r.provenance}


def _subset_from_key(key, m):
    """The elements a rank-table key names: a JSON list of distinct ints in [1, m]."""
    items = json.loads(key)
    if (not isinstance(items, list) or any(type(i) is not int or not 1 <= i <= m for i in items)
            or len(set(items)) != len(items)):
        raise ValueError(f"rank table key {key!r} is not a list of distinct integers in [1, {m}]")
    return tuple(items)


def rank_function_from_json(obj) -> RankFunction:
    """A rank table from its JSON record; each key names one subset, exactly once.

    Each key is parsed to the tuple of elements it lists, and the
    (tuple, rank) pairs go to RankFunction's own reader, which refuses a
    subset named twice: "[1,2]" and "[2,1]", or "[1,2]" and "[1, 2]".
    An m or a rank that is not an int is a TypeError, as `RankFunction`
    raises it; any other malformed record is a ValueError.
    """
    if not isinstance(obj, dict) or "m" not in obj or not isinstance(obj.get("values"), dict):
        raise ValueError("a rank table must be a JSON object with 'm' and 'values'")
    m = as_int(obj["m"], "rank table m")
    pairs = [(_subset_from_key(key, m), v) for key, v in obj["values"].items()]
    return RankFunction(m, _read_ranks(pairs), obj.get("provenance", "user-table"))


def certificate_to_json(cert: Certificate) -> dict:
    out = {"verdict": cert.verdict}
    if cert.failing_subset is not None:
        out["failing_subset"] = sorted(cert.failing_subset)
    if cert.rank_deficit is not None:
        out["rank_deficit"] = cert.rank_deficit
    if cert.kernel_witness is not None:
        out["witness"] = form_to_json(cert.kernel_witness)
    return out
