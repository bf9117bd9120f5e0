"""Canonical JSON forms for every exchanged object.

Rationals travel as "p/q" strings with q > 0, complex values as
{"re": "p/q", "im": "r/s"}, (p,q)-forms as lists of
{"I": [...], "J": [...], "c": {...}} records, rank tables as
{"m": ..., "values": {"[1,3]": ...}}.  Round trips are bit-exact.
"""

from __future__ import annotations

import json

from .certify import Certificate
from .exterior import PQForm
from .linalg import HermitianMatrix, _gaussian_integer_rows
from .polymatroid import RankFunction
from .rationals import GaussianRational, as_int, as_rat, rat_pair

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


def _complex_pairs(obj):
    """The (p, q) pairs of an entry's real and imaginary parts, as `complex_from_json` reads it."""
    if not isinstance(obj, dict):
        return rat_pair(obj), (0, 1)
    return rat_pair(obj.get("re", 0)), rat_pair(obj.get("im", 0))


def matrix_from_json(obj) -> HermitianMatrix:
    """A matrix from its JSON record, read straight into Z[i] rows.

    Each entry's parts become (p, q) int pairs, which the one lift of
    `linalg` takes to the lcm L of all q; `_from_integer_rows` divides out
    the one gcd they share with L.  No scalar object is built per entry.
    """
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ValueError("a matrix must be a JSON object with 'entries'")
    rows = obj["entries"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise TypeError("entries must be a list of rows, each a JSON array")
    mat = HermitianMatrix._from_integer_rows(
        *_gaussian_integer_rows(rows, _complex_pairs, square=True))
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


def _subset_key(subset) -> str:
    return json.dumps(sorted(subset))


def rank_function_to_json(r: RankFunction) -> dict:
    return {
        "m": r.m,
        "values": {_subset_key(k): v for k, v in sorted(r.values.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))},
        "provenance": r.provenance,
    }


def _subset_from_key(key, m):
    """The subset a rank-table key names: a JSON list of distinct ints in [1, m]."""
    items = json.loads(key)
    if (not isinstance(items, list) or any(type(i) is not int or not 1 <= i <= m for i in items)
            or len(set(items)) != len(items)):
        raise ValueError(f"rank table key {key!r} is not a list of distinct integers in [1, {m}]")
    return frozenset(items)


def rank_function_from_json(obj) -> RankFunction:
    """A rank table from its JSON record; each key names one subset, exactly once.

    An m or a rank that is not an int is a TypeError, as `RankFunction`
    raises it; any other malformed record is a ValueError.
    """
    if not isinstance(obj, dict) or "m" not in obj or not isinstance(obj.get("values"), dict):
        raise ValueError("a rank table must be a JSON object with 'm' and 'values'")
    m = as_int(obj["m"], "rank table m")
    values = {}
    for key, v in obj["values"].items():
        subset = _subset_from_key(key, m)
        if subset in values:
            raise ValueError(f"rank table names the subset {sorted(subset)} twice")
        values[subset] = v
    return RankFunction(m, values, obj.get("provenance", "user-table"))


def certificate_to_json(cert: Certificate) -> dict:
    out = {"verdict": cert.verdict}
    if cert.failing_subset is not None:
        out["failing_subset"] = sorted(cert.failing_subset)
    if cert.rank_deficit is not None:
        out["rank_deficit"] = cert.rank_deficit
    if cert.kernel_witness is not None:
        out["witness"] = form_to_json(cert.kernel_witness)
    return out
