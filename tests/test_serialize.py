"""matrix_from_json against the scalar route it replaced.

The oracle reads every entry with complex_from_json, as a GaussianRational
of Fractions, and clears the rows in HermitianMatrix.  The library reads
each entry's parts as int pairs, in bulk when every part is a "p/q"
string, and builds the Z[i] rows directly; both must give the same
_cleared rows, or raise the same exception.  A form or
rank-table record that lacks a field is a ValueError, as is a form record
that names one term twice, and every rank table that RankFunction accepts
reads back equal from its JSON text.
"""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefcert.linalg import HermitianMatrix
from lefcert.exterior import PQForm
from lefcert.polymatroid import RankFunction
import lefcert.rationals as rationals_mod
from lefcert.rationals import GR, GaussianRational, _rat_pairs, rat_pair
from lefcert.serialize import (
    complex_from_json,
    form_from_json,
    form_to_json,
    matrix_from_json,
    rank_function_from_json,
    rank_function_to_json,
)


def oracle(entries):
    return HermitianMatrix([[complex_from_json(x) for x in row] for row in entries])


def outcome(build, entries):
    """("ok", the _cleared rows) or (exception type, message)."""
    try:
        return "ok", build(entries)._cleared
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def library(entries):
    return matrix_from_json({"entries": entries})


LONG = 2500  # "p/q" strings of about 5000 digits; each part stays under int()'s 4300-digit limit


@st.composite
def spellings(draw, value):
    """One JSON spelling of the rational value: an int, or a signed "p/q"
    string with leading zeros, possibly unreduced or without its "/q"."""
    if value.denominator == 1 and draw(st.booleans()):
        return int(value)
    k = draw(st.sampled_from([1, 1, 2, 6, 10 ** LONG // max(value.denominator, 1)]))
    num, den = abs(value.numerator) * k, value.denominator * k
    sign = "-" if value < 0 else draw(st.sampled_from(["", "+", "-"] if not num else ["", "+"]))
    zeros = draw(st.sampled_from(["", "0", "000"]))
    if den == 1 and draw(st.booleans()):
        return f"{sign}{zeros}{num}"
    return f"{sign}{zeros}{num}/{draw(st.sampled_from(['', '0']))}{den}"


values = st.one_of(
    st.fractions(min_value=-60, max_value=60, max_denominator=12),
    st.integers(-10 ** 30, 10 ** 30).map(Fraction),
    st.sampled_from([Fraction(0), Fraction(10 ** LONG - 1, 10 ** LONG)]),
)


@st.composite
def entry(draw, re, im):
    """A spelling of re + i im: a bare rational when im is 0 and the coin says
    so, else a {"re", "im"} record, a zero part sometimes left out."""
    if not im and draw(st.booleans()):
        return draw(spellings(re))
    record = {}
    if re or draw(st.booleans()):
        record["re"] = draw(spellings(re))
    if im or draw(st.booleans()):
        record["im"] = draw(spellings(im) if im else st.just("-0/7") | spellings(im))
    return record


@st.composite
def hermitian_entries(draw, max_n=4):
    n = draw(st.integers(0, max_n))
    rows = [[None] * n for _ in range(n)]
    for j in range(n):
        rows[j][j] = draw(entry(draw(values), Fraction(0)))
        for k in range(j + 1, n):
            re, im = draw(values), draw(values)
            rows[j][k] = draw(entry(re, im))
            rows[k][j] = draw(entry(re, -im))
    return rows


@settings(deadline=None)
@given(hermitian_entries())
def test_matrix_from_json_clears_as_the_scalar_route(entries):
    got = outcome(library, entries)
    assert got[0] == "ok"
    assert got == outcome(oracle, entries)


BAD_VALUES = [0.5, -2.0, 1e300, True, False, None, [], [1, 2], {"re": [1]},
              "1.5", "1_0", " 1", "1 ", "1/", "/2", "", "+", "1/-2", "0x10", "1e3", "١",
              "1\n", "1/0", "-0/00", "1" * 5000, "-" + "9" * 4400, "1/" + "2" * 4400]


@settings(deadline=None)
@given(hermitian_entries(max_n=3).filter(bool), st.data())
def test_matrix_from_json_raises_as_the_scalar_route(entries, data):
    n = len(entries)
    for _ in range(data.draw(st.integers(1, 3))):
        j, k = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        bad = data.draw(st.sampled_from(BAD_VALUES))
        where = data.draw(st.sampled_from(["bare", "re", "im"]))
        entries[j][k] = bad if where == "bare" else {**{"re": 0, "im": 0}, where: bad}
    got = outcome(library, entries)
    assert got[0] != "ok"
    assert got == outcome(oracle, entries)


def test_rat_pair_keeps_the_spelled_pair():
    assert rat_pair(-7) == (-7, 1)
    assert rat_pair("6/4") == (6, 4)
    assert rat_pair("-0/7") == (0, 7)
    assert rat_pair("+0012") == (12, 1)
    # no JSON document holds a Fraction; the readers share as_rat's rule, which takes one
    assert rat_pair(Fraction(1, 2)) == (1, 2)
    for bad, error in ((0.5, TypeError), (True, TypeError), (None, TypeError),
                       ("1/0", ValueError), ("1" * 5000, ValueError), ("1_0", ValueError)):
        with pytest.raises(error):
            rat_pair(bad)


def test_matrix_from_json_builds_no_scalar_per_entry(monkeypatch):
    docs = [{"entries": [["7", {"re": "-3/4", "im": "+2"}], [{"re": "-3/4", "im": "-2"}, "0/5"]]},
            {"entries": [[{"re": "6/4"}, 2], [2, {"re": 1, "im": "-0/7"}]]},
            {"n": 0, "entries": []}]
    expected = [oracle(doc["entries"])._cleared for doc in docs]

    def forbidden(*args, **kwargs):
        raise AssertionError("a scalar object built while reading a matrix")

    monkeypatch.setattr(Fraction, "__new__", forbidden)
    monkeypatch.setattr(GaussianRational, "__init__", forbidden)
    assert [matrix_from_json(doc)._cleared for doc in docs] == expected


@pytest.mark.parametrize("field", ["n", "p", "q", "terms", "I", "J", "c"])
def test_form_record_missing_a_field_is_a_value_error(field):
    form = PQForm(2, 1, 1, {((1,), (2,)): GR(1, -2)})
    doc = form_to_json(form)
    assert form_from_json(doc) == form
    del (doc if field in doc else doc["terms"][0])[field]
    with pytest.raises(ValueError, match=f"^form: missing field '{field}'$"):
        form_from_json(doc)


@pytest.mark.parametrize("n, p, q, first, second", [
    (1, 1, 0, ([1], []), ([1], [])),
    (3, 1, 1, ([2], [3]), ([2], [3])),
    (3, 2, 1, ([1, 3], [2]), ([1, 3], [2])),
])
@pytest.mark.parametrize("coefficients", [(1, 5), (1, 1), (1, -1)])
def test_form_record_with_a_repeated_term_is_a_value_error(n, p, q, first, second, coefficients):
    terms = [{"I": i, "J": j, "c": c} for (i, j), c in zip((first, second), coefficients)]
    doc = {"n": n, "p": p, "q": q, "terms": terms}
    with pytest.raises(ValueError, match=re.escape(
            f"form names the term I={first[0]}, J={first[1]} twice")):
        form_from_json(doc)
    doc["terms"] = terms[1:]
    assert form_from_json(doc).coefficient(*second) == coefficients[1]


@pytest.mark.parametrize("first, second", [("[1,2]", "[2,1]"), ("[1,2]", "[1, 2]"), ("[2,1]", "[2, 1]")])
def test_two_keys_for_one_subset_are_refused_by_rank_function(first, second):
    # each key is read to its own tuple; RankFunction's reader, not the JSON
    # reader's dict, sees both spellings and refuses the second
    values = {"[]": 0, "[1]": 1, "[2]": 1, first: 2, second: 2}
    with pytest.raises(ValueError, match=re.escape("rank table names the subset [1, 2] twice")):
        rank_function_from_json({"m": 2, "values": values})
    del values[second]
    assert rank_function_from_json({"m": 2, "values": values}).full_rank() == 2


def test_a_rank_table_is_written_in_size_then_lex_order():
    table = RankFunction(3, {frozenset(k): len(k) for k in
                             [(), (2, 3), (1,), (1, 2, 3), (3,), (1, 3), (2,), (1, 2)]})
    assert list(rank_function_to_json(table)["values"]) == [
        "[]", "[1]", "[2]", "[3]", "[1, 2]", "[1, 3]", "[2, 3]", "[1, 2, 3]"]


def test_rank_table_without_m_is_a_value_error():
    with pytest.raises(ValueError, match="^a rank table must be a JSON object with 'm' and 'values'$"):
        rank_function_from_json({"values": {}})


# a subset element as a table's author might spell it: mostly the int
# itself, sometimes a bool, float, Fraction or string in its place
ELEMENT_SPELLINGS = st.sampled_from([lambda i: i] * 12 + [
    lambda i: i == 1, lambda i: float(i), Fraction, str])


@st.composite
def rank_table_arguments(draw):
    """(m, values) for RankFunction: every subset of [m] once, each key a tuple
    in any order or a frozenset, its elements spelled by ELEMENT_SPELLINGS."""
    m = draw(st.integers(0, 3))
    values = {}
    for mask in range(1 << m):
        elements = [draw(ELEMENT_SPELLINGS)(i) for i in range(1, m + 1) if mask >> (i - 1) & 1]
        key = draw(st.sampled_from([tuple, frozenset]))(draw(st.permutations(elements)))
        values[key] = 0 if not mask else draw(st.integers(0, 3))
    return m, values


@settings(deadline=None)
@given(rank_table_arguments())
def test_every_accepted_rank_table_round_trips_through_json(args):
    try:
        table = RankFunction(*args)
    except (TypeError, ValueError):
        return
    text = json.dumps(rank_function_to_json(table))
    assert rank_function_from_json(json.loads(text)) == table


# ---- the bulk read of canonical records ----

@st.composite
def canonical_spellings(draw, value):
    """A "p/q" spelling of the rational value as `matrix_to_json` might write
    it, or a hand might: signed, zero-padded, possibly unreduced."""
    if not value and draw(st.booleans()):
        return "-0/7"
    k = draw(st.sampled_from([1, 1, 2, 6, 10 ** LONG // value.denominator]))
    num, den = abs(value.numerator) * k, value.denominator * k
    sign = "-" if value < 0 else draw(st.sampled_from(["", "+", "-"] if not num else ["", "+"]))
    zeros = draw(st.sampled_from(["", "0", "000"]))
    return f"{sign}{zeros}{num}/{draw(st.sampled_from(['', '0']))}{den}"


@st.composite
def canonical_entries(draw, max_n=4):
    """Hermitian entries, each a {"re": "p/q", "im": "r/s"} record with both parts."""
    n = draw(st.integers(0, max_n))
    rows = [[None] * n for _ in range(n)]
    for j in range(n):
        rows[j][j] = {"re": draw(canonical_spellings(draw(values))),
                      "im": draw(canonical_spellings(Fraction(0)))}
        for k in range(j + 1, n):
            re, im = draw(values), draw(values)
            rows[j][k] = {"re": draw(canonical_spellings(re)), "im": draw(canonical_spellings(im))}
            rows[k][j] = {"re": draw(canonical_spellings(re)), "im": draw(canonical_spellings(-im))}
    return rows


@settings(deadline=None)
@given(canonical_entries())
def test_canonical_records_clear_as_the_scalar_route(entries):
    got = outcome(library, entries)
    assert got[0] == "ok"
    assert got == outcome(oracle, entries)


# values that come close to the "," joined "p/q" list the bulk read checks:
# a separator inside a value, a second "/", a stray space, newline, digit
# or underscore, a zero denominator, and a part past int()'s length limit
SEPARATOR_ATTACKS = ["1/2/3", "1/2,3/4", "1/2,", ",1/2", "1/1\n", " 1/1", "１/1", "1_0/1",
                     "0/0", "-0/00", "1" * 4301 + "/1"]


@settings(deadline=None)
@given(canonical_entries(max_n=3).filter(bool), st.data())
def test_canonical_records_raise_as_the_scalar_route(entries, data):
    n = len(entries)
    for _ in range(data.draw(st.integers(1, 3))):
        j, k = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        bad = data.draw(st.sampled_from(BAD_VALUES + SEPARATOR_ATTACKS))
        entries[j][k] = {**entries[j][k], data.draw(st.sampled_from(["re", "im"])): bad}
    got = outcome(library, entries)
    assert got[0] != "ok"
    assert got == outcome(oracle, entries)


def per_value(values):
    """The scalar oracle of _rat_pairs: rat_pair on each value, in order."""
    pairs = [rat_pair(s) for s in values]
    return [p for p, _ in pairs], [q for _, q in pairs]


def read(reader, values):
    try:
        return "ok", reader(values)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("values", [
    [], ["6/4"], ["-0/7", "+0012/01", "-3/1"], ["4/1", "1/1", "0/1"], ["1" * 4300 + "/1", "2/3"],
    ["1/2", "4"], ["4", "1/2"], ["1/2", 4], [Fraction(1, 2), "1/2"]])
def test_rat_pairs_reads_as_rat_pair(values):
    got = read(_rat_pairs, values)
    assert got[0] == "ok"
    assert got == read(per_value, values)


@pytest.mark.parametrize("attack", SEPARATOR_ATTACKS + ["1/2/3,4"])
@pytest.mark.parametrize("before, after", [((), ()), (("1/2",), ()), ((), ("4",)), (("1/2",), ("4/1",))])
def test_rat_pairs_refuses_a_separator_attack_as_rat_pair(attack, before, after):
    values = [*before, attack, *after]
    got = read(_rat_pairs, values)
    assert got[0] != "ok"
    assert got == read(per_value, values)


def test_a_canonical_record_is_read_without_a_per_value_call(monkeypatch):
    canonical = [[{"re": "6/4", "im": "0/1"}, {"re": "-1/1", "im": "+02/3"}],
                 [{"re": "-1/1", "im": "-2/3"}, {"re": "007/1", "im": "-0/7"}]]
    others = [[[{"re": 3, "im": "0/1"}, {"re": "0/1", "im": "0/1"}],
               [{"re": "0/1", "im": "0/1"}, {"re": "1/1", "im": "0/1"}]],
              [[{"re": "3", "im": "0/1"}, {"re": "0/1", "im": "0/1"}],
               [{"re": "0/1", "im": "0/1"}, {"re": "1/1", "im": "0/1"}]]]
    expected = [oracle(entries)._cleared for entries in [canonical, *others]]
    calls, exact = [], rationals_mod.rat_pair

    def counted(s):
        calls.append(s)
        return exact(s)

    monkeypatch.setattr(rationals_mod, "rat_pair", counted)
    assert library(canonical)._cleared == expected[0]
    assert calls == []
    for entries, cleared in zip(others, expected[1:]):
        assert library(entries)._cleared == cleared
        assert calls == [v for row in entries for x in row for v in (x["re"], x["im"])]
        calls.clear()
