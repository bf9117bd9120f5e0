import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefcert.cli import main, run_instance
from lefcert.linalg import HermitianMatrix
from lefcert.rationals import GR
from lefcert.serialize import matrix_from_json, matrix_to_json

D = HermitianMatrix.diagonal


def entry(v):
    return {"re": f"{v}/1", "im": "0/1"}


def diag_json(values):
    return matrix_to_json(D(values))


def run_file(tmp_path, doc, extra_args=()):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "report.json"
    code = main(["--input", str(path), "--output", str(out), *extra_args])
    return code, json.loads(out.read_text(encoding="utf-8"))


def test_nd_task(tmp_path):
    doc = {
        "schema": 1,
        "n": 3,
        "matrices": {"a": diag_json([1, 1, 0])},
        "tasks": [{"kind": "nd", "matrix": "a"}],
    }
    code, report = run_file(tmp_path, doc)
    assert code == 0
    assert report["results"]["0"] == {"nd": 2}


def test_hl_certify_failing_pair(tmp_path):
    doc = {
        "schema": 1,
        "n": 2,
        "matrices": {"a": diag_json([1, 0])},
        "tasks": [{"kind": "hl-certify", "p": 0, "q": 0, "forms": ["a", "a"]}],
    }
    code, report = run_file(tmp_path, doc)
    assert code == 1
    result = report["results"]["0"]
    assert result["verdict"] == "fails"
    assert result["failing_subset"] == [1, 2]
    assert "witness" in result  # kernel evidence from the direct route


def test_empty_tasks_exit_zero(tmp_path):
    code, report = run_file(tmp_path, {"schema": 1, "n": 2, "tasks": []})
    assert code == 0
    assert report["results"] == {}


def test_parse_error_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": 1,\n  "n": }', encoding="utf-8")
    code = main(["--input", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_task_errors_do_not_abort_later_tasks(tmp_path):
    doc = {
        "schema": 1,
        "n": 2,
        "matrices": {"a": diag_json([1, 0])},
        "tasks": [
            {"kind": "mixed-disc", "matrices": ["a", "missing"]},
            {"kind": "no-such-kind"},
            {"kind": "psd-check", "matrix": "a"},
        ],
    }
    code, report = run_file(tmp_path, doc)
    assert code == 1
    assert "error" in report["results"]["0"]
    assert "error" in report["results"]["1"]
    assert report["results"]["2"] == {"psd": True}


def test_internal_check_error_is_a_structured_task_result(tmp_path, capsys, monkeypatch):
    from lefcert import certify
    from lefcert.linalg import InternalCheckError

    def broken(inst):
        raise InternalCheckError("Q Gram matrix is not Hermitian")

    monkeypatch.setattr(certify, "hr_certify", broken)
    doc = {
        "schema": 1,
        "n": 2,
        "matrices": {"a": diag_json([1, 1])},
        "tasks": [
            {"kind": "hr-certify", "p": 0, "q": 0, "forms": ["a", "a"], "eta": "a"},
            {"kind": "psd-check", "matrix": "a"},
        ],
    }
    code, report = run_file(tmp_path, doc)
    assert code == 1
    assert report["results"]["0"] == {"internal_error": "Q Gram matrix is not Hermitian"}
    assert report["results"]["1"] == {"psd": True}
    assert "Traceback" not in capsys.readouterr().err


def test_reports_byte_identical(tmp_path):
    doc = {
        "schema": 1,
        "n": 3,
        "matrices": {
            "a": diag_json([1, 1, 0]),
            "b": diag_json([0, 1, 1]),
            "e": diag_json([1, 1, 1]),
        },
        "tasks": [
            {"kind": "mixed-disc", "matrices": ["a", "b", "e"]},
            {"kind": "intersection", "matrices": ["a", "b", "e"]},
            {"kind": "hl-certify", "p": 1, "q": 0, "forms": ["a", "b"]},
            {"kind": "hr-certify", "p": 1, "q": 1, "forms": ["e"], "eta": "e"},
            {"kind": "signature", "forms": ["e"]},
            {"kind": "lefschetz", "p": 1, "q": 1, "forms": ["e"], "eta": "e"},
            {"kind": "polymatroid-axioms", "matrices": ["a", "b"]},
            {"kind": "hl-support", "matrices": ["a", "b"]},
        ],
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["--input", str(path), "--output", str(out1)]) == 0
    assert main(["--input", str(path), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seeded_generation_and_pipeline(tmp_path):
    doc = {
        "schema": 1,
        "n": 3,
        "tasks": [
            {"kind": "generate-psd", "rank_profile": [3, 3], "names": ["x", "y"]},
            {"kind": "hl-certify", "p": 1, "q": 0, "forms": ["x", "y"]},
        ],
    }
    code, report = run_file(tmp_path, doc, extra_args=["--seed", "99"])
    assert code == 0
    assert report["results"]["1"]["verdict"] == "holds"
    # same seed twice: identical generated matrices
    _, report2 = run_file(tmp_path, doc, extra_args=["--seed", "99"])
    assert report == report2


def test_generate_requires_seed(tmp_path):
    doc = {
        "schema": 1,
        "n": 2,
        "tasks": [{"kind": "generate-psd", "rank_profile": [1]}],
    }
    code, report = run_file(tmp_path, doc)
    assert code == 1
    assert "seed" in report["results"]["0"]["error"]


def test_schema_version_rejected(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"schema": 2, "tasks": []}), encoding="utf-8")
    assert main(["--input", str(path)]) == 2
    assert "schema" in capsys.readouterr().err


def test_matrix_round_trip_through_json():
    m = HermitianMatrix([[1, GR(1, 2)], [GR(1, -2), 3]])
    assert matrix_from_json(matrix_to_json(m)) == m


def test_console_entry_point(tmp_path):
    doc = {
        "schema": 1,
        "n": 2,
        "matrices": {"a": diag_json([1, 1])},
        "tasks": [{"kind": "nd", "matrix": "a"}],
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "lefcert.cli", "--input", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["0"]["nd"] == 2


def test_pretty_output_same_content(tmp_path):
    doc = {
        "schema": 1,
        "n": 2,
        "matrices": {"a": diag_json([1, 0])},
        "tasks": [{"kind": "psd-check", "matrix": "a"}],
    }
    code1, plain = run_file(tmp_path, doc)
    code2, pretty = run_file(tmp_path, doc, extra_args=["--pretty"])
    assert code1 == code2 == 0
    assert plain == pretty


def test_the_reused_parser_keeps_no_state_between_calls(tmp_path, capsys):
    doc = {"schema": 1, "n": 2, "tasks": [{"kind": "generate-psd", "rank_profile": [1]}]}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--input", str(path), "--pretty", "--seed", "99"]) == 0
    pretty = capsys.readouterr().out
    assert pretty.count("\n") > 1 and "gen0" in pretty
    assert main(["--input", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out.count("\n") == 1 and err == ""
    assert json.loads(out)["results"]["0"]["error"].startswith("generate-psd needs a seed")
    with pytest.raises(SystemExit) as exc:
        main(["--pretty"])
    assert exc.value.code == 2
    assert "--input" in capsys.readouterr().err


# ---- malformed input: exit 2 for the document, 1 for a task, never a traceback ----

def run_raw(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["--input", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


def assert_document_error(tmp_path, capsys, doc, needle):
    code, out, err = run_raw(tmp_path, capsys, doc)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and needle in err


def assert_task_error(tmp_path, capsys, doc, needle):
    code, out, err = run_raw(tmp_path, capsys, doc)
    assert code == 1
    assert err == ""
    assert needle in json.loads(out)["results"]["0"]["error"]


def test_float_matrix_entry_is_a_document_error(tmp_path, capsys):
    doc = {"schema": 1, "n": 1, "matrices": {"a": {"entries": [[0.5]]}}, "tasks": []}
    assert_document_error(tmp_path, capsys, doc, "floating-point")


def test_float_n_is_a_document_error(tmp_path, capsys):
    doc = {
        "schema": 1,
        "n": 2.9,
        "matrices": {"a": diag_json([1, 1])},
        "tasks": [{"kind": "hl-certify", "p": 0.7, "q": 0, "forms": ["a", "a"]}],
    }
    assert_document_error(tmp_path, capsys, doc, "n must be an integer")


def test_matrices_not_an_object_is_a_document_error(tmp_path, capsys):
    doc = {"schema": 1, "n": 2, "matrices": [diag_json([1, 1])], "tasks": []}
    assert_document_error(tmp_path, capsys, doc, "matrices")


def test_non_string_matrix_name_is_a_task_error(tmp_path, capsys):
    doc = {
        "schema": 1,
        "n": 2,
        "matrices": {"a": diag_json([1, 1])},
        "tasks": [{"kind": "nd", "matrix": 3}],
    }
    assert_task_error(tmp_path, capsys, doc, "matrix names")


@pytest.mark.parametrize("p", [0.7, 0.0, True])
def test_non_int_bidegree_is_a_task_error(tmp_path, capsys, p):
    doc = {
        "schema": 1,
        "n": 2,
        "matrices": {"a": diag_json([1, 1])},
        "tasks": [{"kind": "hl-certify", "p": p, "q": 0, "forms": ["a", "a"]}],
    }
    assert_task_error(tmp_path, capsys, doc, "p must be an integer")


def test_float_offset_is_a_task_error(tmp_path, capsys):
    doc = {
        "schema": 1,
        "n": 2,
        "matrices": {"a": diag_json([1, 1])},
        "tasks": [{"kind": "polymatroid-axioms", "matrices": ["a"], "offset": 1.0}],
    }
    assert_task_error(tmp_path, capsys, doc, "offset must be an integer")


def test_float_dim_is_a_task_error(tmp_path, capsys):
    table = {"m": 1, "values": {"[]": 0, "[1]": 1}}
    doc = {"schema": 1, "tasks": [{"kind": "enumerate-support", "table": table, "dim": 1.0}]}
    assert_task_error(tmp_path, capsys, doc, "dim must be an integer")


@pytest.mark.parametrize("kind", ["polymatroid-axioms", "enumerate-support"])
def test_rank_table_without_m_is_a_task_error(tmp_path, capsys, kind):
    doc = {"schema": 1, "tasks": [{"kind": kind, "table": {"values": {"[]": 0}}, "dim": 0}]}
    code, out, err = run_raw(tmp_path, capsys, doc)
    assert code == 1 and err == ""
    assert json.loads(out)["results"]["0"] == {
        "error": "a rank table must be a JSON object with 'm' and 'values'"}


@pytest.mark.parametrize("kind", ["polymatroid-axioms", "enumerate-support"])
@pytest.mark.parametrize("m, value, message", [
    (1.9, 1, "m must be an integer"),
    (1, 1.7, "rank of [1] must be an integer"),
    (1, True, "rank of [1] must be an integer"),
    (False, 0, "m must be an integer"),
])
def test_non_int_rank_table_is_a_task_error(tmp_path, capsys, kind, m, value, message):
    table = {"m": m, "values": {"[]": 0, "[1]": value}}
    doc = {"schema": 1, "tasks": [{"kind": kind, "table": table, "dim": 1}]}
    assert_task_error(tmp_path, capsys, doc, message)


@pytest.mark.parametrize("kind", ["polymatroid-axioms", "enumerate-support"])
@pytest.mark.parametrize("m, values, message", [
    pytest.param(1, {"[]": 0, "[true]": 1}, "key '[true]' is not a list of distinct integers",
                 id="bool"),
    pytest.param(1, {"[]": 0, "[1.0]": 1}, "key '[1.0]' is not a list of distinct integers",
                 id="float"),
    pytest.param(1, {"[]": 0, "[1]": 1, "[1,1]": 5},
                 "key '[1,1]' is not a list of distinct integers", id="repeated-index"),
    pytest.param(2, {"[]": 0, "[1]": 1, "[2]": 1, "[2,1]": 2, "[1,2]": 1},
                 "names the subset [1, 2] twice", id="one-subset-two-keys"),
    pytest.param(1, {"[]": 0, "[0]": 1},
                 "key '[0]' is not a list of distinct integers in [1, 1]", id="below-range"),
    pytest.param(1, {"[]": 0, "[2]": 1},
                 "key '[2]' is not a list of distinct integers in [1, 1]", id="above-range"),
    pytest.param(1, {"[]": 0, "1": 1}, "key '1' is not a list", id="not-a-list"),
    pytest.param(1, {"[]": 0, "[1": 1}, "Expecting", id="not-json"),
])
def test_malformed_rank_table_key_is_a_task_error(kind, m, values, message):
    doc = {"schema": 1, "tasks": [{"kind": kind, "table": {"m": m, "values": values}, "dim": 1}]}
    report, ok = run_instance(doc)
    assert not ok
    (error,) = report["results"]["0"].values()
    assert message in error and list(report["results"]["0"]) == ["error"]


@pytest.mark.parametrize("kind", ["polymatroid-axioms", "enumerate-support"])
@pytest.mark.parametrize("m, message", [
    (64, "rank table must contain every subset of [m]"),
    (10**9, "rank table must contain every subset of [m]"),
    (-1, "rank table m must be nonnegative"),
])
def test_impossible_rank_table_is_refused_at_once(tmp_path, capsys, kind, m, message):
    # one key cannot fill 2^m subsets; the table is refused before any 2^m-sized work
    doc = {"schema": 1, "tasks": [{"kind": kind, "table": {"m": m, "values": {"[]": 0}},
                                   "dim": 0}]}
    start = time.perf_counter()
    assert_task_error(tmp_path, capsys, doc, message)
    assert time.perf_counter() - start < 0.5


def test_empty_ground_set_rank_table_is_accepted():
    doc = {"schema": 1, "tasks": [{"kind": "polymatroid-axioms",
                                   "table": {"m": 0, "values": {"[]": 0}}}]}
    report, ok = run_instance(doc)
    assert ok and report["results"]["0"]["is_matroid"]


def test_rank_table_keys_are_read_in_any_order():
    values = {"[]": 0, "[2]": 1, "[1]": 1, "[2,1]": 2}
    doc = {"schema": 1, "tasks": [{"kind": "polymatroid-axioms",
                                   "table": {"m": 2, "values": values}}]}
    report, ok = run_instance(doc)
    assert ok
    assert report["results"]["0"]["table"]["values"] == {"[]": 0, "[1]": 1, "[2]": 1, "[1, 2]": 2}


def test_route_disagreement_is_an_internal_error(tmp_path, monkeypatch):
    import lefcert.certify as certify_mod
    from lefcert.certify import Certificate

    direct = certify_mod.direct_hl

    def flipped(inst):
        if direct(inst).holds:
            return Certificate("fails", failing_subset=(1,))
        return Certificate("holds")

    monkeypatch.setattr(certify_mod, "direct_hl", flipped)
    doc = {
        "schema": 1,
        "n": 2,
        "matrices": {"a": diag_json([1, 0]), "b": diag_json([1, 1])},
        "tasks": [{"kind": "hl-certify", "p": 0, "q": 0, "forms": ["b", "b"]},
                  {"kind": "hl-certify", "p": 0, "q": 0, "forms": ["a", "a"]}],
    }
    code, report = run_file(tmp_path, doc)
    assert code == 1
    expected = {"internal_error": "criterion and direct verdicts disagree"}
    assert report["results"] == {"0": expected, "1": expected}


def test_generator_self_check_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # a B B* that lost the drawn rank fails generate_psd's soundness check
    monkeypatch.setattr(HermitianMatrix, "from_generator", classmethod(lambda cls, b: cls.zero(len(b))))
    doc = {"schema": 1, "n": 2, "tasks": [{"kind": "generate-psd", "seed": 3, "rank_profile": [1]}]}
    code, out, err = run_raw(tmp_path, capsys, doc)
    assert (code, err) == (1, "")
    assert json.loads(out)["results"] == {"0": {"internal_error": "generator soundness violated"}}


@pytest.mark.parametrize("point, message", [
    ((1, 0), "point violates the total-degree equality"),
    ((2, 0), "point violates a defining inequality"),
])
def test_support_self_checks_are_internal_errors(tmp_path, capsys, monkeypatch, point, message):
    from lefcert import polymatroid

    monkeypatch.setattr(polymatroid, "enumerate_points",
                        lambda r: polymatroid.DiscretePolymatroid(r.m, r, (point,)))
    table = {"m": 2, "values": {"[]": 0, "[1]": 1, "[2]": 1, "[1, 2]": 2}}
    doc = {"schema": 1, "tasks": [{"kind": "enumerate-support", "table": table, "dim": 2}]}
    code, out, err = run_raw(tmp_path, capsys, doc)
    assert (code, err) == (1, "")
    assert json.loads(out)["results"] == {"0": {"internal_error": message}}


def test_non_object_rank_table_is_a_task_error(tmp_path, capsys):
    doc = {"schema": 1, "tasks": [{"kind": "polymatroid-axioms", "table": [1, 2]}]}
    assert_task_error(tmp_path, capsys, doc, "rank table must be a JSON object")


@pytest.mark.parametrize("field, value", [("seed", 3.0), ("seed", False), ("entry_bound", 2.5)])
def test_non_int_generator_field_is_a_task_error(tmp_path, capsys, field, value):
    task = {"kind": "generate-psd", "seed": 3, "rank_profile": [1], field: value}
    doc = {"schema": 1, "n": 2, "tasks": [task]}
    assert_task_error(tmp_path, capsys, doc, f"{field} must be an integer")


def test_task_needing_n_without_one_is_a_task_error(tmp_path, capsys):
    doc = {
        "schema": 1,
        "matrices": {"a": diag_json([1, 1])},
        "tasks": [{"kind": "hl-certify", "p": 0, "q": 0, "forms": ["a", "a"]}],
    }
    assert_task_error(tmp_path, capsys, doc, "needs the document's n")


def test_tasks_not_a_list_is_a_document_error(tmp_path, capsys):
    doc = {"schema": 1, "n": 2, "tasks": {"kind": "nd", "matrix": "a"}}
    assert_document_error(tmp_path, capsys, doc, "tasks")


def test_non_object_task_is_a_task_error(tmp_path, capsys):
    doc = {"schema": 1, "n": 2, "tasks": [7]}
    assert_task_error(tmp_path, capsys, doc, "unknown task kind")


def test_float_rank_profile_entry_is_a_task_error(tmp_path, capsys):
    task = {"kind": "generate-psd", "seed": 3, "rank_profile": [1.5]}
    doc = {"schema": 1, "n": 2, "tasks": [task]}
    assert_task_error(tmp_path, capsys, doc, "rank_profile entry must be an integer")


def test_repeated_generated_name_is_a_task_error(tmp_path, capsys):
    # two matrices named a would leave later tasks only the second one
    task = {"kind": "generate-psd", "seed": 3, "rank_profile": [1, 2], "names": ["a", "a"]}
    doc = {"schema": 1, "n": 2, "tasks": [task, {"kind": "psd-check", "matrix": "a"}]}
    assert_task_error(tmp_path, capsys, doc, "repeated matrix name(s) in names: a")
    code, report = run_file(tmp_path, doc)
    assert code == 1
    assert "undefined matrix name(s): a" in report["results"]["1"]["error"]


@pytest.mark.parametrize("record, message", [
    ({"entries": [[1, 2], [3, 1]]}, "not Hermitian at (0,1)"),
    ({"entries": [[1, 0]]}, "matrix must be square"),
    ({"entries": [[{"re": "1/0"}, 0], [0, 1]]}, "zero denominator in '1/0'"),
    ({"n": 3, "entries": [[1, 0], [0, 1]]}, "matrix dimension field disagrees with entries"),
], ids=["not-hermitian", "not-square", "zero-denominator", "wrong-n"])
def test_bad_second_matrix_error_names_the_matrix(tmp_path, capsys, record, message):
    doc = {"schema": 1, "n": 2, "matrices": {"a": diag_json([1, 1]), "b": record},
           "tasks": [{"kind": "psd-check", "matrix": "a"}]}
    code, out, err = run_raw(tmp_path, capsys, doc)
    assert (code, out) == (2, "")
    assert err == f"invalid instance file: matrix 'b': {message}\n"
    assert "Traceback" not in err


def test_zero_denominator_is_a_document_error(tmp_path, capsys):
    doc = {"schema": 1, "n": 1, "matrices": {"a": {"entries": [[{"re": "1/0"}]]}}, "tasks": []}
    assert_document_error(tmp_path, capsys, doc, "zero denominator")


@pytest.mark.parametrize("text", ["1e10000000", "1.5", "1_0"])
def test_non_rational_string_is_a_document_error_at_once(tmp_path, capsys, text):
    doc = {"schema": 1, "n": 1, "matrices": {"a": {"entries": [[{"re": text}]]}}, "tasks": []}
    t0 = time.perf_counter()
    assert_document_error(tmp_path, capsys, doc, "'p/q'")
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("entries", [["12", "21"], [{"re": "1"}, {"re": "2"}], 5],
                         ids=["string-rows", "object-rows", "number"])
def test_rows_that_are_not_arrays_are_a_document_error(tmp_path, capsys, entries):
    doc = {"schema": 1, "n": 2, "matrices": {"a": {"entries": entries}},
           "tasks": [{"kind": "psd-check", "matrix": "a"}]}
    assert_document_error(tmp_path, capsys, doc, "matrix 'a': entries must be a list of rows")


def test_integer_and_fraction_strings_still_parse():
    mat = matrix_from_json({"entries": [["7", {"re": "-3/4", "im": "+2"}],
                                        [{"re": "-3/4", "im": "-2"}, "0/5"]]})
    assert mat.rows == ((GR(7), GR(Fraction(-3, 4), 2)), (GR(Fraction(-3, 4), -2), GR(0)))


def test_empty_hl_support_family_is_a_task_error(tmp_path, capsys):
    doc = {"schema": 1, "n": 2, "tasks": [{"kind": "hl-support", "matrices": []}]}
    assert_task_error(tmp_path, capsys, doc, "empty matrix family")


@pytest.mark.parametrize("task, field", [
    ({"kind": "nd"}, "matrix"),
    ({"kind": "hl-certify", "q": 0, "forms": ["a", "a"]}, "p"),
    ({"kind": "enumerate-support", "dim": 1}, "table"),
])
def test_missing_task_field_is_a_task_error(tmp_path, capsys, task, field):
    doc = {"schema": 1, "n": 2, "matrices": {"a": diag_json([1, 1])}, "tasks": [task]}
    code, out, err = run_raw(tmp_path, capsys, doc)
    assert code == 1 and err == ""
    assert json.loads(out)["results"]["0"] == {"error": f"missing field {field!r}"}


# ---- unreadable files and unwritable reports: one stderr line, exit 2, no traceback ----

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_console(*args):
    """The CLI in a fresh interpreter, so that an escaping exception shows as a traceback."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-m", "lefcert.cli", *args],
                          capture_output=True, text=True, env=env)


def assert_refused(proc, needle):
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and needle in proc.stderr


def write_bytes(tmp_path, data):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize("target", ["missing/report.json", "."])
def test_unwritable_output_is_refused(tmp_path, target):
    path = write_bytes(tmp_path, b'{"schema": 1, "tasks": []}')
    output = str(tmp_path / target)
    assert_refused(run_console("--input", path, "--output", output), f"cannot write {output}")


@pytest.mark.parametrize("data, needle", [
    (b'{"schema": 1, "tasks": [], "note": "\xff"}', "utf-8"),
    (b'{"schema": 1, "n": ' + b"7" * 4400 + b"}", "parse error"),
    (b"[" * 200_000 + b"]" * 200_000, "parse error"),
], ids=["non-utf8", "long-number", "deep-nesting"])
def test_unreadable_input_is_refused(tmp_path, data, needle):
    assert_refused(run_console("--input", write_bytes(tmp_path, data)), needle)


# ---- JSON booleans are not numbers ----

@pytest.mark.parametrize("doc, needle", [
    ({"schema": 1, "n": 2, "matrices": {"a": {"entries": [[True, 0], [0, False]]}},
      "tasks": [{"kind": "nd", "matrix": "a"}]}, "boolean"),
    ({"schema": 1, "n": 1, "matrices": {"a": {"entries": [[{"re": 1, "im": False}]]}},
      "tasks": []}, "boolean"),
    ({"schema": True, "n": 1, "tasks": []}, "schema"),
    ({"schema": 1, "n": 1, "matrices": {"a": {"n": True, "entries": [[1]]}}, "tasks": []},
     "dimension"),
], ids=["entries", "im-part", "schema", "matrix-n"])
def test_boolean_is_a_document_error(tmp_path, capsys, doc, needle):
    assert_document_error(tmp_path, capsys, doc, needle)


# ---- fuzz: any value in a number slot is refused as data, never as a crash ----

NOT_INTS = st.one_of(st.booleans(), st.floats(), st.none(), st.lists(st.integers(-1, 2), max_size=2),
                    st.sampled_from(["2", "1/2", "-0/7", "1/0", "1.5"]) | st.text(max_size=3))


def slot(ints):
    """A number slot: an int from ints seven times in eight, else a bool, float, None, list or string.

    Most slots then hold an int, so most documents get past the
    document-level checks and their tasks run.
    """
    return st.integers(0, 7).flatmap(lambda k: ints if k else NOT_INTS)


SMALL = st.integers(-1, 3)
RATIONAL = slot(st.integers(-2, 2))
ENTRY = RATIONAL | st.fixed_dictionaries({}, optional={"re": RATIONAL, "im": RATIONAL})
REAL_ENTRY = RATIONAL | st.fixed_dictionaries({}, optional={"re": RATIONAL,
                                                             "im": slot(st.just(0))})
NAMES = st.lists(st.sampled_from(["a", "b", "a", "b", "gen0"]), min_size=1, max_size=3)


def conjugate(entry):
    """The entry with an int imaginary part negated; any other entry as it is."""
    if isinstance(entry, dict) and type(entry.get("im")) is int:
        return {**entry, "im": -entry["im"]}
    return entry


@st.composite
def matrices(draw, size):
    """A matrix record of the given size, Hermitian wherever its slots hold ints."""
    rows = [[0] * size for _ in range(size)]
    for j in range(size):
        rows[j][j] = draw(REAL_ENTRY)
        for k in range(j + 1, size):
            rows[j][k] = draw(st.just(0) | ENTRY)
            rows[k][j] = conjugate(rows[j][k])
    return {"entries": rows}


@st.composite
def tables(draw):
    """A rank-table record whose keys cover the subsets of [1..m] for m up to 3."""
    m = draw(slot(st.integers(-1, 3)))
    size = m if type(m) is int and 0 <= m <= 3 else 1
    keys = [json.dumps([i for i in range(1, size + 1) if bits >> (i - 1) & 1])
            for bits in range(1 << size)]
    return {"m": m, "values": {key: draw(slot(st.integers(0, 3) if key != "[]" else st.just(0)))
                               for key in keys}}


TASKS = st.one_of(
    st.fixed_dictionaries({"kind": st.sampled_from(["hl-certify", "hr-certify", "lefschetz"]),
                           "p": slot(SMALL), "q": slot(SMALL), "forms": NAMES,
                           "eta": st.sampled_from(["a", "b"])}),
    st.fixed_dictionaries({"kind": st.just("polymatroid-axioms"), "matrices": NAMES,
                           "offset": slot(SMALL)}),
    st.fixed_dictionaries({"kind": st.sampled_from(["polymatroid-axioms", "enumerate-support"]),
                           "table": tables(), "dim": slot(st.integers(-1, 4))}),
    st.fixed_dictionaries({"kind": st.sampled_from(["signature", "hl-support", "mixed-disc",
                                                     "intersection"]),
                           "forms": NAMES, "matrices": NAMES}),
    st.fixed_dictionaries({"kind": st.sampled_from(["nd", "psd-check"]),
                           "matrix": st.sampled_from(["a", "b", "gen0"])}),
    # rank profiles are capped at 3 entries, as n is at 3
    st.fixed_dictionaries({"kind": st.just("generate-psd"), "seed": slot(st.integers(0, 2 ** 64)),
                           "rank_profile": st.lists(slot(SMALL), max_size=3),
                           "entry_bound": slot(st.integers(-1, 3))}),
)


@st.composite
def documents(draw):
    n = draw(slot(st.integers(0, 3)))
    size = n if type(n) is int else 2
    return {"schema": 1, "n": n, "matrices": {name: draw(matrices(size)) for name in "ab"},
            "tasks": draw(st.lists(TASKS, max_size=3))}


@settings(deadline=None, max_examples=100)
@given(documents())
def test_number_slots_never_crash_the_cli(tmp_path_factory, doc):
    try:
        _, ok = run_instance(doc)
        expected = 0 if ok else 1
    except (TypeError, ValueError):
        expected = 2
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    err = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(err):
        code = main(["--input", str(path)])
    assert code == expected
    assert "Traceback" not in err.getvalue()
