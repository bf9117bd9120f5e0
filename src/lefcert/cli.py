"""Command-line front end: run a task file, emit a deterministic JSON report.

Exit status is 0 exactly when every verdict-bearing task holds and no
task errored, so the tool doubles as an oracle in shell pipelines.

An --output file is rewritten in place: it is opened without truncation,
written, and then cut to the report's length, so rewriting a report that
was just written does not wait for the disk to write the old one back.
A target that is not a regular file (/dev/null, /dev/stdout, a pipe) is
written without the cut.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from functools import cache

from . import certify, discriminant, polymatroid
from .generate import GeneratorSpec, generate_psd
from .linalg import InternalCheckError
from .rationals import as_int
from .serialize import (
    certificate_to_json,
    matrix_from_json,
    matrix_to_json,
    rank_function_from_json,
    rank_function_to_json,
    rat_to_str,
)

SCHEMA_VERSION = 1


class TaskError(ValueError):
    pass


def _n(ctx):
    if ctx["n"] is None:
        raise TaskError("task needs the document's n")
    return ctx["n"]


def _names(names):
    if not isinstance(names, list) or not all(isinstance(nm, str) for nm in names):
        raise TaskError(f"matrix names must be a list of strings, got {names!r}")
    return names


def _matrices(ctx, names):
    missing = [name for name in _names(names) if name not in ctx["matrices"]]
    if missing:
        raise TaskError(f"undefined matrix name(s): {', '.join(missing)}")
    return [ctx["matrices"][name] for name in names]


def _task_nd(ctx, task):
    (mat,) = _matrices(ctx, [task["matrix"]])
    if not mat.is_psd():
        raise TaskError("nd is defined here for PSD matrices only")
    return {"nd": mat.rank()}


def _task_psd_check(ctx, task):
    (mat,) = _matrices(ctx, [task["matrix"]])
    return {"psd": mat.is_psd()}


def _task_mixed_disc(ctx, task):
    mats = _matrices(ctx, task["matrices"])
    return {"value": rat_to_str(discriminant.mixed_discriminant(mats))}


def _task_intersection(ctx, task):
    mats = _matrices(ctx, task["matrices"])
    return {"value": rat_to_str(discriminant.intersection_number(mats))}


def _instance(ctx, task, need_eta=False):
    forms = _matrices(ctx, task["forms"])
    eta = None
    if "eta" in task:
        (eta,) = _matrices(ctx, [task["eta"]])
    if need_eta and eta is None:
        raise TaskError("task requires an eta matrix")
    return certify.HLInstance(_n(ctx), task["p"], task["q"], tuple(forms), eta=eta)


def _task_hl_certify(ctx, task):
    inst = _instance(ctx, task)
    cert = certify.criterion_hl(inst)
    direct = certify.direct_hl(inst)
    if cert.verdict != direct.verdict:
        raise InternalCheckError("criterion and direct verdicts disagree")
    out = certificate_to_json(cert)
    if direct.kernel_witness is not None:
        out.update(certificate_to_json(direct))
    return out


def _task_hr_certify(ctx, task):
    inst = _instance(ctx, task, need_eta=True)
    cert, space = certify.hr_certify(inst)
    out = certificate_to_json(cert)
    out["primitive_dimension"] = len(space.basis)
    return out


def _task_signature(ctx, task):
    forms = _matrices(ctx, task.get("forms", []))
    sig = certify.lorentzian_signature(forms, n=_n(ctx))
    return {"signature": list(sig)}


def _task_lefschetz(ctx, task):
    inst = _instance(ctx, task, need_eta=True)
    _, _, dims = certify.lefschetz_decomposition(inst)
    return {"dims": list(dims)}


def _task_polymatroid_axioms(ctx, task):
    if "table" in task:
        rank = rank_function_from_json(task["table"])
    else:
        mats = _matrices(ctx, task["matrices"])
        rank = polymatroid.rank_from_matrices(mats, offset=task.get("offset", 0))
    report = polymatroid.check_axioms(rank)
    return {
        "submodular": report.submodular,
        "monotone": report.monotone,
        "normalized": report.normalized,
        "loopless": report.loopless,
        "is_matroid": report.is_matroid,
        "table": rank_function_to_json(rank),
    }


def _task_enumerate_support(ctx, task):
    rank = rank_function_from_json(task["table"])
    points = polymatroid.multidegree_support(rank, task["dim"])
    return {"points": sorted(list(p) for p in points)}


def _task_hl_support(ctx, task):
    mats = _matrices(ctx, task["matrices"])
    points = polymatroid.hl_support(mats, _n(ctx))
    return {"points": sorted(list(p) for p in points)}


def _task_generate_psd(ctx, task):
    seed = task.get("seed", ctx["seed"])
    if seed is None:
        raise TaskError("generate-psd needs a seed (task field or --seed)")
    spec = GeneratorSpec(
        seed=seed,
        n=_n(ctx),
        rank_profile=task["rank_profile"],
        entry_bound=task.get("entry_bound", 2),
    )
    mats = generate_psd(spec)
    names = _names(task.get("names", [f"gen{i}" for i in range(len(mats))]))
    if len(names) != len(mats):
        raise TaskError("names length does not match rank_profile length")
    repeated = sorted({nm for nm in names if names.count(nm) > 1})
    if repeated:
        raise TaskError(f"repeated matrix name(s) in names: {', '.join(repeated)}")
    for name, mat in zip(names, mats):
        ctx["matrices"][name] = mat
    return {"generated": [{"name": nm, "matrix": matrix_to_json(m)}
                          for nm, m in zip(names, mats)]}


_TASKS = {
    "nd": _task_nd,
    "psd-check": _task_psd_check,
    "mixed-disc": _task_mixed_disc,
    "intersection": _task_intersection,
    "hl-certify": _task_hl_certify,
    "hr-certify": _task_hr_certify,
    "signature": _task_signature,
    "lefschetz": _task_lefschetz,
    "polymatroid-axioms": _task_polymatroid_axioms,
    "enumerate-support": _task_enumerate_support,
    "hl-support": _task_hl_support,
    "generate-psd": _task_generate_psd,
}


def run_instance(doc, seed=None):
    """Execute the task list; returns (report_dict, all_ok)."""
    if not isinstance(doc, dict):
        raise ValueError("the instance must be a JSON object")
    schema = doc.get("schema", SCHEMA_VERSION)
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {schema!r}")
    n = as_int(doc["n"], "n") if "n" in doc else None
    declared = doc.get("matrices", {})
    if not isinstance(declared, dict):
        raise ValueError("matrices must be a JSON object")
    tasks = doc.get("tasks", [])
    if not isinstance(tasks, list):
        raise ValueError("tasks must be a JSON list")
    matrices = {}
    for name, obj in declared.items():
        try:
            mat = matrix_from_json(obj)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"matrix {name!r}: {exc}") from None
        if n is not None and mat.n != n:
            raise ValueError(f"matrix {name!r} is not {n}x{n}")
        matrices[name] = mat
    ctx = {"n": n, "matrices": matrices, "seed": seed}
    results = {}
    ok = True
    for idx, task in enumerate(tasks):
        kind = task.get("kind") if isinstance(task, dict) else None
        handler = _TASKS.get(kind)
        if handler is None:
            results[str(idx)] = {"error": f"unknown task kind {kind!r}"}
            ok = False
            continue
        try:
            result = handler(ctx, task)
        except (TypeError, ValueError, KeyError) as exc:
            missing = isinstance(exc, KeyError)
            results[str(idx)] = {"error": f"missing field {exc}" if missing else str(exc)}
            ok = False
            continue
        except InternalCheckError as exc:
            # a failed self-check is a bug, reported per task and never as a traceback
            results[str(idx)] = {"internal_error": str(exc)}
            ok = False
            continue
        results[str(idx)] = result
        if result.get("verdict") == "fails":
            ok = False
        if result.get("psd") is False:
            ok = False
    return {"schema": SCHEMA_VERSION, "results": results}, ok


@cache
def _parser():
    """The argument parser, built on the first call and reused: parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="lefcert",
        description="Exact Lefschetz/Hodge-Riemann certification for Hermitian form families",
    )
    parser.add_argument("--input", required=True, help="instance file (UTF-8 JSON)")
    parser.add_argument("--output", default="-", help="report path, or - for stdout")
    parser.add_argument("--seed", type=int, default=None,
                        help="default seed for generate-psd tasks")
    parser.add_argument("--pretty", action="store_true", help="indent the JSON report")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        with open(args.input, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        print(f"parse error in {args.input}: line {exc.lineno}, column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RecursionError) as exc:  # a number too long, arrays nested too deep
        print(f"parse error in {args.input}: {exc}", file=sys.stderr)
        return 2

    try:
        report, ok = run_instance(doc, seed=args.seed)
    except (TypeError, ValueError) as exc:
        print(f"invalid instance file: {exc}", file=sys.stderr)
        return 2

    if args.pretty:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = json.dumps(report, separators=(",", ":"), sort_keys=True) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        try:
            fd = os.open(args.output, os.O_WRONLY | os.O_CREAT, 0o666)
            with open(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    fh.truncate()
        except OSError as exc:
            print(f"cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
