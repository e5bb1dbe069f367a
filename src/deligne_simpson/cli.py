"""Command-line surface: problem/witness ingestion and machine reports.

Commands: classify, good (alias psi-trace), generic, special, verify, dim,
deform.  Flags are spelled in full: an abbreviation is an unrecognized
argument.
Problem and witness documents are checked in one pass, and a refusal names
the JSON path it came from.  Reports are JSON with sorted keys (byte-stable
for identical inputs), written by one writer whose text is
json.dumps(report, indent=2, sort_keys=True); pass --human for a prose
rendering.  Exit status: 0 success, 1 negative/unknown answer where
documented, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .criteria import PsiTrace, TieVerdictError, is_good, rigidity_report
from .eigenvalues import (
    ADDITIVE,
    DEFAULT_RELATION_CAP,
    GenericAssignmentError,
    NonGenericityRelation,
    ProblemError,
    TupleProblem,
    _mode_of,
    _require_consistency,
    generate_generic,
    is_generic,
)
from .exactnum import ExactNumberError, _format_ratio, format_rational, parse_rational, parse_triple
from .jnf_core import ClassSpec, JnfError, JnfShape, Partition
from .linalg import LinalgError, Matrix
from .solver import UNKNOWN, Verdict, apply_subordinate_witness, classify
from .special import SpecialSearchError, classify_specialness
from .witness import (
    MatrixTuple,
    WitnessError,
    WitnessMismatchError,
    WitnessPreconditionError,
    check_witness,
    deform_step,
    euler_characteristic,
    is_irreducible,
    local_dimension,
    tangent_rank,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2


class CliInputError(ValueError):
    pass


# -- document parsing ----------------------------------------------------------
#
# A path is formatted only for a refusal.  Inside a list, a check gives only
# the rest of its path (a field, or "" for the item itself), and the `except`
# around the list's loop puts the item's indices in front.


def _expect(condition: bool, path: str, message: str):
    if not condition:
        raise CliInputError(f"{path}: {message}")


def _at(path: str, build, *args):
    """build(*args), with an engine refusal turned into an input error that
    names the JSON path (or flag) it came from."""
    try:
        return build(*args)
    except (ExactNumberError, ProblemError, JnfError, WitnessError) as exc:
        raise CliInputError(f"{path}: {exc}") from exc


def _parse_value(doc, mode, path: str, build=None):
    _expect(isinstance(doc, dict), path, "must be an object")
    key, other, default = mode.fields
    # the required key, the optional one when present, and nothing else
    _expect(key in doc and len(doc) == 1 + (other in doc), path, mode.hint)
    return _at(path, build or mode.value_type, doc[key], doc.get(other, default))


def _parse_header(doc, kind: str, items: str):
    """The mode, n and non-empty `items` list of a problem or witness
    document."""
    _expect(isinstance(doc, dict), "$", f"{kind} document must be an object")
    mode = _mode_of(doc.get("mode"))
    _expect(mode is not None, "mode", "must be 'additive' or 'multiplicative'")
    n = doc.get("n")
    # exactly int: JSON true/false arrive as bool, which subclasses int
    _expect(type(n) is int and n >= 1, "n", "must be a positive integer")
    listed = doc.get(items)
    _expect(isinstance(listed, list) and listed, items, "must be a non-empty list")
    return mode, n, listed


def parse_problem(doc) -> TupleProblem:
    """Validate and convert a problem document; errors carry JSON paths."""
    mode, n, classes_doc = _parse_header(doc, "problem", "classes")
    classes, k = [], None
    try:
        for j, cdoc in enumerate(classes_doc):
            _expect(isinstance(cdoc, dict), "", "must be an object")
            evs = cdoc.get("eigenvalues")
            _expect(isinstance(evs, list) and evs, ".eigenvalues", "must be a non-empty list")
            partitions, values, total = [], [], 0
            for k, edoc in enumerate(evs):
                _expect(isinstance(edoc, dict), "", "must be an object")
                values.append(_parse_value(edoc.get("value"), mode, ".value"))
                mult = edoc.get("multiplicity")
                _expect(type(mult) is int and mult >= 1, ".multiplicity", "must be a positive integer")
                blocks = edoc.get("blocks")
                # Partition drops zero parts, which would not survive a round trip
                _expect(isinstance(blocks, list) and blocks
                        and all(type(b) is int and b > 0 for b in blocks),
                        ".blocks", "must be a non-empty list of positive integers")
                part = Partition(blocks)
                if part.size != mult:
                    raise CliInputError(
                        f".blocks: block sizes sum to {part.size}, multiplicity is {mult}")
                partitions.append(part)
                total += mult
            k = None  # back at the class
            if total != n:
                raise CliInputError(f": multiplicities sum to {total}, expected n = {n}")
            classes.append(_at("", ClassSpec, JnfShape(partitions), values))
    except CliInputError as exc:
        label = "" if k is None else f".eigenvalues[{k}]"
        raise CliInputError(f"classes[{j}]{label}{exc}") from exc
    return _at("$", TupleProblem, mode, n, classes)


def serialize_problem(problem: TupleProblem) -> dict:
    return {
        "mode": problem.mode,
        "n": problem.n,
        "classes": [
            {
                "eigenvalues": [
                    {
                        "value": problem.mode.document(v),
                        "multiplicity": c.shape.multiplicity(i),
                        "blocks": list(c.shape.blocks[i].parts),
                    }
                    for i, v in enumerate(c.values)
                ]
            }
            for c in problem.classes
        ],
    }


def _parse_matrices(doc) -> tuple[str, list[Matrix]]:
    """Mode and matrices of a witness document, not yet a tuple."""
    mode, n, mats_doc = _parse_header(doc, "witness", "matrices")
    matrices = []
    try:
        for j, mdoc in enumerate(mats_doc):
            i = k = None
            if not (isinstance(mdoc, list) and len(mdoc) == n):
                raise CliInputError(f": must be a list of {n} rows")
            rows = []
            for i, rdoc in enumerate(mdoc):
                k = None
                if not (isinstance(rdoc, list) and len(rdoc) == n):
                    raise CliInputError(f": must be a list of {n} entries")
                row = []
                for k, e in enumerate(rdoc):
                    row.append(_parse_value(e, ADDITIVE, "", parse_triple))
                rows.append(tuple(row))
            # n rows of n canonical triples each, checked above
            matrices.append(Matrix._of(tuple(rows)))
    except CliInputError as exc:
        at = "".join(f"[{x}]" for x in (i, k) if x is not None)
        raise CliInputError(f"matrices[{j}]{at}{exc}") from exc
    return mode, matrices


def parse_witness(doc) -> MatrixTuple:
    return _at("$", MatrixTuple, *_parse_matrices(doc))


def serialize_witness(t: MatrixTuple) -> dict:
    return {
        "mode": t.mode,
        "n": t.n,
        "matrices": [
            [
                [{"re": _format_ratio(a, d), "im": _format_ratio(b, d)} for a, b, d in row]
                for row in m._rows
            ]
            for m in t.matrices
        ],
    }


# -- report helpers -------------------------------------------------------------


def _relation_json(rel: NonGenericityRelation | None):
    if rel is None:
        return None
    return {"cardinality": rel.m, "counts": [list(t) for t in rel.counts]}


def _trace_json(trace: PsiTrace):
    return {
        "terminal": trace.terminal,
        "levels": [
            {
                "n": step.n,
                "shapes": [s.as_lists() for s in step.shapes],
                "kappa": step.report.kappa,
                "sum_r": step.report.sum_r,
                "chosen_labels": list(step.chosen_labels) if step.chosen_labels else None,
                "n1": step.n1,
            }
            for step in trace.steps
        ],
    }


def _verdict_json(verdict: Verdict):
    out = {
        "dsp": verdict.dsp,
        "weak_dsp": verdict.weak_dsp,
        "kappa": verdict.rigidity.kappa,
        "expected_dimension": verdict.rigidity.expected_dimension,
        "good": verdict.good.good,
        "generic": None if verdict.genericity is None else verdict.genericity.generic,
        "justification": [
            {"rule": r.name, "statement": r.statement, "detail": r.detail}
            for r in verdict.justification
        ],
    }
    if verdict.genericity_note:
        out["genericity_note"] = verdict.genericity_note
    if verdict.specialness is not None:
        out["special"] = verdict.specialness.special
        out["special_diagonal"] = verdict.specialness.special_diagonal
    return out


def _certificate_json(cert):
    return {
        "l": cert.l,
        "n1": cert.n1,
        "diagonal": cert.diagonal,
        "inner_kappa": cert.inner_kappa,
        "inner_shapes": [c.shape.as_lists() for c in cert.inner_classes],
        "subordinate_shapes": [c.shape.as_lists() for c in cert.subordinate_classes],
    }


def _render_human(report, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(report, dict):
        items = [(f"{key}:", report[key]) for key in sorted(report)]
    elif isinstance(report, list):
        items = [("-", value) for value in report]
    else:
        return f"{pad}{report}"
    lines = []
    for label, value in items:
        if isinstance(value, (dict, list)):
            lines += [f"{pad}{label}", _render_human(value, indent + 1)]
        else:
            lines.append(f"{pad}{label} {value}")
    return "\n".join(lines)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # also bad UTF-8, integers past int's digit limit and too-deep nesting
        raise CliInputError(f"{path} is not valid JSON: {exc}") from exc


# -- commands -------------------------------------------------------------------


def _cmd_classify(args) -> tuple[int, dict]:
    if args.subordinate_witness and not args.subordinate_classes:
        raise CliInputError("--subordinate-witness requires --subordinate-classes")
    if args.subordinate_classes and not args.subordinate_witness:
        raise CliInputError("--subordinate-classes requires --subordinate-witness")
    problem = parse_problem(_load_json(args.problem))
    verdict = classify(
        problem,
        relation_cap=args.relation_cap,
        exhaustive_ties=args.exhaustive_ties,
    )
    if args.subordinate_witness:
        wit = parse_witness(_load_json(args.subordinate_witness))
        sub_problem = parse_problem(_load_json(args.subordinate_classes))
        verdict = apply_subordinate_witness(
            problem, wit, sub_problem.classes, base_verdict=verdict
        )
    report = {"command": "classify", "verdict": _verdict_json(verdict)}
    code = EXIT_OK if UNKNOWN not in (verdict.dsp, verdict.weak_dsp) else EXIT_NEGATIVE
    return code, report


def _cmd_good(args) -> tuple[int, dict]:
    problem = parse_problem(_load_json(args.problem))
    result = is_good(problem.shapes, exhaustive_ties=args.exhaustive_ties)
    report = {
        "command": args.command,
        "good": result.good,
        "branches_explored": result.branches_explored,
        "trace": _trace_json(result.trace),
    }
    return (EXIT_OK if result.good else EXIT_NEGATIVE), report


def _cmd_generic(args) -> tuple[int, dict]:
    if args.generate and args.seed < 0:
        raise CliInputError("--seed: must be a non-negative integer")
    if args.generate and args.relation_cap is not None:
        raise CliInputError("--relation-cap: not used by --generate, which runs no search")
    problem = parse_problem(_load_json(args.problem))
    if args.generate:
        try:
            generated = generate_generic(problem.shapes, problem.mode, seed=args.seed)
        except GenericAssignmentError as exc:
            return EXIT_NEGATIVE, {
                "command": "generic",
                "generated": False,
                "error": str(exc),
            }
        except ProblemError as exc:
            # the seed's own refusal: a prime walk past MAX_PRIME_WALK
            raise CliInputError(f"--seed: {exc}") from exc
        doc = serialize_problem(generated)
        if args.output:
            _write_json(args.output, doc)
        return EXIT_OK, {"command": "generic", "generated": True, "problem": doc}
    cap = DEFAULT_RELATION_CAP if args.relation_cap is None else args.relation_cap
    result = is_generic(problem, cap=cap)
    report = {
        "command": "generic",
        "generic": result.generic,
        "witness": _relation_json(result.witness),
    }
    return (EXIT_OK if result.generic else EXIT_NEGATIVE), report


def _cmd_special(args) -> tuple[int, dict]:
    problem = parse_problem(_load_json(args.problem))
    _require_consistency(problem)
    result = classify_specialness(problem, relation_cap=args.relation_cap)
    report = {
        "command": "special",
        "special": result.special,
        "special_diagonal": result.special_diagonal,
        "quasi_generic": result.quasi_generic,
        "certificates": [_certificate_json(c) for c in result.certificates],
    }
    return (EXIT_OK if result.special else EXIT_NEGATIVE), report


def _cmd_verify(args) -> tuple[int, dict]:
    problem = parse_problem(_load_json(args.problem))
    wit = parse_witness(_load_json(args.witness))
    relation, memberships = check_witness(wit, problem)
    tangent = tangent_rank(wit)
    cdim = tangent.centralizer_dimension
    irred = is_irreducible(wit, relation)
    chi = euler_characteristic(wit)
    rigidity = rigidity_report(problem.shapes)
    kappa = rigidity.kappa
    passed = relation and all(memberships)
    local_dim = rigidity.sum_d - tangent.rank if passed else None
    expected = rigidity.expected_dimension
    report = {
        "command": "verify",
        "relation": relation,
        "class_membership": memberships,
        "centralizer_dimension": cdim,
        "centralizer_trivial": cdim == 1,
        "surjective_without_last": tangent.surjective_without_last,
        "irreducible": irred.irreducible,
        "algebra_dimension": irred.algebra_dimension,
        "euler_characteristic": chi,
        "kappa": kappa,
        "euler_matches_kappa": chi == kappa,
        "local_dimension": local_dim,
        "expected_dimension": expected,
        "dimension_consistent": (local_dim == expected) if (local_dim is not None and cdim == 1) else None,
    }
    if not passed:
        report["local_dimension_note"] = "skipped: relation or membership failed"
    return (EXIT_OK if passed else EXIT_NEGATIVE), report


def _cmd_dim(args) -> tuple[int, dict]:
    problem = parse_problem(_load_json(args.problem))
    rigidity = rigidity_report(problem.shapes)
    report = {
        "command": "dim",
        "expected_dimension": rigidity.expected_dimension,
        "kappa": rigidity.kappa,
    }
    if args.witness:
        wit = parse_witness(_load_json(args.witness))
        try:
            report["local_dimension"] = local_dimension(wit, problem)
        except WitnessPreconditionError as exc:
            report["local_dimension"] = None
            report["local_dimension_note"] = str(exc)
            return EXIT_NEGATIVE, report
    return EXIT_OK, report


def _cmd_deform(args) -> tuple[int, dict]:
    base = parse_witness(_load_json(args.base))
    # directions are drift matrices, not a tuple: they need not be invertible
    _, directions = _parse_matrices(_load_json(args.directions))
    epsilon = _at("--epsilon", parse_rational, args.epsilon)
    tolerance = _at("--tolerance", parse_rational, args.tolerance)
    result = deform_step(base, directions, epsilon)
    within = result.residual <= tolerance
    doc = serialize_witness(result.deformed)
    if args.output:
        _write_json(args.output, doc)
    report = {
        "command": "deform",
        "epsilon": format_rational(epsilon),
        "residual": format_rational(result.residual),
        "residual_float": float(result.residual),
        "residual_bound": None if result.bound is None else format_rational(result.bound),
        "within_tolerance": within,
        "deformed": doc if not args.output else {"written_to": args.output},
    }
    return (EXIT_OK if within else EXIT_NEGATIVE), report


# -- the one JSON writer, for reports on stdout and documents written by --output
#
# Its text is json.dumps(x, indent=2, sort_keys=True) byte for byte.  CPython's
# C encoder does not indent, so json would take its pure-Python path for every
# report; this writer lays the structure out in one pass into one list of
# parts and quotes every string with json's C encode_basestring_ascii, which
# also takes the mode objects (str subclasses).  Containers are plain dicts
# and lists, and keys are strings; anything else is a TypeError.

_quote = json.encoder.encode_basestring_ascii
_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _to_json(x) -> str:
    parts = []
    _put_json(x, parts.append, "\n")
    return "".join(parts)


def _put_json(x, put, newline: str) -> None:
    """Put the parts of x, whose nested lines begin with `newline`."""
    kind = type(x)
    if kind is str:
        put(_quote(x))
    elif kind is dict:
        if not x:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(x):
            put(sep + _quote(key) + ": ")
            _put_json(x[key], put, inner)
            sep = "," + inner
        put(newline + "}")
    elif kind is list:
        if not x:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in x:
            put(sep)
            _put_json(item, put, inner)
            sep = "," + inner
        put(newline + "]")
    else:
        put(_json_scalar(x))


def _json_scalar(x) -> str:
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        text = float.__repr__(x)
        return _NON_FINITE.get(text, text)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _write_json(path: str, doc) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_to_json(doc) + "\n")
    except OSError as exc:
        raise CliInputError(f"cannot write {path}: {exc}") from exc


# -- entry point ------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged and every call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="dsp",
        allow_abbrev=False,
        description="Exact decision and verification tools for matrix tuples "
        "with prescribed conjugacy classes (sum zero or product identity).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, relation_cap=False, exhaustive_ties=False):
        p.add_argument("problem", help="problem document (JSON)")
        if relation_cap:
            p.add_argument("--relation-cap", type=int, default=DEFAULT_RELATION_CAP,
                           help="bound on the genericity search size")
        if exhaustive_ties:
            p.add_argument("--exhaustive-ties", action="store_true",
                           help="explore every tie branch of the reduction chain")

    p = sub.add_parser("classify", allow_abbrev=False, help="full solvability verdict")
    add_common(p, relation_cap=True, exhaustive_ties=True)
    p.add_argument("--subordinate-witness", help="witness document for the subordinate-solution rule")
    p.add_argument("--subordinate-classes", help="problem document listing the witness classes")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("good", aliases=["psi-trace"], allow_abbrev=False,
                       help="goodness of the shape tuple and its reduction chain")
    add_common(p, exhaustive_ties=True)
    p.set_defaults(func=_cmd_good)

    p = sub.add_parser("generic", allow_abbrev=False, help="genericity of the eigenvalue data")
    add_common(p, relation_cap=True)
    p.add_argument("--generate", action="store_true",
                   help="generate an assignment for the problem's shapes that is "
                   "certified generic by construction (prime denominators above n^2)")
    p.add_argument("--seed", type=int, default=0, help="generation seed, a non-negative integer")
    p.add_argument("--output", help="write the generated problem document here")
    # None tells an explicit cap, which --generate refuses, from the default
    p.set_defaults(func=_cmd_generic, relation_cap=None)

    p = sub.add_parser("special", allow_abbrev=False, help="search for repeated-block certificates")
    add_common(p, relation_cap=True)
    p.set_defaults(func=_cmd_special)

    p = sub.add_parser("verify", allow_abbrev=False, help="all witness checks against a problem")
    add_common(p)
    p.add_argument("witness", help="witness document (JSON)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dim", allow_abbrev=False,
                       help="expected and (with a witness) local dimension")
    add_common(p)
    p.add_argument("--witness", help="witness document (JSON)")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("deform", allow_abbrev=False, help="first-order deformation step")
    p.add_argument("base", help="base witness document (JSON)")
    p.add_argument("directions", help="direction matrices (witness-format JSON)")
    p.add_argument("--epsilon", required=True, help="step size, e.g. 1/1024")
    p.add_argument("--tolerance", default="1e-9",
                   help="acceptable residual for exit status 0, an exact rational "
                   "such as 1e-3 or 1/1000")
    p.add_argument("--output", help="write the deformed witness here")
    p.set_defaults(func=_cmd_deform)

    # on the command and on each subcommand (an alias shares its command's
    # parser), so that it may come before or after the command name; `main`
    # reads it from argv, where either place counts
    for p in {parser, *sub.choices.values()}:
        p.add_argument("--human", action="store_true", help="prose report instead of JSON")
    return parser


def run_command(argv) -> tuple[int, dict]:
    """Parse argv and execute; returns (exit_code, report)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliInputError, WitnessMismatchError) as exc:
        return EXIT_INPUT, {"error": str(exc)}
    except (ProblemError, JnfError, WitnessError, SpecialSearchError, TieVerdictError,
            LinalgError) as exc:
        return EXIT_INPUT, {"error": f"{type(exc).__name__}: {exc}"}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    human = "--human" in argv
    code, report = run_command(argv)
    try:
        print(_render_human(report) if human else _to_json(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (dsp ... | head): send what is left, and
        # the flush at exit, to devnull instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
