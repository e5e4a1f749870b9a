"""Command-line interface.

Exit codes: 0 success, 1 domain error (e.g. a non-invertible input to
``invert``, or an input that exhausts the recursion limit or memory), 2 usage
error, 3 budget refusal.  Results go to stdout, diagnostics to stderr, and
output is deterministic.  ``--format json`` emits the same data as a single
JSON object.

Start-up is most of a short command's time, so each command imports only its
own layer, inside its handler: ``count nilpotent -n 5 -q 3`` loads
``dag_counting`` and nothing of matrices or semirings, ``json`` loads only under
``--format json``, and a usage error loads no layer at all.
"""

import argparse
import contextlib
import io
import os
import sys
from collections import namedtuple

from .errors import AntiringError, BudgetExceededError

BUDGET_ENV = "ANTIRING_MAX_STATES"

CommandOutcome = namedtuple("CommandOutcome", "exit_code stdout stderr")


def _budget():
    from .enumeration import DEFAULT_BUDGET, EnumerationBudget

    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        max_states = int(raw)
        return EnumerationBudget(max_states=max_states)
    except ValueError:
        raise UsageError(f"{BUDGET_ENV} must be a positive integer, got {raw!r}") from None


class UsageError(Exception):
    pass


def _matrix_payload(matrix):
    sr = matrix.semiring
    return {
        "semiring": sr.descriptor(),
        "n": matrix.n,
        "rows": [[sr.format_element(v) for v in row] for row in matrix.rows],
    }


def _matrix_lines(matrix):
    from .matrices import format_matrix

    return format_matrix(matrix).splitlines()


# each handler returns (text_lines, json_payload)


def _cmd_semiring_validate(args):
    from .semirings import AxiomReport, parse_tables_file, validate_axioms

    tables = parse_tables_file(args.tables_file)
    report = validate_axioms(tables)
    lines = []
    flags = {}
    for flag in AxiomReport.FLAGS:
        value = getattr(report, flag)
        flags[flag] = value
        lines.append(f"{flag} {'true' if value else 'false'}")
    for law in sorted(report.witnesses):
        for witness in report.witnesses[law]:
            lines.append(f"witness {law} " + " ".join(str(i) for i in witness))
    payload = {
        "flags": flags,
        "witnesses": {law: [list(w) for w in ws] for law, ws in sorted(report.witnesses.items())},
    }
    return lines, payload


def _cmd_invert(args):
    from .invertibility import invert
    from .matrices import parse_matrix_file

    matrix = parse_matrix_file(args.matrix_file)
    inverse = invert(matrix)
    return _matrix_lines(inverse), {"matrix": _matrix_payload(inverse)}


def _cmd_factorize(args):
    from .invertibility import factorize_invertible
    from .matrices import parse_matrix_file

    matrix = parse_matrix_file(args.matrix_file)
    fact = factorize_invertible(matrix)
    sr = matrix.semiring
    lines = ["diag " + " ".join(sr.format_element(v) for v in fact.diag)]
    terms = []
    for coeff, perm in fact.terms:
        lines.append(f"term {sr.format_element(coeff)} perm {perm.one_line()}")
        terms.append({"coeff": sr.format_element(coeff), "perm": list(perm.images)})
    payload = {
        "semiring": sr.descriptor(),
        "diag": [sr.format_element(v) for v in fact.diag],
        "terms": terms,
    }
    return lines, payload


def _cmd_check(args):
    from .matrices import parse_matrix_file

    if args.what == "nilpotent":
        from .nilpotency import is_nilpotent as check
    else:
        from .invertibility import is_invertible as check
    result = check(parse_matrix_file(args.matrix_file))
    return ["yes" if result else "no"], {"check": args.what, "result": result}


def _cmd_index(args):
    from .matrices import parse_matrix_file
    from .nilpotency import nilpotency_index

    matrix = parse_matrix_file(args.matrix_file)
    h = nilpotency_index(matrix)
    return [str(h)], {"index": h}


def _cmd_decompose(args):
    from .matrices import parse_matrix_file
    from .squarezero import decompose_nilpotent, decompose_trace_zero

    matrix = parse_matrix_file(args.matrix_file)
    if args.what == "squarezero":
        dec = decompose_nilpotent(matrix)
    else:
        dec = decompose_trace_zero(matrix)
    lines = [f"summands {len(dec)}"]
    for b in dec:
        lines.extend(_matrix_lines(b))
    # the constructor verified both invariants; say so in the output
    lines.append("check sum=ok squares=ok")
    payload = {
        "summands": [_matrix_payload(b) for b in dec],
        "sum_ok": True,
        "squares_ok": True,
    }
    return lines, payload


def _cmd_count(args):
    if args.brute_force:
        if args.semiring:
            desc = args.semiring
        elif args.q is not None:
            desc = f"chain:{args.q}"
        else:
            raise UsageError("count nilpotent --brute-force needs --semiring or -q")
        from .enumeration import count_nilpotent_bruteforce
        from .semirings import parse_semiring

        semiring = parse_semiring(desc)
        value = count_nilpotent_bruteforce(semiring, args.n, budget=_budget())
    else:
        if args.semiring:
            raise UsageError("--semiring only applies with --brute-force")
        if args.q is None:
            raise UsageError("count nilpotent needs -q (or --brute-force with --semiring)")
        from .dag_counting import count_nilpotent

        value = count_nilpotent(args.n, args.q)
    return [str(value)], {"count": value}


def _cmd_poly(args):
    from .dag_counting import nilpotent_count_polynomial

    poly = nilpotent_count_polynomial(args.n)
    degree = max(poly.degree, 0)
    lines = [f"q^{d} {poly.coefficient(d)}" for d in range(degree, -1, -1)]
    payload = {
        "n": args.n,
        "coefficients": {f"q^{d}": poly.coefficient(d) for d in range(degree + 1)},
    }
    if args.at is not None:
        value = poly.evaluate(args.at)
        lines.append(f"value at q={args.at}: {value}")
        payload["at"] = args.at
        payload["value"] = value
    return lines, payload


def _cmd_gl(args):
    from .enumeration import enumerate_gl
    from .semirings import parse_semiring

    semiring = parse_semiring(args.semiring)
    matrices = enumerate_gl(semiring, args.n, budget=_budget())
    lines = [f"count {len(matrices)}"]
    for m in matrices:
        lines.extend(_matrix_lines(m))
    return lines, {"count": len(matrices), "matrices": [_matrix_payload(m) for m in matrices]}


def _cmd_capacity(args):
    from .dag_counting import tracezero_capacity

    value = tracezero_capacity(args.n)
    return [str(value)], {"capacity": value}


def _cmd_nmax(args):
    from .dag_counting import tracezero_max_dimension

    value = tracezero_max_dimension(args.k)
    return [str(value)], {"max_dimension": value}


def _cmd_orthdecomp(args):
    from .invertibility import max_orthogonal_decomposition
    from .semirings import parse_semiring

    semiring = parse_semiring(args.semiring)
    dec = max_orthogonal_decomposition(semiring)
    parts = [semiring.format_element(p) for p in dec.parts]
    lines = [f"length {dec.length}", "parts " + " ".join(parts)]
    return lines, {"length": dec.length, "parts": parts}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="antiring",
        description="Exact matrix computations over commutative antirings.",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("semiring", help="operations on semiring table files")
    semi_sub = p.add_subparsers(dest="action", required=True)
    v = semi_sub.add_parser("validate", help="check the semiring axioms of a tables file")
    v.add_argument("tables_file")
    v.set_defaults(handler=_cmd_semiring_validate)

    p = sub.add_parser("invert", help="invert a matrix")
    p.add_argument("matrix_file")
    p.set_defaults(handler=_cmd_invert)

    p = sub.add_parser("factorize", help="diagonal-times-permutations factorization")
    p.add_argument("matrix_file")
    p.set_defaults(handler=_cmd_factorize)

    p = sub.add_parser("check", help="test a matrix property")
    p.add_argument("what", choices=("nilpotent", "invertible"))
    p.add_argument("matrix_file")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("index", help="nilpotency index of a nilpotent matrix")
    p.add_argument("matrix_file")
    p.set_defaults(handler=_cmd_index)

    p = sub.add_parser("decompose", help="square-zero decompositions")
    p.add_argument("what", choices=("squarezero", "tracezero"))
    p.add_argument("matrix_file")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("count", help="count nilpotent matrices")
    p.add_argument("what", choices=("nilpotent",))
    p.add_argument("-n", type=int, required=True, help="matrix dimension")
    p.add_argument("-q", type=int, help="carrier size (entire antiring)")
    p.add_argument("--brute-force", action="store_true", help="scan the matrix space")
    p.add_argument("--semiring", help="semiring descriptor for --brute-force")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("poly", help="nilpotent-count polynomial in q")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--at", type=int, help="also evaluate at this q")
    p.set_defaults(handler=_cmd_poly)

    p = sub.add_parser("gl", help="invertible-matrix enumeration")
    gl_sub = p.add_subparsers(dest="action", required=True)
    e = gl_sub.add_parser("enumerate", help="list all invertible matrices")
    e.add_argument("--semiring", required=True)
    e.add_argument("-n", type=int, required=True)
    e.set_defaults(handler=_cmd_gl)

    p = sub.add_parser("capacity", help="square-zero summands needed at dimension n")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(handler=_cmd_capacity)

    p = sub.add_parser("nmax", help="largest dimension covered by k summands")
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(handler=_cmd_nmax)

    p = sub.add_parser("orthdecomp", help="maximal orthogonal decomposition of 1")
    p.add_argument("--semiring", required=True)
    p.set_defaults(handler=_cmd_orthdecomp)

    return parser


def run(argv):
    """Execute one invocation and capture its outcome without exiting."""
    out = io.StringIO()
    err = io.StringIO()
    parser = build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return CommandOutcome(code, out.getvalue(), err.getvalue())

    try:
        lines, payload = args.handler(args)
    except UsageError as exc:
        return CommandOutcome(2, out.getvalue(), err.getvalue() + f"error: {exc}\n")
    except BudgetExceededError as exc:
        return CommandOutcome(3, out.getvalue(), err.getvalue() + f"error: {exc}\n")
    except (AntiringError, OSError, ValueError) as exc:
        return CommandOutcome(1, out.getvalue(), err.getvalue() + f"error: {exc}\n")
    except RecursionError:
        return CommandOutcome(
            1, out.getvalue(), err.getvalue() + "error: recursion too deep for this input\n"
        )
    except MemoryError:
        return CommandOutcome(1, out.getvalue(), err.getvalue() + "error: out of memory\n")

    if args.format == "json":
        import json

        text = json.dumps(payload, sort_keys=True) + "\n"
    else:
        text = "\n".join(lines) + "\n" if lines else ""
    return CommandOutcome(0, out.getvalue() + text, err.getvalue())


def main(argv=None):
    outcome = run(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(outcome.stdout)
    sys.stderr.write(outcome.stderr)
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
