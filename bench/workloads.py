"""Seeded request streams for the four workloads, each request with its oracle.

A workload is an endless sequence of rounds.  Round r is built from its own
RNG, seeded by (workload, seed, r), before any of it is timed, so the same
seed gives the same inputs and a run can stop after any whole round.  Every
round has the same shape -- the same request kinds at the same sizes, with
seeded contents -- so rounds cost about the same and the per-seed variation
of a run shrinks with its length.  Why each workload and size ladder was
chosen is in README.md.

A request is one call into the public API of ``antiring`` (or, for ``cli``,
one subprocess).  ``check`` gets ``(True, result)`` or ``(False, exception)``
and returns None when the answer is right, else a one-line reason.
"""

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass

import antiring as ar

import oracles as o

@dataclass
class Request:
    kind: str
    call: object
    check: object
    semirings: tuple = ()
    entire: bool = False
    dense: bool = False
    multi_atom: bool = False
    negative: bool = False
    count_n: int = 0  # n of a request that goes through A_n, else 0


# --- checks -------------------------------------------------------------------


def _value(fn):
    def check(ok, value):
        if not ok:
            return f"unexpected {type(value).__name__}: {value}"
        return fn(value)
    return check


def _equals(expected):
    return _value(lambda v: None if v == expected else f"got {v!r}, expected {expected!r}")


def _refusal(error_name):
    def check(ok, value):
        if ok:
            return f"expected {error_name}, got an answer"
        if not isinstance(value, getattr(ar, error_name)):
            return f"expected {error_name}, got {type(value).__name__}: {value}"
        return None
    return check


# --- carriers -------------------------------------------------------------------


def _nonzero_sampler(car):
    if car.kind == "powerset":
        subsets = [frozenset(x for x in range(1, car.m + 1) if mask >> (x - 1) & 1)
                   for mask in range(1, 1 << car.m)]
        return lambda rng: rng.choice(subsets)
    if car.kind == "tropical":
        return lambda rng: rng.randint(-9, 9)
    if car.kind == "naturals":
        return lambda rng: rng.randint(1, 9)
    return lambda rng: rng.randint(1, car.q - 1)


def _props(car, rows):
    n = len(rows)
    nnz = sum(1 for row in rows for v in row if v != car.zero)
    return {"entire": car.entire, "dense": nnz >= 0.1 * n * n, "multi_atom": car.m > 1}


# --- nilpotent ------------------------------------------------------------------

NIL_CARRIERS = ("chain:3", "boolean", "tropical", "powerset:2")
DENSE_N = (24, 40, 56, 64)  # dense-deep: density 0.3, matmul-bound power test and index loop
SPARSE_N = (64, 80, 96, 128)  # sparse-shallow: ~2 edges per row, coloring and restriction dominate
DENSE_P = 0.3


def planted_dag(rng, car, n, p):
    """Strictly upper triangular with edge probability p, relabeled by a random
    permutation; returns (rows, edges)."""
    order = list(range(n))
    rng.shuffle(order)
    draw = _nonzero_sampler(car)
    rows = [[car.zero] * n for _ in range(n)]
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                u, v = order[a], order[b]
                rows[u][v] = draw(rng)
                edges.append((u, v))
    return rows, edges


def _nilpotent_requests(car, sr, rows):
    """Requests on one matrix; the oracle reads its digraph structure."""
    n = len(rows)
    m = ar.Matrix(sr, rows)
    nilpotent, index = o.nilpotency_facts(rows, car)
    props = dict(_props(car, rows), semirings=(sr,))
    reqs = [Request("is_nilpotent", lambda: ar.is_nilpotent(m), _equals(nilpotent),
                    negative=not nilpotent, **props)]
    if nilpotent:
        reqs.append(Request("nilpotency_index", lambda: ar.nilpotency_index(m), _equals(index), **props))
    else:
        reqs.append(Request("nilpotency_index", lambda: ar.nilpotency_index(m),
                            _refusal("NotNilpotentError"), negative=True, **props))
    if not car.entire:
        reqs.append(Request("triangularize", lambda: ar.triangularize(m),
                            _refusal("PreconditionError"), negative=True, **props))
    elif nilpotent:
        reqs.append(Request(
            "triangularize", lambda: ar.triangularize(m),
            _value(lambda r: o.check_strictly_upper_conjugate(rows, o.rows_of(r[0]), r[1].images, car)),
            **props))
        reqs.append(Request(
            "decompose_nilpotent", lambda: ar.decompose_nilpotent(m),
            _value(lambda d: o.check_square_zero(
                rows, [o.rows_of(b) for b in d], car, o.log2_ceil(n))),
            **props))
    else:
        # looked up by name at call time, so a tracer installed later sees the call
        for kind in ("triangularize", "decompose_nilpotent"):
            reqs.append(Request(kind, lambda kind=kind: getattr(ar, kind)(m),
                                _refusal("NotNilpotentError"), negative=True, **props))
    if any(rows[i][i] != car.zero for i in range(n)):
        reqs.append(Request("decompose_trace_zero", lambda: ar.decompose_trace_zero(m),
                            _refusal("PreconditionError"), negative=True, **props))
    else:
        reqs.append(Request(
            "decompose_trace_zero", lambda: ar.decompose_trace_zero(m),
            _value(lambda d: o.check_square_zero(
                rows, [o.rows_of(b) for b in d], car, o.tracezero_capacity(n))),
            **props))
    return reqs


def nilpotent_round(rng, r):
    reqs = []
    # one ladder size per carrier, rotating with the round, so every round
    # holds each dense and each sparse size exactly once
    for ci, desc in enumerate(NIL_CARRIERS):
        car, sr = o.carrier(desc), ar.parse_semiring(desc)
        n = DENSE_N[(r + ci) % len(DENSE_N)]
        reqs += _nilpotent_requests(car, sr, planted_dag(rng, car, n, DENSE_P)[0])
        n = SPARSE_N[(r + ci) % len(SPARSE_N)]
        reqs += _nilpotent_requests(car, sr, planted_dag(rng, car, n, 4 / n)[0])
    # planted negatives: a 2-cycle on an entire carrier, a cycle in one atom's
    # projection over powerset:2, and a nonzero diagonal entry
    desc = NIL_CARRIERS[r % 3]
    car, sr = o.carrier(desc), ar.parse_semiring(desc)
    rows, edges = planted_dag(rng, car, 64, 4 / 64)
    u, v = rng.choice(edges)
    rows[v][u] = rows[u][v]
    reqs += _nilpotent_requests(car, sr, rows)
    car, sr = o.carrier("powerset:2"), ar.parse_semiring("powerset:2")
    rows, edges = planted_dag(rng, car, 32, DENSE_P)
    u, v = rng.choice(edges)
    rows[v][u] = rows[u][v]
    reqs += _nilpotent_requests(car, sr, rows)
    desc = NIL_CARRIERS[(r + 1) % 3]
    car, sr = o.carrier(desc), ar.parse_semiring(desc)
    rows, _ = planted_dag(rng, car, 48, 4 / 48)
    i = rng.randrange(48)
    rows[i][i] = car.one
    reqs += _nilpotent_requests(car, sr, rows)
    rng.shuffle(reqs)
    return reqs


# --- invertible -----------------------------------------------------------------

#: Multi-atom half: powerset:m with m random permutations.  The perfect-matching
#: enumeration in the factorization is exponential, so each ladder stops where
#: one factorization still takes about 0.1 s on a 2-core VM.
MULTI_ATOM = (("powerset:2", (16, 24, 32)), ("powerset:3", (12, 15, 18)), ("powerset:4", (8, 10, 12)))
#: Single-atom monomial half: one nonzero per row; the matmul checks dominate.
MONOMIAL = (("tropical", (32, 64, 128)), ("chain:3", (32, 64, 128)), ("naturals", (32, 64, 128)))
FINITE = ("chain", "powerset")  # carrier kinds with GL coordinates


def invertible_data(rng, car, n):
    """(rows, units, atoms, perms) of D * sum_t e_t P_{sigma_t}; perms 1-based."""
    atoms = [frozenset((t,)) for t in range(1, car.m + 1)] if car.kind == "powerset" else [car.one]
    perms = []
    for _ in atoms:
        p = list(range(1, n + 1))
        rng.shuffle(p)
        perms.append(tuple(p))
    units = [rng.randint(-9, 9) if car.kind == "tropical" else car.one for _ in range(n)]
    rows = [[car.zero] * n for _ in range(n)]
    for e, p in zip(atoms, perms):
        for i in range(n):
            j = p[i] - 1
            cur = rows[i][j]
            rows[i][j] = e if cur == car.zero else car.add(cur, e)
    rows = [[car.mul(units[i], v) if v != car.zero else car.zero for v in row]
            for i, row in enumerate(rows)]
    return rows, units, atoms, perms


def _invertible_requests(car, sr, data):
    rows, units, atoms, perms = data
    n = len(rows)
    m = ar.Matrix(sr, rows)
    props = dict(_props(car, rows), semirings=(sr,))
    terms = o.expected_terms(car, atoms, perms)
    inverse = o.inverse_rows(n, car, units, atoms, perms)

    def check_factorization(f):
        got = [(a, p.images) for a, p in f.terms]
        if tuple(f.diag) != tuple(units):
            return "factorization diagonal differs from the planted units"
        if got != terms:
            return f"factorization terms {got} differ from the planted {terms}"
        return None

    reqs = [
        Request("is_invertible", lambda: ar.is_invertible(m), _equals(True), **props),
        Request("factorize_invertible", lambda: ar.factorize_invertible(m),
                _value(check_factorization), **props),
        Request("invert", lambda: ar.invert(m),
                _value(lambda b: None if o.rows_of(b) == inverse else "inverse differs"), **props),
    ]
    if car.kind in FINITE:
        def roundtrip():
            coords = ar.gl_encode(m)
            return coords, ar.gl_decode(coords)

        def check_roundtrip(result):
            coords, back = result
            if tuple(coords.units) != tuple(units):
                return "gl units differ from the planted units"
            if [p.images for p in coords.perms] != perms:  # atoms are generated in canonical order
                return "gl permutations differ from the planted ones"
            if o.rows_of(back) != rows:
                return "gl_decode does not rebuild the matrix"
            return None

        reqs.append(Request("gl_roundtrip", roundtrip, _value(check_roundtrip), **props))
    return reqs


def _near_miss_requests(rng, car, sr, n):
    """One extra nonzero at a zero position: never invertible (see README)."""
    rows = invertible_data(rng, car, n)[0]
    zeros = [(i, j) for i in range(n) for j in range(n) if rows[i][j] == car.zero]
    i, j = rng.choice(zeros)
    rows[i][j] = _nonzero_sampler(car)(rng)
    m = ar.Matrix(sr, rows)
    props = dict(_props(car, rows), semirings=(sr,), negative=True)
    reqs = [Request("is_invertible", lambda: ar.is_invertible(m), _equals(False), **props)]
    calls = [("factorize_invertible", "factorize_invertible"), ("invert", "invert")]
    if car.kind in FINITE:
        calls.append(("gl_roundtrip", "gl_encode"))
    # looked up by name at call time, so a tracer installed later sees the call
    for kind, name in calls:
        reqs.append(Request(kind, lambda name=name: getattr(ar, name)(m),
                            _refusal("NotInvertibleError"), **props))
    return reqs


def invertible_round(rng, r):
    reqs = []
    for desc, ladder in MULTI_ATOM + MONOMIAL:
        car, sr = o.carrier(desc), ar.parse_semiring(desc)
        for n in ladder:
            reqs += _invertible_requests(car, sr, invertible_data(rng, car, n))
    desc = MULTI_ATOM[r % 3][0]
    reqs += _near_miss_requests(rng, o.carrier(desc), ar.parse_semiring(desc), 16)
    desc = MONOMIAL[r % 3][0]
    reqs += _near_miss_requests(rng, o.carrier(desc), ar.parse_semiring(desc), 64)
    rng.shuffle(reqs)
    return reqs


# --- counting -------------------------------------------------------------------

COUNT_N_MAX = 32
COUNT_Q = (2, 3, 5, 7)
POLY_N = (12, 16, 20, 22)
PARTITION_N = (10, 14, 16, 18)
BRUTE_FORCE = (("boolean", 3), ("chain:3", 2), ("chain:5", 2), ("powerset:2", 2), ("powerset:3", 2))
GL = (("boolean", 3), ("chain:3", 2), ("chain:4", 2), ("powerset:2", 2))
VALIDATE_M = (3, 4, 5)
ORTH_M = (3, 4)


def relabeled_powerset(rng, m):
    """Tables of powerset:m under a random relabeling; (tables, labels)."""
    labels = list(range(1 << m))
    rng.shuffle(labels)
    add, mul, zero, one = o.powerset_tables(m, labels)
    tables = ar.FiniteTables(
        size=1 << m, add_table=tuple(map(tuple, add)), mul_table=tuple(map(tuple, mul)),
        zero_index=zero, one_index=one)
    return tables, labels


def _brute_force_count(car, n):
    if car.kind == "powerset":
        return o.nilpotent_count(n, 2) ** car.m  # powerset:m is the m-fold Boolean product
    return o.nilpotent_count(n, car.q)


def _check_flags(expected):
    def check(report):
        got = {flag: getattr(report, flag) for flag in expected}
        return None if got == expected else f"flags {got}, expected {expected}"
    return _value(check)


def _orth_decompositions(m, labels):
    """Every orthogonal decomposition of 1 in relabeled powerset:m."""
    mask = {labels[s]: s for s in range(1 << m)}
    expected = {
        frozenset(sum(1 << (x - 1) for x in block) for block in part)
        for part in o.set_partitions(list(range(1, m + 1)))
    }

    def check(found):
        got = [frozenset(mask[p] for p in d.parts) for d in found]
        if len(got) != len(set(got)) or set(got) != expected:
            return f"{len(got)} decompositions, expected the {o.bell(m)} set partitions"
        return None
    return _value(check)


def counting_round(rng, r):
    reqs = []
    for _ in range(4):
        n, q = rng.randint(1, COUNT_N_MAX), rng.choice(COUNT_Q)
        reqs.append(Request("count_nilpotent", lambda n=n, q=q: ar.count_nilpotent(n, q),
                            _equals(o.nilpotent_count(n, q)), count_n=n))
    for n in POLY_N:
        reqs.append(Request(
            "nilpotent_count_polynomial", lambda n=n: ar.nilpotent_count_polynomial(n),
            _value(lambda p, n=n: None if tuple(p.coeffs) == o.count_poly_q(n) else "coefficients differ"),
            count_n=n))
    for n in PARTITION_N:
        reqs.append(Request(
            "partition_form", lambda n=n: ar.acyclic_polynomial_partition_form(n),
            _value(lambda p, n=n: None if tuple(p.coeffs) == o.acyclic_poly_x(n) else "coefficients differ")))
    for desc, n in BRUTE_FORCE:
        car, sr = o.carrier(desc), ar.parse_semiring(desc)
        reqs.append(Request(
            "count_nilpotent_bruteforce", lambda sr=sr, n=n: ar.count_nilpotent_bruteforce(sr, n),
            _equals(_brute_force_count(car, n)), semirings=(sr,), entire=car.entire,
            multi_atom=car.m > 1))
    for desc, n in GL:
        car, sr = o.carrier(desc), ar.parse_semiring(desc)
        members = o.gl_members(car, n)
        reqs.append(Request(
            "enumerate_gl", lambda sr=sr, n=n: ar.enumerate_gl(sr, n),
            _value(lambda found, members=members: None if (
                len(found) == len(members) and {tuple(map(tuple, g.rows)) for g in found} == members
            ) else f"{len(found)} matrices, expected {len(members)}"),
            semirings=(sr,), entire=car.entire, multi_atom=car.m > 1))
    for m in VALIDATE_M:
        tables, _ = relabeled_powerset(rng, m)
        flags = o.axiom_flags(tables.size, tables.add_table, tables.mul_table,
                              tables.zero_index, tables.one_index)
        reqs.append(Request("validate_axioms", lambda t=tables: ar.validate_axioms(t),
                            _check_flags(flags), multi_atom=True))
    # planted negative: one cell of the addition table overwritten
    tables, _ = relabeled_powerset(rng, 3)
    add = [list(row) for row in tables.add_table]
    a, b = rng.sample([x for x in range(8) if x != tables.zero_index], 2)
    add[a][b] = rng.choice([x for x in range(8) if x != add[a][b]])
    bad = ar.FiniteTables(size=8, add_table=tuple(map(tuple, add)), mul_table=tables.mul_table,
                          zero_index=tables.zero_index, one_index=tables.one_index)
    flags = o.axiom_flags(8, bad.add_table, bad.mul_table, bad.zero_index, bad.one_index)
    reqs.append(Request("validate_axioms", lambda: ar.validate_axioms(bad), _check_flags(flags),
                        multi_atom=True, negative=True))
    for m in ORTH_M:
        tables, labels = relabeled_powerset(rng, m)
        sr = ar.table_semiring(tables)
        singletons = tuple(sorted(labels[1 << t] for t in range(m)))
        reqs.append(Request(
            "max_orthogonal_decomposition", lambda sr=sr: ar.max_orthogonal_decomposition(sr),
            _value(lambda d, s=singletons: None if tuple(d.parts) == s else f"parts {d.parts}, expected {s}"),
            semirings=(sr,), multi_atom=True))
        sr = ar.table_semiring(tables)
        reqs.append(Request("orth_decomp_search", lambda sr=sr: ar.orth_decomp_search(sr),
                            _orth_decompositions(m, labels), semirings=(sr,), multi_atom=True))
    # planted refusals: a carrier over the subset-search cap, a budget too small
    sr = ar.table_semiring(relabeled_powerset(rng, 5)[0])
    reqs.append(Request("orth_decomp_search", lambda sr=sr: ar.orth_decomp_search(sr),
                        _refusal("BudgetExceededError"), semirings=(sr,), multi_atom=True, negative=True))
    sr = ar.parse_semiring("chain:3")
    reqs.append(Request(
        "count_nilpotent_bruteforce",
        lambda sr=sr: ar.count_nilpotent_bruteforce(sr, 3, budget=ar.EnumerationBudget(max_states=1000)),
        _refusal("BudgetExceededError"), semirings=(sr,), entire=True, negative=True))
    rng.shuffle(reqs)
    return reqs


# --- cli ------------------------------------------------------------------------


def matrix_text(car, rows):
    return "\n".join(
        [f"semiring {car.descriptor}", f"n {len(rows)}"]
        + [" ".join(car.token(v) for v in row) for row in rows]) + "\n"


def tables_text(size, add, mul, zero, one):
    return "\n".join(
        [f"size {size}", f"zero {zero}", f"one {one}", "add"]
        + [" ".join(map(str, row)) for row in add] + ["mul"]
        + [" ".join(map(str, row)) for row in mul]) + "\n"


def parse_matrices(lines, car):
    """Matrices in the text format, one after another; returns a list of rows."""
    out = []
    k = 0
    while k < len(lines):
        if not lines[k].startswith("semiring "):
            raise ValueError(f"expected a matrix header, got {lines[k]!r}")
        n = int(lines[k + 1].split()[1])
        out.append([[car.parse_token(t) for t in line.split()] for line in lines[k + 2:k + 2 + n]])
        k += 2 + n
    return out


def _payload_rows(payload, car):
    return [[car.parse_token(t) for t in row] for row in payload["rows"]]


def child_env(src, extra=None):
    """Environment of a child interpreter: the library from ``src``, no budget override."""
    env = {k: v for k, v in os.environ.items() if k != "ANTIRING_MAX_STATES"}
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


@dataclass
class CliCall:
    """One ``python -m antiring.cli`` invocation."""

    argv: list
    cwd: str
    env_extra: dict

    def env(self, src):
        return child_env(src, self.env_extra)


def _cli_check(code, parse):
    """Check exit code, absence of tracebacks, then the parsed stdout."""
    def check(ok, proc):
        if not ok:
            return f"subprocess failed: {proc}"
        if "Traceback" in proc.stderr:
            return "traceback on stderr"
        if proc.returncode != code:
            return f"exit {proc.returncode}, expected {code}: {proc.stderr.strip()[:200]}"
        if code != 0:
            return None if proc.stdout == "" and proc.stderr else "refusal without a message"
        return parse(proc.stdout)
    return check


def _json(fn):
    def parse(out):
        return fn(json.loads(out))
    return parse


def _text(fn):
    return lambda out: fn(out.splitlines())


def _same(got, expected, what):
    return None if got == expected else f"{what}: got {got!r}, expected {expected!r}"


CLI_NIL = ("chain:3", "tropical", "boolean")
CLI_INV = ("powerset:2", "tropical", "chain:3")


def cli_round(rng, r, workdir, src, timeout):
    """Write this round's files, then return its subprocess requests."""
    d = os.path.join(workdir, f"r{r}")
    os.makedirs(d, exist_ok=True)

    def write(name, text):
        with open(os.path.join(d, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return name

    def req(kind, argv, check, env_extra=None, negative=False, car=None, rows=None):
        call = CliCall(list(argv), d, dict(env_extra or {}))
        props = _props(car, rows) if car is not None else {}
        return Request(kind, lambda: subprocess.run(
            [sys.executable, "-m", "antiring.cli", *call.argv], cwd=call.cwd, env=call.env(src),
            capture_output=True, text=True, timeout=timeout()), check, negative=negative,
            **props), call

    out = []
    j = ["--format", "json"]

    n, q = rng.randint(8, 20), rng.choice(COUNT_Q)
    out.append(req("count", ["count", "nilpotent", "-n", str(n), "-q", str(q)],
                   _cli_check(0, _text(lambda ls, v=o.nilpotent_count(n, q): _same(ls, [str(v)], "count")))))
    n, q = rng.randint(8, 20), rng.choice(COUNT_Q)
    out.append(req("count_json", j + ["count", "nilpotent", "-n", str(n), "-q", str(q)],
                   _cli_check(0, _json(lambda p, v=o.nilpotent_count(n, q): _same(p["count"], v, "count")))))
    n, q = rng.randint(6, 12), rng.choice(COUNT_Q)

    def poly_check(p, n=n, q=q):
        coeffs = o.count_poly_q(n)
        want = {f"q^{d}": c for d, c in enumerate(coeffs)}
        return _same(p["coefficients"], want, "coefficients") or _same(
            p["value"], o.nilpotent_count(n, q), "value")
    out.append(req("poly", j + ["poly", "-n", str(n), "--at", str(q)], _cli_check(0, _json(poly_check))))
    desc, n = (("powerset:2", 2), ("chain:3", 2), ("boolean", 3))[r % 3]
    out.append(req("count_bruteforce",
                   j + ["count", "nilpotent", "-n", str(n), "--brute-force", "--semiring", desc],
                   _cli_check(0, _json(lambda p, v=_brute_force_count(o.carrier(desc), n): _same(
                       p["count"], v, "count")))))

    car = o.carrier(CLI_NIL[r % 3])
    n = rng.randint(8, 14)
    rows = planted_dag(rng, car, n, DENSE_P)[0]
    nil = write("nil.txt", matrix_text(car, rows))
    _, index = o.nilpotency_facts(rows, car)
    out.append(req("check_nilpotent", ["check", "nilpotent", nil],
                   _cli_check(0, _text(lambda ls: _same(ls, ["yes"], "answer"))), car=car, rows=rows))
    out.append(req("index", j + ["index", nil],
                   _cli_check(0, _json(lambda p, h=index: _same(p["index"], h, "index"))), car=car, rows=rows))
    out.append(req("decompose_squarezero", j + ["decompose", "squarezero", nil], _cli_check(0, _json(
        lambda p, car=car, rows=rows: o.check_square_zero(
            rows, [_payload_rows(b, car) for b in p["summands"]], car, o.log2_ceil(len(rows))))),
        car=car, rows=rows))

    tz_car = o.carrier("powerset:2")
    tz_rows, edges = planted_dag(rng, tz_car, rng.randint(8, 14), DENSE_P)
    u, v = rng.choice(edges)
    tz_rows[v][u] = tz_rows[u][v]
    tz = write("tz.txt", matrix_text(tz_car, tz_rows))

    def tz_check(lines, rows=tz_rows):
        count = int(lines[0].split()[1])
        if lines[-1] != "check sum=ok squares=ok":
            return "missing check line"
        summands = parse_matrices(lines[1:-1], tz_car)
        return _same(len(summands), count, "summand count") or o.check_square_zero(
            rows, summands, tz_car, o.tracezero_capacity(len(rows)))
    out.append(req("decompose_tracezero", ["decompose", "tracezero", tz], _cli_check(0, _text(tz_check)),
                   car=tz_car, rows=tz_rows))

    car = o.carrier(CLI_INV[r % 3])
    n = rng.randint(6, 12)
    rows, units, atoms, perms = invertible_data(rng, car, n)
    inv = write("inv.txt", matrix_text(car, rows))
    inverse = o.inverse_rows(n, car, units, atoms, perms)
    terms = o.expected_terms(car, atoms, perms)
    out.append(req("check_invertible", j + ["check", "invertible", inv],
                   _cli_check(0, _json(lambda p: _same(p["result"], True, "answer"))), car=car, rows=rows))
    out.append(req("invert", ["invert", inv], _cli_check(0, _text(
        lambda ls, car=car, inverse=inverse: _same(parse_matrices(ls, car), [inverse], "inverse"))),
        car=car, rows=rows))

    def fact_check(p, car=car, units=units, terms=terms):
        got = [(car.parse_token(t["coeff"]), tuple(t["perm"])) for t in p["terms"]]
        return _same([car.parse_token(t) for t in p["diag"]], list(units), "diag") or _same(
            got, terms, "terms")
    out.append(req("factorize", j + ["factorize", inv], _cli_check(0, _json(fact_check)),
                   car=car, rows=rows))

    desc, n = (("chain:3", 2), ("boolean", 3), ("powerset:2", 2))[r % 3]
    members = o.gl_members(o.carrier(desc), n)

    def gl_check(lines, car=o.carrier(desc), members=members):
        found = {tuple(map(tuple, m)) for m in parse_matrices(lines[1:], car)}
        return _same(lines[0], f"count {len(members)}", "count") or _same(found, members, "members")
    out.append(req("gl_enumerate", ["gl", "enumerate", "--semiring", desc, "-n", str(n)],
                   _cli_check(0, _text(gl_check))))

    kind = r % 3
    if kind == 0:
        m = rng.randint(2, 4)
        parts = ["{" + str(t) + "}" for t in range(1, m + 1)]
        out.append(req("orthdecomp", ["orthdecomp", "--semiring", f"powerset:{m}"], _cli_check(0, _text(
            lambda ls, m=m, parts=parts: _same(ls, [f"length {m}", "parts " + " ".join(parts)], "output")))))
    elif kind == 1:
        n = rng.randint(2, 200)
        out.append(req("capacity", ["capacity", "-n", str(n)], _cli_check(0, _text(
            lambda ls, v=o.tracezero_capacity(n): _same(ls, [str(v)], "capacity")))))
    else:
        k = rng.randint(1, 30)
        out.append(req("nmax", j + ["nmax", "-k", str(k)], _cli_check(0, _json(
            lambda p, v=math.comb(k, (k + 1) // 2): _same(p["max_dimension"], v, "nmax")))))

    m = 3
    labels = list(range(1 << m))
    rng.shuffle(labels)
    add, mul, zero, one = o.powerset_tables(m, labels)
    tbl = write("t.tbl", tables_text(1 << m, add, mul, zero, one))
    flags = o.axiom_flags(1 << m, add, mul, zero, one)
    out.append(req("semiring_validate", j + ["semiring", "validate", tbl],
                   _cli_check(0, _json(lambda p, f=flags: _same(p["flags"], f, "flags")))))

    # planted negatives: exit 1 (domain error), 2 (usage error), 3 (budget refusal)
    if r % 2 == 0:
        car = o.carrier(CLI_INV[(r // 2) % 3])
        rows = invertible_data(rng, car, 8)[0]
        zeros = [(a, b) for a in range(8) for b in range(8) if rows[a][b] == car.zero]
        a, b = rng.choice(zeros)
        rows[a][b] = _nonzero_sampler(car)(rng)
        out.append(req("invert_refused", ["invert", write("bad_inv.txt", matrix_text(car, rows))],
                       _cli_check(1, None), negative=True, car=car, rows=rows))
        out.append(req("usage_error", ["count", "nilpotent", "-q", "3"], _cli_check(2, None), negative=True))
    else:
        car = o.carrier(CLI_NIL[(r // 2) % 3])
        rows, edges = planted_dag(rng, car, 10, DENSE_P)
        a, b = rng.choice(edges)
        rows[b][a] = rows[a][b]
        out.append(req("index_refused", ["index", write("bad_nil.txt", matrix_text(car, rows))],
                       _cli_check(1, None), negative=True, car=car, rows=rows))
        out.append(req("budget_refused",
                       ["count", "nilpotent", "-n", "3", "--brute-force", "--semiring", "chain:3"],
                       _cli_check(3, None), env_extra={"ANTIRING_MAX_STATES": "100"}, negative=True))
    rng.shuffle(out)
    return out


def make_round(workload, seed, r, workdir=None, src=None, timeout=None):
    """Round r of a workload.  For ``cli`` the result pairs each Request with
    its CliCall; the others return plain Requests."""
    rng = random.Random(f"{workload}:{seed}:{r}")
    if workload == "nilpotent":
        return nilpotent_round(rng, r)
    if workload == "invertible":
        return invertible_round(rng, r)
    if workload == "counting":
        return counting_round(rng, r)
    if workload == "cli":
        return cli_round(rng, r, workdir, src, timeout)
    raise ValueError(f"unknown workload {workload!r}")
