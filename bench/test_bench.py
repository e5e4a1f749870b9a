"""Tests of the benchmark itself: oracles, corrupted answers, tracer.

    python3 -m pytest bench/test_bench.py -q
"""

import random
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import antiring as ar  # noqa: E402

import oracles as o  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def one_pass(workload, workdir=None):
    """Round 0 of seed 3."""
    tally = run.Tally()
    for item in wl.make_round(workload, 3, 0, workdir=workdir, src=str(run.SRC),
                              timeout=lambda: 60):
        tally.execute(item[0] if workload == "cli" else item)
    return tally


def test_reference_count_matches_a003024_and_known_polynomial():
    assert [o.nilpotent_count(n, 2) for n in range(len(o.A003024))] == list(o.A003024)
    assert o.count_poly_q(4) == (-1, 0, 0, 8, 6, -36, 24)  # 24q^6 - 36q^5 + 6q^4 + 8q^3 - 1
    assert o.nilpotent_count(3, 3) == 109
    assert o.acyclic_poly_x(2) == (1, 2)  # A_2(x) = 1 + 2x
    assert [o.bell(m) for m in range(6)] == [1, 1, 2, 5, 15, 52]


@pytest.mark.parametrize("workload", ["nilpotent", "invertible", "counting"])
def test_seed_code_passes_every_oracle(workload):
    tally = one_pass(workload)
    assert tally.reasons == []
    assert tally.attempted > 20


def test_cli_round_passes_every_oracle():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="files-", dir=str(run.OUT)) as d:
        tally = one_pass("cli", workdir=d)
    assert tally.reasons == []


@pytest.mark.parametrize("workload,name,corrupt", [
    ("counting", "count_nilpotent", lambda f: lambda n, q: f(n, q) + 1),
    ("nilpotent", "nilpotency_index", lambda f: lambda m: f(m) + 1),
    ("invertible", "invert", lambda f: lambda m: m),
    ("nilpotent", "decompose_trace_zero", lambda f: lambda m: list(f(m))[:-1]),
])
def test_corrupted_answer_makes_failed_share_positive(monkeypatch, workload, name, corrupt):
    monkeypatch.setattr(ar, name, corrupt(getattr(ar, name)))
    tally = one_pass(workload)
    assert 0 < len(tally.reasons) / tally.attempted < 1


def test_square_zero_check_sees_a_path_of_length_two():
    car = o.carrier("boolean")
    source = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    assert o.check_square_zero(source, [[[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                                        [[0, 0, 0], [0, 0, 1], [0, 0, 0]]], car, 2) is None
    assert "in-edge and an out-edge" in o.check_square_zero(source, [source], car, 2)
    assert "sum" in o.check_square_zero(source, [[[0, 1, 0], [0, 0, 0], [0, 0, 0]]], car, 2)


def test_nilpotency_facts_use_atom_projections():
    car = o.carrier("powerset:2")
    one, two = frozenset({1}), frozenset({2})
    # a 2-cycle whose edges share no atom is nilpotent over powerset:2
    assert o.nilpotency_facts([[frozenset(), one], [two, frozenset()]], car) == (True, 2)
    assert o.nilpotency_facts([[frozenset(), one], [one, frozenset()]], car) == (False, None)


def test_same_seed_same_inputs():
    a = wl.planted_dag(random.Random("s"), o.carrier("chain:3"), 20, 0.3)
    b = wl.planted_dag(random.Random("s"), o.carrier("chain:3"), 20, 0.3)
    assert a == b
    kinds = [[req.kind for req in wl.make_round("counting", 9, 2)] for _ in range(2)]
    assert kinds[0] == kinds[1]


def test_tracer_wraps_every_binding_and_recursion():
    t = tr.Tracer()
    assert t.install() == []
    try:
        assert ar.squarezero.is_nilpotent.__wrapped__ is ar.nilpotency.is_nilpotent.__wrapped__
        ar.dag_counting.acyclic_polynomial.__wrapped__.cache_clear()
        m = ar.Matrix(ar.boolean(), [[0, 1, 1], [0, 0, 1], [0, 0, 0]])
        span = t.begin_request(0, "probe")
        ar.decompose_nilpotent(m)
        ar.count_nilpotent(5, 2)
        t.end_request(span)
    finally:
        t.uninstall()
    assert not hasattr(ar.squarezero.is_nilpotent, "__wrapped__")
    names = [s[0] for s in t.spans]
    parents = {s[0]: t.spans[s[3]][0] for s in t.spans if s[3] >= 0}
    assert parents["nilpotency.triangularize"] == "squarezero.decompose_nilpotent"
    # the cold A_5 call, then k calls from each cold A_k (k = 5..1): hits are spanned too
    assert names.count("dag_counting.acyclic_polynomial") == 16
    assert all(s[4] == 0 for s in t.spans)


def test_tracer_sees_refusals_built_before_install():
    # requests are built before the tracer is installed, as in a traced run
    car, sr = o.carrier("boolean"), ar.boolean()
    cycle = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    reqs = wl._nilpotent_requests(car, sr, cycle)
    reqs += wl._near_miss_requests(random.Random(1), o.carrier("chain:3"), ar.chain(3), 4)
    tally = run.Tally()
    t = tr.Tracer()
    t.install()
    try:
        for rid, req in enumerate(reqs):
            tally.execute(req, tracer=t, rid=rid)
    finally:
        t.uninstall()
    assert tally.reasons == []
    roots = {s[0] for s in t.spans if s[3] < 0}
    parents = {(t.spans[s[3]][0], s[0]) for s in t.spans if s[3] >= 0}
    for kind, span in [("decompose_nilpotent", "squarezero.decompose_nilpotent"),
                       ("triangularize", "nilpotency.triangularize"),
                       ("factorize_invertible", "invertibility.factorize_invertible"),
                       ("invert", "invertibility.invert"),
                       ("gl_roundtrip", "invertibility.gl_encode")]:
        assert f"request.{kind}" in roots
        assert (f"request.{kind}", span) in parents


def test_tracer_reports_missing_targets_as_absent(monkeypatch):
    monkeypatch.setitem(tr.TARGETS, "nilpotency", tr.TARGETS["nilpotency"] + ("no_such_function",))
    monkeypatch.setitem(tr.TARGETS, "no_such_module", ("f",))
    t = tr.Tracer()
    absent = t.install()
    t.uninstall()
    assert absent == ["nilpotency.no_such_function", "no_such_module.f"]
    metrics = tr.layer_metrics(t.self_times(), t.finish(), *t.nilpotency_matmuls())
    assert metrics["matrices.matmul.calls"] == 0


def test_self_time_subtracts_children():
    t = tr.Tracer()
    t.spans[:] = [["a", 0.0, 10.0, -1, 0], ["b", 2.0, 5.0, 0, 0], ["b", 6.0, 7.0, 0, 0],
                  ["c", 3.0, 4.0, 1, 0]]
    totals = t.self_times()
    assert totals["a"] == (6.0, 1)
    assert totals["b"] == (3.0, 2)
    assert totals["c"] == (1.0, 1)


def test_semiring_op_counting_restores_the_instances():
    sr = ar.chain(3)
    counts, restore = tr.count_semiring_ops([sr, sr])
    m = ar.Matrix(sr, [[2, 2], [0, 2]])
    m @ m
    restore()
    assert counts == {"add": 1, "mul": 4}
    assert sr.mul is min and "add" in vars(sr)
