import math
import random
import sys
import threading

import pytest

import antiring as ar
from antiring import dag_counting
from antiring.dag_counting import MAX_COUNT_N, IntPolynomial


# --- independent DAG oracle: scan all loop-free patterns, DFS cycle test ---


def _has_cycle(n, edges):
    adj = {v: [] for v in range(1, n + 1)}
    for (i, j) in edges:
        adj[i].append(j)
    WHITE, GRAY, BLACK = 0, 1, 2
    state = {v: WHITE for v in range(1, n + 1)}

    def dfs(v):
        state[v] = GRAY
        for w in adj[v]:
            if state[w] == GRAY or (state[w] == WHITE and dfs(w)):
                return True
        state[v] = BLACK
        return False

    return any(dfs(v) for v in range(1, n + 1) if state[v] == WHITE)


def dag_edge_histogram(n):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    hist = {}
    for mask in range(2 ** len(pairs)):
        edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
        if not _has_cycle(n, edges):
            hist[len(edges)] = hist.get(len(edges), 0) + 1
    return hist


# --- polynomial plumbing ---


def test_int_polynomial_arithmetic():
    p = IntPolynomial([1, 2])  # 1 + 2x
    assert p.evaluate(10) == 21
    assert IntPolynomial([0, 0, 0]) == IntPolynomial()
    assert IntPolynomial().evaluate(5) == 0


def test_int_polynomial_shift_exactness():
    # (1+x)^e shifted by -1 is x^e
    for e in (0, 1, 2, 5, 9):
        one_plus_x_power = IntPolynomial(math.comb(e, i) for i in range(e + 1))
        shifted = one_plus_x_power.shift(-1)
        assert shifted.coeffs == tuple([0] * e + [1])
    p = IntPolynomial([3, -1, 4, 1])
    for c in (-2, -1, 0, 1, 3):
        for v in (-5, 0, 7):
            assert p.shift(c).evaluate(v) == p.evaluate(v + c)
    rng = random.Random(4)
    for _ in range(20):
        p = IntPolynomial(rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, 41)))
        for c in (-3, -1, 1, 2):
            shifted = p.shift(c)
            assert shifted.degree == p.degree
            for v in (-4, 0, 3, 11):
                assert shifted.evaluate(v) == p.evaluate(v + c)


def test_partitions_examples():
    assert [p.parts for p in ar.partitions(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert [p.parts for p in ar.partitions(0)] == [()]
    assert len(ar.partitions(6)) == 11


def count_partitions(n, cap):
    if n == 0:
        return 1
    return sum(count_partitions(n - p, p) for p in range(min(n, cap), 0, -1))


def test_partition_counts_against_direct_recursion():
    for n in range(11):
        assert len(ar.partitions(n)) == count_partitions(n, n)


def test_partitions_are_reverse_lexicographic():
    for n in range(1, 9):
        parts = [p.parts for p in ar.partitions(n)]
        assert parts == sorted(parts, reverse=True)


def test_partition_validation():
    with pytest.raises(ValueError):
        ar.Partition((1, 2))
    with pytest.raises(ValueError):
        ar.Partition((2, 0))


# --- the generating polynomials ---


def test_small_closed_forms():
    assert ar.acyclic_polynomial(0) == IntPolynomial([1])
    assert ar.acyclic_polynomial(1) == IntPolynomial([1])
    assert ar.acyclic_polynomial(2) == IntPolynomial([1, 2])  # 1 + 2x
    # A_2(q-1) = 2q - 1 and A_3(q-1) = 6q^3 - 6q^2 + 1
    assert ar.nilpotent_count_polynomial(2).coeffs == (-1, 2)
    assert ar.nilpotent_count_polynomial(3).coeffs == (1, 0, -6, 6)
    # 4x4: constant term is -1 (pinned by the brute-force count 543 at q = 2)
    assert ar.nilpotent_count_polynomial(4).coeffs == (-1, 0, 0, 8, 6, -36, 24)
    # 5x5 row, descending: 120 -240 90 60 -20 0 -10 0 0 0 1
    assert ar.nilpotent_count_polynomial(5).coeffs == (1, 0, 0, 0, -10, 0, -20, 60, 90, -240, 120)


def test_a_cached_row_cannot_be_reassigned():
    """The rows are shared from the table: writing one would change every
    later count in the process."""
    with pytest.raises(AttributeError):
        ar.nilpotent_count_polynomial(3).coeffs = (0,)
    assert ar.count_nilpotent(3, 2) == 25


def test_counts_at_small_q():
    assert ar.count_nilpotent(2, 1) == 1
    assert ar.count_nilpotent(2, 3) == 5
    assert ar.count_nilpotent(3, 3) == 109
    assert ar.count_nilpotent(4, 2) == 543
    assert ar.count_nilpotent(5, 2) == 29281
    assert ar.count_nilpotent(4, 3) == 9449


def test_recurrence_equals_partition_form():
    for n in range(19):
        assert ar.acyclic_polynomial(n) == ar.acyclic_polynomial_partition_form(n)


def test_against_brute_force_histograms():
    # A_{n,r} counts labeled acyclic digraphs with r edges
    for n in range(5):
        hist = dag_edge_histogram(n)
        poly = ar.acyclic_polynomial(n)
        degree = max(poly.degree, 0)
        for r in range(degree + 1):
            assert poly.coefficient(r) == hist.get(r, 0)
        assert poly.evaluate(1) == sum(hist.values())


def test_total_dag_counts():
    # OEIS A003024
    expected = [1, 1, 3, 25, 543, 29281, 3781503]
    assert [ar.acyclic_polynomial(n).evaluate(1) for n in range(7)] == expected


def test_leading_term_of_count_polynomial():
    for n in range(1, 9):
        poly = ar.nilpotent_count_polynomial(n)
        assert poly.degree == math.comb(n, 2)
        assert poly.coeffs[-1] == math.factorial(n)


def test_edge_polynomial_coefficients_nonnegative():
    for n in range(11):
        assert all(c >= 0 for c in ar.acyclic_polynomial(n).coeffs)


def test_count_nilpotent_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ar.count_nilpotent(2, 0)
    with pytest.raises(ValueError):
        ar.count_nilpotent(0, 2)


def test_count_polynomial_evaluation_matches_substituted_polynomial():
    for n in range(1, 7):
        poly_q = ar.nilpotent_count_polynomial(n)
        for q in (1, 2, 3, 5, 10):
            assert poly_q.evaluate(q) == ar.count_nilpotent(n, q)


# --- the bottom-up q-basis table against the independent partition form ---


def test_counts_equal_partition_form_evaluations():
    for n in range(1, 19):
        oracle = ar.acyclic_polynomial_partition_form(n)
        for q in (1, 2, 3, 5, 7):
            assert ar.count_nilpotent(n, q) == oracle.evaluate(q - 1)


def test_table_rows_do_not_depend_on_request_order(monkeypatch):
    monkeypatch.setattr(dag_counting, "_q_rows", [IntPolynomial([1])])
    small_first = [ar.nilpotent_count_polynomial(n) for n in range(31)]
    monkeypatch.setattr(dag_counting, "_q_rows", [IntPolynomial([1])])
    assert ar.count_nilpotent(30, 2) == small_first[30].evaluate(2)
    assert [ar.nilpotent_count_polynomial(n) for n in range(31)] == small_first
    for n in range(1, 8):
        assert ar.count_nilpotent(n, 2) == ar.acyclic_polynomial_partition_form(n).evaluate(1)


def test_concurrent_growth_keeps_rows_in_order(monkeypatch):
    reference = [ar.nilpotent_count_polynomial(n) for n in range(41)]
    monkeypatch.setattr(dag_counting, "_q_rows", [IntPolynomial([1])])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=ar.nilpotent_count_polynomial, args=(n,))
            for n in (40, 37, 33, 29, 40, 38)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert dag_counting._q_rows == reference


def test_counting_cap_refuses_before_the_table_grows():
    rows = len(dag_counting._q_rows)
    n = MAX_COUNT_N + 1
    for call in (
        lambda: ar.count_nilpotent(n, 2),
        lambda: ar.nilpotent_count_polynomial(n),
        lambda: ar.acyclic_polynomial(n),
    ):
        with pytest.raises(ar.BudgetExceededError) as exc:
            call()
        assert exc.value.required == n
        assert str(n) in str(exc.value) and str(MAX_COUNT_N) in str(exc.value)
        assert len(dag_counting._q_rows) == rows
    with pytest.raises(ValueError):
        ar.acyclic_polynomial(-1)
    with pytest.raises(ValueError):
        ar.nilpotent_count_polynomial(-1)


def test_huge_counts_are_refused_before_any_arithmetic(monkeypatch):
    allowed = int(sys.get_int_max_str_digits() * math.log2(10))
    # the bound n! q^C(n,2) is within 14 bits of the value at n = 100, q = 6
    value = ar.count_nilpotent(100, 6)
    assert allowed - 1000 < value.bit_length() and len(str(value)) <= sys.get_int_max_str_digits()
    monkeypatch.setattr(dag_counting, "_q_row", None)  # touching the table would fail
    for n, q in ((100, 7), (100, 10**6), (100, 10**1000), (2, 10**10**5)):
        with pytest.raises(ar.BudgetExceededError) as exc:
            ar.count_nilpotent(n, q)
        assert exc.value.required > allowed
        assert f"{exc.value.required} bits" in str(exc.value) and f"{allowed} bits" in str(exc.value)


@pytest.mark.parametrize("row,n", [(ar.nilpotent_count_polynomial, 100), (ar.acyclic_polynomial, 30)])
def test_public_rows_are_budgeted(row, n):
    allowed = int(sys.get_int_max_str_digits() * math.log2(10))
    poly = row(n)
    for v in (10**40, -(10**40), 10**1000):
        with pytest.raises(ar.BudgetExceededError) as exc:
            poly.evaluate(v)
        assert exc.value.required > allowed
        assert f"degree-{poly.degree}" in str(exc.value) and f"{allowed} bits" in str(exc.value)
    # every size the benchmark evaluates stays answered
    assert ar.nilpotent_count_polynomial(100).evaluate(6) == ar.count_nilpotent(100, 6)
    assert ar.nilpotent_count_polynomial(32).evaluate(7) == ar.count_nilpotent(32, 7)
    assert poly.evaluate(1) == sum(poly.coeffs) and poly.evaluate(0) == poly.coeffs[0]


def test_a_value_is_answered_exactly_when_it_fits():
    allowed = int(sys.get_int_max_str_digits() * math.log2(10))
    # B_2(q) = 2q - 1: at q = 2^(allowed - 1) it has exactly `allowed` bits
    q = 2 ** (allowed - 1)
    assert ar.count_nilpotent(2, q) == ar.nilpotent_count_polynomial(2).evaluate(q) == 2 * q - 1
    for call in (ar.count_nilpotent, lambda n, q: ar.nilpotent_count_polynomial(n).evaluate(q)):
        with pytest.raises(ar.BudgetExceededError) as exc:
            call(2, 2 * q)
        assert exc.value.required == allowed + 1
    # 7^C(100,2) alone fits, so the row is evaluated and its value refused by size
    poly = ar.nilpotent_count_polynomial(100)
    with pytest.raises(ar.BudgetExceededError) as exc:
        poly.evaluate(7)
    assert exc.value.required == sum(c * 7**i for i, c in enumerate(poly.coeffs)).bit_length() > allowed


def test_answer_budget_follows_the_interpreter_limit():
    digits = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(6000)
        assert len(str(ar.count_nilpotent(100, 7))) > digits
        sys.set_int_max_str_digits(0)  # off: the default limit stands in
        with pytest.raises(ar.BudgetExceededError):
            ar.count_nilpotent(100, 7)
    finally:
        sys.set_int_max_str_digits(digits)


def test_large_count_needs_no_recursion():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        value = ar.count_nilpotent(60, 3)
    finally:
        sys.setrecursionlimit(limit)
    assert value == ar.nilpotent_count_polynomial(60).evaluate(3)
    assert value % 3 == 2  # the constant term B_n(0) is (-1)^(n-1)
