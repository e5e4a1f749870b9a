import itertools
import random
import tracemalloc

import pytest

import antiring as ar
from antiring.errors import (
    BudgetExceededError,
    DegenerateSemiringError,
    UnsupportedOperationError,
)

from conftest import relabeled


def test_brute_force_counts():
    assert ar.count_nilpotent_bruteforce(ar.boolean(), 2) == 3
    assert ar.count_nilpotent_bruteforce(ar.boolean(), 3) == 25
    assert ar.count_nilpotent_bruteforce(ar.chain(3), 2) == 5
    assert ar.count_nilpotent_bruteforce(ar.powerset(2), 2) == 9


def zmod4(labels):
    """Z/4 as a table semiring in which residue r has index labels[r]: not an
    antiring, and 2 is a nonzero nilpotent."""
    add = [[0] * 4 for _ in range(4)]
    mul = [[0] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(4):
            add[labels[a]][labels[b]] = labels[(a + b) % 4]
            mul[labels[a]][labels[b]] = labels[a * b % 4]
    return ar.table_semiring(ar.FiniteTables(
        size=4, add_table=tuple(map(tuple, add)), mul_table=tuple(map(tuple, mul)),
        zero_index=labels[0], one_index=labels[1],
    ))


@pytest.mark.parametrize("labels", [(0, 1, 2, 3), (2, 0, 3, 1)])
def test_brute_force_counts_over_z4(labels):
    assert [ar.count_nilpotent_bruteforce(zmod4(labels), n) for n in (1, 2)] == [1, 28]


def test_brute_force_count_where_zero_is_not_index_0():
    sr, index = relabeled(ar.powerset(2), (3, 1, 0, 2))
    assert index[frozenset()] == 3
    assert ar.count_nilpotent_bruteforce(sr, 2) == 9


def test_brute_force_count_at_n1_builds_no_tables():
    # A^1 = A takes no product: the 3000 x 3000 tables would be ~150 MB
    tracemalloc.start()
    try:
        assert ar.count_nilpotent_bruteforce(ar.chain(3000), 1) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_brute_force_agrees_with_formula():
    for n, q in ((2, 2), (2, 3), (3, 2), (3, 3)):
        assert ar.count_nilpotent_bruteforce(ar.chain(q), n) == ar.count_nilpotent(n, q)


def test_enumerate_gl_members():
    b = ar.boolean()
    gl = ar.enumerate_gl(b, 2)
    assert len(gl) == 2
    expected = {ar.permutation_matrix(p, b) for p in ar.Permutation.lexicographic(2)}
    assert set(gl) == expected

    c3 = ar.chain(3)
    gl = ar.enumerate_gl(c3, 2)
    assert [m.rows for m in gl] == [((0, 2), (2, 0)), ((2, 0), (0, 2))]

    assert len(ar.enumerate_gl(ar.powerset(2), 2)) == 4


def test_enumerate_gl_round_trips():
    for sr, n in ((ar.boolean(), 3), (ar.powerset(2), 2)):
        ident = ar.Matrix.identity(sr, n)
        for a in ar.enumerate_gl(sr, n):
            b = ar.invert(a)
            assert a @ b == ident and b @ a == ident
            assert ar.factorize_invertible(a).reconstruct() == a


def test_orth_decomp_search():
    b = ar.boolean()
    found = ar.orth_decomp_search(b)
    assert [d.parts for d in found] == [(1,)]

    p2 = ar.powerset(2)
    found = ar.orth_decomp_search(p2)
    assert len(found) == 2
    assert found[0].parts == (frozenset({1, 2}),)
    assert found[1].parts == (frozenset({1}), frozenset({2}))

    assert len(ar.orth_decomp_search(ar.powerset(3))) == 5
    assert [d.parts for d in ar.orth_decomp_search(ar.chain(5))] == [(4,)]


def unpruned_orth_decompositions(sr):
    """Every orthogonal decomposition of 1, from a scan of all 2^k subsets."""
    nonzero = [x for x in sr.elements() if x != sr.zero]
    found = []
    for r in range(1, len(nonzero) + 1):
        for combo in itertools.combinations(nonzero, r):
            total = combo[0]
            for x in combo[1:]:
                total = sr.add(total, x)
            if total == sr.one and all(
                sr.mul(a, b) == sr.zero for a, b in itertools.combinations(combo, 2)
            ):
                found.append(combo)
    found.sort(key=lambda c: (len(c), [sr.sort_key(p) for p in c]))
    return found


def relabeled_powerset4(seed):
    p4 = ar.powerset(4)
    elems = p4.elements()
    labels = list(range(len(elems)))
    random.Random(seed).shuffle(labels)
    index = dict(zip(elems, labels))

    def table(op):
        out = [[0] * len(elems) for _ in elems]
        for a in elems:
            for b in elems:
                out[index[a]][index[b]] = index[op(a, b)]
        return tuple(map(tuple, out))

    return ar.table_semiring(ar.FiniteTables(
        size=len(elems), add_table=table(p4.add), mul_table=table(p4.mul),
        zero_index=index[p4.zero], one_index=index[p4.one],
    ))


def test_pruned_search_equals_unpruned_scan():
    for sr in (ar.boolean(), ar.chain(5), ar.powerset(3), ar.powerset(4), relabeled_powerset4(44)):
        found = [d.parts for d in ar.orth_decomp_search(sr)]
        assert found == unpruned_orth_decompositions(sr)
    assert len(found) == 15  # the Bell number B_4


def test_search_confirms_maximal_decomposition():
    for sr in (ar.boolean(), ar.chain(3), ar.powerset(2), ar.powerset(3), ar.powerset(4),
               relabeled_powerset4(45)):
        found = ar.orth_decomp_search(sr)
        maximal = ar.max_orthogonal_decomposition(sr)
        assert sr.atoms == maximal
        assert maximal in found
        assert maximal.length == max(d.length for d in found)
        # uniqueness of the maximal length
        assert sum(1 for d in found if d.length == maximal.length) == 1


def test_orth_decomp_search_carrier_cap():
    with pytest.raises(BudgetExceededError) as exc:
        ar.orth_decomp_search(ar.powerset(5))  # 32 elements
    assert exc.value.required == 32  # the carrier size the cap of 16 refuses
    with pytest.raises(UnsupportedOperationError):
        ar.orth_decomp_search(ar.tropical())


def test_budget_refusal_is_upfront():
    budget = ar.EnumerationBudget(max_states=100)
    with pytest.raises(BudgetExceededError) as exc:
        ar.count_nilpotent_bruteforce(ar.boolean(), 3, budget=budget)
    assert exc.value.required == 512
    with pytest.raises(BudgetExceededError):
        ar.enumerate_gl(ar.boolean(), 3, budget=budget)


def test_refusal_carries_the_exact_count_up_to_the_budget_squared():
    budget = ar.EnumerationBudget(max_states=10**9)
    with pytest.raises(BudgetExceededError) as exc:
        ar.count_nilpotent_bruteforce(ar.chain(3), 6, budget=budget)
    assert exc.value.required == 3**36  # ~1.5e17 <= 1e18, past the printed 1e16
    assert str(exc.value) == f"chain:3 has 3^36 matrices, over the budget of {10**9}"
    for n in (7, 20000):  # 3^49 ~ 2.4e23: worded as a power alone
        with pytest.raises(BudgetExceededError) as exc:
            ar.enumerate_gl(ar.chain(3), n, budget=budget)
        assert exc.value.required is None
        assert str(exc.value) == f"chain:3 has 3^{n * n} matrices, over the budget of {10**9}"


@pytest.mark.parametrize("n", [0, -1])
def test_dimension_below_one_refused(n):
    for call in (ar.count_nilpotent_bruteforce, ar.enumerate_gl):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            call(ar.chain(3), n)


def test_infinite_carriers_refused():
    with pytest.raises(UnsupportedOperationError):
        ar.count_nilpotent_bruteforce(ar.naturals(), 2)
    with pytest.raises(UnsupportedOperationError):
        ar.enumerate_gl(ar.tropical(), 2)


def test_budget_validation():
    with pytest.raises(ValueError):
        ar.EnumerationBudget(max_states=0)


def test_brute_force_count_refuses_a_degenerate_carrier():
    # chain:1 has 0 = 1, which enumerate_gl and orth_decomp_search refuse too
    with pytest.raises(DegenerateSemiringError):
        ar.count_nilpotent_bruteforce(ar.chain(1), 1)
