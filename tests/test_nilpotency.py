import itertools
import random

import pytest

import antiring as ar
from antiring.errors import CyclicDigraphError, NotNilpotentError, PreconditionError

from conftest import (
    BUILTINS,
    all_boolean_matrices,
    builtin,
    five_element_lattice,
    layered_matrices,
    non_split_carriers,
    random_matrix,
    random_nilpotent,
    random_nonzero,
)

# a commutative antiring {0 < x < 1} under join, with x*x = 0: the smallest
# carrier with a nonzero nilpotent element
NILPOTENT_ELEMENT_TABLES = ar.FiniteTables(
    size=3,
    add_table=((0, 1, 2), (1, 1, 2), (2, 2, 2)),
    mul_table=((0, 0, 0), (0, 0, 1), (0, 1, 2)),
    zero_index=0,
    one_index=2,
)


def strictly_upper(matrix):
    z = matrix.semiring.zero
    return all(matrix.entry(i, j) == z for i in range(1, matrix.n + 1) for j in range(1, i + 1))


def test_digraph_of_examples():
    b = ar.boolean()
    assert ar.digraph_of(ar.Matrix.zeros(b, 3)).edges == frozenset()
    assert ar.digraph_of(ar.Matrix(b, [[0, 1], [0, 0]])).edges == {(1, 2)}
    c = ar.chain(3)
    assert ar.digraph_of(ar.Matrix(c, [[0, 2], [1, 0]])).edges == {(1, 2), (2, 1)}


def test_topological_order_and_tie_break():
    g = ar.Digraph(3, {(1, 2), (2, 3)})
    assert ar.is_acyclic(g)
    assert ar.topological_order(g).images == (1, 2, 3)

    loop = ar.Digraph(1, {(1, 1)})
    assert not ar.is_acyclic(loop)
    assert ar.topological_order(loop) is None

    g = ar.Digraph(3, {(2, 1), (3, 2)})
    assert ar.topological_order(g).images == (3, 2, 1)

    # smallest vertex first among simultaneous sources
    g = ar.Digraph(4, {(2, 4), (1, 4), (3, 4)})
    assert ar.topological_order(g).images == (1, 2, 3, 4)

    # ties break by (level, index): the isolated vertex 3 is at level 0,
    # ahead of vertex 1 at level 1
    assert ar.topological_order(ar.Digraph(3, {(2, 1)})).images == (2, 3, 1)


# the 3-cycle 1 -> 2 -> 3 -> 1, entered from the source 4 and left to the sink 5
CYCLE_WITH_TAIL = {(1, 2), (2, 3), (3, 1), (4, 1), (3, 5)}


def test_cycle_with_an_acyclic_tail():
    g = ar.Digraph(5, CYCLE_WITH_TAIL)
    assert not ar.is_acyclic(g)
    assert ar.topological_order(g) is None
    with pytest.raises(CyclicDigraphError):
        ar.longest_path(g)
    for sr in (ar.boolean(), ar.chain(3), ar.naturals()):
        a = ar.Matrix(sr, [
            [sr.one if (i, j) in CYCLE_WITH_TAIL else sr.zero for j in range(1, 6)]
            for i in range(1, 6)
        ])
        assert ar.digraph_of(a) == g
        assert not ar.is_nilpotent(a)
        for f in (ar.nilpotency_index, ar.triangularize, ar.decompose_nilpotent):
            with pytest.raises(NotNilpotentError):
                f(a)


def test_is_nilpotent_examples():
    b = ar.boolean()
    full_upper = ar.Matrix(b, [[0, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 0, 0]])
    assert ar.is_nilpotent(full_upper)
    assert not ar.is_nilpotent(ar.Matrix(b, [[0, 1], [1, 0]]))

    # non-entire: nilpotent although the digraph has a 2-cycle
    p2 = ar.powerset(2)
    m = ar.Matrix(p2, [[set(), {1}], [{2}, set()]])
    assert ar.digraph_of(m).edges == {(1, 2), (2, 1)}
    assert ar.is_nilpotent(m)


def test_nilpotency_index_examples():
    b = ar.boolean()
    assert ar.nilpotency_index(ar.Matrix.zeros(b, 3)) == 1
    c = ar.chain(3)
    shift = ar.Matrix(c, [[0, 2, 0], [0, 0, 2], [0, 0, 0]])
    assert ar.nilpotency_index(shift) == 3
    full_upper = ar.Matrix(b, [[0, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 0, 0]])
    assert ar.nilpotency_index(full_upper) == 4
    with pytest.raises(NotNilpotentError):
        ar.nilpotency_index(ar.Matrix.identity(b, 2))


def test_longest_path_examples():
    assert ar.longest_path(ar.Digraph(3, set())) == 0
    for n in (2, 3, 5):
        assert ar.longest_path(ar.transitive_tournament(n)) == n - 1
    assert ar.longest_path(ar.Digraph(3, {(1, 2), (1, 3)})) == 1
    with pytest.raises(CyclicDigraphError):
        ar.longest_path(ar.Digraph(2, {(1, 2), (2, 1)}))


def test_triangularize_examples():
    b = ar.boolean()
    upper = ar.Matrix(b, [[0, 1], [0, 0]])
    out, p = ar.triangularize(upper)
    assert out == upper and p == ar.Permutation.identity(2)

    lower = ar.Matrix(b, [[0, 0], [1, 0]])
    out, p = ar.triangularize(lower)
    assert p == ar.Permutation((2, 1))
    assert out.rows == ((0, 1), (0, 0))

    a = ar.Matrix(b, [[0, 1, 0], [0, 0, 0], [1, 1, 0]])  # edges (3,1),(3,2),(1,2)
    out, p = ar.triangularize(a)
    # topological order (3,1,2); p sends each vertex to its position
    assert p.inverse().images == (3, 1, 2)
    assert out == ar.conjugate_by_permutation(a, p)
    assert strictly_upper(out)


def test_triangularize_random_entire():
    rng = random.Random(12)
    for name in ("boolean", "chain3", "tropical", "naturals"):
        sr = builtin(name)
        for _ in range(50):
            n = rng.randint(1, 6)
            a = random_nilpotent(sr, n, rng)
            out, p = ar.triangularize(a)
            assert strictly_upper(out)
            assert out == ar.conjugate_by_permutation(a, p)


def test_triangularize_requires_entire():
    p2 = ar.powerset(2)
    m = ar.Matrix(p2, [[set(), {1}], [{2}, set()]])
    with pytest.raises(PreconditionError, match="entire"):
        ar.triangularize(m)


def test_union_lemma_random():
    rng = random.Random(13)
    for name in BUILTINS:
        sr = builtin(name)
        for _ in range(1000):
            n = rng.randint(1, 6)
            a = random_matrix(sr, n, rng)
            b = random_matrix(sr, n, rng)
            assert ar.digraph_of(a + b).edges == (
                ar.digraph_of(a).edges | ar.digraph_of(b).edges
            )


def test_power_test_complete_small_exhaustive():
    # A nilpotent iff A^n = 0, compared against "some power up to 2n vanishes"
    for n in (1, 2, 3):
        for a in all_boolean_matrices(n):
            slow = any((a**k).is_zero() for k in range(1, 2 * n + 1))
            assert ar.is_nilpotent(a) == slow
    c3 = ar.chain(3)
    for flat in itertools.product(range(3), repeat=4):
        a = ar.Matrix(c3, [flat[:2], flat[2:]])
        slow = any((a**k).is_zero() for k in range(1, 5))
        assert ar.is_nilpotent(a) == slow


def test_acyclicity_criterion_exhaustive_boolean_n3():
    for a in all_boolean_matrices(3):
        assert ar.is_nilpotent(a) == ar.is_acyclic(ar.digraph_of(a))


def test_index_equals_longest_path_plus_one_random():
    rng = random.Random(14)
    for name in ("boolean", "chain3", "tropical"):
        sr = builtin(name)
        for _ in range(100):
            n = rng.randint(1, 6)
            a = random_nilpotent(sr, n, rng)
            assert ar.nilpotency_index(a) == ar.longest_path(ar.digraph_of(a)) + 1


def test_is_nilpotent_rejects_semiring_with_nilpotent_elements():
    report = ar.validate_axioms(NILPOTENT_ELEMENT_TABLES)
    assert report.is_commutative_antiring  # sanity: the example is an antiring
    assert not report.has_no_nonzero_nilpotents
    ts = ar.table_semiring(NILPOTENT_ELEMENT_TABLES)
    m = ar.Matrix.zeros(ts, 2)
    with pytest.raises(PreconditionError, match="nilpotent"):
        ar.is_nilpotent(m)


def test_is_nilpotent_works_over_validated_table_semiring():
    ts = ar.table_semiring(ar.to_tables(ar.chain(3)))
    shift = ar.Matrix(ts, [[0, 2], [0, 0]])
    assert ar.is_nilpotent(shift)
    assert ar.nilpotency_index(shift) == 2


def test_digraph_text_output():
    g = ar.Digraph(3, {(2, 1), (1, 3)})
    assert str(g) == "1 -> 3\n2 -> 1"


def test_digraph_validation():
    with pytest.raises(ValueError):
        ar.Digraph(2, {(1, 3)})
    with pytest.raises(ValueError):
        ar.Digraph(0, set())


def definitional_index(a):
    """The least h with A^h = 0 by multiplying out the powers, or None when
    A^n != 0."""
    power = a
    for h in range(1, a.n + 1):
        if power.is_zero():
            return h
        power = power @ a
    return None


def test_structural_answers_match_the_power_definition():
    # the entire-case answers come from the digraph; the oracle multiplies
    rng = random.Random(19)
    for name in ("boolean", "chain3", "tropical", "naturals"):
        sr = builtin(name)
        for trial in range(40):
            n = rng.randint(1, 12)
            a = random_nilpotent(sr, n, rng, density=rng.choice((0.2, 0.5, 0.9)))
            if trial % 2:
                # close a cycle (possibly a loop) through one random entry
                rows = [list(row) for row in a.rows]
                rows[rng.randrange(n)][rng.randrange(n)] = random_nonzero(sr, rng)
                a = ar.Matrix(sr, rows)
            nilpotent = (a**n).is_zero()
            assert ar.is_nilpotent(a) == nilpotent
            if not nilpotent:
                with pytest.raises(NotNilpotentError):
                    ar.nilpotency_index(a)
                with pytest.raises(NotNilpotentError):
                    ar.triangularize(a)
                continue
            h = ar.nilpotency_index(a)
            assert (a**h).is_zero() and not (a ** (h - 1)).is_zero()
            out, p = ar.triangularize(a)
            assert strictly_upper(out)
            assert out.rows == tuple(
                tuple(a.entry(p.inverse()(i), p.inverse()(j)) for j in range(1, n + 1))
                for i in range(1, n + 1)
            )


def test_power_index_over_non_entire_carrier():
    p2 = ar.powerset(2)
    # nilpotent although its digraph has a cycle: {1} * {2} = {}
    m = ar.Matrix(p2, [[set(), {1}], [{2}, set()]])
    assert ar.is_nilpotent(m) and ar.nilpotency_index(m) == 2
    cyclic = ar.Matrix(p2, [[set(), {1}], [{1, 2}, set()]])
    assert not ar.is_nilpotent(cyclic)
    with pytest.raises(NotNilpotentError):
        ar.nilpotency_index(cyclic)
    rng = random.Random(20)
    for trial in range(300):
        n = rng.randint(1, 9)
        a = random_matrix(p2, n, rng)
        if trial % 3:
            # keep atom t on (i, j) only when i precedes j in a random order
            # of its own: both projections acyclic, the digraph usually not
            ranks = [rng.sample(range(n), n) for _ in (1, 2)]
            a = ar.Matrix(p2, [
                [{t for t in v if ranks[t - 1][i] < ranks[t - 1][j]} for j, v in enumerate(row)]
                for i, row in enumerate(a.rows)
            ])
        expected = definitional_index(a)
        assert ar.is_nilpotent(a) == (expected is not None)
        if expected is None:
            with pytest.raises(NotNilpotentError):
                ar.nilpotency_index(a)
        else:
            assert ar.nilpotency_index(a) == expected


def index_by_powers(a):
    """The least h with A^h = 0 from ``Matrix.__pow__`` taken directly, or
    None when A^n != 0."""
    return next((h for h in range(1, a.n + 1) if (a**h).is_zero()), None)


@pytest.fixture
def matmuls(monkeypatch):
    """A list that collects one entry per Matrix product."""
    calls = []
    product = ar.Matrix.__matmul__

    def counted(self, other):
        calls.append(self.n)
        return product(self, other)

    monkeypatch.setattr(ar.Matrix, "__matmul__", counted)
    return calls


def test_layers_answer_as_the_powers_do(matmuls):
    rng = random.Random(24)
    seen = {True: 0, False: 0}
    for a in layered_matrices(rng, 60):
        expected = index_by_powers(a)
        del matmuls[:]
        nilpotent = ar.is_nilpotent(a)
        if nilpotent:
            h = ar.nilpotency_index(a)
        else:
            with pytest.raises(NotNilpotentError):
                ar.nilpotency_index(a)
        assert not matmuls  # one level pass per layer, no product
        assert nilpotent == (expected is not None)
        if nilpotent:
            assert h == expected
        seen[nilpotent] += 1
    assert min(seen.values()) > 40


def test_non_split_carrier_takes_no_matmul(matmuls):
    lattice = five_element_lattice()  # payloads 0, a, b, a|b, 1
    a, b, ab = 1, 2, 3
    m = ar.Matrix(lattice, [[0, a], [b, 0]])  # a 2-cycle with a*b = 0
    assert ar.is_nilpotent(m) and ar.nilpotency_index(m) == 2
    assert not matmuls  # one level pass per character
    assert not ar.is_nilpotent(ar.Matrix(lattice, [[0, ab], [a, 0]]))
    rng = random.Random(25)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = ar.Matrix(lattice, [
            [0 if i == j or rng.random() < 0.4 else rng.choice((a, b, ab)) for j in range(n)]
            for i in range(n)
        ])
        expected = index_by_powers(m)
        assert ar.is_nilpotent(m) == (expected is not None)
        if expected is not None:
            assert ar.nilpotency_index(m) == expected
    with pytest.raises(PreconditionError, match="triangularize.*lattice5"):
        ar.triangularize(ar.Matrix.zeros(lattice, 2))


def _planted_by_characters(sr, n, rng):
    """A seeded n x n matrix over sr.  Two in three draw each entry among the
    values whose characters all order (i, j) forward in a random order of
    each character's own: nilpotent, though the digraph is often cyclic.
    The rest are drawn at random, zero diagonal or not."""
    els = sr.elements()
    ranks = [rng.sample(range(n), n) for _ in sr.characters]
    planted = rng.randrange(3)
    rows = [[sr.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.6:
                rows[i][j] = rng.choice([
                    v for v in els
                    if not planted or all(r[i] < r[j] for phi, r in zip(sr.characters, ranks) if phi(v))
                ])
    return ar.Matrix(sr, rows)


@pytest.mark.parametrize("sr", non_split_carriers(), ids=lambda sr: sr.descriptor())
def test_characters_answer_as_the_powers_do(sr, matmuls):
    rng = random.Random(26)
    seen = {True: 0, False: 0}
    cyclic_nilpotent = 0
    for _ in range(1500):
        a = _planted_by_characters(sr, rng.randint(1, 6), rng)
        expected = index_by_powers(a)
        del matmuls[:]
        nilpotent = ar.is_nilpotent(a)
        assert nilpotent == (expected is not None)
        if nilpotent:
            assert ar.nilpotency_index(a) == expected
        else:
            with pytest.raises(NotNilpotentError):
                ar.nilpotency_index(a)
        assert not matmuls
        seen[nilpotent] += 1
        cyclic_nilpotent += nilpotent and not ar.is_acyclic(ar.digraph_of(a))
    assert min(seen.values()) > 300 and cyclic_nilpotent > 200


def test_triangularize_refuses_split_carriers():
    # no single vertex order triangularizes every layer
    for sr in (ar.powerset(2), ar.powerset(3)):
        with pytest.raises(PreconditionError, match="entire"):
            ar.triangularize(ar.Matrix.zeros(sr, 2))
