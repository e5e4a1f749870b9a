import itertools

import pytest

import antiring as ar

#: One representative of every built-in family.
BUILTINS = ("boolean", "chain3", "powerset2", "naturals", "tropical")


def builtin(name):
    return {
        "boolean": ar.boolean(),
        "chain3": ar.chain(3),
        "powerset2": ar.powerset(2),
        "naturals": ar.naturals(),
        "tropical": ar.tropical(),
    }[name]


def random_value(semiring, rng):
    """A random payload, zero included."""
    family = type(semiring).__name__
    if family == "Chain":
        return rng.randrange(semiring.q)
    if family == "Powerset":
        return frozenset(x for x in range(1, semiring.m + 1) if rng.random() < 0.5)
    if family == "Naturals":
        return rng.randrange(0, 8)
    if family == "MinPlus":
        return ar.INF if rng.random() < 0.3 else rng.randrange(-9, 10)
    if family == "TableSemiring":
        return rng.randrange(semiring.size)
    raise AssertionError(family)


def random_nonzero(semiring, rng):
    while True:
        v = random_value(semiring, rng)
        if v != semiring.zero:
            return v


def random_matrix(semiring, n, rng):
    return ar.Matrix(
        semiring, [[random_value(semiring, rng) for _ in range(n)] for _ in range(n)]
    )


def random_permutation(n, rng):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return ar.Permutation(images)


def relabeled(semiring, labels):
    """An isomorphic table semiring in which carrier element k has index labels[k].

    Returns the table semiring and the payload -> index map.
    """
    elems = semiring.elements()
    index = {v: labels[k] for k, v in enumerate(elems)}
    size = len(elems)
    tables = {}
    for name, op in (("add", semiring.add), ("mul", semiring.mul)):
        table = [[0] * size for _ in range(size)]
        for a in elems:
            for b in elems:
                table[index[a]][index[b]] = index[op(a, b)]
        tables[name] = tuple(map(tuple, table))
    ts = ar.table_semiring(ar.FiniteTables(
        size=size, add_table=tables["add"], mul_table=tables["mul"],
        zero_index=index[semiring.zero], one_index=index[semiring.one],
    ))
    return ts, index


def layered_matrices(rng, trials):
    """Seeded matrices with n <= 7 over powerset:2, powerset:3 and a relabeled
    table of powerset:3, built per atom of 1.

    Two in three keep atom t on (i, j) only when i precedes j in a random
    order of t's own: nilpotent, while the digraph of the whole matrix is
    usually cyclic.  One in four of those then gets a 2-cycle or a loop
    inside one atom, and the rest are drawn at random.
    """
    p3t, index = relabeled(ar.powerset(3), (5, 2, 7, 0, 3, 6, 1, 4))
    for sr, table in ((ar.powerset(2), None), (ar.powerset(3), None), (ar.powerset(3), p3t)):
        m = sr.m
        for trial in range(trials):
            n = rng.randint(1, 7)
            rows = [[{t for t in range(1, m + 1) if rng.random() < 0.5} for _ in range(n)]
                    for _ in range(n)]
            if trial % 3:
                ranks = [rng.sample(range(n), n) for _ in range(m)]
                for i, row in enumerate(rows):
                    for j, v in enumerate(row):
                        v &= {t for t in v if ranks[t - 1][i] < ranks[t - 1][j]}
            if trial % 3 == 2 and trial % 2:
                t, i, j = rng.randint(1, m), rng.randrange(n), rng.randrange(n)
                rows[i][j].add(t)
                rows[j][i].add(t)
            rows = [[frozenset(v) for v in row] for row in rows]
            if table is None:
                yield ar.Matrix(sr, rows)
            else:
                yield ar.Matrix(table, [[index[v] for v in row] for row in rows])


def five_element_lattice():
    """The lattice 0 < a, b < a|b < 1 under join and meet, as anonymous tables:
    an antiring with zero divisors (a*b = 0) whose only atom of 1 is 1, so
    its one component, itself, is not entire.  Payloads: 0, a, b, a|b, 1."""
    sets = [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2}), frozenset({1, 2, 3})]
    index = {s: k for k, s in enumerate(sets)}
    return ar.table_semiring(ar.FiniteTables(
        size=5,
        add_table=tuple(tuple(index[x | y] for y in sets) for x in sets),
        mul_table=tuple(tuple(index[x & y] for y in sets) for x in sets),
        zero_index=0, one_index=4,
    ), source="lattice5")


def lattice_table(sets, source):
    """A table semiring of distinct frozensets closed under union (addition)
    and intersection (multiplication), with the empty set as 0 and the
    largest set as 1."""
    sets = sorted(sets, key=lambda s: (len(s), sorted(s)))
    index = {s: k for k, s in enumerate(sets)}
    return ar.table_semiring(ar.FiniteTables(
        size=len(sets),
        add_table=tuple(tuple(index[x | y] for y in sets) for x in sets),
        mul_table=tuple(tuple(index[x & y] for y in sets) for x in sets),
        zero_index=index[frozenset()], one_index=index[max(sets, key=len)],
    ), source=source)


def downset_table():
    """The eight down-sets of the poset N (a < c > b < d) under union and
    intersection: a distributive lattice whose only atom of 1 is 1."""
    below = {"a": "a", "b": "b", "c": "abc", "d": "bd"}
    sets = {frozenset().union(*(below[p] for p in ps))
            for r in range(5) for ps in itertools.combinations("abcd", r)}
    return lattice_table(sets, "downsetN")


def product_table(first, second, source):
    """The direct product of two finite semirings as a table, pairs in the
    order of ``itertools.product`` over their elements."""
    pairs = list(itertools.product(first.elements(), second.elements()))
    index = {p: k for k, p in enumerate(pairs)}

    def table(op1, op2):
        return tuple(tuple(index[op1(x1, y1), op2(x2, y2)] for (y1, y2) in pairs)
                     for (x1, x2) in pairs)

    return ar.table_semiring(ar.FiniteTables(
        size=len(pairs), add_table=table(first.add, second.add),
        mul_table=table(first.mul, second.mul),
        zero_index=index[first.zero, second.zero], one_index=index[first.one, second.one],
    ), source=source)


def non_split_carriers():
    """Carriers whose atoms of 1 do not all have entire components: the
    five-element lattice, the down-sets of N, and the lattice times boolean."""
    lattice = five_element_lattice()
    return [lattice, downset_table(), product_table(lattice, ar.boolean(), "lattice5xboolean")]


def carrier(name):
    """A built-in by name, or "table": chain:3 relabeled so that zero is index 2
    and one is index 1."""
    return relabeled(ar.chain(3), (2, 0, 1))[0] if name == "table" else builtin(name)


def random_nilpotent(semiring, n, rng, density=0.5):
    """A random strictly upper triangular matrix conjugated by a random
    permutation: nilpotent by construction."""
    rows = [[semiring.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                rows[i][j] = random_nonzero(semiring, rng)
    upper = ar.Matrix(semiring, rows)
    return ar.conjugate_by_permutation(upper, random_permutation(n, rng))


def all_boolean_matrices(n):
    sr = ar.boolean()
    for bits in itertools.product((0, 1), repeat=n * n):
        yield ar.Matrix(sr, [bits[i * n:(i + 1) * n] for i in range(n)])


@pytest.fixture(scope="session")
def boolean4_nilpotents():
    """All 543 nilpotent boolean 4x4 matrices.

    The full 65536 are scanned, checking the power test against digraph
    acyclicity on every single one (the entire-case criterion at n = 4).
    """
    found = []
    for m in all_boolean_matrices(4):
        by_power = (m**4).is_zero()
        assert by_power == ar.is_acyclic(ar.digraph_of(m))
        if by_power:
            found.append(m)
    assert len(found) == 543
    return found
