import random

import pytest

import antiring as ar
from antiring.errors import FormatError

from conftest import (
    BUILTINS,
    builtin,
    carrier,
    random_matrix,
    random_nilpotent,
    random_permutation,
)


def test_boolean_identity_product():
    b = ar.boolean()
    i2 = ar.Matrix.identity(b, 2)
    assert i2 @ i2 == i2


def test_chain3_max_min_square():
    # hand evaluation: (1,1) = max(min(2,2), min(1,0)) = 2, etc.
    s = ar.chain(3)
    a = ar.Matrix(s, [[2, 1], [0, 2]])
    assert a @ a == a


def test_power_zero_gives_identity():
    rng = random.Random(1)
    for name in BUILTINS:
        sr = builtin(name)
        a = random_matrix(sr, 3, rng)
        assert a**0 == ar.Matrix.identity(sr, 3)


def test_power_additivity():
    rng = random.Random(2)
    for name in BUILTINS:
        sr = builtin(name)
        a = random_matrix(sr, 3, rng)
        for i, j in ((1, 1), (2, 1), (2, 3)):
            assert a ** (i + j) == (a**i) @ (a**j)


def test_permutation_matrix_convention():
    b = ar.boolean()
    assert ar.permutation_matrix(ar.Permutation.identity(3), b) == ar.Matrix.identity(b, 3)
    swap = ar.Permutation((2, 1))
    assert ar.permutation_matrix(swap, b).rows == ((0, 1), (1, 0))
    cycle = ar.Permutation((2, 3, 1))  # 1->2, 2->3, 3->1
    assert ar.permutation_matrix(cycle, b).rows == ((0, 1, 0), (0, 0, 1), (1, 0, 0))


def test_permutation_matrix_is_multiplicative():
    rng = random.Random(3)
    b = ar.boolean()
    for n in (2, 3, 4, 5):
        for _ in range(20):
            p = random_permutation(n, rng)
            q = random_permutation(n, rng)
            assert ar.permutation_matrix(p * q, b) == (
                ar.permutation_matrix(p, b) @ ar.permutation_matrix(q, b)
            )


def test_permutation_basics():
    p = ar.Permutation((2, 3, 1))
    assert p(1) == 2 and p(3) == 1
    assert p.inverse().images == (3, 1, 2)
    assert (p * p.inverse()) == ar.Permutation.identity(3)
    assert list(ar.Permutation.lexicographic(2)) == [
        ar.Permutation((1, 2)),
        ar.Permutation((2, 1)),
    ]
    with pytest.raises(ValueError):
        ar.Permutation((1, 1, 2))


def test_conjugation_examples():
    b = ar.boolean()
    a = ar.Matrix(b, [[0, 1], [0, 0]])
    swap = ar.Permutation((2, 1))
    assert ar.conjugate_by_permutation(a, swap).rows == ((0, 0), (1, 0))
    assert ar.conjugate_by_permutation(a, ar.Permutation.identity(2)) == a


def test_conjugation_permutes_diagonals():
    s = ar.chain(4)
    d = ar.Matrix.diagonal(s, [1, 2, 3])
    p = ar.Permutation((3, 1, 2))
    out = ar.conjugate_by_permutation(d, p)
    assert all(v == s.zero for i, row in enumerate(out.rows) for j, v in enumerate(row) if i != j)
    diagonal = tuple(out.entry(i, i) for i in (1, 2, 3))
    assert sorted(diagonal) == [1, 2, 3]
    # entrywise: out(i, i) = d(p^-1(i), p^-1(i))
    pinv = p.inverse()
    assert diagonal == tuple(d.entry(pinv(i), pinv(i)) for i in (1, 2, 3))


def test_conjugation_equals_ptap():
    rng = random.Random(4)
    for name in BUILTINS:
        sr = builtin(name)
        for n in (2, 3, 4):
            a = random_matrix(sr, n, rng)
            p = random_permutation(n, rng)
            pm = ar.permutation_matrix(p, sr)
            assert ar.conjugate_by_permutation(a, p) == pm.transpose() @ a @ pm


def test_transpose_reverses_products():
    rng = random.Random(5)
    for name in BUILTINS:
        sr = builtin(name)
        a = random_matrix(sr, 4, rng)
        b = random_matrix(sr, 4, rng)
        assert (a @ b).transpose() == b.transpose() @ a.transpose()


def test_mul_associative_and_distributive_random():
    rng = random.Random(6)
    for name in BUILTINS:
        sr = builtin(name)
        for _ in range(1000):
            n = rng.randint(1, 5)
            a = random_matrix(sr, n, rng)
            b = random_matrix(sr, n, rng)
            c = random_matrix(sr, n, rng)
            assert (a @ b) @ c == a @ (b @ c)
            assert a @ (b + c) == a @ b + a @ c
            assert (a + b) @ c == a @ c + b @ c


def test_shape_and_semiring_mismatches():
    b = ar.boolean()
    a2 = ar.Matrix.identity(b, 2)
    a3 = ar.Matrix.identity(b, 3)
    with pytest.raises(ValueError, match="dimension"):
        a2 @ a3
    with pytest.raises(ValueError, match="mismatch"):
        a2 + ar.Matrix.identity(ar.chain(3), 2)
    with pytest.raises(ValueError, match="square"):
        ar.Matrix(b, [[0, 1]])
    with pytest.raises(ValueError):
        a2**-1


def test_construction_checks_objects_not_equal_values():
    # 1.0 == 1 and frozenset({1.0}) == frozenset({1}), yet neither is a payload
    with pytest.raises(ValueError, match="1.0 is not an element of chain:3"):
        ar.Matrix(ar.chain(3), [[1, 1.0], [0, 1]])
    with pytest.raises(ValueError, match="powerset:2"):
        ar.Matrix(ar.powerset(2), [[frozenset({1}), frozenset({1.0})], [frozenset(), frozenset({1})]])
    # next to the semiring's own zero object, an equal foreign zero
    with pytest.raises(ValueError, match="0.0 is not an element of chain:3"):
        ar.Matrix(ar.chain(3), [[0, 0.0], [0, 0]])


def test_construction_normalizes_every_position():
    b = ar.boolean()
    a = ar.Matrix(b, [[True, False], [True, True]])
    assert all(type(v) is int for row in a.rows for v in row)
    assert a.rows == ((1, 0), (1, 1))
    p2 = ar.powerset(2)
    one = {1}  # the same set object at every position
    a = ar.Matrix(p2, [[one, set()], [one, p2.zero]])
    assert all(type(v) is frozenset for row in a.rows for v in row)
    assert a.rows == ((frozenset({1}), frozenset()), (frozenset({1}), frozenset()))


def test_construction_takes_generators():
    c = ar.chain(3)
    a = ar.Matrix(c, (((i * 3 + j) % 3 for j in range(3)) for i in range(3)))
    assert a.rows == ((0, 1, 2), (0, 1, 2), (0, 1, 2))
    assert ar.Matrix(c, iter([iter([2])])).rows == ((2,),)


def test_construction_names_the_first_foreign_entry_in_row_major_order():
    c = ar.chain(3)
    seven = 7
    with pytest.raises(ValueError, match="^7 is not"):
        ar.Matrix(c, [[0, seven], [5, seven]])
    with pytest.raises(ValueError, match="^5 is not"):
        ar.Matrix(c, [[0, 1], [5, seven]])


def test_entry_is_one_based():
    s = ar.naturals()
    a = ar.Matrix(s, [[1, 2], [3, 4]])
    assert a.entry(1, 2) == 2
    assert a.entry(2, 1) == 3


def test_matrix_text_round_trip_all_builtins():
    rng = random.Random(7)
    for name in BUILTINS:
        sr = builtin(name)
        a = random_matrix(sr, 3, rng)
        text = ar.format_matrix(a)
        assert text.endswith("\n")
        assert ar.parse_matrix(text) == a
        # serializing a parse is a fixed point
        assert ar.format_matrix(ar.parse_matrix(text)) == text


def test_matrix_text_examples():
    a = ar.parse_matrix("semiring powerset:2\nn 2\n{1} {2}\n{2} {1}\n")
    assert a.entry(1, 1) == frozenset({1})
    t = ar.parse_matrix("# comment\nsemiring tropical\nn 2\n5 inf\ninf -2\n")
    assert t.entry(1, 2) == ar.INF
    assert t.entry(2, 2) == -2


def test_matrix_text_errors():
    with pytest.raises(FormatError):
        ar.parse_matrix("n 2\n0 0\n0 0\n")
    with pytest.raises(FormatError, match="entry rows"):
        ar.parse_matrix("semiring boolean\nn 2\n0 0\n")
    with pytest.raises(FormatError, match="expected 2"):
        ar.parse_matrix("semiring boolean\nn 2\n0 0 1\n0 0\n")
    with pytest.raises(FormatError):
        ar.parse_matrix("semiring boolean\nn 0\n")


def test_matrix_over_table_semiring_file(tmp_path):
    tables = ar.to_tables(ar.boolean())
    (tmp_path / "bool.tbl").write_text(ar.format_tables(tables))
    (tmp_path / "m.txt").write_text("semiring table:bool.tbl\nn 2\n0 1\n0 0\n")
    m = ar.parse_matrix_file(str(tmp_path / "m.txt"))
    assert m.semiring.descriptor() == "table:bool.tbl"
    assert m.entry(1, 2) == 1
    # the recorded source keeps serialization parseable from the same directory
    assert "table:bool.tbl" in ar.format_matrix(m)


# --- the one reader of the support ---


def dense_nonzeros(matrix):
    """The nonzeros of every row by a plain scan of the entries."""
    z = matrix.semiring.zero
    return [[(j, v) for j, v in enumerate(row) if v != z] for row in matrix.rows]


def random_invertible(sr, n, rng):
    """D * sum_e(e * P_e): one random permutation per atom of 1."""
    atoms = (sr.one,) if sr.is_entire else ar.max_orthogonal_decomposition(sr).parts
    units = [rng.randrange(-9, 10) if sr.descriptor() == "tropical" else sr.one for _ in range(n)]
    total = ar.Matrix.zeros(sr, n)
    for e in atoms:
        p = ar.permutation_matrix(random_permutation(n, rng), sr)
        total = total + ar.Matrix.diagonal(sr, [e] * n) @ p
    return ar.Matrix.diagonal(sr, units) @ total


def reader_matrices(sr, n, rng):
    """Matrices from the constructor and from every producer of the fast path."""
    a, b = random_matrix(sr, n, rng), random_matrix(sr, n, rng)
    p = random_permutation(n, rng)
    trace_zero = ar.Matrix(sr, [
        [sr.zero if i == j else v for j, v in enumerate(row)] for i, row in enumerate(a.rows)
    ])
    yield from (a, a @ b, a + b, a.transpose(), ar.conjugate_by_permutation(a, p))
    yield from (ar.Matrix.zeros(sr, n), ar.Matrix.identity(sr, n), ar.permutation_matrix(p, sr))
    yield ar.invert(random_invertible(sr, n, rng))
    yield from ar.decompose_trace_zero(trace_zero)
    if sr.is_entire:
        yield from ar.decompose_nilpotent(random_nilpotent(sr, n, rng, density=0.3))


@pytest.mark.parametrize("name", BUILTINS + ("table",))
def test_nonzeros_equal_a_dense_scan(name):
    sr = carrier(name)
    rng = random.Random(8)
    for n in (1, 2, 5, 9):
        for m in reader_matrices(sr, n, rng):
            nonzeros = m.nonzeros()
            assert [list(row) for row in nonzeros] == dense_nonzeros(m)
            assert m.nonzeros() is nonzeros  # filled once, then kept
            assert m.support() == {
                (i + 1, j + 1) for i, row in enumerate(dense_nonzeros(m)) for j, _ in row
            }
