import gc
import itertools
import math
import random
import re
import weakref

import pytest

import antiring as ar
from antiring import invertibility, semirings
from antiring.errors import (
    DegenerateSemiringError,
    NotInvertibleError,
    UnsupportedOperationError,
)

from conftest import builtin, random_matrix, random_nonzero, random_permutation, relabeled


def enumerate_matrices(semiring, n):
    for flat in itertools.product(semiring.elements(), repeat=n * n):
        yield ar.Matrix(semiring, [flat[i * n:(i + 1) * n] for i in range(n)])


def test_permutation_matrices_are_invertible():
    b = ar.boolean()
    for n in (1, 2, 3, 4):
        for p in ar.Permutation.lexicographic(n):
            pm = ar.permutation_matrix(p, b)
            assert ar.is_invertible(pm)
            assert ar.invert(pm) == pm.transpose()


def test_boolean_upper_triangular_not_invertible():
    a = ar.Matrix(ar.boolean(), [[1, 1], [0, 1]])
    assert not ar.is_invertible(a)
    with pytest.raises(NotInvertibleError, match=r"row 1\b"):
        ar.invert(a)


def test_powerset_example_full_pipeline():
    p2 = ar.powerset(2)
    a = ar.Matrix(p2, [[{1}, {2}], [{2}, {1}]])
    assert ar.is_invertible(a)
    fact = ar.factorize_invertible(a)
    top = frozenset({1, 2})
    assert fact.diag == (top, top)
    assert [(c, p.images) for c, p in fact.terms] == [
        (frozenset({1}), (1, 2)),
        (frozenset({2}), (2, 1)),
    ]
    assert ar.invert(a) == a  # self-inverse: a @ a = identity


def test_tropical_diagonal_factorization():
    t = ar.tropical()
    a = ar.Matrix.diagonal(t, [5, -2])
    fact = ar.factorize_invertible(a)
    assert fact.diag == (5, -2)
    assert len(fact.terms) == 1
    coeff, perm = fact.terms[0]
    assert coeff == 0 and perm == ar.Permutation.identity(2)  # tropical one is 0
    assert ar.invert(a) == ar.Matrix.diagonal(t, [-5, 2])


#: A relabeling of powerset(3) that moves both 0 and 1.
P3_LABELS = (5, 2, 7, 0, 3, 6, 1, 4)


def exhaustive_semiring(name):
    if name == "powerset3":
        return ar.powerset(3)
    if name == "relabeled_powerset3":
        return relabeled(ar.powerset(3), P3_LABELS)[0]
    return builtin(name)


EXHAUSTIVE_CASES = [
    ("boolean", 1),
    ("boolean", 2),
    ("boolean", 3),
    ("chain3", 2),
    ("powerset2", 2),
    ("powerset3", 2),
    ("relabeled_powerset3", 2),
]


@pytest.mark.parametrize("name,n", EXHAUSTIVE_CASES)
def test_invertibility_iff_inverse_exists_exhaustive(name, n):
    """The atom test agrees with the A*A^T definition on every matrix."""
    sr = exhaustive_semiring(name)
    ident = ar.Matrix.identity(sr, n)
    invertible = 0
    for a in enumerate_matrices(sr, n):
        flag = ar.is_invertible(a)
        assert flag == (ar.invertibility_failure(a) is None), a
        try:
            b = ar.invert(a)
        except NotInvertibleError:
            b = None
        assert (b is not None) == flag
        if flag:
            invertible += 1
            assert a @ b == ident and b @ a == ident
            fact = ar.factorize_invertible(a)
            assert fact.reconstruct() == a
            assert ar.gl_decode(ar.gl_encode(a)) == a
    # group order |U(S)|^n * (n!)^k
    k = ar.max_orthogonal_decomposition(sr).length
    units = sum(1 for x in sr.elements() if sr.unit_inverse(x) is not None)
    assert invertible == units**n * math.factorial(n) ** k


def test_factorization_round_trip_random_tropical():
    rng = random.Random(11)
    t = ar.tropical()
    for _ in range(1000):
        n = rng.randint(1, 5)
        d = ar.Matrix.diagonal(t, [rng.randrange(-20, 21) for _ in range(n)])
        p = ar.permutation_matrix(random_permutation(n, rng), t)
        a = d @ p
        fact = ar.factorize_invertible(a)
        assert fact.reconstruct() == a
        ident = ar.Matrix.identity(t, n)
        b = ar.invert(a)
        assert a @ b == ident and b @ a == ident


def test_factorization_coefficients_form_orthogonal_decomposition():
    p2 = ar.powerset(2)
    a = ar.Matrix(p2, [[{1}, {2}], [{2}, {1}]])
    fact = ar.factorize_invertible(a)
    coeffs = [c for c, _ in fact.terms]
    dec = ar.OrthogonalDecomposition(p2, coeffs)  # constructor enforces the axioms
    assert dec.length == 2
    for c in coeffs:
        assert p2.mul(c, c) == c


def test_max_orthogonal_decomposition_builtins():
    assert ar.max_orthogonal_decomposition(ar.powerset(2)).parts == (
        frozenset({1}),
        frozenset({2}),
    )
    assert ar.max_orthogonal_decomposition(ar.boolean()).parts == (1,)
    assert ar.max_orthogonal_decomposition(ar.chain(5)).parts == (4,)
    assert ar.max_orthogonal_decomposition(ar.powerset(3)).length == 3


def test_max_orthogonal_decomposition_table_semiring_by_refinement():
    # the same lattice presented as an anonymous table: greedy refinement
    # must find the two singleton atoms (as indices)
    p2 = ar.powerset(2)
    ts = ar.table_semiring(ar.to_tables(p2))
    dec = ar.max_orthogonal_decomposition(ts)
    elems = p2.elements()
    assert [elems[i] for i in dec.parts] == [frozenset({1}), frozenset({2})]


def test_max_orthogonal_decomposition_is_built_once_per_instance(monkeypatch):
    built = []

    class Counting(semirings.OrthogonalDecomposition):
        def __init__(self, semiring, parts):
            built.append(semiring)
            super().__init__(semiring, parts)

    monkeypatch.setattr(semirings, "OrthogonalDecomposition", Counting)
    ts = relabeled(ar.powerset(3), P3_LABELS)[0]
    first = ar.max_orthogonal_decomposition(ts)
    assert ar.max_orthogonal_decomposition(ts) is first
    assert ar.is_invertible(ar.Matrix.identity(ts, 3))
    assert built == [ts]
    # an equal instance keeps its own
    twin = relabeled(ar.powerset(3), P3_LABELS)[0]
    assert ar.max_orthogonal_decomposition(twin) == first
    assert len(built) == 2
    # entire carriers, finite or not, build {1} once too, not once per call
    for sr in (semirings.Chain(3), semirings.MinPlus()):
        a = ar.Matrix.identity(sr, 3)
        for _ in range(3):
            assert ar.is_invertible(a)
            assert ar.factorize_invertible(a).reconstruct() == a
            assert ar.invert(a) == a
        assert built[2:].count(sr) == 1
    assert len(built) == 4


def test_max_orthogonal_decomposition_keeps_no_semiring_alive():
    ts = relabeled(ar.powerset(3), P3_LABELS)[0]
    ar.max_orthogonal_decomposition(ts)
    ar.invert(ar.Matrix.identity(ts, 2))
    ref = weakref.ref(ts)
    del ts
    gc.collect()
    assert ref() is None


def test_max_orthogonal_decomposition_errors():
    for sr in (ar.naturals(), ar.tropical()):
        with pytest.raises(UnsupportedOperationError):
            ar.max_orthogonal_decomposition(sr)
    with pytest.raises(DegenerateSemiringError):
        ar.max_orthogonal_decomposition(ar.chain(1))
    # the infinite entire carriers still own their single atom of 1
    assert ar.naturals().atoms.parts == (1,)
    assert ar.tropical().atoms.parts == (0,)


def test_the_cached_atoms_cannot_be_reassigned():
    """The atoms are shared from the semiring: writing them would change
    every later answer over it."""
    p2 = ar.powerset(2)
    swap = ar.Matrix(p2, [[{1}, {2}], [{2}, {1}]])
    assert ar.is_invertible(swap)
    with pytest.raises(AttributeError):
        p2.atoms.parts = (frozenset({1, 2}),)
    assert p2.atoms.parts == (frozenset({1}), frozenset({2}))
    assert ar.is_invertible(swap)


def test_orthogonal_decomposition_validation():
    p2 = ar.powerset(2)
    with pytest.raises(ValueError, match="nonzero"):
        ar.OrthogonalDecomposition(p2, [frozenset(), frozenset({1, 2})])
    with pytest.raises(ValueError, match="sum"):
        ar.OrthogonalDecomposition(p2, [frozenset({1})])
    with pytest.raises(ValueError, match="orthogonal"):
        ar.OrthogonalDecomposition(p2, [frozenset({1}), frozenset({1, 2})])
    with pytest.raises(ValueError):
        ar.OrthogonalDecomposition(p2, [])
    # 1 * 1 = 0 in this (non-semiring) table: the part check must still fire
    null_mul = ar.FiniteTables(
        size=2, add_table=((0, 1), (1, 1)), mul_table=((0, 0), (0, 0)),
        zero_index=0, one_index=1,
    )
    with pytest.raises(ValueError, match="idempotent"):
        ar.OrthogonalDecomposition(ar.table_semiring(null_mul), [1])


@pytest.mark.parametrize("name,n", EXHAUSTIVE_CASES)
def test_gl_encode_decode_round_trip(name, n):
    sr = exhaustive_semiring(name)
    seen = set()
    for a in ar.enumerate_gl(sr, n):
        coords = ar.gl_encode(a)
        assert ar.gl_decode(coords) == a
        key = (coords.units, coords.perms)
        assert key not in seen  # injective
        seen.add(key)


def test_gl_encode_spec_examples():
    p2 = ar.powerset(2)
    a = ar.Matrix(p2, [[{1}, {2}], [{2}, {1}]])
    coords = ar.gl_encode(a)
    top = frozenset({1, 2})
    assert coords.units == (top, top)
    assert coords.atoms.parts == (frozenset({1}), frozenset({2}))
    assert coords.perms[0] == ar.Permutation.identity(2)  # atom {1} rides the identity
    assert coords.perms[1] == ar.Permutation((2, 1))  # atom {2} rides the swap

    b = ar.boolean()
    p = ar.Permutation((3, 1, 2))
    coords = ar.gl_encode(ar.permutation_matrix(p, b))
    assert coords.units == (1, 1, 1)
    assert coords.perms == (p,)


def test_gl_encode_is_group_homomorphism_when_entire():
    # trivial units and k = 1: encoding onto the symmetric group
    for sr, n in ((ar.boolean(), 3), (ar.chain(3), 2)):
        gl = ar.enumerate_gl(sr, n)
        for a in gl:
            for b in gl:
                pa = ar.gl_encode(a).perms[0]
                pb = ar.gl_encode(b).perms[0]
                assert ar.gl_encode(a @ b).perms[0] == pa * pb


def test_gl_encode_errors():
    with pytest.raises(NotInvertibleError):
        ar.gl_encode(ar.Matrix(ar.boolean(), [[1, 1], [0, 1]]))
    with pytest.raises(UnsupportedOperationError):
        ar.gl_encode(ar.Matrix.identity(ar.tropical(), 2))


def test_gl_coordinates_validation():
    p2 = ar.powerset(2)
    atoms = ar.max_orthogonal_decomposition(p2)
    ident = ar.Permutation.identity(2)
    with pytest.raises(ValueError, match="not a unit"):
        ar.GlCoordinates(p2, [frozenset({1}), frozenset({1, 2})], atoms, [ident, ident])
    with pytest.raises(ValueError, match="per atom"):
        ar.GlCoordinates(p2, [p2.one, p2.one], atoms, [ident])


def test_refinement_property_powerset3():
    """Every orthogonal decomposition's parts are sums of maximal atoms."""
    p3 = ar.powerset(3)
    maximal = ar.max_orthogonal_decomposition(p3)
    decomps = ar.orth_decomp_search(p3)
    assert len(decomps) == 5  # one per set partition of the three atoms
    assert maximal in decomps
    for dec in decomps:
        for part in dec.parts:
            touching = [a for a in maximal.parts if p3.mul(a, part) != p3.zero]
            total = p3.zero
            for a in touching:
                total = p3.add(total, a)
            assert total == part
    assert max(d.length for d in decomps) == maximal.length


def test_invertibility_failure_reports_nonunit_diagonal():
    s = ar.chain(3)
    a = ar.Matrix.diagonal(s, [1, 2])  # 1 is not a unit in chain(3)
    msg = ar.invertibility_failure(a)
    assert msg is not None and "not a unit" in msg


def test_tropical_off_diagonal_failure():
    t = ar.tropical()
    a = ar.Matrix(t, [[0, 0], [ar.INF, 0]])
    assert not ar.is_invertible(a)
    assert "off the diagonal" in ar.invertibility_failure(a)


def two_product_failure(a):
    """The definition read off two full products, A @ A^T then A^T @ A: per
    row the off-diagonal entries in column order, then the diagonal."""
    sr = a.semiring
    at = a.transpose()
    for name, prod in (("A*A^T", a @ at), ("A^T*A", at @ a)):
        for i, row in enumerate(prod.rows, 1):
            for j, v in enumerate(row, 1):
                if j != i and v != sr.zero:
                    return f"({name})({i},{j}) = {sr.format_element(v)} is nonzero off the diagonal"
            if sr.unit_inverse(row[i - 1]) is None:
                return f"({name})({i},{i}) = {sr.format_element(row[i - 1])} is not a unit"
    return None


def seeded_3x3(sr, rng, trials):
    """Random 3x3 matrices, and monomial ones with a stray entry one time in three."""
    for trial in range(trials):
        if trial % 2:
            a = random_matrix(sr, 3, rng)
        else:
            rows = [[sr.zero] * 3 for _ in range(3)]
            for i, j in enumerate(random_permutation(3, rng).images):
                rows[i][j - 1] = random_nonzero(sr, rng)
            if trial % 3 == 0:
                rows[rng.randrange(3)][rng.randrange(3)] = random_nonzero(sr, rng)
            a = ar.Matrix(sr, rows)
        yield a


def test_invertibility_failure_messages_match_the_two_product_reference():
    a = ar.Matrix(ar.chain(3), [[1, 1], [1, 0]])
    assert ar.invertibility_failure(a) == "(A*A^T)(1,2) = 1 is nonzero off the diagonal"
    cases = [*enumerate_matrices(ar.chain(3), 2), *enumerate_matrices(ar.powerset(2), 2)]
    rng = random.Random(23)
    cases += [*seeded_3x3(ar.tropical(), rng, 300), *seeded_3x3(ar.naturals(), rng, 300)]
    kinds = set()
    for a in cases:
        msg = two_product_failure(a)
        assert ar.invertibility_failure(a) == msg, a
        kinds.add(msg and msg.endswith("not a unit"))
    # invertible, a nonzero off the diagonal, a diagonal non-unit
    assert kinds == {None, False, True}


def test_gl_with_three_atoms():
    # powerset(3) has three atoms, so GL_2 carries three permutation slots
    p3 = ar.powerset(3)
    gl = ar.enumerate_gl(p3, 2)
    assert len(gl) == 8  # (2!)^3, trivial units
    seen = set()
    for a in gl:
        coords = ar.gl_encode(a)
        assert len(coords.perms) == 3
        assert ar.gl_decode(coords) == a
        seen.add((coords.units, coords.perms))
    assert len(seen) == 8


def test_boolean_n3_gl_members_are_exactly_permutation_matrices():
    b = ar.boolean()
    gl = ar.enumerate_gl(b, 3)
    expected = {ar.permutation_matrix(p, b) for p in ar.Permutation.lexicographic(3)}
    assert set(gl) == expected


@pytest.mark.parametrize("name,seed", [("tropical", 21), ("naturals", 22)])
def test_atom_test_agrees_with_definition_monomial(name, seed):
    """Seeded D * P matrices over infinite entire carriers, each with a near
    miss: one extra nonzero at a zero position."""
    sr = builtin(name)
    rng = random.Random(seed)
    for _ in range(100):
        n = rng.randint(2, 7)
        units = [rng.randrange(-20, 21) if name == "tropical" else 1 for _ in range(n)]
        perm = random_permutation(n, rng)
        a = ar.Matrix.diagonal(sr, units) @ ar.permutation_matrix(perm, sr)
        assert ar.is_invertible(a) and ar.invertibility_failure(a) is None
        fact = ar.factorize_invertible(a)
        assert fact.diag == tuple(units)
        assert fact.terms == ((sr.one, perm),)
        assert fact.reconstruct() == a
        b = ar.invert(a)
        ident = ar.Matrix.identity(sr, n)
        assert a @ b == ident and b @ a == ident

        rows = [list(row) for row in a.rows]
        i, j = rng.choice([(i, j) for i in range(n) for j in range(n) if rows[i][j] == sr.zero])
        rows[i][j] = random_nonzero(sr, rng)
        near = ar.Matrix(sr, rows)
        assert not ar.is_invertible(near)
        assert ar.invertibility_failure(near) is not None
        with pytest.raises(NotInvertibleError):
            ar.factorize_invertible(near)


def test_multi_atom_factorization_without_matching_search():
    """{1}*I + {2}*P over powerset:2, P made of 32 disjoint transpositions.

    The row supports admit 2^32 perfect matchings, so a search over them
    would not finish; the atom algorithm reads both permutations off.
    """
    p2 = ar.powerset(2)
    n = 64
    ident = ar.Permutation.identity(n)
    swap = ar.Permutation(i + 1 if i % 2 else i - 1 for i in range(1, n + 1))
    rows = [[frozenset()] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = frozenset({1})
        rows[i][swap(i + 1) - 1] = frozenset({2})
    a = ar.Matrix(p2, rows)

    fact = ar.factorize_invertible(a)
    assert fact.diag == (p2.one,) * n
    assert fact.terms == ((frozenset({1}), ident), (frozenset({2}), swap))
    assert ar.invert(a) == a  # swap is an involution, so a is its own inverse
    coords = ar.gl_encode(a)
    assert coords.units == (p2.one,) * n
    assert coords.perms == (ident, swap)
    assert ar.gl_decode(coords) == a


def test_relabeled_powerset3_factorizes_to_the_image():
    p3 = ar.powerset(3)
    ts, index = relabeled(p3, P3_LABELS)
    assert ts.atoms is ts.atoms  # refined once, then cached on the instance
    assert ar.max_orthogonal_decomposition(ts).parts == tuple(
        sorted(index[e] for e in ar.max_orthogonal_decomposition(p3).parts)
    )
    rng = random.Random(23)
    atoms = ar.max_orthogonal_decomposition(p3).parts
    for n in (1, 3, 5, 8):
        perms = [random_permutation(n, rng) for _ in atoms]
        rows = [[p3.zero] * n for _ in range(n)]
        for e, p in zip(atoms, perms):
            for i in range(n):
                rows[i][p(i + 1) - 1] = rows[i][p(i + 1) - 1] | e
        fa = ar.factorize_invertible(ar.Matrix(p3, rows))
        ft = ar.factorize_invertible(ar.Matrix(ts, [[index[v] for v in row] for row in rows]))
        assert ft.diag == tuple(index[d] for d in fa.diag)
        assert ft.terms == tuple((index[c], p) for c, p in fa.terms)


def test_certificate_rejects_a_wrong_inverse_value(monkeypatch):
    """A wrong unit inverse corrupts every entry of B; AB = I must catch it."""
    t = ar.tropical()
    a = ar.Matrix.diagonal(t, [5, -2, 3])
    monkeypatch.setattr(t, "unit_inverse", lambda v: None if v == ar.INF else 1 - v)
    with pytest.raises(RuntimeError, match="AB = BA = I"):
        ar.invert(a)


@pytest.mark.parametrize("name", ["tropical", "powerset2"])
def test_certificate_rejects_a_stray_inverse_entry(monkeypatch, name):
    """One extra nonzero in B, off its support: the certificate reads B's
    entries, so it sees the entry the construction did not place.  B is the
    transpose of the sparse rebuild, so the stray entry goes into the rows
    ``_rebuild`` returns."""
    sr = builtin(name)
    rng = random.Random(31)
    n = 6
    if name == "tropical":
        a = ar.Matrix.diagonal(sr, [3, -1, 0, 7, 2, -4]) @ ar.permutation_matrix(
            random_permutation(n, rng), sr)
    else:
        a = ar.Matrix(sr, [
            [frozenset({1}) if j == i else frozenset({2}) if j == (i + 1) % n else frozenset()
             for j in range(n)]
            for i in range(n)
        ])
    build = invertibility._rebuild

    def corrupted(*args):
        rows = [list(row) for row in build(*args)]
        j = next(j for j, v in enumerate(rows[2]) if v == sr.zero)
        rows[2][j] = sr.one
        return tuple(map(tuple, rows))

    assert ar.invert(a) @ a == ar.Matrix.identity(sr, n)
    monkeypatch.setattr(invertibility, "_rebuild", corrupted)
    with pytest.raises(RuntimeError, match="AB = BA = I"):
        ar.invert(a)


def large_invertible(name, n, rng):
    """D * sum_e(e * P_e) at dimension n, one random permutation per atom."""
    sr = ar.powerset(3) if name == "powerset3" else builtin(name)
    atoms = ar.max_orthogonal_decomposition(sr).parts if name == "powerset3" else (sr.one,)
    units = [rng.randrange(-20, 21) if name == "tropical" else sr.one for _ in range(n)]
    rows = [[sr.zero] * n for _ in range(n)]
    for e in atoms:
        p = random_permutation(n, rng)
        for i in range(n):
            j = p(i + 1) - 1
            rows[i][j] = e if rows[i][j] == sr.zero else sr.add(rows[i][j], e)
    rows = [[sr.mul(d, v) for v in row] for d, row in zip(units, rows)]
    return sr, ar.Matrix(sr, rows)


LARGE_CASES = [("naturals", 256), ("tropical", 256), ("powerset3", 48)]


@pytest.mark.parametrize("name,n", LARGE_CASES)
def test_large_sparse_inverse_and_factorization(name, n):
    sr, a = large_invertible(name, n, random.Random(n))
    b = ar.invert(a)
    ident = ar.Matrix.identity(sr, n)
    assert a @ b == ident and b @ a == ident
    assert ar.factorize_invertible(a).reconstruct() == a


@pytest.mark.parametrize("name", ["naturals", "tropical", "powerset3"])
def test_large_near_miss_refuses_by_structure(name):
    rng = random.Random(41)
    sr, a = large_invertible(name, 256, rng)
    rows = [list(row) for row in a.rows]
    i = rng.randrange(256)
    j = rng.choice([j for j, v in enumerate(rows[i]) if v == sr.zero])
    rows[i][j] = random_nonzero(sr, rng)
    near = ar.Matrix(sr, rows)
    assert ar.invertibility_failure(near) is not None and not ar.is_invertible(near)
    calls = [ar.invert, ar.factorize_invertible] + ([ar.gl_encode] if name == "powerset3" else [])
    for call in calls:
        with pytest.raises(NotInvertibleError) as info:
            call(near)
        assert re.search(rf"\brow {i + 1}\b", info.value.reason), info.value.reason
        assert str(info.value) == f"matrix is not invertible: {info.value.reason}"


E = frozenset()
#: (carrier, rows, reason): one matrix per reachable condition of the form
#: D * sum_e(e * P_e) and carrier; an atom meets a row twice only when 1 has
#: two atoms or more, as a row of a single-atom carrier holds one nonzero.
STRUCTURAL_REFUSALS = [
    ("boolean", [[1, 1], [0, 1]], "row 1 has 2 nonzeros for 1 atom(s) of 1"),
    ("chain:3", [[2, 0, 0], [0, 1, 2], [0, 0, 2]], "row 2 has 2 nonzeros for 1 atom(s) of 1"),
    ("powerset:2", [[{1}, {2}, E], [{1}, {2}, {1}], [E, E, {1, 2}]],
     "row 2 has 3 nonzeros for 2 atom(s) of 1"),
    ("chain:3", [[2, 0], [0, 1]], "row 2 sums to 1, which is not a unit"),
    ("powerset:2", [[{1}, E], [E, {1, 2}]], "row 1 sums to {1}, which is not a unit"),
    ("boolean", [[1, 0], [0, 0]], "row 2 sums to 0, which is not a unit"),
    ("chain:3", [[0, 0], [0, 2]], "row 1 sums to 0, which is not a unit"),
    ("powerset:2", [[{1, 2}, E], [E, E]], "row 2 sums to {}, which is not a unit"),
    ("powerset:2", [[{1}, {2}], [{1, 2}, {1}]], "atom {1} meets row 2 in 2 entries"),
    ("boolean", [[1, 0], [1, 0]], "atom 1 meets column 1 in rows 1 and 2"),
    ("chain:3", [[0, 2, 0], [2, 0, 0], [0, 2, 0]], "atom 2 meets column 2 in rows 1 and 3"),
    ("powerset:2", [[{1}, {2}], [{1, 2}, E]], "atom {1} meets column 1 in rows 1 and 2"),
]


@pytest.mark.parametrize("desc,rows,reason", STRUCTURAL_REFUSALS)
def test_structural_refusal_names_the_broken_condition(desc, rows, reason):
    a = ar.Matrix(ar.parse_semiring(desc), rows)
    assert not ar.is_invertible(a) and ar.invertibility_failure(a) is not None
    for call in (ar.invert, ar.factorize_invertible, ar.gl_encode):
        with pytest.raises(NotInvertibleError) as info:
            call(a)
        assert info.value.reason == reason
        assert str(info.value) == f"matrix is not invertible: {reason}"


def test_refusal_runs_no_oracle_and_no_dense_product(monkeypatch):
    cases = [(ar.Matrix(ar.parse_semiring(desc), rows), reason)
             for desc, rows, reason in STRUCTURAL_REFUSALS]

    def forbidden(*args):
        raise AssertionError("the refusal path ran the oracle or a dense product")

    monkeypatch.setattr(invertibility, "invertibility_failure", forbidden)
    monkeypatch.setattr(ar.Matrix, "__matmul__", forbidden)
    for a, reason in cases:
        assert not ar.is_invertible(a)
        for call in (ar.invert, ar.factorize_invertible, ar.gl_encode):
            with pytest.raises(NotInvertibleError, match=re.escape(reason)):
                call(a)
