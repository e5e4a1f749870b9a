import math
import random

import pytest

import antiring as ar
from antiring import squarezero
from antiring.errors import BudgetExceededError, NotNilpotentError, PreconditionError

from conftest import (
    all_boolean_matrices,
    builtin,
    five_element_lattice,
    layered_matrices,
    random_matrix,
    random_nilpotent,
    random_nonzero,
)


def check_path_incidence_free(coloring):
    incoming = {}
    outgoing = {}
    for (u, v), c in dict(coloring.colors).items():
        outgoing.setdefault(u, set()).add(c)
        incoming.setdefault(v, set()).add(c)
    for v in set(incoming) | set(outgoing):
        assert not incoming.get(v, set()) & outgoing.get(v, set())


def test_tournament_coloring_small():
    c2 = ar.tournament_coloring(2)
    assert c2.num_colors == 1 and dict(c2.colors) == {(1, 2): 1}
    assert ar.tournament_coloring(1).num_colors == 0
    assert ar.tournament_coloring(5).num_colors == 3
    assert ar.tournament_coloring(8).num_colors == 3
    assert ar.tournament_coloring(9).num_colors == 4


def test_tournament_coloring_n4_classes():
    classes = ar.tournament_coloring(4).color_classes()
    assert classes[1] == {(1, 2), (3, 4)}
    assert classes[2] == {(1, 3), (1, 4), (2, 3), (2, 4)}


def test_tournament_coloring_path_incidence_free_up_to_33():
    for n in (2, 3, 5, 8, 16, 33):
        coloring = ar.tournament_coloring(n)
        check_path_incidence_free(coloring)
        # all declared colors are used
        assert set(dict(coloring.colors).values()) == set(range(1, coloring.num_colors + 1))


def test_capacity_values():
    assert [ar.tracezero_capacity(n) for n in range(1, 8)] == [0, 2, 3, 4, 4, 4, 5]
    assert ar.tracezero_max_dimension(4) == 6
    assert [ar.tracezero_max_dimension(k) for k in range(7)] == [1, 1, 2, 3, 6, 10, 20]


def test_capacity_and_max_dimension_are_adjoint():
    # capacity is the least k covering n, so round trips hold where the
    # central binomials strictly step up
    for k in range(2, 11):
        assert ar.tracezero_capacity(ar.tracezero_max_dimension(k)) == k
    for n in range(1, 1001):
        assert ar.tracezero_max_dimension(ar.tracezero_capacity(n)) >= n


def test_capacity_steps_the_central_binomial():
    # the incremental step against math.comb, and an n of 4001 digits at once
    for n in (2, 7, 10**6, 10**40):
        big_n = ar.tracezero_capacity(n)
        assert math.comb(big_n, (big_n + 1) // 2) >= n > math.comb(big_n - 1, big_n // 2)
    assert ar.tracezero_capacity(10**4000) == 13295


def test_huge_max_dimension_is_refused_before_any_arithmetic():
    assert ar.tracezero_max_dimension(30) == 155117520
    with pytest.raises(BudgetExceededError) as exc:
        ar.tracezero_max_dimension(10**7)
    assert exc.value.required == 10**7 and "10000000 bits" in str(exc.value)


def test_complete_digraph_coloring_classes_n3():
    classes = ar.complete_digraph_coloring(3).color_classes()
    assert classes[1] == {(1, 3), (2, 3)}
    assert classes[2] == {(1, 2), (3, 2)}
    assert classes[3] == {(2, 1), (3, 1)}


def test_complete_digraph_coloring_sizes():
    c = ar.complete_digraph_coloring(2)
    assert c.num_colors == 2
    assert dict(c.colors)[(1, 2)] != dict(c.colors)[(2, 1)]
    assert ar.complete_digraph_coloring(6).num_colors == 4
    for n in (2, 3, 4, 5, 6, 10):
        coloring = ar.complete_digraph_coloring(n)
        check_path_incidence_free(coloring)
        assert set(dict(coloring.colors).values()) == set(range(1, coloring.num_colors + 1))


def test_edge_coloring_validation():
    g = ar.Digraph(3, {(1, 2), (2, 3)})
    with pytest.raises(ValueError, match="in-edge and an out-edge"):
        ar.EdgeColoring(g, {(1, 2): 1, (2, 3): 1}, 1)
    with pytest.raises(ValueError, match="exactly"):
        ar.EdgeColoring(g, {(1, 2): 1}, 1)
    with pytest.raises(ValueError, match="outside"):
        ar.EdgeColoring(g, {(1, 2): 1, (2, 3): 5}, 2)
    ok = ar.EdgeColoring(g, {(1, 2): 1, (2, 3): 2}, 2)
    assert ok.color_classes()[1] == {(1, 2)}


def test_min_coloring_search_sharpness():
    assert ar.min_coloring_search(ar.transitive_tournament(5), 2) is None
    assert ar.min_coloring_search(ar.transitive_tournament(3), 1) is None
    assert ar.min_coloring_search(ar.transitive_tournament(5), 3) is not None
    assert ar.min_coloring_search(ar.complete_digraph(3), 2) is None
    found = ar.min_coloring_search(ar.complete_digraph(3), 3)
    assert found is not None
    check_path_incidence_free(found)
    assert ar.min_coloring_search(ar.complete_digraph(2), 1) is None


def test_min_coloring_search_empty_graph_zero_colors():
    g = ar.Digraph(3, set())
    found = ar.min_coloring_search(g, 0)
    assert found is not None and dict(found.colors) == {}


def test_min_coloring_search_budget_guard():
    g = ar.complete_digraph(4)  # 12 edges
    with pytest.raises(BudgetExceededError) as exc:
        ar.min_coloring_search(g, 10)
    assert exc.value.required == 10**12
    assert "search space 10^12 = 1000000000000 exceeds budget" in str(exc.value)


def test_min_coloring_search_refuses_a_huge_space_without_building_it():
    # 3^11175 has 5332 digits, past the int-to-str limit: worded, not printed
    with pytest.raises(BudgetExceededError) as exc:
        ar.min_coloring_search(ar.transitive_tournament(150), 3)
    assert exc.value.required is None
    assert "search space 3^11175 exceeds budget" in str(exc.value)


def test_min_coloring_search_words_a_base_too_long_to_print():
    with pytest.raises(BudgetExceededError) as exc:
        ar.min_coloring_search(ar.transitive_tournament(3), 10**5000)
    assert exc.value.required is None
    assert str(exc.value) == "search space more than 100000000 exceeds budget 100000000"


def test_min_coloring_search_sizes_its_counters_by_the_edges():
    # no edge, so nothing to color: the counters hold one slot, not 10^5000 + 1
    found = ar.min_coloring_search(ar.Digraph(2, ()), 10**5000)
    assert found is not None and found.colors == () and found.num_colors == 10**5000


def test_min_coloring_search_deterministic():
    g = ar.transitive_tournament(4)
    a = ar.min_coloring_search(g, 2)
    b = ar.min_coloring_search(g, 2)
    assert a is not None and a.colors == b.colors


def _colorable_by_dumb_search(g, c):
    # assign every edge every color, no pruning: the independent oracle
    import itertools

    edges = sorted(g.edges)
    for assignment in itertools.product(range(1, c + 1), repeat=len(edges)):
        incoming = {}
        outgoing = {}
        ok = True
        for (u, v), col in zip(edges, assignment):
            outgoing.setdefault(u, set()).add(col)
            incoming.setdefault(v, set()).add(col)
        for v in set(incoming) | set(outgoing):
            if incoming.get(v, set()) & outgoing.get(v, set()):
                ok = False
                break
        if ok:
            return True
    return False


def test_min_coloring_search_star_needs_no_recursion():
    # one color: the state bound is 1^e = 1, and the search walks all 1499 edges
    n = 1500
    g = ar.Digraph(n, {(1, j) for j in range(2, n + 1)})
    found = ar.min_coloring_search(g, 1)
    assert found is not None and set(dict(found.colors).values()) == {1}
    check_path_incidence_free(found)


def test_min_coloring_search_against_dumb_oracle():
    rng = random.Random(18)
    for trial in range(40):
        n = rng.randint(2, 5)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        edges = frozenset(e for e in pairs if rng.random() < 0.4)
        if len(edges) > 7:
            continue
        g = ar.Digraph(n, edges)
        for c in (1, 2, 3):
            found = ar.min_coloring_search(g, c)
            assert (found is not None) == _colorable_by_dumb_search(g, c)
            if found is not None:
                check_path_incidence_free(found)


def test_decompose_full_upper_n4():
    b = ar.boolean()
    a = ar.Matrix(b, [[0, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 0, 0]])
    dec = ar.decompose_nilpotent(a)
    assert len(dec) == 2
    assert dec.summands[0].support() == {(1, 2), (3, 4)}
    assert dec.summands[1].support() == {(1, 3), (1, 4), (2, 3), (2, 4)}


def test_decompose_one_by_one_zero():
    for sr in (ar.boolean(), ar.tropical()):
        assert len(ar.decompose_nilpotent(ar.Matrix.zeros(sr, 1))) == 0
        assert len(ar.decompose_trace_zero(ar.Matrix.zeros(sr, 1))) == 0


def test_decompose_nilpotent_refuses_zero_divisors_at_every_n():
    # the levels need atoms of 1 with entire components, whatever the dimension
    for n in (1, 2):
        with pytest.raises(PreconditionError, match="decompose_nilpotent.*lattice5"):
            ar.decompose_nilpotent(ar.Matrix.zeros(five_element_lattice(), n))


def test_decompose_shift_n8():
    b = ar.boolean()
    rows = [[1 if j == i + 1 else 0 for j in range(8)] for i in range(8)]
    dec = ar.decompose_nilpotent(ar.Matrix(b, rows))
    assert len(dec) <= 3


def test_decompose_nilpotent_exhaustive_boolean_n3():
    bound = 2  # ceil(log2 3)
    count = 0
    for a in all_boolean_matrices(3):
        if ar.is_nilpotent(a):
            count += 1
            dec = ar.decompose_nilpotent(a)  # constructor checks squares and sum
            assert len(dec) <= bound
    assert count == 25


def test_decompose_nilpotent_random_large():
    rng = random.Random(15)
    for name in ("chain3", "tropical"):
        sr = builtin(name)
        for _ in range(10):
            n = rng.choice([9, 17, 32])
            a = random_nilpotent(sr, n, rng)
            dec = ar.decompose_nilpotent(a)
            assert len(dec) <= (n - 1).bit_length()


def test_decompose_nilpotent_requires_entire():
    # nilpotent through a*b = 0, but the lattice's one component is not entire
    m = ar.Matrix(five_element_lattice(), [[0, 1], [2, 0]])
    assert ar.is_nilpotent(m)
    with pytest.raises(PreconditionError, match="entire"):
        ar.decompose_nilpotent(m)


def test_decompose_nilpotent_over_split_carriers():
    p2 = ar.powerset(2)
    # each atom's layer is one edge, so one summand holds the whole 2-cycle
    m = ar.Matrix(p2, [[set(), {1}], [{2}, set()]])
    assert list(ar.decompose_nilpotent(m)) == [m]
    rng = random.Random(26)
    decomposed = 0
    for a in layered_matrices(rng, 60):
        h = next((h for h in range(1, a.n + 1) if (a**h).is_zero()), None)
        if h is None:
            with pytest.raises(NotNilpotentError):
                ar.decompose_nilpotent(a)
            continue
        summands = list(ar.decompose_nilpotent(a))
        assert len(summands) <= (h - 1).bit_length()  # ceil(log2 h)
        ar.SquareZeroDecomposition(a, summands)
        total = ar.Matrix.zeros(a.semiring, a.n)
        for b in summands:
            assert (b @ b).is_zero()
            total = total + b
        assert total == a
        decomposed += 1
    assert decomposed > 60


def test_summand_digraphs_have_no_two_paths():
    rng = random.Random(16)
    for name in ("boolean", "chain3", "tropical"):
        sr = builtin(name)
        a = random_nilpotent(sr, 12, rng)
        for b in ar.decompose_nilpotent(a):
            assert ar.longest_path(ar.digraph_of(b)) <= 1
    p2 = ar.powerset(2)
    m = ar.Matrix(p2, [[set(), {1}], [{2}, set()]])
    for b in ar.decompose_trace_zero(m):
        assert ar.longest_path(ar.digraph_of(b)) <= 1


def test_trace_zero_generic_3x3_matches_the_classic_splitting():
    s = ar.naturals()
    a = ar.Matrix(s, [[0, 1, 2], [3, 0, 4], [5, 6, 0]])
    dec = ar.decompose_trace_zero(a)
    supports = {b.support() for b in dec}
    assert supports == {
        frozenset({(1, 2), (3, 2)}),
        frozenset({(1, 3), (2, 3)}),
        frozenset({(2, 1), (3, 1)}),
    }


def test_trace_zero_n2_upper_plus_lower():
    s = ar.chain(4)
    a = ar.Matrix(s, [[0, 2], [3, 0]])
    dec = ar.decompose_trace_zero(a)
    assert len(dec) == 2
    assert {b.support() for b in dec} == {frozenset({(1, 2)}), frozenset({(2, 1)})}


def test_trace_zero_non_entire_succeeds():
    p2 = ar.powerset(2)
    m = ar.Matrix(p2, [[set(), {1}], [{2}, set()]])
    dec = ar.decompose_trace_zero(m)
    assert len(dec) == 2


def test_trace_zero_random_bounds():
    rng = random.Random(17)
    for name in ("boolean", "powerset2"):
        sr = builtin(name)
        for _ in range(25):
            n = rng.randint(1, 8)
            rows = [
                [
                    sr.zero if i == j or rng.random() < 0.4 else random_nonzero(sr, rng)
                    for j in range(n)
                ]
                for i in range(n)
            ]
            dec = ar.decompose_trace_zero(ar.Matrix(sr, rows))
            assert len(dec) <= ar.tracezero_capacity(n)


def test_trace_zero_rejects_nonzero_diagonal():
    s = ar.chain(3)
    with pytest.raises(PreconditionError, match=r"A\(2,2\)"):
        ar.decompose_trace_zero(ar.Matrix(s, [[0, 1], [1, 2]]))


def test_square_zero_decomposition_validation():
    b = ar.boolean()
    a = ar.Matrix(b, [[0, 1], [0, 0]])
    not_square_zero = ar.Matrix(b, [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="square"):
        ar.SquareZeroDecomposition(a, [not_square_zero])
    with pytest.raises(ValueError, match="sum"):
        ar.SquareZeroDecomposition(a, [])
    with pytest.raises(ValueError, match="sum"):
        ar.SquareZeroDecomposition(a, [ar.Matrix(b, [[0, 0], [1, 0]])])
    with pytest.raises(ValueError, match="semiring mismatch"):
        ar.SquareZeroDecomposition(a, [ar.Matrix(ar.chain(3), [[0, 2], [0, 0]])])
    with pytest.raises(ValueError, match="dimension mismatch"):
        ar.SquareZeroDecomposition(a, [ar.Matrix.zeros(b, 3)])
    ok = ar.SquareZeroDecomposition(a, [a])
    assert list(ok) == [a]
    assert len(ar.SquareZeroDecomposition(a, [a, a])) == 2  # 1 + 1 = 1
    s = ar.naturals()
    parts = [ar.Matrix(s, [[0, k], [0, 0]]) for k in (1, 2)]
    assert len(ar.SquareZeroDecomposition(ar.Matrix(s, [[0, 3], [0, 0]]), parts)) == 2
    with pytest.raises(ValueError, match="sum"):
        ar.SquareZeroDecomposition(ar.Matrix(s, [[0, 2], [0, 0]]), parts)

    # where 1 + 1 = 0 the sum of two equal summands is the zero matrix
    z2 = ar.table_semiring(ar.FiniteTables(
        size=2, add_table=((0, 1), (1, 0)), mul_table=((0, 0), (0, 1)),
        zero_index=0, one_index=1,
    ))
    e12 = ar.Matrix(z2, [[0, 1], [0, 0]])
    assert len(ar.SquareZeroDecomposition(ar.Matrix.zeros(z2, 2), [e12, e12])) == 2
    with pytest.raises(ValueError, match="sum"):
        ar.SquareZeroDecomposition(ar.Matrix.zeros(z2, 2), [e12])

    # over powerset:2 a 2-cycle squares to zero through zero divisors
    p2 = ar.powerset(2)
    m = ar.Matrix(p2, [[set(), {1}], [{2}, set()]])
    assert len(ar.SquareZeroDecomposition(m, [m])) == 1
    cyclic = ar.Matrix(p2, [[set(), {1}], [{1}, set()]])
    with pytest.raises(ValueError, match="square"):
        ar.SquareZeroDecomposition(cyclic, [cyclic])


@pytest.mark.parametrize("change", ["value", "stray"])
def test_verification_reads_the_summands_it_is_given(monkeypatch, change):
    """A builder that alters one entry of one summand is caught: the
    verification reads each summand's own entries, not the buckets."""
    split = squarezero._split_by_color

    def corrupted(matrix, color):
        summands = split(matrix, color)
        sr = matrix.semiring
        rows = [list(row) for row in summands[0].rows]
        # a nonzero of the summand gets another value, or a zero of the
        # source gets a nonzero: either way the sum no longer matches
        i, j = next(
            (i, j) for i, row in enumerate(rows) for j, v in enumerate(row)
            if (v != sr.zero if change == "value" else matrix.rows[i][j] == sr.zero)
        )
        rows[i][j] = 1 if rows[i][j] == 2 else 2
        summands[0] = ar.Matrix(sr, rows)
        return summands

    sr = ar.chain(3)
    a = random_nilpotent(sr, 8, random.Random(22))
    trace_zero = random_matrix(sr, 8, random.Random(23))
    trace_zero = ar.Matrix(sr, [
        [sr.zero if i == j else v for j, v in enumerate(row)]
        for i, row in enumerate(trace_zero.rows)
    ])
    ar.decompose_nilpotent(a)
    ar.decompose_trace_zero(trace_zero)
    monkeypatch.setattr(squarezero, "_split_by_color", corrupted)
    with pytest.raises(ValueError):
        ar.decompose_nilpotent(a)
    with pytest.raises(ValueError):
        ar.decompose_trace_zero(trace_zero)


def _full_coloring_split(matrix, coloring):
    """The construction the decompositions used before they colored only the
    support: restrict to each class of the full coloring, drop empty pieces."""
    z = matrix.semiring.zero
    pieces = []
    for _, edges in sorted(coloring.color_classes().items()):
        rows = [
            [v if (i, j) in edges else z for j, v in enumerate(row, start=1)]
            for i, row in enumerate(matrix.rows, start=1)
        ]
        piece = ar.Matrix(matrix.semiring, rows)
        if not piece.is_zero():
            pieces.append(piece)
    return pieces


def _levels_by_powers(a):
    """level(v) for a nilpotent A over an entire carrier: the largest h with
    column v of A^h nonzero (A^0 = I), from the matrix powers alone."""
    n, z = a.n, a.semiring.zero
    levels = [0] * n
    power = a
    for h in range(1, n):
        for v in range(n):
            if any(row[v] != z for row in power.rows):
                levels[v] = h
        power = power @ a
    return levels


def _greedy_label_coloring(t):
    """The trace-zero coloring of D(t) under greedy vertex labels: vertices
    taken by degree in the underlying graph, most first, ties by index, each
    given the least color unused by a neighbor; edge (i, j) then gets the
    color of edge (color(i), color(j)) of the complete digraph coloring on
    the colors used."""
    g = ar.digraph_of(t)
    neighbors = {v: set() for v in range(1, t.n + 1)}
    for (i, j) in g.edges:
        neighbors[i].add(j)
        neighbors[j].add(i)
    color = {}
    for v in sorted(neighbors, key=lambda v: (-len(neighbors[v]), v)):
        color[v] = min(set(range(1, t.n + 1)) - {color.get(w) for w in neighbors[v]})
    used = max(color.values())
    labels = ar.complete_digraph_coloring(used) if used > 1 else None
    label_colors = dict(labels.colors) if labels else {}
    colors = {(i, j): label_colors[(color[i], color[j])] for (i, j) in g.edges}
    return ar.EdgeColoring(g, colors, labels.num_colors if labels else 0)


def test_decompositions_equal_the_full_coloring_construction():
    rng = random.Random(21)
    for name in ("boolean", "chain3", "tropical", "naturals", "powerset2"):
        sr = builtin(name)
        for _ in range(15):
            n = rng.randint(2, 12)
            t = random_matrix(sr, n, rng)
            t = ar.Matrix(sr, [
                [sr.zero if i == j else v for j, v in enumerate(row)]
                for i, row in enumerate(t.rows)
            ])
            dec = list(ar.decompose_trace_zero(t))
            assert dec == _full_coloring_split(t, _greedy_label_coloring(t))
            # the labels by vertex index, which the greedy labels replaced
            assert len(dec) <= len(_full_coloring_split(t, ar.complete_digraph_coloring(n)))
            if not sr.is_entire:
                continue
            a = random_nilpotent(sr, n, rng, density=rng.choice((0.1, 0.5, 0.9)))
            levels = _levels_by_powers(a)
            h = max(levels) + 1
            bound = (h - 1).bit_length()  # ceil(log2 h)
            by_levels = ar.EdgeColoring(ar.digraph_of(a), {
                (i, j): (levels[i - 1] ^ levels[j - 1]).bit_length() for (i, j) in a.support()
            }, bound)
            dec = list(ar.decompose_nilpotent(a))
            assert dec == _full_coloring_split(a, by_levels)
            assert len(dec) <= bound
            # the split by topological position, which the levels replaced
            upper, _ = ar.triangularize(a)
            assert len(dec) <= len(_full_coloring_split(upper, ar.tournament_coloring(n)))
