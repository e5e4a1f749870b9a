"""Square-zero decompositions through arc colorings.

A matrix B squares to zero whenever its digraph has no path of length 2, that
is, no index is both a row and a column of its support.  So splitting a
matrix along the classes of a path-incidence-free edge coloring (no vertex
carries a same-colored in-edge and out-edge) yields square-zero summands.
Both colorings used here are closed-form in labels of an edge's endpoints,
so a decomposition colors only the support: O(n^2) to read it with
``Matrix.nonzeros()``, then O(n + e) to label, color and bucket it, with no
matrix product.  The verification reads each summand's own nonzeros the same
way.

* Nilpotent matrices over carriers whose atoms of 1 have entire components
  (every entire antiring and every ``powerset:m``): within each layer e*A
  (``nilpotency``), with level(i) the most edges on a path of the layer
  ending at vertex i, edge (i, j) gets the highest bit where level(i) and
  level(j) differ.  The levels run 0..h-1 for h the nilpotency index, so
  that is at most ceil(log2 h) <= ceil(log2 n) colors.  The layers are
  merged color by color, summand c holding the sum of the e*A(i, j) colored
  c; products across layers vanish because e*e' = 0.
* Trace-zero matrices over any antiring: the vertices of the support's
  underlying graph are colored greedily in order of largest degree
  (Welsh-Powell), ties by index, each taking the smallest color free among
  its neighbors.  With k colors used, vertex i gets the color(i)-th
  ceil(N/2)-subset S of {1..N} in lexicographic order, N =
  tracezero_capacity(k), and edge (i, j) gets min(S_i - S_j): at most
  N <= tracezero_capacity(n) colors, and adjacent vertices never share a
  label.

``tournament_coloring`` and ``complete_digraph_coloring`` apply the same two
formulas to every edge of the transitive tournament (where vertex i has level
i - 1) and of the complete digraph (where the greedy order is the index
order, so vertex i gets S_i), and an exhaustive backtracking search certifies
the sharpness of both color counts.
"""

import itertools

from .dag_counting import tracezero_capacity
from .errors import BudgetExceededError, PreconditionError
from .matrices import Matrix
from .nilpotency import _nilpotent_layers, complete_digraph, transitive_tournament

#: Largest search space min_coloring_search will walk.
MAX_COLORING_STATES = 10**8


class EdgeColoring:
    """A total coloring of a digraph's edges with colors 1..num_colors.

    Valid only when path-incidence-free: no vertex has an in-edge and an
    out-edge of the same color (equivalently: no two consecutive edges share
    a color).
    """

    __slots__ = ("digraph", "colors", "num_colors")

    def __init__(self, digraph, colors, num_colors):
        colors = dict(colors)
        if set(colors) != set(digraph.edges):
            raise ValueError("coloring must assign exactly the digraph's edges")
        for e, c in colors.items():
            if not (isinstance(c, int) and 1 <= c <= num_colors):
                raise ValueError(f"edge {e} has color {c!r} outside 1..{num_colors}")
        incoming = {}
        outgoing = {}
        for (u, v), c in colors.items():
            outgoing.setdefault(u, set()).add(c)
            incoming.setdefault(v, set()).add(c)
        for v in set(incoming) | set(outgoing):
            clash = incoming.get(v, set()) & outgoing.get(v, set())
            if clash:
                raise ValueError(
                    f"vertex {v} has an in-edge and an out-edge of color {min(clash)}"
                )
        self.digraph = digraph
        self.colors = colors
        self.num_colors = num_colors

    def color_classes(self):
        """Map color -> frozenset of edges; every color 1..num_colors is a key."""
        classes = {c: set() for c in range(1, self.num_colors + 1)}
        for e, c in self.colors.items():
            classes[c].add(e)
        return {c: frozenset(es) for c, es in classes.items()}

    def __repr__(self):
        return f"EdgeColoring({self.num_colors} colors, {len(self.colors)} edges)"


def _binary_color(a, b):
    """The color of an edge between the 0-based labels a < b: the position of
    the most significant bit where they differ.

    Along that bit the tail reads 0 and the head reads 1, so no vertex can
    carry a same-colored in-edge and out-edge.
    """
    return (a ^ b).bit_length()


def tournament_coloring(n):
    """Color the transitive tournament with exactly ceil(log2 n) colors.

    Edge (i, j) gets ``_binary_color(i - 1, j - 1)``.
    """
    g = transitive_tournament(n)
    colors = {(i, j): _binary_color(i - 1, j - 1) for (i, j) in g.edges}
    return EdgeColoring(g, colors, (n - 1).bit_length())


def _subset_labels(n):
    """(N, [S_1, ..., S_n]): the first n ceil(N/2)-subsets of {1..N} in
    lexicographic order, for N = tracezero_capacity(n)."""
    big_n = tracezero_capacity(n)
    subsets = itertools.combinations(range(1, big_n + 1), (big_n + 1) // 2)
    return big_n, [frozenset(s) for s in itertools.islice(subsets, n)]


def _subset_color(s, t):
    """The color of an edge from the vertex labeled S to the one labeled T:
    the smallest element of S - T.

    S - T is nonempty since the labels are distinct and equal-sized.  A
    shared color c on consecutive edges (i, j), (j, k) would need both c not
    in S_j and c in S_j.
    """
    return min(s - t)


def complete_digraph_coloring(n):
    """Color the complete digraph with N = tracezero_capacity(n) colors.

    With ``_subset_labels(n)`` as vertex labels, edge (i, j) gets
    ``_subset_color(S_i, S_j)``.
    """
    g = complete_digraph(n)
    big_n, sets = _subset_labels(n)
    colors = {(i, j): _subset_color(sets[i - 1], sets[j - 1]) for (i, j) in g.edges}
    return EdgeColoring(g, colors, big_n)


def min_coloring_search(g, num_colors):
    """Exhaustive search for a path-incidence-free coloring with <= num_colors.

    Returns an EdgeColoring or None; None certifies that the digraph needs
    more colors.  Backtracking over the sorted edge list with incidence
    pruning and ascending first-use of new colors, on an explicit stack, so
    the edge count is not bounded by the recursion limit; the first solution
    in canonical order is returned.  Refuses outright (never truncates) when
    num_colors^edges exceeds MAX_COLORING_STATES; ``required`` is that count
    while it is at most MAX_COLORING_STATES squared, else None.
    """
    edges = sorted(g.edges)
    if num_colors < 0:
        raise ValueError("color count must be >= 0")
    # grown only up to the budget squared, so a huge space is refused in a
    # few dozen steps, with ``required`` exact while it is that small
    states = 1
    for _ in edges:
        states *= num_colors
        if states > MAX_COLORING_STATES ** 2:
            states = None
            break
    if states is None or states > MAX_COLORING_STATES:
        count = f"{num_colors}^{len(edges)}" + ("" if states is None else f" = {states}")
        raise BudgetExceededError(
            f"search space {count} exceeds budget {MAX_COLORING_STATES}", required=states
        )
    # multiplicity counts: several in-edges (or out-edges) of a vertex may
    # legitimately share a color, so unwinding must not erase siblings
    incoming = {v: [0] * (num_colors + 1) for v in range(1, g.n + 1)}
    outgoing = {v: [0] * (num_colors + 1) for v in range(1, g.n + 1)}
    # an explicit stack, one slot per edge: colors[idx] is edge idx's current
    # color (0 before its first try), used[idx] the colors in use before it
    colors = [0] * len(edges)
    used = [0] * (len(edges) + 1)
    idx = 0
    while 0 <= idx < len(edges):
        u, v = edges[idx]
        c = colors[idx]
        if c:  # back from a dead end: take this edge's color off again
            outgoing[u][c] -= 1
            incoming[v][c] -= 1
        cap = min(num_colors, used[idx] + 1)  # colors are interchangeable: try one new color only
        free = (c for c in range(c + 1, cap + 1) if not (incoming[u][c] or outgoing[v][c]))
        c = colors[idx] = next(free, 0)
        if c:
            outgoing[u][c] += 1
            incoming[v][c] += 1
            used[idx + 1] = max(used[idx], c)
        idx += 1 if c else -1
    if idx < 0:
        return None
    return EdgeColoring(g, dict(zip(edges, colors)), num_colors)


class SquareZeroDecomposition:
    """Matrices B_1..B_r with each B_i^2 = 0 and sum(B_i) equal to the source.

    Each summand must match the source's semiring and dimension.  A summand
    passes the square-zero check by structure when no index is both a row and
    a column of its support; only otherwise is B_i @ B_i computed, which
    accepts summands that square to zero through zero divisors.  The sum is
    built sparsely, per row, from each summand's ``nonzeros()`` (read from
    its own rows) and compared with the source's ``nonzeros()``.
    """

    __slots__ = ("source", "summands")

    def __init__(self, source, summands):
        summands = tuple(summands)
        sr = source.semiring
        add, z = sr.add, sr.zero
        total = [{} for _ in range(source.n)]  # per row, column -> sum so far
        for b in summands:
            source._same_shape(b)
            rows, cols = set(), set()
            for i, row in enumerate(b.nonzeros()):
                if row:
                    rows.add(i)
                out = total[i]
                for j, v in row:
                    cols.add(j)
                    out[j] = add(out[j], v) if j in out else v
            if not rows.isdisjoint(cols) and not (b @ b).is_zero():
                raise ValueError("summand does not square to zero")
        # a sum can reach zero where 1 + 1 = 0, so zero sums are dropped
        if any(
            {j: v for j, v in out.items() if v != z} != dict(row)
            for out, row in zip(total, source.nonzeros())
        ):
            raise ValueError("summands do not sum to the source matrix")
        self.source = source
        self.summands = summands

    def __len__(self):
        return len(self.summands)

    def __iter__(self):
        return iter(self.summands)

    def __repr__(self):
        return f"SquareZeroDecomposition({len(self.summands)} summands, n={self.source.n})"


def _split_by_color(matrix, layers):
    """The nonzeros of each (rows, color) layer bucketed by color(i, j)
    (0-based indices), entries landing on the same place of one class
    summed: one summand per color that occurs, in ascending color order."""
    sr = matrix.semiring
    z, add = sr.zero, sr.add
    n = matrix.n
    classes = {}  # color -> {row index: row entries}
    for nonzeros, color in layers:
        for i, row in enumerate(nonzeros):
            for j, v in row:
                rows = classes.setdefault(color(i, j), {})
                if i not in rows:
                    rows[i] = [z] * n
                out = rows[i]
                out[j] = v if out[j] == z else add(out[j], v)
    zero_row = (z,) * n
    return [
        Matrix._make(sr, tuple(tuple(rows[i]) if i in rows else zero_row for i in range(n)))
        for _, rows in sorted(classes.items())
    ]


def decompose_nilpotent(matrix):
    """Split a nilpotent matrix into at most ceil(log2 h) square-zero summands,
    h its nilpotency index (so at most ceil(log2 n)).

    In each layer e*A, edge (i, j) gets ``_binary_color(level(i), level(j))``,
    with level the most edges on a path of the layer ending at a vertex;
    every edge raises the level, and the levels run 0..h-1.  Inside one class
    no two edges of a layer are consecutive and two layers multiply to zero,
    so every term of a squared summand has a zero factor.  Needs the atoms of
    1 to have entire components, so that the layers' levels exist.
    """
    layers = [
        (nonzeros, lambda i, j, level=level: _binary_color(level[i], level[j]))
        for nonzeros, level in _nilpotent_layers(matrix, "decompose_nilpotent")
    ]
    return SquareZeroDecomposition(matrix, _split_by_color(matrix, layers))


def _greedy_colors(nonzeros):
    """A proper vertex coloring 0, 1, ... of the underlying graph of a
    loopless support, greedy in order of largest degree, ties by index."""
    n = len(nonzeros)
    adjacent = [set() for _ in range(n)]
    for i, row in enumerate(nonzeros):
        for j, _ in row:
            adjacent[i].add(j)
            adjacent[j].add(i)
    color = [None] * n
    for v in sorted(range(n), key=lambda v: -len(adjacent[v])):  # stable: ties by index
        taken = {color[w] for w in adjacent[v]}
        c = 0
        while c in taken:
            c += 1
        color[v] = c
    return color


def decompose_trace_zero(matrix):
    """Split a trace-zero matrix into at most tracezero_capacity(n) square-zero
    summands, with no entireness assumption.

    With color(i) from a greedy proper coloring of the support's underlying
    graph and S the first ``_subset_labels`` of the colors used, edge (i, j)
    gets ``_subset_color(S[color(i)], S[color(j)])``.  A nonzero diagonal
    entry is rejected (its digraph has a loop, so the matrix is not a sum of
    nilpotent matrices at all).
    """
    sr = matrix.semiring
    sr.ensure_nilpotent_free()
    for i in range(1, matrix.n + 1):
        v = matrix.entry(i, i)
        if v != sr.zero:
            raise PreconditionError(
                f"diagonal entry A({i},{i}) = {sr.format_element(v)} is nonzero; "
                f"only trace-zero matrices decompose into square-zero summands"
            )
    nonzeros = matrix.nonzeros()
    color = _greedy_colors(nonzeros)
    _, sets = _subset_labels(max(color) + 1)
    labels = [sets[c] for c in color]
    return SquareZeroDecomposition(matrix, _split_by_color(
        matrix, [(nonzeros, lambda i, j: _subset_color(labels[i], labels[j]))]
    ))
