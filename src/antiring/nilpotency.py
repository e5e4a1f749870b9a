"""Nilpotency via digraphs: zero patterns, acyclicity, longest paths,
nilpotency index, and triangularization by vertex reordering.

The digraph of a matrix keeps only its nonzero pattern.  Over an entire
commutative antiring that pattern decides nilpotency: a walk's entry product
is nonzero because there are no zero divisors, and a sum of nonzero products
stays nonzero because the semiring is zerosumfree, so A^h(i, j) != 0 exactly
when the digraph has a walk of length h from i to j.  Hence A is nilpotent
iff its digraph is acyclic, and its index is the longest path + 1.

Both are read off one quantity, each vertex's level: the most edges on a path
ending there.  One pass of Kahn's topological sort over ``Matrix.nonzeros()``
computes the levels, or finds a cycle: O(n^2) to read the support, then
O(n + e).  A is nilpotent iff the levels exist, its index is the highest
level + 1, ordering the vertices by (level, index) triangularizes it, and the
levels label the square-zero split (``squarezero``).  The public digraph
functions run the same pass over a ``Digraph``'s edges.

A carrier whose atoms of 1 all have entire components
(``Semiring.has_entire_components``: every entire carrier, with the one atom
1, and every ``powerset:m``) splits as the product of the e*S, and A^h = 0
iff every layer (e*A)^h = e*A^h is zero.  So the level pass runs once per
layer, on the nonzeros (j, e*v) with e*v != 0 of each row: A is nilpotent
iff every layer is acyclic, and its index is the highest level of any layer
+ 1.  The entire case is the one-layer case, read from ``nonzeros()`` as is.

Over other carriers the pattern does not decide (a 2-cycle whose two entries
multiply to zero is nilpotent), so the matrix powers do.  The power test
A^n = 0 is complete whenever the semiring is zerosumfree with no nonzero
nilpotent elements: a nonzero A^n would contain a length-n walk with nonzero
entry product, the walk repeats a vertex, the cycle's product c has every
power nonzero, and zerosumfreeness keeps every power of A nonzero from then
on.
"""

from dataclasses import dataclass

from .errors import CyclicDigraphError, NotNilpotentError, PreconditionError
from .matrices import Permutation, conjugate_by_permutation


@dataclass(frozen=True)
class Digraph:
    """Vertices 1..n and a set of ordered edges; loops allowed."""

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("digraph needs n >= 1")
        object.__setattr__(self, "edges", frozenset(self.edges))
        for (i, j) in self.edges:
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"edge ({i},{j}) out of range 1..{self.n}")

    def __str__(self):
        return "\n".join(f"{i} -> {j}" for (i, j) in sorted(self.edges))


def transitive_tournament(n):
    """Edges (i, j) for every i < j: the complete acyclic orientation."""
    return Digraph(n, frozenset((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)))


def complete_digraph(n):
    """Both orientations of every pair of distinct vertices."""
    return Digraph(
        n, frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j)
    )


def digraph_of(matrix):
    """The digraph with an edge (i, j) exactly where A(i, j) != 0."""
    return Digraph(matrix.n, matrix.support())


def _levels(out):
    """Kahn's pass over 0-based out-lists of (target, payload) pairs, the shape
    of ``Matrix.nonzeros()``: each vertex's level, the most edges on a path
    ending there, or None when there is a cycle.

    A vertex is taken once all its in-edges are, so its level is final by
    then; a loop keeps its vertex waiting forever, like any cycle.
    """
    indeg = [0] * len(out)
    for targets in out:
        for w, _ in targets:
            indeg[w] += 1
    level = [0] * len(out)
    ready = [v for v, d in enumerate(indeg) if not d]
    for v in ready:  # grows while it is read
        up = level[v] + 1
        for w, _ in out[v]:
            if level[w] < up:
                level[w] = up
            indeg[w] -= 1
            if not indeg[w]:
                ready.append(w)
    return level if len(ready) == len(out) else None


def _digraph_levels(g):
    """The levels of g, 0-based by vertex, or None when g is cyclic."""
    out = [[] for _ in range(g.n)]
    for (i, j) in g.edges:
        out[i - 1].append((j - 1, None))
    return _levels(out)


def _level_order(level):
    """The 1-based vertices sorted stably by level, so ties keep index
    order: every edge runs forward."""
    return Permutation(v + 1 for v in sorted(range(len(level)), key=level.__getitem__))


def topological_order(g):
    """A vertex order placing every edge forward, or None when g is cyclic.

    Returned as a Permutation p with p(k) = the k-th vertex of the order.
    Vertices are ordered by level, the most edges on a path ending there,
    and ties break toward the smallest original vertex index, so the result
    is deterministic.
    """
    level = _digraph_levels(g)
    return None if level is None else _level_order(level)


def is_acyclic(g):
    """True iff g has no directed cycle; a loop counts as a cycle."""
    return _digraph_levels(g) is not None


def longest_path(g):
    """Maximum number of edges on a directed path of an acyclic digraph."""
    level = _digraph_levels(g)
    if level is None:
        raise CyclicDigraphError("longest_path needs an acyclic digraph")
    return max(level)


def _layers(matrix):
    """Per atom e of 1, the nonzeros of the layer e*A: row i keeps (j, e*v)
    for each (j, v) of A's row with e*v != 0.  Under the one atom 1 the
    layer is A's own ``nonzeros()``.  Yielded lazily, so a caller can stop
    at the first cyclic layer.
    """
    sr = matrix.semiring
    nonzeros = matrix.nonzeros()
    parts = sr.atoms.parts
    if len(parts) == 1:
        yield nonzeros
        return
    mul, z = sr.mul, sr.zero
    for e in parts:
        yield [[(j, p) for j, v in row if (p := mul(e, v)) != z] for row in nonzeros]


def is_nilpotent(matrix):
    """True iff A^n = 0 (n the dimension).

    Requires a commutative antiring without nonzero nilpotent elements.  When
    the atoms of 1 have entire components this is "every layer's levels
    exist"; elsewhere it is the power test itself (see the module docstring).
    """
    sr = matrix.semiring
    sr.ensure_nilpotent_free()
    if sr.has_entire_components:
        return all(_levels(layer) is not None for layer in _layers(matrix))
    return (matrix ** matrix.n).is_zero()


def nilpotency_index(matrix):
    """The least h >= 1 with A^h = 0.

    When the atoms of 1 have entire components this is the highest level of
    any layer + 1.  Elsewhere the squares A, A^2, A^4, ... are taken until
    one vanishes, and h is located below it by binary lifting: at most
    2*ceil(log2 h) matmuls, and ceil(log2 n) to refuse a matrix whose powers
    never vanish.
    """
    sr = matrix.semiring
    sr.ensure_nilpotent_free()
    if sr.has_entire_components:
        return max(max(level) for _, level in _nilpotent_layers(matrix, "nilpotency_index")) + 1
    squares = [matrix]  # squares[k] = A^(2^k)
    while not squares[-1].is_zero():
        if 1 << (len(squares) - 1) >= matrix.n:
            # A^m != 0 for some m >= n, so A^n != 0
            raise NotNilpotentError("matrix is not nilpotent")
        squares.append(squares[-1] @ squares[-1])
    # the exponents e with A^e != 0 form a prefix 0..h-1: find its end
    power, e = None, 0  # power = A^e, None standing for the identity
    for k in range(len(squares) - 2, -1, -1):
        candidate = squares[k] if power is None else power @ squares[k]
        if not candidate.is_zero():
            power, e = candidate, e + (1 << k)
    return e + 1


def _nilpotent_layers(matrix, caller):
    """Each layer of A with its levels, 0-based by vertex: (nonzeros, level)
    per atom of 1, in the atoms' order.

    Carries the preconditions of the public function ``caller``, in its
    order: an antiring without nonzero nilpotents, atoms of 1 with entire
    components, then acyclic layers (else NotNilpotentError).
    """
    sr = matrix.semiring
    sr.ensure_nilpotent_free()
    if not sr.has_entire_components:
        raise PreconditionError(
            f"{caller} needs atoms of 1 with entire components; "
            f"{sr.descriptor()} has zero divisors inside one"
        )
    layers = []
    for layer in _layers(matrix):
        level = _levels(layer)
        if level is None:
            raise NotNilpotentError("matrix is not nilpotent")
        layers.append((layer, level))
    return layers


def triangularize(matrix):
    """Reorder vertices to make a nilpotent matrix strictly upper triangular.

    Returns (B, p) with B = conjugate_by_permutation(A, p) strictly upper
    triangular; p maps each vertex to its position when the vertices are
    ordered by (level, index), the order of :func:`topological_order`.  Only
    defined over entire semirings, where nilpotent matrices are exactly those
    with acyclic digraphs; no single order serves every layer of a product.
    """
    sr = matrix.semiring
    if not sr.is_entire:
        raise PreconditionError(
            f"triangularize needs an entire semiring; {sr.descriptor()} has zero divisors"
        )
    ((_, level),) = _nilpotent_layers(matrix, "triangularize")
    p = _level_order(level).inverse()
    return conjugate_by_permutation(matrix, p), p
