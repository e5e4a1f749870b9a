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

Over other carriers the pattern alone does not decide (a 2-cycle whose two
entries multiply to zero is nilpotent), but a Boolean character does.  The
carrier's characters phi: S -> B (``Semiring.characters``) are semiring maps,
so phi(A^h) = phi(A)^h, and together they detect every nonzero element, so
A^h = 0 iff phi(A)^h = 0 for every phi.  Over B that is a path question: the
level pass runs once per character, on the layer of the nonzeros (j, v) with
phi(v) = 1.  A is nilpotent iff every layer is acyclic, and its index is the
highest level of any layer + 1.  An entire carrier has the one character
x -> [x != 0], whose layer is ``nonzeros()`` as is; a carrier whose atoms of 1
have entire components (every ``powerset:m``) has one per atom e,
x -> [e*x != 0], whose layer carries the values e*v of the component e*A.
No path takes a matrix product.
"""

from .errors import CyclicDigraphError, NotNilpotentError, PreconditionError, Record
from .matrices import Permutation, conjugate_by_permutation


class Digraph(Record):
    """Vertices 1..n and a set of ordered edges; loops allowed."""

    __slots__ = ("n", "edges")

    def __init__(self, n, edges):
        if n < 1:
            raise ValueError("digraph needs n >= 1")
        super().__init__(n, frozenset(edges))
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
    """Per character phi of the carrier, the nonzeros of the Boolean layer
    phi(A): row i keeps the (j, v) of A's row with phi(v) = 1.  A lone
    character is x -> [x != 0], so its layer is A's own ``nonzeros()``.
    Built lazily, so a caller can stop at the first cyclic layer.
    """
    characters = matrix.semiring.characters
    if len(characters) == 1:
        return [matrix.nonzeros()]
    return ([[(j, v) for j, v in row if phi(v)] for row in matrix.nonzeros()] for phi in characters)


def _leveled_layers(matrix):
    """Each layer with its levels, 0-based by vertex; NotNilpotentError at
    the first cyclic layer."""
    for layer in _layers(matrix):
        level = _levels(layer)
        if level is None:
            raise NotNilpotentError("matrix is not nilpotent")
        yield layer, level


def is_nilpotent(matrix):
    """True iff A^n = 0 (n the dimension): every layer's levels exist.

    Requires a commutative antiring without nonzero nilpotent elements.
    """
    matrix.semiring.ensure_nilpotent_free()
    return all(_levels(layer) is not None for layer in _layers(matrix))


def nilpotency_index(matrix):
    """The least h >= 1 with A^h = 0: the highest level of any layer + 1."""
    matrix.semiring.ensure_nilpotent_free()
    return max(max(level) for _, level in _leveled_layers(matrix)) + 1


def _nilpotent_layers(matrix, caller):
    """Per atom e of 1, in the atoms' order, the layer of e*A with its
    levels: (nonzeros, level), the nonzeros carrying the values e*v.

    Carries the preconditions of the public function ``caller``, in its
    order: an antiring without nonzero nilpotents, atoms of 1 with entire
    components (one character each), then acyclic layers (else
    NotNilpotentError).
    """
    sr = matrix.semiring
    sr.ensure_nilpotent_free()
    if not sr.has_entire_components:
        raise PreconditionError(
            f"{caller} needs atoms of 1 with entire components; "
            f"{sr.descriptor()} has zero divisors inside one"
        )
    layers = list(_leveled_layers(matrix))
    parts, mul = sr.atoms.parts, sr.mul
    if len(parts) == 1:
        return layers
    return [
        ([[(j, mul(e, v)) for j, v in row] for row in layer], level)
        for e, (layer, level) in zip(parts, layers)
    ]


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
