"""Nilpotency via digraphs: zero patterns, acyclicity, longest paths,
nilpotency index, and triangularization by vertex reordering.

The digraph of a matrix keeps only its nonzero pattern.  Over an entire
commutative antiring that pattern decides nilpotency: a walk's entry product
is nonzero because there are no zero divisors, and a sum of nonzero products
stays nonzero because the semiring is zerosumfree, so A^h(i, j) != 0 exactly
when the digraph has a walk of length h from i to j.  Hence A is nilpotent
iff its digraph is acyclic, and its index is the longest path + 1.  Those are
the algorithms here: O(n^2) to read the support, then O(n + e) for the
topological order and the longest path.

Over non-entire antirings the pattern does not decide (a 2-cycle whose two
entries multiply to zero is nilpotent), so the matrix powers do.  The power
test A^n = 0 is complete whenever the semiring is zerosumfree with no nonzero
nilpotent elements: a nonzero A^n would contain a length-n walk with nonzero
entry product, the walk repeats a vertex, the cycle's product c has every
power nonzero, and zerosumfreeness keeps every power of A nonzero from then
on.
"""

import heapq
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

    def out_neighbors(self):
        adj = {v: [] for v in range(1, self.n + 1)}
        for (i, j) in self.edges:
            adj[i].append(j)
        return adj

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


def topological_order(g):
    """A vertex order placing every edge forward, or None when g is cyclic.

    Returned as a Permutation p with p(k) = the k-th vertex of the order.
    Ties break toward the smallest original vertex index, so the result is
    deterministic.
    """
    indeg = {v: 0 for v in range(1, g.n + 1)}
    adj = g.out_neighbors()
    for (i, j) in g.edges:
        indeg[j] += 1
        if i == j:
            return None  # a loop is a cycle; its vertex never becomes a source
    heap = [v for v in indeg if indeg[v] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in adj[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    if len(order) != g.n:
        return None
    return Permutation(order)


def is_acyclic(g):
    """True iff g has no directed cycle; a loop counts as a cycle."""
    return topological_order(g) is not None


def longest_path(g):
    """Maximum number of edges on a directed path of an acyclic digraph."""
    order = topological_order(g)
    if order is None:
        raise CyclicDigraphError("longest_path needs an acyclic digraph")
    adj = g.out_neighbors()
    dist = {v: 0 for v in range(1, g.n + 1)}
    for k in range(1, g.n + 1):
        v = order(k)
        dv = dist[v]
        for w in adj[v]:
            if dv + 1 > dist[w]:
                dist[w] = dv + 1
    return max(dist.values()) if dist else 0


def is_nilpotent(matrix):
    """True iff A^n = 0 (n the dimension).

    Requires a commutative antiring without nonzero nilpotent elements.  Over
    entire semirings this is acyclicity of the digraph; elsewhere it is the
    power test itself (see the module docstring).
    """
    sr = matrix.semiring
    sr.ensure_nilpotent_free()
    if sr.is_entire:
        return is_acyclic(digraph_of(matrix))
    return (matrix ** matrix.n).is_zero()


def nilpotency_index(matrix):
    """The least h >= 1 with A^h = 0.

    Over entire semirings this is the longest path of the digraph + 1.
    Elsewhere the squares A, A^2, A^4, ... are taken until one vanishes, and h
    is located below it by binary lifting: at most 2*ceil(log2 h) matmuls, and
    ceil(log2 n) to refuse a matrix whose powers never vanish.
    """
    sr = matrix.semiring
    sr.ensure_nilpotent_free()
    if sr.is_entire:
        try:
            return longest_path(digraph_of(matrix)) + 1
        except CyclicDigraphError:
            raise NotNilpotentError("matrix is not nilpotent") from None
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


def _topological_positions(matrix):
    """p with p(v) the position of vertex v in the topological order of D(A).

    Carries the preconditions of :func:`triangularize`, in its order: an
    entire semiring, an antiring without nonzero nilpotents, then an acyclic
    digraph (else NotNilpotentError).
    """
    sr = matrix.semiring
    if not sr.is_entire:
        raise PreconditionError(
            f"triangularize needs an entire semiring; {sr.descriptor()} has zero divisors"
        )
    sr.ensure_nilpotent_free()
    order = topological_order(digraph_of(matrix))
    if order is None:
        raise NotNilpotentError("matrix is not nilpotent")
    return order.inverse()


def triangularize(matrix):
    """Reorder vertices to make a nilpotent matrix strictly upper triangular.

    Returns (B, p) with B = conjugate_by_permutation(A, p) strictly upper
    triangular; p maps each vertex to its position in the topological order
    of D(A).  Only defined over entire semirings, where nilpotent matrices
    are exactly those with acyclic digraphs.
    """
    p = _topological_positions(matrix)
    return conjugate_by_permutation(matrix, p), p
