"""Brute-force ground truth over small finite semirings.

Everything here enumerates full matrix spaces (or subsets of a carrier) and
tests definitions directly, so the rest of the package has an independent
oracle to agree with.  Enumerations iterate a mixed-radix counter over the
entries in row-major order; a budget refuses oversized state spaces outright
rather than sampling.
"""

import itertools

from .errors import BudgetExceededError, Record, UnsupportedOperationError
from .invertibility import invertibility_failure
from .matrices import Matrix
from .semirings import OrthogonalDecomposition


class EnumerationBudget(Record):
    """Hard cap on the number of enumerated states."""

    __slots__ = ("max_states",)

    def __init__(self, max_states=10**8):
        super().__init__(max_states)
        if self.max_states < 1:
            raise ValueError("budget needs max_states >= 1")


DEFAULT_BUDGET = EnumerationBudget()

#: Largest carrier whose subsets orth_decomp_search will walk.
MAX_SEARCH_CARRIER = 16


def _require_finite(semiring):
    if not semiring.is_finite:
        raise UnsupportedOperationError(
            f"enumeration needs a finite carrier, not {semiring.descriptor()}"
        )


def _check_budget(semiring, n, budget):
    """Refuse a dimension below 1, then a matrix space over the budget."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    total = semiring.size ** (n * n)
    if total > budget.max_states:
        raise BudgetExceededError(
            f"{semiring.descriptor()} has {semiring.size}^{n * n} = {total} matrices, "
            f"over the budget of {budget.max_states}",
            required=total,
        )


def _grids(elements, n):
    """Every n x n grid over the elements, in row-major mixed-radix counter
    order: the last entry varies fastest."""
    for flat in itertools.product(elements, repeat=n * n):
        yield tuple(flat[r * n:(r + 1) * n] for r in range(n))


def _grid_mul(add, mul, zero, a, b, n):
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        arow = a[i]
        orow = out[i]
        for k in range(n):
            v = arow[k]
            if v == zero:
                continue
            brow = b[k]
            for j in range(n):
                w = brow[j]
                if w == zero:
                    continue
                t = mul(v, w)
                orow[j] = t if orow[j] == zero else add(orow[j], t)
    return [tuple(r) for r in out]


def _grid_is_zero(grid, zero):
    return all(v == zero for row in grid for v in row)


def _grid_power_is_zero(add, mul, zero, grid, n, e):
    """Whether grid^e = 0 (e >= 1), by square-and-multiply with early exit.

    A product with the zero matrix is zero in any semiring, so the moment the
    accumulator or the running square hits zero (with exponent bits left) the
    final power is zero.
    """
    result = None  # identity so far
    base = grid
    while True:
        if e & 1:
            result = base if result is None else _grid_mul(add, mul, zero, result, base, n)
            if _grid_is_zero(result, zero):
                return True
        e >>= 1
        if not e:
            return False  # result is set (e started >= 1) and is nonzero
        base = _grid_mul(add, mul, zero, base, base, n)
        if _grid_is_zero(base, zero):
            return True  # a remaining bit of e multiplies the result by zero


def count_nilpotent_bruteforce(semiring, n, budget=DEFAULT_BUDGET):
    """Count matrices with A^n = 0 by scanning the whole matrix space.

    Refuses a degenerate carrier (0 = 1), as ``enumerate_gl`` does.
    """
    _require_finite(semiring)
    semiring.ensure_nondegenerate()
    _check_budget(semiring, n, budget)
    add, mul, zero = semiring.add, semiring.mul, semiring.zero
    return sum(
        1
        for grid in _grids(semiring.elements(), n)
        if _grid_power_is_zero(add, mul, zero, grid, n, n)
    )


def enumerate_gl(semiring, n, budget=DEFAULT_BUDGET):
    """All invertible n x n matrices, in counter (row-major carrier) order.

    Membership is the A*A^T definition, not the atom algorithm behind
    ``is_invertible``, so the group order checks the structure theorem.
    """
    _require_finite(semiring)
    semiring.ensure_nondegenerate()
    _check_budget(semiring, n, budget)
    found = []
    for grid in _grids(semiring.elements(), n):
        m = Matrix._make(semiring, grid)
        if invertibility_failure(m) is None:
            found.append(m)
    return found


def orth_decomp_search(semiring):
    """Every orthogonal decomposition of 1, by exhaustive subset search.

    Searches depth-first over the nonzero carrier in carrier order, extending
    a subset only by an element orthogonal to every element already in it:
    a subset holding a non-orthogonal pair is never a decomposition, so no
    decomposition is skipped.  Results are sorted by length then by
    canonical part order.  Used to confirm both the maximality and the
    refinement property of max_orthogonal_decomposition.
    """
    _require_finite(semiring)
    semiring.ensure_nondegenerate()
    if semiring.size > MAX_SEARCH_CARRIER:
        raise BudgetExceededError(
            f"carrier of {semiring.descriptor()} has {semiring.size} elements, "
            f"over the subset-search cap of {MAX_SEARCH_CARRIER}",
            required=semiring.size,
        )
    add, mul, zero, one = semiring.add, semiring.mul, semiring.zero, semiring.one
    nonzero = [x for x in semiring.elements() if x != zero]
    found = []

    def extend(start, chosen, total):
        for i in range(start, len(nonzero)):
            x = nonzero[i]
            if any(mul(a, x) != zero for a in chosen):
                continue
            combo = chosen + (x,)
            t = x if total is None else add(total, x)
            if t == one:
                found.append(OrthogonalDecomposition(semiring, combo))
            extend(i + 1, combo, t)

    extend(0, (), None)
    found.sort(key=lambda d: (d.length, [semiring.sort_key(p) for p in d.parts]))
    return found
