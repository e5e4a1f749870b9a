"""Brute-force ground truth over small finite semirings.

Everything here enumerates full matrix spaces (or subsets of a carrier) and
tests definitions directly, so the rest of the package has an independent
oracle to agree with.  Enumerations iterate a mixed-radix counter over the
entries in row-major order; a budget refuses oversized state spaces outright
rather than sampling.  The nilpotent count scans grids of carrier indices and
multiplies through the index tables of ``to_tables``, built only at n >= 2,
where they are no larger than the scan; ``enumerate_gl`` scans payload grids
and tests each with ``invertibility_failure``.
"""

import itertools

from .errors import BudgetExceededError, Record, UnsupportedOperationError
from .invertibility import invertibility_failure
from .matrices import Matrix
from .semirings import OrthogonalDecomposition, to_tables


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
    """Refuse a dimension below 1, then a matrix space over the budget.

    The count size^(n*n) is grown by repeated multiplication only while it is
    at most the square of the larger of this budget and the default one, so
    refusing a huge n takes a few dozen steps, and ``required`` is exact up
    to that bound.  The refusal words the count as size^(n*n), with its
    value while that is at most the default budget squared, and as more
    than the budget when the carrier alone is larger than that.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    size, cells = semiring.size, n * n
    cap = max(budget.max_states, DEFAULT_BUDGET.max_states) ** 2
    total = 1
    for _ in range(cells):
        total *= size
        if total > cap:
            total = None
            break
    if total is None or total > budget.max_states:
        shown = DEFAULT_BUDGET.max_states ** 2  # the largest number printed in full
        count = f"{size}^{cells}" if size <= shown else f"more than {budget.max_states}"
        if total is not None and total <= shown:
            count += f" = {total}"
        raise BudgetExceededError(
            f"{semiring.descriptor()} has {count} matrices, over the budget of {budget.max_states}",
            required=total,
        )


def count_nilpotent_bruteforce(semiring, n, budget=DEFAULT_BUDGET):
    """Count matrices with A^n = 0 by scanning the whole matrix space.

    Each matrix is a flat row-major grid of carrier indices, and A^n is taken
    by square-and-multiply through the index tables of ``to_tables``, built
    only when there is a product to take (n >= 2).  Refuses a degenerate
    carrier (0 = 1), as ``enumerate_gl`` does.
    """
    _require_finite(semiring)
    semiring.ensure_nondegenerate()
    _check_budget(semiring, n, budget)
    grids = itertools.product(range(semiring.size), repeat=n * n)
    if n == 1:  # A^1 = A
        zero = semiring.elements().index(semiring.zero)
        return sum(1 for (v,) in grids if v == zero)
    tables = to_tables(semiring)
    add, mul, zero = tables.add_table, tables.mul_table, tables.zero_index
    zero_grid = (zero,) * (n * n)
    row_starts = range(0, n * n, n)
    # left-to-right square-and-multiply: for each bit of n below the top one,
    # square the power (False), then multiply it by A (True) if the bit is set
    *steps, last = [by_a for bit in bin(n)[3:] for by_a in (False, True)[:int(bit) + 1]]

    def entries(a, b):
        """The entries of the grid a*b, row-major, one at a time."""
        cols = [b[j::n] for j in range(n)]
        for i in row_starts:
            row = a[i:i + n]
            for col in cols:
                s = zero
                for x, y in zip(row, col):
                    s = add[s][mul[x][y]]
                yield s

    def power_is_zero(grid):
        # A product with the zero matrix is zero in any semiring, so a zero
        # power ends the test, and the last product is read only up to its
        # first nonzero entry.
        power = grid
        for by_a in steps:
            power = tuple(entries(power, grid if by_a else power))
            if power == zero_grid:
                return True
        for s in entries(power, grid if last else power):
            if s != zero:
                return False
        return True

    return sum(1 for grid in grids if power_is_zero(grid))


def enumerate_gl(semiring, n, budget=DEFAULT_BUDGET):
    """All invertible n x n matrices, in counter (row-major carrier) order.

    Membership is the A*A^T definition, not the atom algorithm behind
    ``is_invertible``, so the group order checks the structure theorem.
    """
    _require_finite(semiring)
    semiring.ensure_nondegenerate()
    _check_budget(semiring, n, budget)
    found = []
    for flat in itertools.product(semiring.elements(), repeat=n * n):
        m = Matrix._make(semiring, tuple(flat[i:i + n] for i in range(0, n * n, n)))
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
