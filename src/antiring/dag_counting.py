"""Counting nilpotent matrices over finite entire antirings.

Over an entire antiring with q elements, a nilpotent matrix is exactly a
labeled acyclic digraph pattern with each of its r edges weighted by one of
the q-1 nonzero values.  So the count is A_n(q-1), where A_n(x) is the
generating polynomial of labeled acyclic digraphs on n vertices by edge
count (A_n(1) is OEIS A003024: 1, 1, 3, 25, 543, ...; Robinson 1973,
Stanley 1973).

The fast path works in the q-basis.  Substituting x = q-1 into the
inclusion-exclusion recurrence over source sets gives, for B_n(q) = A_n(q-1),

    B_n(q) = sum_{m=1..n} (-1)^(m-1) C(n,m) q^(m(n-m)) B_{n-m}(q),   B_0 = 1,

in which multiplying by q^e is an offset into the coefficient list.  The rows
B_0, B_1, ... live in one module-level table grown bottom-up on demand, so
nothing recurses.  ``nilpotent_count_polynomial`` returns a row,
``count_nilpotent`` evaluates it and ``acyclic_polynomial`` Taylor-shifts it
back to the x-basis.  Row n has C(n,2)+1 coefficients and a count at q has
about C(n,2) log2(q) bits, so n above MAX_COUNT_N is refused with
BudgetExceededError before the table grows (at the cap a cold build takes
under a second and the table holds about 9 MB).  Every evaluation of a row
is budgeted (``IntPolynomial.evaluate``, ``ensure_answer_fits``), and
``count_nilpotent`` refuses a count that could outgrow the budget before the
row is built.

The closed sum over ordered sequences of block sizes is kept as an
independent oracle that shares no code with the table: it groups the signed
multinomial coefficients of the partitions by their exponent of (1+x) and
expands the result by Horner's rule in (1+x).

Published tables of these polynomials are not all reliable: the 4-vertex
polynomial has constant term -1 (the count 543 at q = 2 pins it down), and
printed 6-vertex rows circulate with wrong signs.  The recurrence plus
brute-force enumeration are the ground truth here.

The two integer formulas of the square-zero splittings,
``tracezero_capacity`` and ``tracezero_max_dimension``, live here too: they
need no matrix, so the CLI answers them without loading the matrix layers.
"""

import math
import sys
import threading

from .errors import BudgetExceededError, Record

#: Largest dimension the counting functions accept.
MAX_COUNT_N = 100


class IntPolynomial(Record):
    """A polynomial with arbitrary-precision integer coefficients.

    Coefficients are stored low degree first with no trailing zeros; the
    zero polynomial has no coefficients.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        super().__init__(tuple(coeffs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coefficient(self, d):
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    def evaluate(self, v):
        """The value at an integer v, refused when it does not fit the answer
        budget (``ensure_answer_fits``).

        |p(v)| <= len(coeffs) * max|c| * max(|v|, 1)^degree, so the power is
        refused before any arithmetic when it alone passes the budget, which
        keeps Horner's numbers within log2 len(coeffs) plus the largest
        coefficient's bits of the budget.  A count B_n(q) at q >= 1 is at least
        q^C(n,2), the strictly upper triangular matrices, so a count is
        answered exactly when it fits.
        """
        what = f"a degree-{self.degree} polynomial at a {abs(v).bit_length()}-bit value"
        ensure_answer_fits(math.ceil(self.degree * math.log2(max(abs(v), 1))), what)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * v + c
        ensure_answer_fits(acc.bit_length(), what)
        return acc

    def shift(self, c):
        """The polynomial p(x + c), exactly, by repeated synthetic division."""
        a = list(self.coeffs)
        for i in range(len(a) - 1):
            for j in range(len(a) - 2, i - 1, -1):
                a[j] += c * a[j + 1]
        return IntPolynomial(a)


class Partition(Record):
    """Weakly decreasing positive parts with a fixed sum."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        super().__init__(tuple(parts))
        for p in self.parts:
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"partition part {p!r} must be a positive integer")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"parts {self.parts} are not weakly decreasing")

    @property
    def n(self):
        return sum(self.parts)

    def orderings(self):
        """Number of distinct sequences obtained by rearranging the parts."""
        count = math.factorial(len(self.parts))
        for v in set(self.parts):
            count //= math.factorial(self.parts.count(v))
        return count


def partitions(n):
    """All partitions of n in reverse-lexicographic order; partitions(0) = [()]."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    out = []

    def descend(remaining, cap, prefix):
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
            return
        for p in range(min(remaining, cap), 0, -1):
            prefix.append(p)
            descend(remaining - p, p, prefix)
            prefix.pop()

    descend(n, n, [])
    return out


# B_k(q) = A_k(q-1) for k = 0 .. len - 1; only ever appended to, under the lock.
_q_rows = [IntPolynomial([1])]
_q_rows_lock = threading.Lock()


def ensure_answer_fits(bits, what):
    """Refuse an answer of up to ``bits`` bits that is larger than the largest
    integer the interpreter writes in decimal (``sys.get_int_max_str_digits()``,
    or its default when that is off), so an accepted answer can always be
    printed.  Given a bound on the answer, it refuses before any arithmetic."""
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    allowed = int(digits * math.log2(10))
    if bits > allowed:
        raise BudgetExceededError(
            f"{what} needs up to {bits} bits, over the answer budget of {allowed} bits", required=bits)


def _q_row(n):
    """B_n(q) from the table, growing it bottom-up to row n first."""
    if n < 0:
        raise ValueError("vertex count must be >= 0")
    if n > MAX_COUNT_N:
        raise BudgetExceededError(
            f"n = {n} is over the counting cap of n <= {MAX_COUNT_N}", required=n
        )
    with _q_rows_lock:
        for k in range(len(_q_rows), n + 1):
            row = [0] * (k * (k - 1) // 2 + 1)
            binom = 1
            for m in range(1, k + 1):
                binom = binom * (k - m + 1) // m
                c = binom if m % 2 == 1 else -binom
                offset = m * (k - m)
                for i, b in enumerate(_q_rows[k - m].coeffs, offset):
                    row[i] += c * b
            _q_rows.append(IntPolynomial(row))
    return _q_rows[n]


def acyclic_polynomial(n):
    """A_n(x), the q-basis row shifted back by x = q - 1; A_0 = 1."""
    return _q_row(n).shift(1)


def acyclic_polynomial_partition_form(n):
    """A_n(x) as the closed sum over block-size sequences.

    The sum runs over ordered sequences of positive block sizes; iterating
    unordered partitions therefore weights each by its number of distinct
    orderings.  Terms are grouped by their exponent e of (1+x), and
    sum_e c_e (1+x)^e is expanded by Horner's rule in (1+x).
    """
    if n < 0:
        raise ValueError("vertex count must be >= 0")
    by_exponent = {}
    for mu in partitions(n):
        k = len(mu.parts)
        coeff = (1 if (n - k) % 2 == 0 else -1) * math.factorial(n) * mu.orderings()
        for p in mu.parts:
            coeff //= math.factorial(p)
        exponent = (n * n - sum(p * p for p in mu.parts)) // 2
        by_exponent[exponent] = by_exponent.get(exponent, 0) + coeff
    top = max(by_exponent)
    acc = [by_exponent[top]]
    for e in range(top - 1, -1, -1):
        # acc <- acc * (1 + x) + c_e
        acc = [a + b for a, b in zip(acc + [0], [0] + acc)]
        acc[0] += by_exponent.get(e, 0)
    return IntPolynomial(acc)


def nilpotent_count_polynomial(n):
    """B_n(q) = A_n(q-1) as a polynomial in q."""
    return _q_row(n)


def count_nilpotent(n, q):
    """The number of nilpotent n x n matrices over a finite entire commutative
    antiring with q elements: A_n(q-1).

    Refused before the row is built when the bound n! q^C(n,2) passes the
    answer budget: every nilpotent matrix is a strictly upper triangular one
    with its vertices put in some order.  Over the cap ``_q_row`` refuses n.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if q < 1:
        raise ValueError("carrier size must be >= 1")
    if n <= MAX_COUNT_N:
        bits = math.lgamma(n + 1) / math.log(2) + math.comb(n, 2) * math.log2(q)
        ensure_answer_fits(math.ceil(bits), f"B_{n}(q) at a {q.bit_length()}-bit q")
    return _q_row(n).evaluate(q)


def tracezero_capacity(n):
    """The least N whose central binomial C(N, ceil(N/2)) reaches n.

    This is the sharp number of square-zero summands needed for every n x n
    trace-zero matrix.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    big_n, central = 0, 1  # central = C(big_n, ceil(big_n/2))
    while central < n:
        big_n += 1
        central = central * big_n // ((big_n + 1) // 2)
    return big_n


def tracezero_max_dimension(k):
    """C(k, ceil(k/2)): the largest dimension k square-zero summands can cover.

    Grows like 2^k / sqrt(k) by Stirling; this function stays exact and
    leaves the asymptotics to the reader.  Below 2^k, so at most k bits,
    which the answer budget bounds first.
    """
    if k < 0:
        raise ValueError("summand count must be >= 0")
    ensure_answer_fits(k, f"C({k}, {(k + 1) // 2})")
    return math.comb(k, (k + 1) // 2)
