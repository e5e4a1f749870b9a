"""Dense square matrices over one semiring, with permutation machinery.

Entries are raw carrier payloads; the semiring travels on the matrix.  All
user-facing indexing is 1-based: ``A.entry(i, j)`` is the entry in row i and
column j.  Matrices are immutable and all operations are pure.

``Matrix.nonzeros()`` is the one reader of a support: digraphs, invertibility
and the square-zero splittings all go through it.  Products, powers and
``is_zero`` stay dense: through the nonzeros, the oracles' small products
were slower.
"""

import itertools
import os

from .errors import FormatError, Record
from .semirings import parse_semiring, strip_comments


class Permutation(Record):
    """A bijection of {1..n}, stored as the tuple of images.

    ``p(i)`` is the image of i.  Composition is matrix-oriented:
    ``p * q`` is the permutation satisfying
    ``permutation_matrix(p * q) == permutation_matrix(p) @ permutation_matrix(q)``,
    i.e. ``(p * q)(i) = q(p(i))``.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        super().__init__(tuple(images))
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"{self.images} is not a permutation of 1..{n}")

    @property
    def n(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i - 1]

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    @classmethod
    def lexicographic(cls, n):
        """All permutations of {1..n} in lexicographic one-line order."""
        for images in itertools.permutations(range(1, n + 1)):
            yield cls(images)

    def inverse(self):
        inv = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(inv)

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation(other.images[i - 1] for i in self.images)

    def one_line(self):
        return " ".join(str(i) for i in self.images)


class Matrix:
    """An immutable n x n matrix over a single semiring.

    Construction rejects degenerate semirings (0 = 1): none of the matrix
    theory in this package is meaningful over them.
    """

    __slots__ = ("semiring", "rows", "_nonzeros")

    def __init__(self, semiring, rows):
        semiring.ensure_nondegenerate()
        rows = tuple(tuple(row) for row in rows)
        # each distinct object is checked once, in row-major order of first
        # appearance; keyed by identity, never by equality (1.0 == 1), and
        # the rows keep every keyed object alive.  The semiring's own zero
        # object is a payload already, and most entries of a sparse matrix.
        z = semiring.zero
        given = {id(v): v for row in rows for v in row if v is not z}
        coerced = {k: semiring.coerce(v) for k, v in given.items()}
        if any(coerced[k] is not v for k, v in given.items()):
            coerced[id(z)] = z
            rows = tuple(tuple(coerced[id(v)] for v in row) for row in rows)
        n = len(rows)
        if n < 1:
            raise ValueError("matrix needs n >= 1")
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        self.semiring = semiring
        self.rows = rows
        self._nonzeros = None

    @classmethod
    def _make(cls, semiring, rows):
        # trusted fast path: rows already a tuple of tuples of valid payloads
        m = object.__new__(cls)
        m.semiring = semiring
        m.rows = rows
        m._nonzeros = None
        return m

    @property
    def n(self):
        return len(self.rows)

    def entry(self, i, j):
        """Entry in row i, column j (1-based)."""
        return self.rows[i - 1][j - 1]

    @classmethod
    def zeros(cls, semiring, n):
        semiring.ensure_nondegenerate()
        z = semiring.zero
        return cls._make(semiring, tuple((z,) * n for _ in range(n)))

    @classmethod
    def identity(cls, semiring, n):
        semiring.ensure_nondegenerate()
        z, o = semiring.zero, semiring.one
        return cls._make(
            semiring, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))
        )

    @classmethod
    def diagonal(cls, semiring, values):
        semiring.ensure_nondegenerate()
        values = [semiring.coerce(v) for v in values]
        z = semiring.zero
        n = len(values)
        return cls._make(
            semiring,
            tuple(tuple(values[i] if i == j else z for j in range(n)) for i in range(n)),
        )

    def _same_shape(self, other):
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {type(other).__name__}")
        if self.semiring != other.semiring:
            raise ValueError(
                f"semiring mismatch: {self.semiring.descriptor()} vs "
                f"{other.semiring.descriptor()}"
            )
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        self._same_shape(other)
        add = self.semiring.add
        return Matrix._make(
            self.semiring,
            tuple(
                tuple(add(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def __matmul__(self, other):
        self._same_shape(other)
        sr = self.semiring
        add, mul, zero = sr.add, sr.mul, sr.zero
        n = self.n
        brows = other.rows
        out = [[zero] * n for _ in range(n)]
        for i, arow in enumerate(self.rows):
            orow = out[i]
            for k, a in enumerate(arow):
                if a == zero:
                    # 0 * x = 0 and y + 0 = y in every semiring: skipping is exact
                    continue
                for j, b in enumerate(brows[k]):
                    if b == zero:
                        continue
                    t = mul(a, b)
                    orow[j] = t if orow[j] == zero else add(orow[j], t)
        return Matrix._make(sr, tuple(tuple(row) for row in out))

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("matrix power needs a nonnegative integer exponent")
        if k == 0:
            return Matrix.identity(self.semiring, self.n)
        result = None  # the identity, never multiplied by
        base = self
        while True:
            if k & 1:
                result = base if result is None else result @ base
            k >>= 1
            if not k:
                return result
            base = base @ base

    def transpose(self):
        return Matrix._make(self.semiring, tuple(zip(*self.rows)))

    def is_zero(self):
        z = self.semiring.zero
        return all(v == z for row in self.rows for v in row)

    def nonzeros(self):
        """Per row, the pairs (j, v) with v != 0, j 0-based, in column order.

        Filled once from ``rows`` alone, O(n^2); an all-zero row costs one
        tuple comparison.  The fill takes no lock: it is idempotent on an
        immutable matrix, so racing threads store equal tuples.
        """
        nonzeros = self._nonzeros
        if nonzeros is None:
            z = self.semiring.zero
            zero_row = (z,) * len(self.rows)
            nonzeros = self._nonzeros = tuple(
                () if row == zero_row else tuple([(j, v) for j, v in enumerate(row) if v != z])
                for row in self.rows
            )
        return nonzeros

    def support(self):
        """1-based positions (i, j) of the nonzero entries."""
        return frozenset(
            (i + 1, j + 1) for i, row in enumerate(self.nonzeros()) for j, _ in row
        )

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.semiring == other.semiring
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.semiring, self.rows))

    def __repr__(self):
        body = "; ".join(
            " ".join(self.semiring.format_element(v) for v in row) for row in self.rows
        )
        return f"Matrix({self.semiring.descriptor()}, [{body}])"


def permutation_matrix(perm, semiring):
    """The matrix with a one in row i, column perm(i), zeros elsewhere."""
    semiring.ensure_nondegenerate()
    z, o = semiring.zero, semiring.one
    n = perm.n
    rows = tuple(
        tuple(o if j == perm(i) else z for j in range(1, n + 1)) for i in range(1, n + 1)
    )
    return Matrix._make(semiring, rows)


def conjugate_by_permutation(matrix, perm):
    """P^T A P for P = permutation_matrix(perm).

    Under the row convention P(i, perm(i)) = 1 this works out entrywise to
    ``result(i, j) = A(perm^-1(i), perm^-1(j))``; the matrix-product identity
    is covered by tests.
    """
    if matrix.n != perm.n:
        raise ValueError(f"dimension mismatch: matrix {matrix.n} vs permutation {perm.n}")
    src = [k - 1 for k in perm.inverse().images]  # 0-based perm^-1
    rows = tuple(tuple(row[k] for k in src) for row in (matrix.rows[k] for k in src))
    return Matrix._make(matrix.semiring, rows)


# --- matrix text format ---


def parse_matrix(text, base_dir="."):
    """Parse the matrix text format:

    line 1: ``semiring <descriptor>``; line 2: ``n <dim>``; then n lines of
    n whitespace-separated element literals.  Comments start with '#'.
    """
    lines = strip_comments(text)
    if len(lines) < 2:
        raise FormatError("matrix file too short (need semiring and n headers)")
    head = lines[0].split(None, 1)
    if len(head) != 2 or head[0] != "semiring":
        raise FormatError(f"expected 'semiring <descriptor>' first, got {lines[0]!r}")
    semiring = parse_semiring(head[1], base_dir=base_dir)
    nhead = lines[1].split()
    if len(nhead) != 2 or nhead[0] != "n":
        raise FormatError(f"expected 'n <dim>' second, got {lines[1]!r}")
    try:
        n = int(nhead[1])
    except ValueError:
        raise FormatError(f"bad dimension {nhead[1]!r}") from None
    if n < 1:
        raise FormatError(f"dimension must be >= 1, got {n}")
    if len(lines) != 2 + n:
        raise FormatError(f"expected {n} entry rows, found {len(lines) - 2}")
    rows = []
    for r, line in enumerate(lines[2:], start=1):
        toks = line.split()
        if len(toks) != n:
            raise FormatError(f"row {r} has {len(toks)} entries, expected {n}")
        rows.append(tuple(semiring.parse_element(t) for t in toks))
    # every entry is a payload parse_element has already checked
    semiring.ensure_nondegenerate()
    return Matrix._make(semiring, tuple(rows))


def parse_matrix_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read(), base_dir=os.path.dirname(os.path.abspath(path)))


def format_matrix(matrix):
    """Serialize to the matrix text format (ends with a newline)."""
    sr = matrix.semiring
    lines = [f"semiring {sr.descriptor()}", f"n {matrix.n}"]
    lines += [" ".join(sr.format_element(v) for v in row) for row in matrix.rows]
    return "\n".join(lines) + "\n"
