"""Invertibility over commutative antirings.

A matrix is invertible iff it is D * sum_e(e * P_e): an invertible diagonal D
times one permutation matrix per atom e of the maximal orthogonal
decomposition of 1 (a single atom, 1 itself, over entire semirings).  That
theorem is the algorithm.  The atoms are the semiring's own
(:attr:`Semiring.atoms`, built once per instance), and this module only
reads them.  The matrix is read only through ``Matrix.nonzeros()`` (one
O(n^2) scan), and every later step touches only those: such a matrix has
at most k nonzeros per row for k atoms.  Row sums give D, each atom e reads
its permutation off the unique nonzero of e*A in every row, and rebuilding
each row of the product and comparing it with the row's nonzeros decides,
O(k^2 * n) after the scan.  Both answers come from that pass: a refusal
names the first condition of the form the matrix breaks, and its row or
column.  The same pass yields the
factorization, the explicit inverse (D^-1 * sum_e(e * P_e))^T, built by the
same sparse rebuild and certified by AB = BA = I computed over the nonzeros
of A and of B, and the semidirect-product coordinates of the group of
invertible matrices.

The definition (A*A^T and A^T*A diagonal with unit diagonals) is kept as
:func:`invertibility_failure`, an independent oracle that shares no code
with that pass.
"""

from .errors import NotInvertibleError, Record, UnsupportedOperationError
from .matrices import Matrix, Permutation
from .semirings import OrthogonalDecomposition


class InvertibleFactorization(Record):
    """The data (D; {(a_s, s)}) of the invertibility factorization.

    ``diag`` is the diagonal of D (each entry a unit); ``terms`` pairs each
    nonzero coefficient with its permutation, sorted by the permutation's
    one-line form.  The coefficients form an orthogonal decomposition of 1.
    """

    __slots__ = ("semiring", "diag", "terms")

    def __init__(self, semiring, diag, terms):
        terms = ((semiring.coerce(a), p) for a, p in terms)
        super().__init__(semiring, tuple(semiring.coerce(v) for v in diag),
                         tuple(sorted(terms, key=lambda t: t[1].images)))
        for v in self.diag:
            if semiring.unit_inverse(v) is None:
                raise ValueError(f"diagonal entry {semiring.format_element(v)} is not a unit")
        for _, p in self.terms:
            if p.n != self.n:
                raise ValueError("term permutation size does not match the diagonal")
        # validates nonzero, sum = 1, pairwise orthogonal
        OrthogonalDecomposition(semiring, [a for a, _ in self.terms])

    @property
    def n(self):
        return len(self.diag)

    def reconstruct(self):
        """D * sum(a_s * P_s) as a Matrix."""
        terms = ((a, p.images) for a, p in self.terms)
        return Matrix._make(self.semiring, _rebuild(self.semiring, self.diag, terms))


class GlCoordinates(Record):
    """Semidirect-product coordinates of an invertible matrix.

    ``units`` is the diagonal of D; ``perms`` holds one permutation per atom
    of the recorded maximal orthogonal decomposition (``atoms``), in the
    atoms' canonical order.
    """

    __slots__ = ("semiring", "units", "atoms", "perms")

    def __init__(self, semiring, units, atoms, perms):
        super().__init__(semiring, tuple(semiring.coerce(u) for u in units), atoms, tuple(perms))
        for u in self.units:
            if semiring.unit_inverse(u) is None:
                raise ValueError(f"{semiring.format_element(u)} is not a unit")
        if atoms.semiring != semiring:
            raise ValueError("atom decomposition belongs to a different semiring")
        if len(self.perms) != atoms.length:
            raise ValueError(
                f"need one permutation per atom: got {len(self.perms)} for {atoms.length} atoms"
            )
        for p in self.perms:
            if p.n != len(self.units):
                raise ValueError("permutation size does not match the unit vector")


def invertibility_failure(matrix):
    """None when the matrix is invertible, else a message naming the violation.

    The definition over a commutative antiring: A*A^T and A^T*A are diagonal
    with every diagonal entry a unit.  Entry (i, j) of A*A^T is rows i and j
    of A multiplied entrywise and summed, and of A^T*A the same over columns.
    The entries are computed one at a time, A*A^T first and per row the
    off-diagonal entries in column order and then the diagonal, and the first
    violated entry is the answer: O(n^3) at worst.  The library decides
    invertibility, and words its refusals, from the atoms of 1 and never
    calls this.  It is the oracle of the tests and of ``enumerate_gl``.
    """
    sr = matrix.semiring
    sr.ensure_antiring()
    add, mul, zero = sr.add, sr.mul, sr.zero

    def entry(u, v):
        s = zero
        for a, b in zip(u, v):
            if a == zero or b == zero:
                continue  # 0 * x = 0 and y + 0 = y in every semiring
            t = mul(a, b)
            s = t if s == zero else add(s, t)
        return s

    rows = matrix.rows
    for name, vecs in (("A*A^T", rows), ("A^T*A", tuple(zip(*rows)))):
        for i, u in enumerate(vecs, 1):
            for j, v in enumerate(vecs, 1):
                if j != i and (w := entry(u, v)) != zero:
                    return f"({name})({i},{j}) = {sr.format_element(w)} is nonzero off the diagonal"
            d = entry(u, u)
            if sr.unit_inverse(d) is None:
                return f"({name})({i},{i}) = {sr.format_element(d)} is not a unit"
    return None


def _rebuild(semiring, diag, terms):
    """Rows of D * sum(a * P) over (a, images) terms; images are 1-based one-line.

    Only the at most one entry per term in each row is placed and multiplied
    by d_i; every other entry is zero.
    """
    add, mul, zero = semiring.add, semiring.mul, semiring.zero
    n = len(diag)
    cells = [{} for _ in range(n)]
    for a, images in terms:
        for row, j in zip(cells, images):
            row[j] = add(row[j], a) if j in row else a
    rows = [[zero] * n for _ in range(n)]
    for row, d, placed in zip(rows, diag, cells):
        for j, a in placed.items():
            row[j - 1] = mul(d, a)
    return tuple(map(tuple, rows))


def _is_identity_product(semiring, left, right):
    """Whether L @ R = I, for L and R given by their ``Matrix.nonzeros()``.

    Row i of L @ R sums a * b over (k, a) in row i of L and (j, b) in row k
    of R, so s nonzeros per row cost O(s^2) per row.  A product that vanishes
    through zero divisors still lands in its cell, which must then read zero
    off the diagonal, as the entry of the dense product would.
    """
    add, mul, zero, one = semiring.add, semiring.mul, semiring.zero, semiring.one
    for i, row in enumerate(left):
        out = {}
        for k, a in row:
            for j, b in right[k]:
                t = mul(a, b)
                out[j] = add(out[j], t) if j in out else t
        if out.pop(i, zero) != one or any(v != zero for v in out.values()):
            return False
    return True


def _atom_coordinates(matrix):
    """(diag, atoms, perms) with matrix = D * sum_e(e * P_e), or
    NotInvertibleError naming the first condition of that form it breaks.

    Only the rows' nonzeros are read (``Matrix.nonzeros()``, one O(n^2)
    scan), and every later step touches only those.  ``diag`` holds
    the row sums, each a unit; ``atoms`` is ``Semiring.atoms``, the maximal
    orthogonal decomposition of 1, which refuses a non-antiring; ``perms``
    holds one tuple of 1-based images per atom, where sigma_e(i) is the
    unique j with e*A(i,j) != 0.  Row by row, a refusal names the row with
    more nonzeros than atoms, a row sum that is not a unit (a zero row
    included), or an atom meeting the row in more than one entry; then the
    column some sigma_e hits twice.  Each row closes with the
    rebuild-and-compare check, which certifies a success on its own (that
    form has the explicit inverse sum_e(e * P_e^T) * D^-1):
    {sigma_e(i): sum{e : sigma_e(i) = j}} times d_i must equal the row's
    support, size and values.  Every rebuilt entry is nonzero (a unit times
    a sum of atoms, in a zerosumfree semiring), so this is exactly the dense
    entrywise comparison; after the checks before it, it cannot fail, as
    d_i * e = e * A(i, sigma_e(i)) when the atoms sum to 1.  O(k^2) per row
    after the read, for k atoms.
    """
    sr = matrix.semiring
    add, mul, zero, fmt = sr.add, sr.mul, sr.zero, sr.format_element
    atoms = sr.atoms
    parts = atoms.parts
    k = len(parts)
    diag = []
    images = []
    for i, support in enumerate(matrix.nonzeros(), 1):
        if len(support) > k:
            raise NotInvertibleError(f"row {i} has {len(support)} nonzeros for {k} atom(s) of 1")
        total = zero
        for _, v in support:
            total = add(total, v)
        if sr.unit_inverse(total) is None:
            raise NotInvertibleError(f"row {i} sums to {fmt(total)}, which is not a unit")
        hits = []
        cells = {}
        for e in parts:
            js = [j for j, v in support if mul(e, v) != zero]
            if len(js) != 1:
                raise NotInvertibleError(f"atom {fmt(e)} meets row {i} in {len(js)} entries")
            j = js[0]
            hits.append(j + 1)
            cells[j] = add(cells[j], e) if j in cells else e
        if len(cells) != len(support) or any(mul(total, cells[j]) != v for j, v in support):
            raise NotInvertibleError(f"row {i} differs from its rebuild from the atoms of 1")
        diag.append(total)
        images.append(hits)
    n = len(images)
    perms = [tuple(p) for p in zip(*images)]
    for e, p in zip(parts, perms):
        if len(set(p)) != n:
            rows = {}
            for i, j in enumerate(p, 1):
                if rows.setdefault(j, i) != i:
                    raise NotInvertibleError(
                        f"atom {fmt(e)} meets column {j} in rows {rows[j]} and {i}")
    return tuple(diag), atoms, perms


def is_invertible(matrix):
    """Whether the matrix is D * sum_e(e * P_e) over the atoms of 1.

    One O(n^2) read of the support, then O(k^2 * n) for k atoms.
    """
    try:
        _atom_coordinates(matrix)
    except NotInvertibleError:
        return False
    return True


def factorize_invertible(matrix):
    """Factor an invertible matrix as D * sum(a_s * P_s).

    D is Diag of the row sums.  Each atom e of the maximal orthogonal
    decomposition of 1 reads off its permutation sigma_e from the unique
    nonzero of e*A in each row, and a_s = sum{e : sigma_e = s}.  One O(n^2)
    read of the support, then O(k^2 * n) for k atoms.  A non-invertible
    input raises NotInvertibleError from the same pass, whose reason names
    the first condition of the form it breaks and the row or column.
    """
    diag, atoms, perms = _atom_coordinates(matrix)
    sr = matrix.semiring
    coeffs = {}
    for e, images in zip(atoms.parts, perms):
        coeffs[images] = sr.add(coeffs[images], e) if images in coeffs else e
    terms = [(a, Permutation(images)) for images, a in coeffs.items()]
    return InvertibleFactorization(sr, diag, terms)


def invert(matrix):
    """The two-sided inverse of an invertible matrix.

    B = sum_e(e * P_e^T) * D^-1 = (D^-1 * sum_e(e * P_e))^T is the sparse
    rebuild of the coordinates with D^-1 for D, transposed: entry
    (sigma_e(i), i) collects e * d_i^-1.  Refusals are those of
    :func:`factorize_invertible`.  AB = I and BA = I are then checked as
    products over the nonzeros of A and of B, each read from the matrix's own
    entries, O(k^2 * n) after B's O(n^2) read; a failure raises RuntimeError.
    """
    diag, atoms, perms = _atom_coordinates(matrix)
    sr = matrix.semiring
    dinv = [sr.unit_inverse(d) for d in diag]
    inverse = Matrix._make(sr, _rebuild(sr, dinv, zip(atoms.parts, perms))).transpose()
    a, b = matrix.nonzeros(), inverse.nonzeros()
    if not (_is_identity_product(sr, a, b) and _is_identity_product(sr, b, a)):
        raise RuntimeError("constructed inverse fails AB = BA = I")
    return inverse


def max_orthogonal_decomposition(semiring):
    """The unique orthogonal decomposition of 1 of maximal length, over a
    finite carrier: ``semiring.atoms``.

    Refuses an infinite carrier (UnsupportedOperationError), then, through
    ``atoms``, a degenerate one and a non-antiring.  Entire carriers have
    {1}, the powerset lattice the singleton sets, and table semirings the
    greedy refinement of {1}, which is exhaustive in effect: every
    decomposition refines to the maximal one.  Built and validated once per
    semiring instance.
    """
    if not semiring.is_finite:
        raise UnsupportedOperationError(
            f"maximal orthogonal decomposition needs a finite carrier, "
            f"not {semiring.descriptor()}"
        )
    return semiring.atoms


def gl_encode(matrix):
    """Coordinates (units, perms) of an invertible matrix over a finite semiring.

    The units are the row sums and the perms the sigma_e read off each atom e
    of the maximal orthogonal decomposition: e*A has exactly one nonzero per
    row, at (i, sigma_e(i)).  One O(n^2) read of the support, then
    O(k^2 * n) for k atoms; refusals as in :func:`factorize_invertible`.
    """
    sr = matrix.semiring
    if not sr.is_finite:
        raise UnsupportedOperationError(
            f"gl_encode needs a finite semiring, not {sr.descriptor()}"
        )
    diag, atoms, perms = _atom_coordinates(matrix)
    return GlCoordinates(sr, diag, atoms, [Permutation(p) for p in perms])


def gl_decode(coords):
    """Rebuild the matrix D * sum_t(e_t * P_t) from its coordinates."""
    terms = ((e, p.images) for e, p in zip(coords.atoms.parts, coords.perms))
    return Matrix._make(coords.semiring, _rebuild(coords.semiring, coords.units, terms))
