"""Invertibility over commutative antirings.

A matrix is invertible iff it is D * sum_e(e * P_e): an invertible diagonal D
times one permutation matrix per atom e of the maximal orthogonal
decomposition of 1 (a single atom, 1 itself, over entire semirings).  That
theorem is the algorithm: row sums give D, each atom e reads its permutation
off the unique nonzero of e*A in every row, and rebuilding the product and
comparing it with A entrywise decides.  One pass costs O(k * n^2) semiring
operations for k atoms, and yields the factorization, the explicit inverse
sum_e(e * P_e^T) * D^-1 and the semidirect-product coordinates of the group
of invertible matrices.

The definition (A*A^T and A^T*A diagonal with unit diagonals) is kept as
:func:`invertibility_failure`: an independent oracle, and the source of the
reason a refusal names.
"""

import itertools

from .errors import NotInvertibleError, UnsupportedOperationError
from .matrices import Matrix, Permutation


class OrthogonalDecomposition:
    """Nonzero elements summing to 1 with pairwise products 0.

    Parts are kept in canonical carrier order.  Each part is necessarily
    idempotent: a_i = a_i * sum(a_j) = a_i^2.
    """

    __slots__ = ("semiring", "parts")

    def __init__(self, semiring, parts):
        parts = tuple(sorted((semiring.coerce(p) for p in parts), key=semiring.sort_key))
        if not parts:
            raise ValueError("orthogonal decomposition needs at least one part")
        zero, one = semiring.zero, semiring.one
        add, mul = semiring.add, semiring.mul
        if any(p == zero for p in parts):
            raise ValueError("orthogonal decomposition parts must be nonzero")
        if len(set(parts)) != len(parts):
            raise ValueError("orthogonal decomposition parts must be distinct")
        total = parts[0]
        for p in parts[1:]:
            total = add(total, p)
        if total != one:
            raise ValueError(
                f"parts sum to {semiring.format_element(total)}, not 1"
            )
        for a, b in itertools.combinations(parts, 2):
            if mul(a, b) != zero:
                raise ValueError(
                    f"parts {semiring.format_element(a)} and "
                    f"{semiring.format_element(b)} are not orthogonal"
                )
        for p in parts:
            if mul(p, p) != p:
                raise ValueError(
                    f"part {semiring.format_element(p)} is not idempotent"
                )
        self.semiring = semiring
        self.parts = parts

    @property
    def length(self):
        return len(self.parts)

    def __eq__(self, other):
        return (
            isinstance(other, OrthogonalDecomposition)
            and self.semiring == other.semiring
            and self.parts == other.parts
        )

    def __hash__(self):
        return hash((self.semiring, self.parts))

    def __repr__(self):
        body = ", ".join(self.semiring.format_element(p) for p in self.parts)
        return f"OrthogonalDecomposition({self.semiring.descriptor()}, [{body}])"


class InvertibleFactorization:
    """The data (D; {(a_s, s)}) of the invertibility factorization.

    ``diag`` is the diagonal of D (each entry a unit); ``terms`` pairs each
    nonzero coefficient with its permutation, sorted by the permutation's
    one-line form.  The coefficients form an orthogonal decomposition of 1.
    """

    __slots__ = ("semiring", "n", "diag", "terms")

    def __init__(self, semiring, diag, terms):
        diag = tuple(semiring.coerce(v) for v in diag)
        terms = tuple((semiring.coerce(a), p) for a, p in terms)
        n = len(diag)
        for v in diag:
            if semiring.unit_inverse(v) is None:
                raise ValueError(f"diagonal entry {semiring.format_element(v)} is not a unit")
        for _, p in terms:
            if p.n != n:
                raise ValueError("term permutation size does not match the diagonal")
        # validates nonzero, sum = 1, pairwise orthogonal
        OrthogonalDecomposition(semiring, [a for a, _ in terms])
        self.semiring = semiring
        self.n = n
        self.diag = diag
        self.terms = tuple(sorted(terms, key=lambda t: t[1].images))

    def reconstruct(self):
        """D * sum(a_s * P_s) as a Matrix."""
        terms = ((a, p.images) for a, p in self.terms)
        return Matrix._make(self.semiring, _rebuild(self.semiring, self.diag, terms))

    def __repr__(self):
        return (
            f"InvertibleFactorization(n={self.n}, "
            f"terms={[(self.semiring.format_element(a), p.images) for a, p in self.terms]})"
        )


class GlCoordinates:
    """Semidirect-product coordinates of an invertible matrix.

    ``units`` is the diagonal of D; ``perms`` holds one permutation per atom
    of the recorded maximal orthogonal decomposition (``atoms``), in the
    atoms' canonical order.
    """

    __slots__ = ("semiring", "units", "atoms", "perms")

    def __init__(self, semiring, units, atoms, perms):
        units = tuple(semiring.coerce(u) for u in units)
        perms = tuple(perms)
        for u in units:
            if semiring.unit_inverse(u) is None:
                raise ValueError(f"{semiring.format_element(u)} is not a unit")
        if atoms.semiring != semiring:
            raise ValueError("atom decomposition belongs to a different semiring")
        if len(perms) != atoms.length:
            raise ValueError(
                f"need one permutation per atom: got {len(perms)} for {atoms.length} atoms"
            )
        n = len(units)
        for p in perms:
            if p.n != n:
                raise ValueError("permutation size does not match the unit vector")
        self.semiring = semiring
        self.units = units
        self.atoms = atoms
        self.perms = perms

    def __eq__(self, other):
        return (
            isinstance(other, GlCoordinates)
            and self.semiring == other.semiring
            and self.units == other.units
            and self.atoms == other.atoms
            and self.perms == other.perms
        )

    def __hash__(self):
        return hash((self.semiring, self.units, self.atoms, self.perms))

    def __repr__(self):
        return f"GlCoordinates(units={self.units}, perms={[p.images for p in self.perms]})"


def invertibility_failure(matrix):
    """None when the matrix is invertible, else a message naming the violation.

    The definition over a commutative antiring: A*A^T and A^T*A are diagonal
    with every diagonal entry a unit.  Two matrix products, so O(n^3); the
    library decides invertibility from atoms and calls this only to name
    the reason for a refusal.  Tests use it as the oracle.
    """
    matrix.semiring.ensure_antiring()
    sr = matrix.semiring
    zero = sr.zero
    at = matrix.transpose()
    for name, prod in (("A*A^T", matrix @ at), ("A^T*A", at @ matrix)):
        for i in range(1, prod.n + 1):
            for j in range(1, prod.n + 1):
                v = prod.entry(i, j)
                if i != j and v != zero:
                    return (
                        f"({name})({i},{j}) = {sr.format_element(v)} is nonzero "
                        f"off the diagonal"
                    )
            d = prod.entry(i, i)
            if sr.unit_inverse(d) is None:
                return f"({name})({i},{i}) = {sr.format_element(d)} is not a unit"
    return None


def _rebuild(semiring, diag, terms):
    """Rows of D * sum(a * P) over (a, images) terms; images are 1-based one-line."""
    add, mul, zero = semiring.add, semiring.mul, semiring.zero
    n = len(diag)
    rows = [[zero] * n for _ in range(n)]
    for a, images in terms:
        for row, j in zip(rows, images):
            cur = row[j - 1]
            row[j - 1] = a if cur == zero else add(cur, a)
    return tuple(
        tuple(mul(d, v) if v != zero else zero for v in row) for d, row in zip(diag, rows)
    )


def _atom_coordinates(matrix):
    """(diag, atoms, perms) with matrix = D * sum_e(e * P_e), or None.

    ``diag`` holds the row sums, each a unit; ``atoms`` the parts of the
    maximal orthogonal decomposition of 1; ``perms`` one tuple of 1-based
    images per atom, where sigma_e(i) is the unique j with e*A(i,j) != 0.
    The final entrywise comparison certifies a success on its own: that form
    has the explicit inverse sum_e(e * P_e^T) * D^-1.  O(k * n^2) for k atoms.
    """
    sr = matrix.semiring
    sr.ensure_antiring()
    add, mul, zero = sr.add, sr.mul, sr.zero
    rows = matrix.rows
    n = len(rows)
    diag = []
    supports = []
    for row in rows:
        support = [(j, v) for j, v in enumerate(row, start=1) if v != zero]
        total = zero
        for _, v in support:
            total = add(total, v)
        if sr.unit_inverse(total) is None:
            return None
        diag.append(total)
        supports.append(support)
    atoms = (sr.one,) if sr.is_entire else max_orthogonal_decomposition(sr).parts
    perms = []
    for e in atoms:
        images = []
        for support in supports:
            hits = [j for j, v in support if mul(e, v) != zero]
            if len(hits) != 1:
                return None
            images.append(hits[0])
        if len(set(images)) != n:
            return None
        perms.append(tuple(images))
    if _rebuild(sr, diag, zip(atoms, perms)) != rows:
        return None
    return tuple(diag), atoms, perms


def _invertible_coordinates(matrix):
    """_atom_coordinates, or NotInvertibleError naming the definitional reason."""
    coords = _atom_coordinates(matrix)
    if coords is None:
        reason = invertibility_failure(matrix)
        if reason is None:
            raise RuntimeError(
                "A*A^T test accepts a matrix that is not D * sum_e(e * P_e) "
                "over the atoms of 1"
            )
        raise NotInvertibleError(f"matrix is not invertible: {reason}", reason=reason)
    return coords


def is_invertible(matrix):
    """Whether the matrix is D * sum_e(e * P_e) over the atoms of 1; O(k * n^2)."""
    return _atom_coordinates(matrix) is not None


def factorize_invertible(matrix):
    """Factor an invertible matrix as D * sum(a_s * P_s).

    D is Diag of the row sums.  Each atom e of the maximal orthogonal
    decomposition of 1 reads off its permutation sigma_e from the unique
    nonzero of e*A in each row, and a_s = sum{e : sigma_e = s}.  O(k * n^2)
    for k atoms.  A non-invertible input raises NotInvertibleError whose
    reason comes from the A*A^T definition (:func:`invertibility_failure`).
    """
    diag, atoms, perms = _invertible_coordinates(matrix)
    sr = matrix.semiring
    coeffs = {}
    for e, images in zip(atoms, perms):
        coeffs[images] = sr.add(coeffs[images], e) if images in coeffs else e
    terms = [(a, Permutation(images)) for images, a in coeffs.items()]
    return InvertibleFactorization(sr, diag, terms)


def invert(matrix):
    """The two-sided inverse of an invertible matrix.

    Built from the factorization: B = sum_s a_s * P_s^T * D^-1, the transpose
    of D^-1 * sum_s a_s * P_s, so O(k * n^2).  The refusal reason is the one
    of :func:`factorize_invertible`.  AB = BA = I is then checked with two
    matrix products, and a failure raises RuntimeError.
    """
    fact = factorize_invertible(matrix)
    sr = matrix.semiring
    dinv = [sr.unit_inverse(d) for d in fact.diag]
    terms = ((a, p.images) for a, p in fact.terms)
    inverse = Matrix._make(sr, _rebuild(sr, dinv, terms)).transpose()
    ident = Matrix.identity(sr, matrix.n)
    if matrix @ inverse != ident or inverse @ matrix != ident:
        raise RuntimeError("constructed inverse fails AB = BA = I")
    return inverse


def max_orthogonal_decomposition(semiring):
    """The unique orthogonal decomposition of 1 of maximal length.

    Chains are entire, so theirs is {1}; for the powerset lattice it is the
    singleton sets.  Table semirings go through greedy refinement, which is
    exhaustive in effect: every decomposition refines to the maximal one.
    The refinement runs once per table semiring instance.
    """
    if not semiring.is_finite:
        raise UnsupportedOperationError(
            f"maximal orthogonal decomposition needs a finite carrier, "
            f"not {semiring.descriptor()}"
        )
    semiring.ensure_nondegenerate()
    semiring.ensure_antiring()
    if semiring.kind == "chain":
        parts = [semiring.one]
    elif semiring.kind == "powerset":
        parts = [frozenset([x]) for x in range(1, semiring.m + 1)]
    else:
        parts = semiring.atoms
    return OrthogonalDecomposition(semiring, parts)


def gl_encode(matrix):
    """Coordinates (units, perms) of an invertible matrix over a finite semiring.

    The units are the row sums and the perms the sigma_e read off each atom e
    of the maximal orthogonal decomposition: e*A has exactly one nonzero per
    row, at (i, sigma_e(i)).  O(k * n^2) for k atoms; refusals as in
    :func:`factorize_invertible`.
    """
    sr = matrix.semiring
    if not sr.is_finite:
        raise UnsupportedOperationError(
            f"gl_encode needs a finite semiring, not {sr.descriptor()}"
        )
    diag, _, perms = _invertible_coordinates(matrix)
    return GlCoordinates(
        sr, diag, max_orthogonal_decomposition(sr), [Permutation(p) for p in perms]
    )


def gl_decode(coords):
    """Rebuild the matrix D * sum_t(e_t * P_t) from its coordinates."""
    terms = ((e, p.images) for e, p in zip(coords.atoms.parts, coords.perms))
    return Matrix._make(coords.semiring, _rebuild(coords.semiring, coords.units, terms))
