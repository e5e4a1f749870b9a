"""Concrete commutative semirings and the axiom validator.

A semiring here is a value object: it names a carrier, distinguished elements
0 and 1, and two callables ``add`` / ``mul`` acting on raw carrier payloads.
Payloads are plain hashable Python values (ints, frozensets, ``math.inf``),
so structural ``==`` is exact equality in the carrier.  All instances are
immutable and safe to share.

Each carrier fact is stated once.  ``contains`` is the one membership rule:
``coerce`` and ``parse_element`` both end in it, and a subclass only says how
a literal reads (``_read``).  Two semirings are equal iff their descriptors
are, except that a table semiring is identified by its operation tables.

Each semiring also owns two facts about its carrier alone, each built and
checked once per instance and read by the matrix algorithms instead of being
worked out again:

* its atoms of 1 (:attr:`Semiring.atoms`): the maximal orthogonal
  decomposition of 1, along which S splits as the product of the e*S;
* its Boolean characters (:attr:`Semiring.characters`): semiring maps
  phi: S -> B, the Boolean semiring, that together detect every nonzero
  element.  A commutative antiring without nonzero nilpotents has such a
  family: for x != 0, a maximal strong ideal P missing the powers of x
  (strong: a + b in P puts a and b in P) is prime, so phi(s) = [s not in P]
  is a character with phi(x) = 1 (Golan, *Semirings and their
  Applications*, 1999).  Nilpotency reads one Boolean layer per character.

Each character is 1 on exactly one component e*S; an entire component has
one character, x -> [e*x != 0], and any other needs two or more.  So
:attr:`Semiring.has_entire_components` is a count.
"""

import itertools
import math
import os
from functools import cache

from .errors import (
    BudgetExceededError,
    DegenerateSemiringError,
    FormatError,
    PreconditionError,
    Record,
    UnsupportedOperationError,
)

#: Additive identity of the min-plus semiring (the "plus infinity" payload).
INF = math.inf


class Semiring:
    """Base class for concrete commutative semirings.

    Two instances compare equal iff they describe the same carrier and
    operations; matrices over unequal semirings never combine.
    """

    is_finite = False
    size = None

    # overridden per subclass
    zero = None
    one = None

    # set on the instance by the first read of ``atoms`` and ``characters``
    _atoms = None
    _characters = None

    def _key(self):
        return self.descriptor()

    def __eq__(self, other):
        # the built-ins are cached singletons: identity settles most comparisons
        return self is other or (isinstance(other, Semiring) and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"<semiring {self.descriptor()}>"

    def __reduce__(self):
        # rebuilt from the descriptor, so a built-in unpickles as its cached
        # instance and the atoms and characters kept on it are not pickled
        return parse_semiring, (self.descriptor(),)

    def descriptor(self):
        """The textual name used in matrix files, e.g. ``chain:3``."""
        raise NotImplementedError

    @property
    def is_degenerate(self):
        return self.zero == self.one

    def ensure_nondegenerate(self):
        if self.is_degenerate:
            raise DegenerateSemiringError(
                f"{self.descriptor()} has 0 = 1; matrix operations are undefined over it"
            )

    # --- carrier ---

    def elements(self):
        """All payloads in canonical ascending order (finite carriers only)."""
        raise UnsupportedOperationError(
            f"{self.descriptor()} has an infinite carrier; cannot enumerate elements"
        )

    def contains(self, value):
        raise NotImplementedError

    def coerce(self, value):
        """Normalize and validate a payload, raising ValueError when foreign."""
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, (set, frozenset)):
            value = frozenset(value)
        if not self.contains(value):
            raise ValueError(f"{value!r} is not an element of {self.descriptor()}")
        return value

    def sort_key(self, value):
        """Key realizing the canonical carrier order."""
        return value

    # --- units ---

    def unit_inverse(self, value):
        """The multiplicative inverse of ``value``, or None when not a unit.

        By default 1 is the only unit.
        """
        return self.one if value == self.one else None

    # --- structural facts used as preconditions ---

    @property
    def is_entire(self):
        """True when the semiring has no zero divisors."""
        raise NotImplementedError

    @property
    def is_nilpotent_free(self):
        """True when x^k = 0 implies x = 0."""
        raise NotImplementedError

    def ensure_antiring(self):
        """Raise unless this is a commutative zerosumfree semiring.

        Built-ins satisfy this by construction; table semirings are checked
        once against their operation tables.
        """

    def ensure_nilpotent_free(self):
        """Raise unless this is a commutative antiring without nonzero nilpotents."""
        self.ensure_antiring()
        if not self.is_nilpotent_free:
            raise PreconditionError(
                f"{self.descriptor()} has nonzero nilpotent elements"
            )

    # --- the atoms of 1 ---

    @property
    def atoms(self):
        """The maximal orthogonal decomposition of 1, built and validated once.

        Defined on nondegenerate commutative antirings, which is checked
        first (DegenerateSemiringError, then PreconditionError).  The parts
        come from :meth:`_atom_parts`; the result is kept on the instance, so
        it lives exactly as long as the semiring does.  The lock-free fill is
        idempotent: threads that race build equal decompositions.
        """
        if self._atoms is None:
            self.ensure_nondegenerate()
            self.ensure_antiring()
            self._atoms = OrthogonalDecomposition(self, self._atom_parts())
        return self._atoms

    def _atom_parts(self):
        """Parts of the maximal orthogonal decomposition of 1.

        {1} over an entire semiring, where orthogonal nonzero parts would be
        zero divisors; a semiring with zero divisors must say its own.
        """
        if not self.is_entire:
            raise NotImplementedError(
                f"{self.descriptor()} has zero divisors and names no atoms of 1"
            )
        return (self.one,)

    @property
    def characters(self):
        """The Boolean characters phi: S -> B, built once: semiring maps that
        together detect every nonzero element, each a predicate truthy
        exactly where phi is 1.  Those of atoms with entire components come
        first, in the atoms' order.

        Defined on nondegenerate commutative antirings without nonzero
        nilpotents, which is checked first.  Kept on the instance like
        ``atoms``.
        """
        if self._characters is None:
            self.ensure_nondegenerate()
            self.ensure_nilpotent_free()
            self._characters = tuple(self._find_characters())
        return self._characters

    def _find_characters(self):
        """x -> [x != 0], the one character of an entire semiring; the
        carriers with zero divisors find their own."""
        return (self.zero.__ne__,)

    @property
    def has_entire_components(self):
        """True when every component e*S of the atoms of 1 is entire: then
        S is a product of entire antirings, with one character per atom."""
        return self.is_nilpotent_free and len(self.characters) == self.atoms.length

    # --- text form of single elements ---

    #: The text of one payload; ``parse_element`` reads it back.
    format_element = str

    def _read(self, token):
        """The payload a literal names, before the membership check."""
        return _parse_int(token, self.descriptor())

    def parse_element(self, token):
        value = self._read(token)
        if not self.contains(value):
            raise FormatError(f"{token} is not an element of {self.descriptor()}")
        return value


class OrthogonalDecomposition(Record):
    """Nonzero elements summing to 1 with pairwise products 0.

    Parts are kept in canonical carrier order.  Each part is necessarily
    idempotent: a_i = a_i * sum(a_j) = a_i^2.
    """

    __slots__ = ("semiring", "parts")

    def __init__(self, semiring, parts):
        parts = tuple(sorted((semiring.coerce(p) for p in parts), key=semiring.sort_key))
        super().__init__(semiring, parts)
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

    @property
    def length(self):
        return len(self.parts)


def _parse_int(token, what):
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"bad {what} literal {token!r}") from None


class Chain(Semiring):
    """The chain lattice {0, ..., q-1}: addition is max, multiplication is min.

    A finite entire commutative antiring whose only unit is 1 (min(a, b) =
    q-1 forces a = b = q-1).  ``Chain(2)`` is the Boolean semiring and prints
    as ``boolean``; ``Chain(1)`` is the degenerate one-element semiring
    (accepted here, rejected by matrix operations).
    """

    is_finite = True
    is_entire = True
    is_nilpotent_free = True

    def __init__(self, q):
        if q < 1:
            raise ValueError("chain semiring needs q >= 1")
        self.q = q
        self.size = q
        self.zero = 0
        self.one = q - 1
        self.add = max
        self.mul = min

    def descriptor(self):
        return "boolean" if self.q == 2 else f"chain:{self.q}"

    def elements(self):
        return list(range(self.q))

    def contains(self, value):
        return isinstance(value, int) and 0 <= value < self.q


class Powerset(Semiring):
    """Subsets of {1..m} under union (addition) and intersection (multiplication).

    A finite commutative antiring; not entire once m >= 2 (disjoint nonempty
    sets are zero divisors).  Its only unit is 1, since a ∩ b is the full set
    only when a = b = full set.  Canonical order is by characteristic bitmask.
    """

    is_finite = True
    is_nilpotent_free = True

    def __init__(self, m):
        if m < 0:
            raise ValueError("powerset semiring needs m >= 0")
        self.m = m
        self.size = 2**m
        self.zero = frozenset()
        self.one = frozenset(range(1, m + 1))
        self.add = frozenset.union
        self.mul = frozenset.intersection

    def descriptor(self):
        return f"powerset:{self.m}"

    def elements(self):
        base = range(1, self.m + 1)
        return [
            frozenset(b for i, b in enumerate(base) if mask >> i & 1)
            for mask in range(self.size)
        ]

    def contains(self, value):
        return isinstance(value, frozenset) and all(
            isinstance(x, int) and 1 <= x <= self.m for x in value
        )

    def sort_key(self, value):
        return sum(1 << (x - 1) for x in value)

    @property
    def is_entire(self):
        return self.m <= 1

    def _atom_parts(self):
        # the singletons, in closed form: refining over 2^m idempotents does not scale
        return [frozenset([x]) for x in range(1, self.m + 1)]

    def _find_characters(self):
        # x -> [i in x] in closed form, one per atom {i}, in the atoms' order
        return [frozenset([i]).intersection for i in range(1, self.m + 1)]

    def format_element(self, value):
        return "{" + ",".join(str(x) for x in sorted(value)) + "}"

    def _read(self, token):
        if not (token.startswith("{") and token.endswith("}")):
            raise FormatError(f"bad subset literal {token!r} (expected e.g. {{1,3}})")
        return frozenset(
            _parse_int(t, "subset member") for t in token[1:-1].split(",") if t.strip()
        )


class Naturals(Semiring):
    """Nonnegative integers with ordinary + and *: an infinite entire antiring."""

    is_entire = True
    is_nilpotent_free = True

    def __init__(self):
        self.zero = 0
        self.one = 1
        self.add = int.__add__
        self.mul = int.__mul__

    def descriptor(self):
        return "naturals"

    def contains(self, value):
        return isinstance(value, int) and value >= 0


def _minplus_mul(a, b):
    # int + int stays exact; anything + INF is INF
    return a + b


class MinPlus(Semiring):
    """The min-plus (tropical) semiring over the integers plus infinity.

    Addition is min, multiplication is integer addition; INF is the additive
    identity and 0 the multiplicative one.  Integer payloads keep equality
    exact; every finite payload is a unit with inverse -x.
    """

    is_entire = True
    is_nilpotent_free = True

    def __init__(self):
        self.zero = INF
        self.one = 0
        self.add = min
        self.mul = _minplus_mul

    def descriptor(self):
        return "tropical"

    def contains(self, value):
        return value == INF or isinstance(value, int)

    def unit_inverse(self, value):
        return None if value == INF else -value

    def format_element(self, value):
        return "inf" if value == INF else str(value)

    def _read(self, token):
        return INF if token == "inf" else super()._read(token)


class FiniteTables(Record):
    """Operation tables of a finite magma pair: the raw data of a candidate semiring.

    Construction checks well-formedness only (shape and index range, with the
    offending cell named); whether the tables satisfy the semiring axioms is
    the business of :func:`validate_axioms`.
    """

    __slots__ = ("size", "add_table", "mul_table", "zero_index", "one_index")

    def __init__(self, size, add_table, mul_table, zero_index, one_index):
        super().__init__(size, add_table, mul_table, zero_index, one_index)
        if self.size < 1:
            raise FormatError("table size must be >= 1")
        for name, table in (("add", self.add_table), ("mul", self.mul_table)):
            if len(table) != self.size:
                raise FormatError(f"{name} table has {len(table)} rows, expected {self.size}")
            for i, row in enumerate(table):
                if len(row) != self.size:
                    raise FormatError(
                        f"{name} table row {i} has {len(row)} entries, expected {self.size}"
                    )
                for j, v in enumerate(row):
                    if not isinstance(v, int) or not 0 <= v < self.size:
                        raise FormatError(
                            f"{name} table cell ({i},{j}) = {v!r} is out of range 0..{self.size - 1}"
                        )
        for name, idx in (("zero", self.zero_index), ("one", self.one_index)):
            if not isinstance(idx, int) or not 0 <= idx < self.size:
                raise FormatError(f"{name} index {idx!r} out of range 0..{self.size - 1}")


#: Laws checked by validate_axioms, grouped under the flag they support.
SEMIRING_LAWS = (
    "add_associative",
    "add_commutative",
    "add_identity",
    "mul_associative",
    "mul_identity",
    "distributive_left",
    "distributive_right",
    "annihilating_zero",
)


class AxiomReport(Record):
    """Outcome of the exhaustive axiom scan over a finite operation table.

    ``witnesses`` maps a law name to a tuple of counterexample index tuples;
    a flag is False exactly when one of its laws has witnesses.
    """

    FLAGS = (
        "is_semiring",
        "is_commutative",
        "is_zerosumfree",
        "is_entire",
        "has_no_nonzero_nilpotents",
    )
    __slots__ = (*FLAGS, "witnesses")

    def __init__(self, is_semiring, is_commutative, is_zerosumfree, is_entire,
                 has_no_nonzero_nilpotents, witnesses):
        super().__init__(is_semiring, is_commutative, is_zerosumfree, is_entire,
                         has_no_nonzero_nilpotents, witnesses)

    @property
    def is_commutative_antiring(self):
        return self.is_semiring and self.is_commutative and self.is_zerosumfree


#: Largest table validate_axioms scans: its rows are gathered as bytes.
MAX_VALIDATE_SIZE = 256

#: The four laws over triples (a, b, c), in the order they are checked.
_TRIPLE_LAWS = ("add_associative", "mul_associative", "distributive_left", "distributive_right")


def _first_difference(lhs, rhs, n, by_column=False):
    """The lexicographically first (b, c) at which two n*n cell strings differ.

    Cell (b, c) is byte b*n + c, or c*n + b with ``by_column``.
    """
    cells = (divmod(i, n) for i, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
    return min((b, c) for c, b in cells) if by_column else next(cells)


def validate_axioms(tables):
    """Exhaustively check the semiring axioms and the antiring predicates.

    Scans all pairs/triples of ``tables``; every failed law gets (at least)
    its first counterexample recorded as a tuple of carrier indices, first
    in (a, b, c) order.  The identity and pair laws are read cell by cell.
    Each triple law is checked one ``a`` at a time: both of its sides over
    every (b, c) are built as one n*n-byte string, by ``bytes.translate``
    through table rows stored as ``bytes``, and only sides that differ are
    scanned for the first (b, c).  So a table of more than
    ``MAX_VALIDATE_SIZE`` (256) elements, whose indices do not fit a byte,
    is refused with BudgetExceededError.
    """
    n = tables.size
    if n > MAX_VALIDATE_SIZE:
        raise BudgetExceededError(
            f"table has {n} elements, over the axiom-scan cap of {MAX_VALIDATE_SIZE}",
            required=n,
        )
    add = tables.add_table
    mul = tables.mul_table
    zero = tables.zero_index
    one = tables.one_index
    rng = range(n)
    witnesses = {}

    def record(law, *idx):
        witnesses.setdefault(law, []).append(tuple(idx))

    # rows as bytes, and the same padded to 256 bytes as translate tables
    A = [bytes(row) for row in add]
    M = [bytes(row) for row in mul]
    MT = [bytes(col) for col in zip(*mul)]  # MT[c][b] = mul[b][c]
    pad = bytes(256 - n)
    At, Mt, MTt = ([row + pad for row in rows] for rows in (A, M, MT))
    flat_add, flat_mul, join = b"".join(A), b"".join(M), b"".join

    def sides(law, a):
        """Both sides of a triple law at ``a``, cell (b, c) at byte b*n + c
        (c*n + b for distributive_right)."""
        if law == "add_associative":  # (a+b)+c, a+(b+c)
            return join([A[x] for x in A[a]]), flat_add.translate(At[a])
        if law == "mul_associative":
            return join([M[x] for x in M[a]]), flat_mul.translate(Mt[a])
        if law == "distributive_left":  # a(b+c), ab+ac
            return flat_add.translate(Mt[a]), join([M[a].translate(At[x]) for x in M[a]])
        # (a+b)c, ac+bc
        return (join([A[a].translate(MTt[c]) for c in rng]),
                join([MT[c].translate(At[x]) for c, x in enumerate(M[a])]))

    for a in rng:
        if add[a][zero] != a or add[zero][a] != a:
            record("add_identity", a)
        if mul[a][one] != a or mul[one][a] != a:
            record("mul_identity", a)
        if mul[a][zero] != zero or mul[zero][a] != zero:
            record("annihilating_zero", a)
        for b in rng:
            if add[a][b] != add[b][a] and "add_commutative" not in witnesses:
                record("add_commutative", a, b)
            if mul[a][b] != mul[b][a] and "mul_commutative" not in witnesses:
                record("mul_commutative", a, b)
            if add[a][b] == zero and (a, b) != (zero, zero) and "zerosumfree" not in witnesses:
                record("zerosumfree", a, b)
            if mul[a][b] == zero and a != zero and b != zero and "entire" not in witnesses:
                record("entire", a, b)
        for law in _TRIPLE_LAWS:
            if law not in witnesses:
                lhs, rhs = sides(law, a)
                if lhs != rhs:
                    record(law, a, *_first_difference(lhs, rhs, n, law == "distributive_right"))

    # laws in the order a cell-by-cell scan meets them: by first witness
    # (identity (a,) before pair (a, b) before triple (a, b, c)), ties as checked
    witnesses = dict(sorted(witnesses.items(), key=lambda item: item[1][0]))

    # x nilpotent iff x^|S| = 0: the multiplicative orbit of x cycles within |S| steps
    for x in rng:
        if x == zero:
            continue
        p = x
        for k in range(2, n + 1):
            p = mul[p][x]
            if p == zero:
                record("nilpotent_free", x, k)
                break

    witnesses = {law: tuple(ws) for law, ws in witnesses.items()}
    return AxiomReport(
        is_semiring=not any(law in witnesses for law in SEMIRING_LAWS),
        is_commutative="mul_commutative" not in witnesses,
        is_zerosumfree="zerosumfree" not in witnesses,
        is_entire="entire" not in witnesses,
        has_no_nonzero_nilpotents="nilpotent_free" not in witnesses,
        witnesses=witnesses,
    )


class TableSemiring(Semiring):
    """A finite semiring given by explicit operation tables; payloads are indices.

    Elements compare by index.  The axiom report is computed lazily, once,
    and consulted by the operations whose correctness depends on the antiring
    axioms.
    """

    is_finite = True

    def __init__(self, tables, source=None):
        self.tables = tables
        self.source = source
        self.size = tables.size
        self.zero = tables.zero_index
        self.one = tables.one_index
        add_t = tables.add_table
        mul_t = tables.mul_table
        self.add = lambda a, b: add_t[a][b]
        self.mul = lambda a, b: mul_t[a][b]
        self._report = None
        self._units = None

    def __reduce__(self):
        return TableSemiring, (self.tables, self.source)

    def _key(self):
        return (
            "table",
            self.tables.add_table,
            self.tables.mul_table,
            self.zero,
            self.one,
        )

    def descriptor(self):
        return f"table:{self.source}" if self.source else "table:<anonymous>"

    def elements(self):
        return list(range(self.size))

    def contains(self, value):
        return isinstance(value, int) and 0 <= value < self.size

    @property
    def axiom_report(self):
        if self._report is None:
            self._report = validate_axioms(self.tables)
        return self._report

    def ensure_antiring(self):
        rep = self.axiom_report
        if not rep.is_commutative_antiring:
            failed = [law for law in rep.witnesses if law != "entire" and law != "nilpotent_free"]
            raise PreconditionError(
                f"{self.descriptor()} is not a commutative antiring "
                f"(failed: {', '.join(sorted(failed))})"
            )

    def _atom_parts(self):
        """Greedy refinement of {1}: a part e splits into (x, y) when x and y
        are nonzero with x + y = e and x*y = 0.

        Zerosumfreeness makes x and y orthogonal to the other parts, and any
        maximal refinement is the unique maximal decomposition.  Only
        idempotents can appear as parts, so only idempotent pairs are scanned.
        """
        mul, add, zero = self.mul, self.add, self.zero
        idem = [x for x in range(self.size) if mul(x, x) == x and x != zero]
        parts = [self.one]
        changed = True
        while changed:
            changed = False
            for idx, e in enumerate(parts):
                split = next(
                    ((x, y) for x in idem for y in idem
                     if add(x, y) == e and mul(x, y) == zero),
                    None,
                )
                if split:
                    parts[idx:idx + 1] = split
                    changed = True
                    break
        return parts

    @property
    def is_entire(self):
        return self.axiom_report.is_entire

    def _find_characters(self):
        """x -> [e*x != 0] for each atom e where that is a character (its
        component is entire); then, for each nonzero x that none found yet
        detects, the complement of a maximal strong ideal P missing the
        powers of x, grown from {0} in carrier order.

        P takes the next element s whenever the strong ideal P and s
        generate still misses the powers.  That ideal is the down-closure
        {a : a + b in P + S*s for some b} of the ideal P + S*s, since the
        down-closure of an ideal is a strong ideal and a strong ideal is
        down-closed.  One pass in carrier order makes P maximal: a refused s
        stays refused as P grows.

        Every map is checked against the tables.  A grown one that is no
        semiring map raises RuntimeError; by the theorem in the module
        docstring that takes a nonzero nilpotent, which
        ``ensure_nilpotent_free`` has already refused.
        """
        zero, one, rng = self.zero, self.one, range(self.size)
        add_t, mul_t = self.tables.add_table, self.tables.mul_table

        def is_character(ones):
            return zero not in ones and one in ones and all(
                (add_t[a][b] in ones) == (a in ones or b in ones)
                and (mul_t[a][b] in ones) == (a in ones and b in ones) for a in rng for b in rng)

        found = [c for e in self.atoms.parts
                 if is_character(c := frozenset(x for x in rng if mul_t[e][x] != zero))]
        for x in rng:
            if x != zero and not any(x in c for c in found):
                # x, x^2, ..., x^(size+1): every power, as the orbit cycles within size steps
                powers = set(itertools.accumulate(rng, lambda p, _: mul_t[p][x], initial=x))
                ideal = {zero}
                for s in rng:
                    sums = {add_t[p][m] for p in ideal for m in mul_t[s]}
                    if powers.isdisjoint(grown := {a for a in rng if not sums.isdisjoint(add_t[a])}):
                        ideal = grown
                found.append(frozenset(rng) - ideal)
                if not is_character(found[-1]):
                    raise RuntimeError(f"{self.descriptor()}: a grown strong ideal is not prime")
        return [c.__contains__ for c in found]

    @property
    def is_nilpotent_free(self):
        return self.axiom_report.has_no_nonzero_nilpotents

    def unit_inverse(self, value):
        if self._units is None:
            units = {}
            for a in range(self.size):
                for b in range(self.size):
                    if self.mul(a, b) == self.one and self.mul(b, a) == self.one:
                        units.setdefault(a, b)
            self._units = units
        return self._units.get(value)


# cached built-in constructors: semirings are value objects, sharing is free


@cache
def chain(q):
    """The chain lattice with q levels."""
    return Chain(q)


def boolean():
    """The Boolean semiring (the two-level chain)."""
    return chain(2)


@cache
def powerset(m):
    """The powerset lattice over {1..m}."""
    return Powerset(m)


@cache
def naturals():
    return Naturals()


@cache
def tropical():
    """The integer min-plus semiring."""
    return MinPlus()


def table_semiring(tables, source=None):
    return TableSemiring(tables, source)


def to_tables(semiring):
    """Materialize a finite semiring's operations as FiniteTables."""
    if not semiring.is_finite:
        raise UnsupportedOperationError(
            f"cannot materialize tables of infinite {semiring.descriptor()}"
        )
    elems = semiring.elements()
    index = {v: i for i, v in enumerate(elems)}
    add = tuple(tuple(index[semiring.add(a, b)] for b in elems) for a in elems)
    mul = tuple(tuple(index[semiring.mul(a, b)] for b in elems) for a in elems)
    return FiniteTables(
        size=len(elems),
        add_table=add,
        mul_table=mul,
        zero_index=index[semiring.zero],
        one_index=index[semiring.one],
    )


# --- text formats ---


def strip_comments(text):
    """Tokenizable lines of a config-style text: '#' comments and blanks dropped."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def parse_tables(text):
    """Parse the finite-tables text format.

    Layout: ``size k`` / ``zero i`` / ``one j`` / ``add`` + k rows / ``mul``
    + k rows.  Comments start with '#'.
    """
    lines = strip_comments(text)
    if len(lines) < 3:
        raise FormatError("tables file too short (need size/zero/one headers)")

    def header(idx, name):
        parts = lines[idx].split()
        if len(parts) != 2 or parts[0] != name:
            raise FormatError(f"expected '{name} <int>' on line {idx + 1}, got {lines[idx]!r}")
        return _parse_int(parts[1], name)

    size = header(0, "size")
    zero = header(1, "zero")
    one = header(2, "one")

    pos = 3
    blocks = {}
    for name in ("add", "mul"):
        if pos >= len(lines) or lines[pos] != name:
            raise FormatError(f"expected '{name}' block at line {pos + 1}")
        pos += 1
        rows = []
        for r in range(size):
            if pos >= len(lines):
                raise FormatError(f"{name} table is missing row {r}")
            toks = lines[pos].split()
            if len(toks) != size:
                raise FormatError(
                    f"{name} table row {r} has {len(toks)} entries, expected {size}"
                )
            rows.append(tuple(_parse_int(t, f"{name}[{r}]") for t in toks))
            pos += 1
        blocks[name] = tuple(rows)
    if pos != len(lines):
        raise FormatError(f"trailing content after tables at line {pos + 1}")

    return FiniteTables(
        size=size,
        add_table=blocks["add"],
        mul_table=blocks["mul"],
        zero_index=zero,
        one_index=one,
    )


def format_tables(tables):
    lines = [f"size {tables.size}", f"zero {tables.zero_index}", f"one {tables.one_index}", "add"]
    lines += [" ".join(str(v) for v in row) for row in tables.add_table]
    lines.append("mul")
    lines += [" ".join(str(v) for v in row) for row in tables.mul_table]
    return "\n".join(lines) + "\n"


def parse_tables_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tables(fh.read())


def parse_semiring(descriptor, base_dir="."):
    """Resolve a descriptor string (``boolean``, ``chain:<q>``, ``powerset:<m>``,
    ``naturals``, ``tropical``, ``table:<path>``) to a semiring instance.

    Table paths are resolved relative to ``base_dir``.
    """
    desc = descriptor.strip()
    if desc == "boolean":
        return boolean()
    if desc == "naturals":
        return naturals()
    if desc == "tropical":
        return tropical()
    if desc.startswith("chain:"):
        q = _parse_int(desc[6:], "chain size")
        if q < 1:
            raise FormatError(f"chain size must be >= 1, got {q}")
        return chain(q)
    if desc.startswith("powerset:"):
        m = _parse_int(desc[9:], "powerset size")
        if m < 0:
            raise FormatError(f"powerset size must be >= 0, got {m}")
        return powerset(m)
    if desc.startswith("table:"):
        rel = desc[6:]
        path = rel if os.path.isabs(rel) else os.path.join(base_dir, rel)
        try:
            tables = parse_tables_file(path)
        except OSError as exc:
            raise FormatError(f"cannot read tables file {path}: {exc}") from None
        return TableSemiring(tables, source=rel)
    raise FormatError(f"unknown semiring descriptor {descriptor!r}")
