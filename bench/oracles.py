"""Reference answers that share no code with the library under test.

Every check in the benchmark compares a library answer with one of:

* the generator's own construction (planted DAGs, units/atoms/permutations,
  planted negatives), evaluated here with plain Python on the carrier payloads;
* the q-basis recurrence for the nilpotent count, in Python ints, pinned to
  the OEIS A003024 constants;
* structural checks (square-zero summands, triangular forms, set partitions,
  an axiom scan over operation tables).

Nothing here imports ``antiring``: carriers are described by ``Carrier``
objects that carry their own zero, addition and multiplication.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

INF = math.inf

#: Labeled acyclic digraphs on n vertices, n = 0..10 (OEIS A003024).
A003024 = (
    1, 1, 3, 25, 543, 29281, 3781503, 1138779265, 783702329343,
    1213442454842881, 4175098976430598143,
)


@dataclass(frozen=True)
class Carrier:
    """A built-in semiring as the oracle sees it: descriptor plus plain ops.

    ``atoms(v)`` is the set of atom labels whose projection of v is nonzero;
    entire carriers have the single atom 1.  Nilpotency over a powerset
    lattice is nilpotency of each Boolean projection, so this one map is
    enough to predict nilpotency and the nilpotency index on every carrier.
    """

    descriptor: str
    zero: object
    one: object
    entire: bool
    kind: str
    m: int = 1  # atom count of 1 (powerset:m) -- 1 elsewhere
    q: int = 0  # carrier size for chains

    def add(self, a, b):
        k = self.kind
        if k == "chain":
            return max(a, b)
        if k == "powerset":
            return a | b
        if k == "tropical":
            return min(a, b)
        return a + b

    def mul(self, a, b):
        k = self.kind
        if k == "chain":
            return min(a, b)
        if k == "powerset":
            return a & b
        if k == "tropical":
            return a + b
        return a * b

    def unit_inverse(self, v):
        if self.kind == "tropical":
            return -v
        if v != self.one:
            raise ValueError(f"{v!r} is not a unit of {self.descriptor}")
        return v

    def atoms(self, v):
        if v == self.zero:
            return frozenset()
        if self.kind == "powerset":
            return v
        return frozenset((1,))

    def token(self, v):
        """The literal of v in the matrix text format."""
        if self.kind == "powerset":
            return "{" + ",".join(str(x) for x in sorted(v)) + "}"
        if self.kind == "tropical" and v == INF:
            return "inf"
        return str(v)

    def parse_token(self, tok):
        if self.kind == "powerset":
            body = tok.strip()[1:-1]
            return frozenset(int(t) for t in body.split(",") if t.strip())
        if self.kind == "tropical" and tok == "inf":
            return INF
        return int(tok)


def carrier(descriptor):
    if descriptor == "boolean":
        return Carrier("boolean", 0, 1, True, "chain", q=2)
    if descriptor.startswith("chain:"):
        q = int(descriptor[6:])
        return Carrier(descriptor, 0, q - 1, True, "chain", q=q)
    if descriptor.startswith("powerset:"):
        m = int(descriptor[9:])
        return Carrier(descriptor, frozenset(), frozenset(range(1, m + 1)), m <= 1, "powerset", m=m)
    if descriptor == "tropical":
        return Carrier("tropical", INF, 0, True, "tropical")
    if descriptor == "naturals":
        return Carrier("naturals", 0, 1, True, "naturals")
    raise ValueError(f"no oracle carrier for {descriptor!r}")


# --- counting: the q-basis recurrence ---------------------------------------
#
# B_n(q) = A_n(q - 1) = sum_{m=1..n} (-1)^(m-1) C(n,m) q^(m(n-m)) B_{n-m}(q),
# B_0 = 1.  Multiplying by q^e is a shift of the coefficient list.


@lru_cache(maxsize=None)
def nilpotent_count(n, q):
    """Nilpotent n x n matrices over an entire antiring with q elements."""
    b = [1]
    for k in range(1, n + 1):
        b.append(sum(
            (-1) ** (m - 1) * math.comb(k, m) * q ** (m * (k - m)) * b[k - m]
            for m in range(1, k + 1)
        ))
    return b[n]


@lru_cache(maxsize=None)
def count_poly_q(n):
    """Coefficients (low degree first) of B_n(q) = A_n(q - 1) in q."""
    polys = [(1,)]
    for k in range(1, n + 1):
        out = [0] * (k * (k - 1) // 2 + 1)
        for m in range(1, k + 1):
            c = (-1) ** (m - 1) * math.comb(k, m)
            shift = m * (k - m)
            for d, v in enumerate(polys[k - m]):
                out[d + shift] += c * v
        while out and out[-1] == 0:
            out.pop()
        polys.append(tuple(out))
    return polys[n]


@lru_cache(maxsize=None)
def acyclic_poly_x(n):
    """Coefficients of A_n(x) = B_n(x + 1) in x (Taylor shift by +1)."""
    b = count_poly_q(n)
    out = [sum(bk * math.comb(k, j) for k, bk in enumerate(b) if k >= j) for j in range(len(b))]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def bell(m):
    """Number of set partitions of an m-set."""
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def tracezero_capacity(n):
    big = 0
    while math.comb(big, (big + 1) // 2) < n:
        big += 1
    return big


def log2_ceil(n):
    return (n - 1).bit_length()


# --- digraph facts of a planted matrix ---------------------------------------


def _longest_path(n, edges):
    """Longest path length (edges) of a digraph, or None when it has a cycle."""
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for i, j in edges:
        if i == j:
            return None
        succ[i].append(j)
        indeg[j] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    dist = [0] * n
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for w in succ[v]:
            dist[w] = max(dist[w], dist[v] + 1)
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    if seen != n:
        return None
    return max(dist)


def nilpotency_facts(rows, car):
    """(is_nilpotent, index or None) of a matrix given by payload rows.

    Over entire carriers this is acyclicity of the support and longest path
    + 1.  Over powerset:m it is the same test on each atom's Boolean
    projection, the index being the largest projection index.
    """
    n = len(rows)
    per_atom = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            for a in car.atoms(v):
                per_atom.setdefault(a, []).append((i, j))
    index = 1
    for edges in per_atom.values():
        lp = _longest_path(n, edges)
        if lp is None:
            return False, None
        index = max(index, lp + 1)
    return True, index


# --- structural checks --------------------------------------------------------


def rows_of(matrix):
    return [list(r) for r in matrix.rows]


def check_strictly_upper_conjugate(source_rows, upper_rows, images, car):
    """B strictly upper triangular and B(p(a), p(b)) = A(a, b) (1-based p)."""
    n = len(source_rows)
    if sorted(images) != list(range(1, n + 1)):
        return "triangularize permutation is not a permutation"
    for i in range(n):
        for j in range(i + 1):
            if upper_rows[i][j] != car.zero:
                return f"entry ({i + 1},{j + 1}) on or below the diagonal is nonzero"
    for a in range(n):
        pa = images[a] - 1
        for b in range(n):
            if upper_rows[pa][images[b] - 1] != source_rows[a][b]:
                return f"B(p({a + 1}),p({b + 1})) differs from A({a + 1},{b + 1})"
    return None


def check_square_zero(source_rows, summand_rows, car, cap):
    """Square-zero decomposition: structure, entrywise sum, summand count."""
    n = len(source_rows)
    if len(summand_rows) > cap:
        return f"{len(summand_rows)} summands exceed the bound {cap}"
    total = [[car.zero] * n for _ in range(n)]
    for k, b in enumerate(summand_rows):
        if len(b) != n or any(len(r) != n for r in b):
            return f"summand {k} has the wrong shape"
        tails, heads = set(), set()
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                if v != car.zero:
                    tails.add(i)
                    heads.add(j)
                    cur = total[i][j]
                    total[i][j] = v if cur == car.zero else car.add(cur, v)
        both = tails & heads
        if both:
            return f"summand {k}: vertex {min(both) + 1} has an in-edge and an out-edge"
    if total != [list(r) for r in source_rows]:
        return "summands do not sum to the source entrywise"
    return None


def inverse_rows(n, car, units, atoms, perms):
    """Inverse of D * sum_t e_t P_t: e_t * d_c^-1 sits at (sigma_t(c), c)."""
    out = [[car.zero] * n for _ in range(n)]
    for e, p in zip(atoms, perms):
        for c in range(n):
            r = p[c] - 1
            v = car.mul(e, car.unit_inverse(units[c]))
            cur = out[r][c]
            out[r][c] = v if cur == car.zero else car.add(cur, v)
    return out


def expected_terms(car, atoms, perms):
    """The factorization terms: a_sigma = sum of the atoms using sigma."""
    grouped = {}
    for e, p in zip(atoms, perms):
        cur = grouped.get(p)
        grouped[p] = e if cur is None else car.add(cur, e)
    return sorted(((a, p) for p, a in grouped.items()), key=lambda t: t[1])


def gl_members(car, n):
    """Row tuples of every invertible n x n matrix over chain:q or powerset:m
    (their only unit is 1, so each is sum_t e_t P_{sigma_t})."""
    perms = list(itertools.permutations(range(n)))
    atoms = [frozenset((t,)) for t in range(1, car.m + 1)] if car.kind == "powerset" else [car.one]
    out = set()
    for choice in itertools.product(perms, repeat=len(atoms)):
        rows = [[car.zero] * n for _ in range(n)]
        for e, p in zip(atoms, choice):
            for i in range(n):
                cur = rows[i][p[i]]
                rows[i][p[i]] = e if cur == car.zero else car.add(cur, e)
        out.add(tuple(tuple(r) for r in rows))
    return out


def set_partitions(items):
    """All set partitions of a list, as frozensets of frozenset blocks."""
    if not items:
        return {frozenset()}
    first, rest = items[0], items[1:]
    out = set()
    for part in set_partitions(rest):
        out.add(part | {frozenset((first,))})
        for block in part:
            out.add((part - {block}) | {block | {first}})
    return out


def axiom_flags(size, add, mul, zero, one):
    """The five flags of an operation table, by a direct scan of the laws."""
    r = range(size)
    semiring = all(
        add[a][zero] == a and add[zero][a] == a and mul[a][one] == a and mul[one][a] == a
        and mul[a][zero] == zero and mul[zero][a] == zero
        for a in r
    ) and all(add[a][b] == add[b][a] for a in r for b in r) and all(
        add[add[a][b]][c] == add[a][add[b][c]]
        and mul[mul[a][b]][c] == mul[a][mul[b][c]]
        and mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
        and mul[add[a][b]][c] == add[mul[a][c]][mul[b][c]]
        for a in r for b in r for c in r
    )

    def nilpotent(x):
        p = x
        for _ in range(size):
            if p == zero:
                return True
            p = mul[p][x]
        return p == zero

    return {
        "is_semiring": semiring,
        "is_commutative": all(mul[a][b] == mul[b][a] for a in r for b in r),
        "is_zerosumfree": all(add[a][b] != zero for a in r for b in r if (a, b) != (zero, zero)),
        "is_entire": all(mul[a][b] != zero for a in r for b in r if a != zero and b != zero),
        "has_no_nonzero_nilpotents": not any(nilpotent(x) for x in r if x != zero),
    }


def powerset_tables(m, labels):
    """Operation tables of powerset:m with subset ``s`` stored at index labels[s].

    Subsets are keyed by bitmask; returns (add, mul, zero, one) index tables.
    """
    size = 1 << m
    add = [[0] * size for _ in range(size)]
    mul = [[0] * size for _ in range(size)]
    for a in range(size):
        for b in range(size):
            add[labels[a]][labels[b]] = labels[a | b]
            mul[labels[a]][labels[b]] = labels[a & b]
    return add, mul, labels[0], labels[size - 1]
