import pickle
import random
import re
import time

import pytest

import antiring as ar
from antiring.errors import DegenerateSemiringError, FormatError

from conftest import (
    BUILTINS,
    builtin,
    carrier,
    five_element_lattice,
    non_split_carriers,
    random_value,
    relabeled,
)

BOOLEAN_TABLES = ar.FiniteTables(
    size=2,
    add_table=((0, 1), (1, 1)),
    mul_table=((0, 0), (0, 1)),
    zero_index=0,
    one_index=1,
)

MOD2_TABLES = ar.FiniteTables(
    size=2,
    add_table=((0, 1), (1, 0)),
    mul_table=((0, 0), (0, 1)),
    zero_index=0,
    one_index=1,
)

def test_validate_boolean_tables_all_flags_true():
    report = ar.validate_axioms(BOOLEAN_TABLES)
    assert report.is_semiring
    assert report.is_commutative
    assert report.is_zerosumfree
    assert report.is_entire
    assert report.has_no_nonzero_nilpotents
    assert report.witnesses == {}


def test_validate_mod2_not_zerosumfree_with_witness():
    report = ar.validate_axioms(MOD2_TABLES)
    assert report.is_semiring
    assert report.is_commutative
    assert not report.is_zerosumfree
    assert report.witnesses["zerosumfree"][0] == (1, 1)
    assert report.is_entire
    assert report.has_no_nonzero_nilpotents


def test_validate_powerset2_not_entire():
    # exhaustive check over all 4^3 triples of the 4-element lattice
    report = ar.validate_axioms(ar.to_tables(ar.powerset(2)))
    assert report.is_semiring
    assert report.is_commutative
    assert report.is_zerosumfree
    assert not report.is_entire
    # canonical order is {}, {1}, {2}, {1,2}: the witness is ({1}, {2})
    assert report.witnesses["entire"][0] == (1, 2)


def test_validate_identifies_malformed_cell():
    with pytest.raises(FormatError, match=r"\(1,0\)"):
        ar.FiniteTables(
            size=2,
            add_table=((0, 1), (7, 1)),
            mul_table=((0, 0), (0, 1)),
            zero_index=0,
            one_index=1,
        )


@pytest.mark.parametrize(
    "name,flags",
    [
        ("boolean", (True, True, True, True, True)),
        ("chain3", (True, True, True, True, True)),
        ("powerset2", (True, True, True, False, True)),
    ],
)
def test_builtin_tables_classification(name, flags):
    report = ar.validate_axioms(ar.to_tables(builtin(name)))
    got = tuple(getattr(report, f) for f in ar.AxiomReport.FLAGS)
    assert got == flags


def test_builtin_tables_classification_more_sizes():
    for sr in (ar.chain(5), ar.powerset(3), ar.chain(2)):
        report = ar.validate_axioms(ar.to_tables(sr))
        assert report.is_semiring and report.is_commutative and report.is_zerosumfree
        assert report.is_entire == sr.is_entire
        assert report.has_no_nonzero_nilpotents


def test_degenerate_semirings_validate_but_match_no_matrix():
    for sr in (ar.chain(1), ar.powerset(0)):
        report = ar.validate_axioms(ar.to_tables(sr))
        assert report.is_semiring
        with pytest.raises(DegenerateSemiringError):
            ar.Matrix(sr, [[sr.zero]])


def _cell_scan(t):
    """Reference for validate_axioms: the flags and witnesses of the
    cell-by-cell scan over pairs and triples (a, b, c), laws in the order
    the scan first meets them."""
    add, mul, zero, one, rng = t.add_table, t.mul_table, t.zero_index, t.one_index, range(t.size)
    triple_laws = {
        "add_associative": lambda a, b, c: add[add[a][b]][c] == add[a][add[b][c]],
        "mul_associative": lambda a, b, c: mul[mul[a][b]][c] == mul[a][mul[b][c]],
        "distributive_left": lambda a, b, c: mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]],
        "distributive_right": lambda a, b, c: mul[add[a][b]][c] == add[mul[a][c]][mul[b][c]],
    }
    witnesses = {}

    def record(law, *idx):
        witnesses.setdefault(law, []).append(idx)

    for a in rng:
        if add[a][zero] != a or add[zero][a] != a:
            record("add_identity", a)
        if mul[a][one] != a or mul[one][a] != a:
            record("mul_identity", a)
        if mul[a][zero] != zero or mul[zero][a] != zero:
            record("annihilating_zero", a)
        for b in rng:
            pair_laws = {
                "add_commutative": add[a][b] == add[b][a],
                "mul_commutative": mul[a][b] == mul[b][a],
                "zerosumfree": add[a][b] != zero or (a, b) == (zero, zero),
                "entire": mul[a][b] != zero or zero in (a, b),
            }
            for law, holds in pair_laws.items():
                if not holds and law not in witnesses:
                    record(law, a, b)
            for c in rng:
                for law, holds in triple_laws.items():
                    if law not in witnesses and not holds(a, b, c):
                        record(law, a, b, c)
    for x in rng:
        power = x
        for k in range(2, t.size + 1):
            power = mul[power][x]
            if x != zero and power == zero:
                record("nilpotent_free", x, k)
                break
    flags = (
        not any(law in witnesses for law in ar.semirings.SEMIRING_LAWS),
        "mul_commutative" not in witnesses,
        "zerosumfree" not in witnesses,
        "entire" not in witnesses,
        "nilpotent_free" not in witnesses,
    )
    return flags, [(law, tuple(ws)) for law, ws in witnesses.items()]


def _seeded_tables(rng):
    """Random tables, and relabeled built-in tables with 0-3 corrupted cells,
    of 1-16 elements, zero and one at random indices."""
    for _ in range(150):
        n = rng.randint(1, 16)
        yield ar.FiniteTables(
            n, *(tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)) for _ in "+*"),
            rng.randrange(n), rng.randrange(n))
    for _ in range(250):
        sr = rng.choice((ar.boolean(), ar.chain(2), ar.chain(5), ar.chain(16),
                         ar.powerset(2), ar.powerset(3), ar.powerset(4)))
        labels = list(range(sr.size))
        rng.shuffle(labels)
        tables = relabeled(sr, labels)[0].tables
        n = tables.size
        add, mul = ([list(row) for row in table] for table in (tables.add_table, tables.mul_table))
        for _ in range(rng.randint(0, 3)):
            rng.choice((add, mul))[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        yield ar.FiniteTables(n, tuple(map(tuple, add)), tuple(map(tuple, mul)),
                              tables.zero_index, tables.one_index)


def test_validate_axioms_matches_the_cell_by_cell_scan():
    rng = random.Random(2501)
    moved = 0
    for tables in _seeded_tables(rng):
        report = ar.validate_axioms(tables)
        flags = tuple(getattr(report, f) for f in ar.AxiomReport.FLAGS)
        assert (flags, list(report.witnesses.items())) == _cell_scan(tables), tables
        moved += (tables.zero_index, tables.one_index) != (0, 1)
    assert moved > 300


#: chain:4 under max/min with mul[2][3] corrupted from 2 to 3: at a = 2, the
#: first failing a, distributive_right fails at (b, c) = (2, 3) and (3, 2).
#: (c, b) order would meet (3, 2) first.
DISTRIBUTIVE_RIGHT_TWICE = ar.FiniteTables(
    size=4,
    add_table=((0, 1, 2, 3), (1, 1, 2, 3), (2, 2, 1, 3), (3, 3, 3, 3)),
    mul_table=((0, 0, 0, 0), (0, 1, 1, 1), (0, 1, 2, 3), (0, 1, 2, 3)),
    zero_index=0,
    one_index=3,
)


def test_distributive_right_witness_is_first_in_b_c_order():
    report = ar.validate_axioms(DISTRIBUTIVE_RIGHT_TWICE)
    assert report.witnesses["distributive_right"] == ((2, 2, 3),)
    flags = tuple(getattr(report, f) for f in ar.AxiomReport.FLAGS)
    assert (flags, list(report.witnesses.items())) == _cell_scan(DISTRIBUTIVE_RIGHT_TWICE)


def test_validate_axioms_classifies_256_elements_in_seconds():
    tables = ar.to_tables(ar.powerset(8))
    start = time.perf_counter()
    report = ar.validate_axioms(tables)
    elapsed = time.perf_counter() - start
    assert report.is_commutative_antiring and not report.is_entire
    assert report.has_no_nonzero_nilpotents
    assert elapsed < 2.0, elapsed


def test_validate_axioms_refuses_more_than_256_elements():
    tables = ar.to_tables(ar.chain(257))
    with pytest.raises(ar.BudgetExceededError, match="257 elements") as exc:
        ar.validate_axioms(tables)
    assert exc.value.required == 257
    sr = ar.table_semiring(tables)
    with pytest.raises(ar.BudgetExceededError):
        sr.is_entire


def test_chain_element_arithmetic():
    s = ar.chain(3)
    assert s.add(1, 2) == 2
    assert s.mul(1, 2) == 1


def test_naturals_element_arithmetic():
    s = ar.naturals()
    assert s.add(2, 3) == 5
    assert s.mul(2, 3) == 6


def test_tropical_element_arithmetic():
    s = ar.tropical()
    assert s.add(5, ar.INF) == 5
    assert s.mul(5, 7) == 12
    assert s.zero == ar.INF and s.one == 0


def test_units():
    p2 = ar.powerset(2)
    assert p2.unit_inverse(frozenset({1})) is None
    top = frozenset({1, 2})
    assert p2.unit_inverse(top) == top
    assert ar.tropical().unit_inverse(5) == -5
    assert ar.tropical().unit_inverse(ar.INF) is None
    assert ar.naturals().unit_inverse(1) == 1
    assert ar.naturals().unit_inverse(2) is None


def test_unit_inverse_symmetry_on_finite_builtins():
    for name in ("boolean", "chain3", "powerset2"):
        sr = builtin(name)
        for a in sr.elements():
            b = sr.unit_inverse(a)
            if b is not None:
                assert sr.mul(a, b) == sr.one
                assert sr.unit_inverse(b) == a


def test_no_nonzero_nilpotents_in_finite_builtins():
    for sr in (ar.boolean(), ar.chain(3), ar.chain(5), ar.powerset(2), ar.powerset(3)):
        for x in sr.elements():
            if x == sr.zero:
                continue
            p = x
            for _ in range(sr.size):
                p = sr.mul(p, x)
                assert p != sr.zero


def test_semiring_laws_random_triples_infinite_carriers():
    rng = random.Random(20240915)
    for name in ("naturals", "tropical"):
        sr = builtin(name)
        add, mul = sr.add, sr.mul
        for _ in range(10_000):
            a, b, c = (random_value(sr, rng) for _ in range(3))
            assert add(add(a, b), c) == add(a, add(b, c))
            assert add(a, b) == add(b, a)
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, b) == mul(b, a)
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
            assert add(a, sr.zero) == a
            assert mul(a, sr.one) == a
            assert mul(a, sr.zero) == sr.zero


def test_zerosumfree_in_random_samples():
    rng = random.Random(3)
    for name in BUILTINS:
        sr = builtin(name)
        for _ in range(2000):
            a, b = random_value(sr, rng), random_value(sr, rng)
            if sr.add(a, b) == sr.zero:
                assert a == sr.zero and b == sr.zero


def test_tables_text_round_trip():
    text = ar.format_tables(MOD2_TABLES)
    assert ar.parse_tables(text) == MOD2_TABLES
    # comments and blank lines are tolerated
    assert ar.parse_tables("# hi\n\n" + text) == MOD2_TABLES


def test_tables_text_errors():
    with pytest.raises(FormatError):
        ar.parse_tables("size 2\nzero 0\none 1\nadd\n0 1\n")  # missing rows
    with pytest.raises(FormatError):
        ar.parse_tables("size x\nzero 0\none 1\n")
    with pytest.raises(FormatError, match="out of range"):
        ar.parse_tables("size 2\nzero 0\none 5\nadd\n0 1\n1 1\nmul\n0 0\n0 1\n")


def test_parse_semiring_descriptors():
    assert ar.parse_semiring("boolean") is ar.boolean()
    assert ar.parse_semiring("chain:2") is ar.boolean()
    assert ar.parse_semiring("chain:7").q == 7
    assert ar.parse_semiring("powerset:3").m == 3
    assert ar.parse_semiring("naturals") is ar.naturals()
    assert ar.parse_semiring("tropical") is ar.tropical()
    with pytest.raises(FormatError):
        ar.parse_semiring("octonions")


def test_semiring_equality_follows_the_descriptor():
    assert ar.parse_semiring("chain:2") == ar.boolean()
    assert ar.chain(3) != ar.chain(4)
    assert ar.powerset(1) != ar.boolean()
    # an uncached instance equals the cached one and hashes alike
    fresh = ar.semirings.Chain(3)
    assert fresh is not ar.chain(3) and fresh == ar.chain(3)
    assert hash(fresh) == hash(ar.chain(3))


@pytest.mark.parametrize("name", ["boolean", "chain:3", "powerset:2", "naturals", "tropical"])
def test_a_builtin_unpickles_as_its_cached_instance(name):
    sr = ar.parse_semiring(name)
    assert pickle.loads(pickle.dumps(sr)) is sr


def test_a_matrix_pickles_after_its_atoms_were_read():
    c3 = ar.chain(3)
    a = ar.Matrix(c3, [[0, 2], [2, 0]])
    ar.gl_encode(a)  # reads and keeps c3.atoms
    assert pickle.loads(pickle.dumps(a)) == a


def test_a_table_semiring_pickles_after_its_atoms_were_read():
    table = ar.table_semiring(ar.to_tables(ar.powerset(2)), source="p2.txt")
    atoms = table.atoms
    back = pickle.loads(pickle.dumps(ar.Matrix(table, [[1, 2], [2, 1]])))
    assert back.semiring == table and back.semiring.descriptor() == "table:p2.txt"
    assert back.semiring.atoms == atoms
    assert ar.is_invertible(back)


def test_element_parse_and_format():
    p2 = ar.powerset(2)
    assert p2.parse_element("{1,2}") == frozenset({1, 2})
    assert p2.parse_element("{}") == frozenset()
    assert p2.format_element(frozenset({2, 1})) == "{1,2}"
    with pytest.raises(FormatError):
        p2.parse_element("{9}")
    t = ar.tropical()
    assert t.parse_element("inf") == ar.INF
    assert t.parse_element("-4") == -4
    assert t.format_element(ar.INF) == "inf"
    c = ar.chain(3)
    with pytest.raises(FormatError):
        c.parse_element("3")


def test_element_coercion_rejects_foreign_payloads():
    with pytest.raises(ValueError):
        ar.chain(3).coerce(5)
    with pytest.raises(ValueError):
        ar.powerset(2).coerce({3})
    with pytest.raises(ValueError):
        ar.naturals().coerce(-1)
    with pytest.raises(ValueError, match="is not an element of tropical"):
        ar.tropical().coerce(1.5)
    # sets are normalized to frozensets, bools to ints, a float infinity passes
    assert ar.powerset(2).coerce({1}) == frozenset({1})
    assert type(ar.chain(3).coerce(True)) is int
    assert ar.tropical().coerce(float("inf")) == ar.INF


#: One token per carrier that names no element of it (tropical holds every integer).
NON_MEMBERS = {
    "boolean": "2", "chain3": "3", "powerset2": "{3}", "naturals": "-1",
    "tropical": "1.5", "table": "3",
}

#: Sample payloads of the infinite carriers.
SAMPLES = {"naturals": [0, 1, 7], "tropical": [ar.INF, 0, 7, -3]}


@pytest.mark.parametrize("name", sorted(NON_MEMBERS))
def test_parse_element_reads_back_every_format_and_names_the_carrier(name):
    sr = carrier(name)
    for v in sr.elements() if sr.is_finite else SAMPLES[name]:
        assert sr.parse_element(sr.format_element(v)) == v
    with pytest.raises(FormatError, match=re.escape(sr.descriptor())):
        sr.parse_element(NON_MEMBERS[name])


def test_entire_components_are_a_carrier_fact():
    for name in BUILTINS:
        assert builtin(name).has_entire_components
    assert ar.powerset(3).has_entire_components and not ar.powerset(3).is_entire
    assert ar.table_semiring(ar.to_tables(ar.chain(3))).has_entire_components
    p3, _ = relabeled(ar.powerset(3), (5, 2, 7, 0, 3, 6, 1, 4))
    assert not p3.is_entire and p3.atoms.length == 3
    assert p3.has_entire_components
    lattice = five_element_lattice()
    report = lattice.axiom_report
    assert report.is_commutative_antiring and report.has_no_nonzero_nilpotents
    assert not lattice.is_entire and lattice.atoms.parts == (4,)
    assert not lattice.has_entire_components
    # a nonzero nilpotent x makes e*x*x = 0 inside its component
    nil = ar.table_semiring(ar.FiniteTables(
        size=3, add_table=((0, 1, 2), (1, 1, 2), (2, 2, 2)),
        mul_table=((0, 0, 0), (0, 0, 1), (0, 1, 2)), zero_index=0, one_index=2,
    ))
    assert not nil.has_entire_components
    with pytest.raises(ar.PreconditionError, match="nilpotent"):
        nil.characters
    with pytest.raises(DegenerateSemiringError):
        ar.chain(1).characters
    for sr in non_split_carriers():
        assert not sr.has_entire_components


def _is_character(sr, phi):
    """phi is a semiring map to the Boolean semiring, checked on every pair."""
    els = sr.elements()
    return not phi(sr.zero) and bool(phi(sr.one)) and all(
        bool(phi(sr.add(a, b))) == bool(phi(a) or phi(b))
        and bool(phi(sr.mul(a, b))) == bool(phi(a) and phi(b))
        for a in els for b in els
    )


@pytest.mark.parametrize("sr", [
    *non_split_carriers(), ar.boolean(), ar.chain(4), ar.powerset(3),
    relabeled(ar.powerset(3), (5, 2, 7, 0, 3, 6, 1, 4))[0],
], ids=lambda sr: sr.descriptor())
def test_characters_are_semiring_maps_that_detect_every_nonzero(sr):
    chars = sr.characters
    assert chars is sr.characters  # built once
    assert all(_is_character(sr, phi) for phi in chars)
    for x in sr.elements():
        assert any(phi(x) for phi in chars) == (x != sr.zero)
    # each character is 1 on exactly one atom of 1, so there are at least as many
    assert all(sum(bool(phi(e)) for e in sr.atoms.parts) == 1 for phi in chars)
    assert len(chars) >= sr.atoms.length
    assert sr.has_entire_components == (len(chars) == sr.atoms.length)


def test_characters_of_the_non_split_carriers():
    lattice, downsets, product = non_split_carriers()
    assert [len(sr.characters) for sr in (lattice, downsets, product)] == [2, 2, 3]
    # lattice5: payloads 0, a, b, a|b, 1 and the prime filters above a and b
    assert [{x for x in range(5) if phi(x)} for phi in lattice.characters] == [
        {1, 3, 4}, {2, 3, 4},
    ]
    assert product.atoms.length == 2
