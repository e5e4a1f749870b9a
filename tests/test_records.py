"""The record classes keep the behaviour of frozen dataclasses: keyword
construction and defaults, validation, equality and hash by type and fields,
``Name(field=value, ...)`` as repr, and no assignment after construction."""

import copy
import pickle

import pytest

import antiring as ar
from antiring.cli import CommandOutcome, run

BOOL_TABLES = dict(size=2, add_table=((0, 1), (1, 1)), mul_table=((0, 0), (0, 1)),
                   zero_index=0, one_index=1)
REPORT_FIELDS = dict(is_semiring=True, is_commutative=True, is_zerosumfree=True,
                     is_entire=True, has_no_nonzero_nilpotents=True, witnesses={})
C3, P2 = ar.chain(3), ar.powerset(2)
A1, A2, TOP = frozenset({1}), frozenset({2}), frozenset({1, 2})
SWAP, IDENTITY = ar.Permutation((2, 1)), ar.Permutation((1, 2))
EDGE = ar.Digraph(2, [(1, 2)])
SHIFT = ar.Matrix(ar.boolean(), [[0, 1], [0, 0]])

# (class, keyword fields, the same record built positionally, a record with another field)
CASES = [
    (ar.Partition, dict(parts=(3, 1)), lambda: ar.Partition([3, 1]), ar.Partition((2, 2))),
    (ar.EnumerationBudget, dict(max_states=10**8), lambda: ar.EnumerationBudget(),
     ar.EnumerationBudget(7)),
    (ar.Digraph, dict(n=2, edges=frozenset({(1, 2)})), lambda: ar.Digraph(2, [(1, 2)]),
     ar.Digraph(2, ())),
    (ar.FiniteTables, BOOL_TABLES, lambda: ar.FiniteTables(*BOOL_TABLES.values()),
     ar.FiniteTables(**{**BOOL_TABLES, "add_table": ((0, 1), (1, 0))})),
    (ar.AxiomReport, REPORT_FIELDS, lambda: ar.AxiomReport(*REPORT_FIELDS.values()),
     ar.AxiomReport(**{**REPORT_FIELDS, "is_entire": False})),
    (ar.Permutation, dict(images=(2, 3, 1)), lambda: ar.Permutation([2, 3, 1]),
     ar.Permutation((1, 2, 3))),
    (ar.OrthogonalDecomposition, dict(semiring=P2, parts=(A1, A2)),
     lambda: ar.OrthogonalDecomposition(P2, [{2}, {1}]), ar.OrthogonalDecomposition(P2, [TOP])),
    (ar.InvertibleFactorization,
     dict(semiring=P2, diag=(TOP, TOP), terms=((A1, IDENTITY), (A2, SWAP))),
     lambda: ar.InvertibleFactorization(P2, [{1, 2}] * 2, [({2}, SWAP), ({1}, IDENTITY)]),
     ar.InvertibleFactorization(P2, (TOP, TOP), ((A1, SWAP), (A2, IDENTITY)))),
    (ar.GlCoordinates, dict(semiring=C3, units=(2, 2), atoms=C3.atoms, perms=(SWAP,)),
     lambda: ar.GlCoordinates(C3, [2, 2], ar.OrthogonalDecomposition(C3, [2]), [SWAP]),
     ar.GlCoordinates(C3, (2, 2), C3.atoms, (IDENTITY,))),
    (ar.IntPolynomial, dict(coeffs=(1, 0, -6, 6)), lambda: ar.IntPolynomial([1, 0, -6, 6, 0]),
     ar.IntPolynomial((-1, 2))),
    (ar.EdgeColoring, dict(digraph=EDGE, colors=(((1, 2), 1),), num_colors=1),
     lambda: ar.EdgeColoring(ar.Digraph(2, {(1, 2)}), {(1, 2): 1}, 1),
     ar.EdgeColoring(ar.Digraph(3, [(1, 2)]), {(1, 2): 1}, 2)),
    (ar.SquareZeroDecomposition, dict(source=SHIFT, summands=(SHIFT,)),
     lambda: ar.SquareZeroDecomposition(ar.Matrix(ar.boolean(), [[0, 1], [0, 0]]), [SHIFT]),
     ar.SquareZeroDecomposition(SHIFT, (SHIFT, ar.Matrix.zeros(ar.boolean(), 2)))),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, positional, other", CASES, ids=IDS)
def test_keyword_and_positional_forms_agree(cls, fields, positional, other):
    record = cls(**fields)
    assert record == positional() and not record != positional()
    assert record != other
    for name, value in fields.items():
        assert getattr(record, name) == value


@pytest.mark.parametrize("cls, fields, positional, other", CASES, ids=IDS)
def test_equality_and_hash_go_by_type_and_fields(cls, fields, positional, other):
    record = cls(**fields)
    assert record != tuple(fields.values())
    assert record != object()
    if cls is ar.AxiomReport:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)  # its witnesses are a dict
    else:
        assert hash(record) == hash(positional())
        assert len({record, positional(), other}) == 2


@pytest.mark.parametrize("cls, fields, positional, other", CASES, ids=IDS)
def test_repr_names_every_field(cls, fields, positional, other):
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({body})"


@pytest.mark.parametrize("cls, fields, positional, other", CASES, ids=IDS)
def test_fields_cannot_be_assigned(cls, fields, positional, other):
    record = cls(**fields)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(other, name))
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == positional()


@pytest.mark.parametrize("cls, fields, positional, other", CASES, ids=IDS)
def test_copies_and_pickles_are_equal(cls, fields, positional, other):
    record = cls(**fields)
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_a_matrix_refuses_assignment_before_and_after_its_nonzeros_are_read():
    a = ar.Matrix(ar.boolean(), [[0, 1], [0, 0]])
    for _ in range(2):
        for name in ("semiring", "rows", "_nonzeros"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(a, name, getattr(a, name))
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(a, name)
        assert ar.is_nilpotent(a)  # reads and keeps the nonzeros
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError):
        ar.Matrix(ar.chain(3), [[0, 1], [0, 0]]).rows = ((0, 7), (0, 0))
    assert a.rows == ((0, 1), (0, 0)) and ar.is_nilpotent(a) and (a @ a).is_zero()


@pytest.mark.parametrize("read_nonzeros", [False, True])
def test_matrix_copies_and_pickles_are_equal(read_nonzeros):
    for sr, rows in ((ar.boolean(), [[0, 1], [0, 0]]), (P2, [[A1, TOP], [set(), A2]])):
        a = ar.Matrix(sr, rows)
        if read_nonzeros:
            a.nonzeros()
        for copied in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert copied == a and hash(copied) == hash(a)
            assert copied.nonzeros() == a.nonzeros()


def test_equal_colorings_compare_equal_and_hash_alike():
    assert ar.tournament_coloring(3) == ar.tournament_coloring(3)
    assert hash(ar.tournament_coloring(3)) == hash(ar.tournament_coloring(3))
    assert ar.tournament_coloring(3).colors == (((1, 2), 1), ((1, 3), 2), ((2, 3), 2))
    coloring = ar.complete_digraph_coloring(3)
    assert ar.EdgeColoring(coloring.digraph, reversed(coloring.colors), 3) == coloring


def test_partition_validation():
    with pytest.raises(ValueError, match="must be a positive integer"):
        ar.Partition((2, 0))
    with pytest.raises(ValueError, match="not weakly decreasing"):
        ar.Partition((1, 2))
    assert ar.Partition((3, 1)).n == 4 and ar.Partition((2, 1, 1)).orderings() == 3


def test_enumeration_budget_validation():
    with pytest.raises(ValueError, match="max_states >= 1"):
        ar.EnumerationBudget(max_states=0)


def test_digraph_validation():
    with pytest.raises(ValueError, match="n >= 1"):
        ar.Digraph(0, ())
    with pytest.raises(ValueError, match=r"edge \(1,3\) out of range 1..2"):
        ar.Digraph(n=2, edges={(1, 3)})
    assert str(ar.Digraph(2, [(2, 1), (1, 2)])) == "1 -> 2\n2 -> 1"


def test_finite_tables_validation():
    with pytest.raises(ar.FormatError, match="size must be >= 1"):
        ar.FiniteTables(**{**BOOL_TABLES, "size": 0})
    with pytest.raises(ar.FormatError, match="add table has 1 rows, expected 2"):
        ar.FiniteTables(**{**BOOL_TABLES, "add_table": ((0, 1),)})
    with pytest.raises(ar.FormatError, match=r"mul table cell \(1,1\) = 2 is out of range"):
        ar.FiniteTables(**{**BOOL_TABLES, "mul_table": ((0, 0), (0, 2))})
    with pytest.raises(ar.FormatError, match="one index 5 out of range"):
        ar.FiniteTables(**{**BOOL_TABLES, "one_index": 5})


def test_axiom_report_reads_its_flags():
    report = ar.validate_axioms(ar.FiniteTables(**BOOL_TABLES))
    assert report == ar.AxiomReport(**REPORT_FIELDS)
    assert report.is_commutative_antiring
    assert [getattr(report, flag) for flag in ar.AxiomReport.FLAGS] == [True] * 5


def test_command_outcome_compares_by_fields(tmp_path):
    path = tmp_path / "shift.txt"
    path.write_text("semiring boolean\nn 2\n0 1\n0 0\n")
    outcome = run(["check", "nilpotent", str(path)])
    assert outcome == CommandOutcome(0, "yes\n", "")
    assert outcome == CommandOutcome(exit_code=0, stdout="yes\n", stderr="")
    assert outcome != CommandOutcome(1, "yes\n", "")
    assert (outcome.exit_code, outcome.stdout, outcome.stderr) == (0, "yes\n", "")
    assert repr(outcome) == "CommandOutcome(exit_code=0, stdout='yes\\n', stderr='')"
    with pytest.raises(AttributeError):
        outcome.exit_code = 1
