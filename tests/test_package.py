"""Checks over the package as a whole: its source files and its demos."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import antiring as ar

PACKAGE_DIR = pathlib.Path(ar.__file__).parent
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE_DIR.glob("*.py")))
def test_module_has_no_assert(module):
    """Invariants raise explicitly: python -O strips assert statements."""
    assert "assert " not in (PACKAGE_DIR / module).read_text()


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE_DIR.glob("*.py") if p.name != "semirings.py")
)
def test_module_reads_no_semiring_kind(module):
    """Behaviour that differs by carrier lives on the semiring: only semirings.py
    reads ``.kind``, so a type switch elsewhere cannot return unnoticed."""
    assert ".kind" not in (PACKAGE_DIR / module).read_text()


def test_only_the_record_base_and_the_two_carriers_define_equality():
    """Value types derive from ``errors.Record`` for equality, hash, repr and
    immutability; a hand-written ``__eq__``, ``__hash__`` or ``__repr__``
    elsewhere would bring back a hand-written value class."""
    defining = {
        (path.name, node.name)
        for path in PACKAGE_DIR.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name in ("__eq__", "__hash__", "__repr__")
                for f in node.body)
    }
    assert defining == {("errors.py", "Record"), ("matrices.py", "Matrix"),
                        ("semirings.py", "Semiring")}


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=REPO_ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stdout + done.stderr


#: The public names of the package.  A name leaves only on purpose.
PUBLIC_API = [
    "AntiringError", "AxiomReport", "BudgetExceededError", "CyclicDigraphError",
    "DegenerateSemiringError", "Digraph", "EdgeColoring", "EnumerationBudget",
    "FiniteTables", "FormatError", "GlCoordinates", "INF", "IntPolynomial",
    "InvertibleFactorization", "MAX_COUNT_N", "Matrix", "NotInvertibleError",
    "NotNilpotentError", "OrthogonalDecomposition", "Partition", "Permutation",
    "PreconditionError", "Semiring", "SquareZeroDecomposition", "UnsupportedOperationError",
    "acyclic_polynomial", "acyclic_polynomial_partition_form", "boolean", "chain",
    "complete_digraph", "complete_digraph_coloring", "conjugate_by_permutation",
    "count_nilpotent", "count_nilpotent_bruteforce", "dag_counting", "decompose_nilpotent",
    "decompose_trace_zero", "digraph_of", "enumerate_gl", "enumeration", "errors",
    "factorize_invertible", "format_matrix", "format_tables", "gl_decode", "gl_encode",
    "invert", "invertibility", "invertibility_failure", "is_acyclic", "is_invertible",
    "is_nilpotent", "longest_path", "matrices",
    "max_orthogonal_decomposition", "min_coloring_search", "naturals", "nilpotency",
    "nilpotency_index", "nilpotent_count_polynomial", "orth_decomp_search", "parse_matrix",
    "parse_matrix_file", "parse_semiring", "parse_tables", "parse_tables_file", "partitions",
    "permutation_matrix", "powerset", "semirings", "squarezero", "table_semiring",
    "to_tables", "topological_order", "tournament_coloring", "tracezero_capacity",
    "tracezero_max_dimension", "transitive_tournament", "triangularize", "tropical",
    "validate_axioms",
]


def test_public_api_is_pinned():
    assert sorted(ar.__all__) == PUBLIC_API


def _modules_loaded_by(code):
    """The modules a fresh interpreter loads while running ``code``, beyond
    those it had at start-up."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    script = (
        "import sys\nbefore = set(sys.modules)\n" + code
        + "\nprint(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=REPO_ROOT, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def _layers(modules):
    return {m for m in modules if m.startswith("antiring.")}


def test_import_loads_no_submodule():
    loaded = _modules_loaded_by("import antiring")
    assert "antiring" in loaded
    assert _layers(loaded) == set()
    assert "dataclasses" not in loaded


@pytest.mark.parametrize("argv", [
    ["count", "nilpotent", "-n", "5", "-q", "3"], ["capacity", "-n", "7"], ["nmax", "-k", "4"],
], ids=["count", "capacity", "nmax"])
def test_a_counting_command_loads_only_its_layer(argv):
    loaded = _modules_loaded_by(
        "import antiring.cli, io, contextlib\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert antiring.cli.main({argv!r}) == 0"
    )
    assert _layers(loaded) == {"antiring.cli", "antiring.errors", "antiring.dag_counting"}
    assert not loaded & {"json", "dataclasses", "inspect"}


def test_a_usage_error_loads_no_layer():
    loaded = _modules_loaded_by(
        "import antiring.cli, io, contextlib\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert antiring.cli.main(['count', 'nilpotent', '-q', '3']) == 2"
    )
    assert _layers(loaded) == {"antiring.cli", "antiring.errors"}
    assert "json" not in loaded


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE_DIR.glob("*.py")))
def test_module_does_not_import_dataclasses(module):
    """``dataclasses`` pulls in ``inspect``, a large share of start-up; the
    record classes derive from ``errors.Record`` instead."""
    assert "dataclasses" not in (PACKAGE_DIR / module).read_text()


def test_every_public_name_is_its_home_modules_object():
    for name in ar.__all__:
        if name in ar._HOME:
            home = importlib.import_module(f"antiring.{ar._HOME[name]}")
            assert getattr(ar, name) is getattr(home, name), name
        else:
            assert getattr(ar, name) is importlib.import_module(f"antiring.{name}")


def test_dir_lists_the_public_names():
    assert set(ar.__all__) <= set(dir(ar))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from antiring import *", namespace)
    assert set(ar.__all__) <= set(namespace)
    assert namespace["Matrix"] is ar.matrices.Matrix


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ar.no_such_name
    assert not hasattr(ar, "no_such_name")
