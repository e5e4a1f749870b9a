"""Exact linear algebra over commutative antirings (zerosumfree semirings).

The package provides concrete semirings (Boolean, chain and powerset
lattices, naturals, integer min-plus, table-defined), dense matrices over
them, the diagonal-times-permutations characterization of invertible
matrices, nilpotency through digraph acyclicity, exact counting of nilpotent
matrices over finite entire antirings, and square-zero decompositions via
path-incidence-free arc colorings.  Everything is exact: integer, frozenset
and symbolic-infinity payloads, no floats besides the infinity sentinel.

Submodules load on first use (PEP 562): ``import antiring`` loads none of
them, and the first access to a public name, such as ``antiring.Matrix`` or
``antiring.squarezero``, imports its home module and keeps the value in the
package namespace, so later access is a plain attribute read.
"""

from importlib import import_module as _import_module

#: Each submodule and the public names it provides to the package.
_EXPORTS = {
    "dag_counting": """MAX_COUNT_N IntPolynomial Partition acyclic_polynomial
        acyclic_polynomial_partition_form count_nilpotent nilpotent_count_polynomial
        partitions tracezero_capacity tracezero_max_dimension""",
    "enumeration": """EnumerationBudget count_nilpotent_bruteforce enumerate_gl
        orth_decomp_search""",
    "errors": """AntiringError BudgetExceededError CyclicDigraphError
        DegenerateSemiringError FormatError NotInvertibleError NotNilpotentError
        PreconditionError UnsupportedOperationError""",
    "invertibility": """GlCoordinates InvertibleFactorization factorize_invertible
        gl_decode gl_encode invert invertibility_failure is_invertible
        max_orthogonal_decomposition""",
    "matrices": """Matrix Permutation conjugate_by_permutation format_matrix
        parse_matrix parse_matrix_file permutation_matrix""",
    "nilpotency": """Digraph complete_digraph digraph_of is_acyclic is_nilpotent
        longest_path nilpotency_index topological_order transitive_tournament
        triangularize""",
    "semirings": """INF AxiomReport FiniteTables OrthogonalDecomposition Semiring
        boolean chain format_tables naturals parse_semiring parse_tables
        parse_tables_file powerset table_semiring to_tables tropical validate_axioms""",
    "squarezero": """EdgeColoring SquareZeroDecomposition complete_digraph_coloring
        decompose_nilpotent decompose_trace_zero min_coloring_search
        tournament_coloring""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    """Import the home module of a public name (or the submodule itself) and
    keep the value in the package namespace."""
    if name in _EXPORTS:
        value = _import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
