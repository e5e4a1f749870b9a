"""Exact linear algebra over commutative antirings (zerosumfree semirings).

The package provides concrete semirings (Boolean, chain and powerset
lattices, naturals, integer min-plus, table-defined), dense matrices over
them, the diagonal-times-permutations characterization of invertible
matrices, nilpotency through digraph acyclicity, exact counting of nilpotent
matrices over finite entire antirings, and square-zero decompositions via
path-incidence-free arc colorings.  Everything is exact: integer, frozenset
and symbolic-infinity payloads, no floats besides the infinity sentinel.
"""

from .dag_counting import (
    MAX_COUNT_N,
    IntPolynomial,
    Partition,
    acyclic_polynomial,
    acyclic_polynomial_partition_form,
    count_nilpotent,
    nilpotent_count_polynomial,
    partitions,
)
from .enumeration import (
    EnumerationBudget,
    count_nilpotent_bruteforce,
    enumerate_gl,
    orth_decomp_search,
)
from .errors import (
    AntiringError,
    BudgetExceededError,
    CyclicDigraphError,
    DegenerateSemiringError,
    FormatError,
    NotInvertibleError,
    NotNilpotentError,
    PreconditionError,
    UnsupportedOperationError,
)
from .invertibility import (
    GlCoordinates,
    InvertibleFactorization,
    factorize_invertible,
    gl_decode,
    gl_encode,
    invert,
    invertibility_failure,
    is_invertible,
    max_orthogonal_decomposition,
)
from .matrices import (
    Matrix,
    Permutation,
    conjugate_by_permutation,
    format_matrix,
    parse_matrix,
    parse_matrix_file,
    permutation_matrix,
)
from .nilpotency import (
    Digraph,
    complete_digraph,
    digraph_of,
    is_acyclic,
    is_nilpotent,
    longest_path,
    nilpotency_index,
    topological_order,
    transitive_tournament,
    triangularize,
)
from .semirings import (
    INF,
    AxiomReport,
    FiniteTables,
    OrthogonalDecomposition,
    Semiring,
    boolean,
    chain,
    format_tables,
    naturals,
    parse_semiring,
    parse_tables,
    parse_tables_file,
    powerset,
    table_semiring,
    to_tables,
    tropical,
    validate_axioms,
)
from .squarezero import (
    EdgeColoring,
    SquareZeroDecomposition,
    complete_digraph_coloring,
    decompose_nilpotent,
    decompose_trace_zero,
    min_coloring_search,
    tournament_coloring,
    tracezero_capacity,
    tracezero_max_dimension,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
