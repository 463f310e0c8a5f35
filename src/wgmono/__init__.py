"""Exact monotone-walk generating functions on the symmetric group.

The central object is the generating function of monotone transposition
walks per cycle type, evaluated exactly through the character formula
and scanned for lexicographic monotonicity over whole ranks.
"""

from .errors import (
    CapExceededError,
    DegreeMismatchError,
    DomainError,
    PartitionError,
    PoleError,
    TableVerificationError,
)
from .exact import catalan, factorial, format_rat, int_pow, parse_rat, rat
from .partitions import (
    CellStats,
    Partition,
    cell_stats,
    class_size,
    compare_lex,
    conjugate,
    dimension,
    lex_list,
    lex_successor,
)
from .characters import (
    CharacterTable,
    build_table,
    cache_load,
    cache_store,
    load_or_build,
    mn_character,
    verify_table,
)
from .genfun import (
    complete_homogeneous,
    counterexample_family,
    eval_M,
    leading_ratio,
    m0_catalan,
    normalized_value,
    series_coeff,
    vanishing_order,
)
from .walks import WalkCounts, class_function_check, enumerate_counts, oracle_compare
from .scanner import (
    IntervalStat,
    MValue,
    Run,
    ScanReport,
    interval_stat,
    scan,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError", "DegreeMismatchError", "DomainError", "PartitionError",
    "PoleError", "TableVerificationError",
    "catalan", "factorial", "format_rat", "int_pow", "parse_rat", "rat",
    "CellStats", "Partition", "cell_stats", "class_size", "compare_lex",
    "conjugate", "dimension", "lex_list", "lex_successor",
    "CharacterTable", "build_table", "cache_load", "cache_store",
    "load_or_build", "mn_character", "verify_table",
    "complete_homogeneous", "counterexample_family", "eval_M", "leading_ratio",
    "m0_catalan", "normalized_value", "series_coeff", "vanishing_order",
    "WalkCounts", "class_function_check", "enumerate_counts", "oracle_compare",
    "IntervalStat", "MValue", "Run", "ScanReport", "interval_stat", "scan",
    "__version__",
]
