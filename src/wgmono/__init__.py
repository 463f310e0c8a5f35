"""Exact monotone-walk generating functions on the symmetric group.

The central object is the generating function of monotone transposition
walks per cycle type, evaluated exactly through the character formula
and scanned for lexicographic monotonicity over whole ranks.

The public names load lazily: ``wgmono.scan`` imports ``wgmono.scanner``
on first use, so importing the package (or one submodule, such as the
command line) compiles only what is used.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it is the home of
_EXPORTS = {
    "errors": ("CapExceededError", "DegreeMismatchError", "DomainError",
               "PartitionError", "PoleError", "TableVerificationError"),
    "partitions": ("CellStats", "Partition", "cell_stats", "class_size",
                   "conjugate", "dimension", "lex_list", "lex_successor"),
    "characters": ("CharacterTable", "build_table", "character_column",
                   "verify_table"),
    "genfun": ("catalan", "complete_homogeneous", "counterexample_family", "eval_M",
               "format_rat", "leading_ratio", "m0_catalan", "normalized_value",
               "parse_rat", "series_coeff", "vanishing_order"),
    "walks": ("WalkCounts", "class_function_check", "enumerate_counts",
              "oracle_compare"),
    "scanner": ("IntervalStat", "MValue", "Run", "ScanReport", "interval_stat",
                "scan"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
