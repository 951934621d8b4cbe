"""Exact enumeration of relaxed and compacted k-ary trees and of minimal
acyclic DFAs, the tree <-> decorated-path bijection with brute-force
oracles, and numerical validation of the stretched-exponential growth of
the counting sequences (Airy profile fits, two-sided bound sweeps, ratio
diagnostics)."""

from . import bijection, oracle, paths, tables, trees
from .bijection import path_to_tree, tree_to_path
from .oracle import (
    count_compacted_oracle,
    count_min_dfa_oracle,
    count_relaxed_oracle,
    enumerate_relaxed,
    enumerate_relaxed_via_paths,
)
from .paths import DecoratedPath, Step, generate_paths, validate_path
from .tables import (
    KINDS,
    CacheError,
    CountTable,
    build_table,
    diagonal_sequence,
    extend_table,
    load_table,
    save_table,
)
from .trees import (
    Child,
    Node,
    RelaxedTree,
    is_compacted,
    smallest_tree,
    validate_tree,
)

__version__ = "0.1.0"

__all__ = [
    "KINDS",
    "BoundParams",
    "BoundReport",
    "CacheError",
    "Child",
    "CountTable",
    "DecoratedPath",
    "Node",
    "RatioPoint",
    "RelaxedTree",
    "ScaledTable",
    "Step",
    "airy_ai",
    "airy_ai_prime",
    "airy_root_a1",
    "asym",
    "bijection",
    "bound_value",
    "build_scaled_table",
    "build_table",
    "count_compacted_oracle",
    "count_min_dfa_oracle",
    "count_relaxed_oracle",
    "diagonal_sequence",
    "drift",
    "enumerate_relaxed",
    "enumerate_relaxed_via_paths",
    "exact_transform_diagonal",
    "extend_table",
    "generate_paths",
    "h_product_log",
    "is_compacted",
    "load_table",
    "log_factorial",
    "min_eta",
    "oracle",
    "p_ratio_check",
    "path_to_tree",
    "paths",
    "predictor_log",
    "profile_check",
    "ratio_diagnostic",
    "s_factor",
    "save_table",
    "smallest_tree",
    "tables",
    "tree_to_path",
    "trees",
    "validate_path",
    "validate_tree",
    "verify_bounds",
    "verify_transform",
    "weight_u",
]


def __getattr__(name: str):
    # A name in __all__ that the imports above did not bind is `asym` or one
    # of its names.  They load on first access because `asym` imports numpy,
    # most of the start-up time of a command that never uses it.
    if name in __all__:
        import importlib

        # not `from . import asym`: its fromlist check calls this hook again
        asym = importlib.import_module(".asym", __name__)
        return asym if name == "asym" else getattr(asym, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
