"""Exact enumeration of relaxed and compacted k-ary trees and of minimal
acyclic DFAs, the tree <-> decorated-path bijection with brute-force
oracles, and numerical validation of the stretched-exponential growth of
the counting sequences (Airy profile fits, two-sided bound sweeps, ratio
diagnostics)."""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines.  Nothing is imported here: each
# name loads its module on first access, so a command loads only what it
# runs (numpy only through airy, scaled and bounds).  dagenum.asym resolves
# its own names through this table too.
_HOMES = {
    "bijection": ("path_to_tree", "tree_to_path"),
    "oracle": (
        "count_compacted_oracle",
        "count_min_dfa_oracle",
        "count_relaxed_oracle",
        "enumerate_relaxed",
        "enumerate_relaxed_via_paths",
    ),
    "paths": ("DecoratedPath", "Step", "generate_paths", "validate_path"),
    "tables": (
        "KINDS",
        "CacheError",
        "CountTable",
        "build_table",
        "diagonal_sequence",
        "extend_table",
        "load_table",
        "save_table",
    ),
    "trees": ("Child", "Node", "RelaxedTree", "is_compacted", "validate_tree"),
    "asym.airy": ("airy_ai",),
    "asym.exact": ("exact_transform_diagonal", "p_ratio_check", "weight_u"),
    "asym.predict": (
        "RatioPoint",
        "airy_root_a1",
        "log_factorial",
        "predictor_log",
        "ratio_diagnostic",
    ),
    "asym.scaled": ("ScaledTable", "build_scaled_table", "profile_check"),
    "asym.bounds": (
        "BoundParams",
        "BoundReport",
        "min_eta",
        "s_factor",
        "verify_bounds",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted({*(module.split(".")[0] for module in _HOMES), *_HOME_OF})


def __getattr__(name: str):
    if name in __all__:
        home = _HOME_OF.get(name, name)
        # not `from . import asym`: its fromlist check calls this hook again
        module = importlib.import_module(f".{home}", __name__)
        return module if home == name else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
