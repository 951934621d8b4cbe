"""Asymptotic machinery: Airy numerics, scaled transform tables,
growth-rate predictions, and the two-sided bound verifier.

Each name loads its module on first access, through the package's table:
exact and predict use no numpy, airy, scaled and bounds do."""

import importlib

from .. import _HOME_OF

__all__ = sorted(name for name, home in _HOME_OF.items() if home.startswith("asym."))


def __getattr__(name: str):
    if name in __all__:
        return getattr(importlib.import_module(f"..{_HOME_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
