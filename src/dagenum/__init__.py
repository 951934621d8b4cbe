"""Exact enumeration of relaxed and compacted k-ary trees and of minimal
acyclic DFAs, the tree <-> decorated-path bijection with brute-force
oracles, and numerical validation of the stretched-exponential growth of
the counting sequences (Airy profile fits, two-sided bound sweeps, ratio
diagnostics).

Each public name is imported from the module that defines it (the README's
"Library layout" lists them), and `import dagenum` imports no submodule."""

__version__ = "0.1.0"
