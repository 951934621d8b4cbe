"""Bijection between relaxed k-ary trees and horizontally k-decorated paths.

Forward: traverse the spine in postorder; crossing a pointer emits an H step
decorated with the target's label, finishing a node emits its U step, so the
H steps of a node's pointer children appear in child order, interleaved with
the step blocks of its spine children, followed by the node's own U.  The
sink contributes the forced first U and the root the final one.

Backward: paths._walk scans the path left to right with a stack, the first
U creating the sink and every later U closing the next label in postorder
with k popped items as its children; the checks that make the path valid
run in the same pass, so no pop can underflow.
"""

from __future__ import annotations

from . import paths, trees
from .paths import DecoratedPath
from .trees import RelaxedTree


def tree_to_path(t: RelaxedTree) -> DecoratedPath:
    violations, trace = trees._walk(t)
    if violations:
        raise ValueError(f"invalid-tree: {violations[0].code}")
    return DecoratedPath(t.k, tuple(trace))


def path_to_tree(p: DecoratedPath) -> RelaxedTree:
    report, nodes = paths._walk(p)
    if not report.ok:
        raise ValueError(f"invalid-path: {report.describe()}")
    return RelaxedTree(p.k, tuple(nodes))
