"""Bijection between relaxed k-ary trees and horizontally k-decorated paths.

Forward: traverse the spine in postorder; crossing a pointer emits an H step
decorated with the target's label, finishing a node emits its U step, so the
H steps of a node's pointer children appear in child order, interleaved with
the step blocks of its spine children, followed by the node's own U.  The
sink contributes the forced first U and the root the final one.

Backward: scan left to right with a stack.  The first U creates the sink;
every later U closes the next label in postorder by popping exactly k items
(completed spine subtrees and pending pointer crosses) as its children.  Path
validity guarantees the stack never underflows: the diagonal constraint at
the vertex after a U step is precisely "at least k items available".
"""

from __future__ import annotations

from functools import lru_cache

from .paths import DecoratedPath, horiz, up, validate_path
from .trees import Child, Node, POINTER, RelaxedTree, SPINE, _walk

# Edges are immutable, so trees can share them; a cache hit costs a third
# of building the NamedTuple.
_edge = lru_cache(maxsize=1024, typed=True)(Child)


def tree_to_path(t: RelaxedTree) -> DecoratedPath:
    violations, trace = _walk(t)
    if violations:
        raise ValueError(f"invalid-tree: {violations[0].code}")
    # trace entry 0 is a U step, c > 0 an H step crossing c
    steps = [up(), *map(horiz, range(1, t.n + 1))]
    return DecoratedPath(t.k, tuple(map(steps.__getitem__, trace)))


def path_to_tree(p: DecoratedPath) -> RelaxedTree:
    report = validate_path(p)
    if not report.ok:
        raise ValueError(f"invalid-path: {report.code} at step {report.index}")
    k = p.k
    # completed subtrees as spine edges, pending crosses as pointer edges
    stack: list[Child] = []
    nodes: list[Node] = []
    next_label = 1
    for kind, cross in p.steps:
        if kind == "H":
            stack.append(_edge(POINTER, cross))
            continue
        if next_label > 1:
            if len(stack) < k:
                raise AssertionError(
                    f"validated path cannot underflow: {len(stack)} stack items, k = {k}"
                )
            nodes.append(Node(next_label, tuple(stack[-k:])))
            del stack[-k:]
        stack.append(_edge(SPINE, next_label))
        next_label += 1
    if stack != [Child(SPINE, next_label - 1)]:
        raise AssertionError(
            f"path left stack {stack}, not the root subtree {next_label - 1}"
        )
    return RelaxedTree(k, tuple(nodes))
