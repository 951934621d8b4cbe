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

from .paths import DecoratedPath, Step, horiz, up, validate_path
from .trees import Child, Node, POINTER, RelaxedTree, SPINE, validate_tree


def tree_to_path(t: RelaxedTree) -> DecoratedPath:
    report = validate_tree(t)
    if not report.ok:
        raise ValueError(f"invalid-tree: {report.first_code()}")
    if t.n == 0:
        return DecoratedPath(t.k, (up(),))
    node_map = t.node_map()
    steps: list[Step] = []
    # iterative postorder so deep spine chains cannot hit the recursion limit
    stack: list[list] = [[t.root_label, 0]]
    while stack:
        frame = stack[-1]
        node = node_map[frame[0]]
        if frame[1] == len(node.children):
            steps.append(up())
            stack.pop()
            continue
        child = node.children[frame[1]]
        frame[1] += 1
        if child.kind == POINTER:
            steps.append(horiz(child.target))
        elif child.target == 1:
            steps.append(up())
        else:
            stack.append([child.target, 0])
    return DecoratedPath(t.k, tuple(steps))


def path_to_tree(p: DecoratedPath) -> RelaxedTree:
    report = validate_path(p)
    if not report.ok:
        raise ValueError(f"invalid-path: {report.code} at step {report.index}")
    k = p.k
    # stack items: ("t", label) completed subtree, ("p", cross) pending pointer
    stack: list[tuple[str, int]] = []
    nodes: list[Node] = []
    next_label = 1
    for step in p.steps:
        if step.kind == "H":
            stack.append(("p", step.cross))
            continue
        if next_label == 1:
            stack.append(("t", 1))
            next_label = 2
            continue
        if len(stack) < k:
            raise AssertionError(
                f"validated path cannot underflow: {len(stack)} stack items, k = {k}"
            )
        children = []
        for tag, value in stack[-k:]:
            children.append(Child(SPINE if tag == "t" else POINTER, value))
        del stack[-k:]
        nodes.append(Node(next_label, tuple(children)))
        stack.append(("t", next_label))
        next_label += 1
    if stack != [("t", next_label - 1)]:
        raise AssertionError(
            f"path left stack {stack}, not the root subtree {next_label - 1}"
        )
    return RelaxedTree(k, tuple(nodes))
