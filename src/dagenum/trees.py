"""Relaxed k-ary trees as ordered DAGs.

A relaxed k-ary tree is an ordered DAG with a unique source (the root) and a
unique sink, in which every node except the sink has out-degree exactly k.
Nodes carry postorder labels from a depth-first traversal of the root: the
sink is always label 1 and the root always the largest label.  Edges on the
DFS spanning tree are "spine" edges; the remaining edges are "pointers" and
always target a node whose postorder traversal is already complete.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, NamedTuple

SPINE = "spine"
POINTER = "pointer"


class Child(NamedTuple):
    kind: str
    target: int


class Node(NamedTuple):
    label: int
    children: tuple[Child, ...]


@dataclass(frozen=True)
class RelaxedTree:
    """Immutable candidate tree; `nodes` lists the internal nodes only.

    The sink (label 1, no children) is implicit.  The empty tree (n = 0)
    is the sink alone and is valid.
    """

    k: int
    nodes: tuple[Node, ...]

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def root_label(self) -> int:
        return len(self.nodes) + 1


class Violation(NamedTuple):
    code: str
    labels: tuple[int, ...]


@dataclass
class ValidationReport:
    ok: bool
    violations: list[Violation] = field(default_factory=list)

    def first_code(self) -> str | None:
        return self.violations[0].code if self.violations else None


def validate_tree(t: RelaxedTree) -> ValidationReport:
    """Check every relaxed-tree invariant; violations are data, not errors.

    Structural problems (bad arity, bad labels, dangling targets) are
    reported first; traversal-based checks (spine = DFS spanning tree,
    pointer acyclicity, postorder labelling, unique source) run only when
    the structure is sound enough to traverse.
    """
    violations, _ = _walk(t)
    return ValidationReport(not violations, violations)


def _walk(t: RelaxedTree) -> tuple[list[Violation], list[int] | None]:
    """The one postorder walk: validate_tree's violations, in its order, and
    for a valid tree the step trace of the walk, else None.

    The trace holds 0 for a U step (each completion; the sink completes on
    its first visit) and the target label for an H step (each edge that is
    not a spanning edge).  The walk's per-label state lives in lists indexed
    by label.
    """
    if t.k < 2:
        return [Violation("arity-k", ())], None
    violations: list[Violation] = []
    n = len(t.nodes)
    root = n + 1
    kids = {node.label: node.children for node in t.nodes}
    if len(kids) < n:  # a label repeats
        seen: set[int] = set()
        for node in t.nodes:
            if node.label in seen:
                violations.append(Violation("label-duplicate", (node.label,)))
            seen.add(node.label)
    bad = kids.keys() ^ set(range(2, n + 2))
    if bad:
        violations.append(Violation("label-range", tuple(sorted(bad))))
    kids[1] = ()  # the sink

    for node in t.nodes:
        if len(node.children) != t.k:
            violations.append(Violation("arity", (node.label,)))
        for kind, target in node.children:
            if kind != SPINE and kind != POINTER:
                violations.append(Violation("edge-kind", (node.label,)))
            if target not in kids:
                violations.append(Violation("dangling-target", (node.label, target)))

    if violations:
        return violations, None
    if n == 0:
        return violations, [0]

    # DFS from the root, recomputing the spanning tree instead of trusting
    # the spine tags.  An edge is a spanning edge iff it first-visits its
    # target; pointers must target postorder-completed nodes.
    visited = bytearray(n + 2)
    visited[root] = 1
    post_number = [0] * (n + 2)  # 0 until the node completes
    counter = 0
    in_postorder = True
    trace: list[int] = []
    stack = [(root, iter(kids[root]))]
    while stack:
        label, rest = stack[-1]
        for kind, target in rest:
            if visited[target]:
                if kind != POINTER:
                    violations.append(Violation("spine-tag", (label, target)))
                elif not post_number[target]:
                    violations.append(Violation("pointer-order", (label, target)))
                trace.append(target)
                continue
            # spanning edge
            if kind != SPINE:
                violations.append(Violation("spine-tag", (label, target)))
                violations.append(Violation("pointer-order", (label, target)))
            visited[target] = 1
            stack.append((target, iter(kids[target])))
            break
        else:
            counter += 1
            post_number[label] = counter
            if counter != label:
                in_postorder = False
            trace.append(0)
            stack.pop()

    reached_all = counter == root  # every visited node completes
    if not reached_all:
        unreachable = tuple(lbl for lbl in range(1, n + 2) if not visited[lbl])
        violations.append(Violation("unreachable", unreachable))
    if not in_postorder:
        for label in range(1, n + 2):
            if visited[label] and post_number[label] != label:
                violations.append(Violation("postorder", (label,)))
    # Every non-root node needs an incoming edge (unique source).  The walk
    # reached each visited node through one, so only a tree with unreachable
    # nodes can have another source.
    if not reached_all:
        indegree = [0] * (n + 2)
        for node in t.nodes:
            for child in node.children:
                indegree[child.target] += 1
        sources = tuple(lbl for lbl in range(1, n + 1) if indegree[lbl] == 0)
        if sources:
            violations.append(Violation("unique-source", sources))
    return violations, None if violations else trace


def fringe_key(t: RelaxedTree, label: int) -> str:
    """Canonical serialization of the fully unfolded k-ary tree below `label`.

    Spine and pointer children are unfolded uniformly, so the string can
    grow exponentially with the tree: shared nodes appear once per path to
    them (the doubling chain's root key has 3.1 M characters at n = 20).
    `is_compacted` compares interned ids instead.
    """
    keys = _fold(t, "s", lambda parts: "(" + "".join(parts) + ")")
    if label not in keys:
        raise ValueError(f"no-such-node: {label}")
    return keys[label]


def _fold(t: RelaxedTree, sink, combine) -> dict:
    """Map each label to `combine` of its children's values, the sink to `sink`.

    Values are built bottom-up over ascending labels, which both memoizes
    shared nodes and guarantees termination: in a valid tree every child
    target carries a smaller postorder label than its parent.
    """
    values = {1: sink}
    for label, children in sorted(t.nodes, key=itemgetter(0)):
        parts = []
        for _, target in children:
            if target >= label or target not in values:
                raise ValueError(
                    f"invalid-tree: node {label} references {target}, "
                    "which is not postorder-complete"
                )
            parts.append(values[target])
        values[label] = combine(parts)
    return values


def is_cherry(node: Node) -> bool:
    """An internal node whose k children are all pointers."""
    return all(child.kind == POINTER for child in node.children)


def is_compacted(t: RelaxedTree) -> bool:
    """True iff all fringe subtrees of internal nodes are pairwise distinct.

    Evaluates two independent criteria and cross-asserts them: distinctness
    of the fringe subtrees, hash-consed (a node's id interns the tuple of
    its children's ids, so equal ids mean equal unfolded subtrees, in
    O(n k) time), and absence of a pair (u, v) with the same ordered child
    targets where v is a cherry.
    """
    report = validate_tree(t)
    if not report.ok:
        raise ValueError(f"invalid-tree: {report.first_code()}")
    interned: dict[tuple[int, ...], int] = {}
    _fold(t, 0, lambda parts: interned.setdefault(tuple(parts), len(interned) + 1))
    distinct_keys = len(interned) == len(t.nodes)

    by_targets: dict[tuple[int, ...], list[Node]] = {}
    for node in t.nodes:
        by_targets.setdefault(tuple([c.target for c in node.children]), []).append(node)
    dup_with_cherry = any(
        len(group) >= 2 and any(map(is_cherry, group)) for group in by_targets.values()
    )
    if distinct_keys != (not dup_with_cherry):
        raise AssertionError(
            "fringe-key and cherry criteria disagree on "
            f"k={t.k} tree with {t.n} internal nodes"
        )
    return distinct_keys


def smallest_tree(k: int) -> RelaxedTree:
    """One internal node: first child spine to the sink, k-1 pointers to it."""
    children = (Child(SPINE, 1),) + (Child(POINTER, 1),) * (k - 1)
    return RelaxedTree(k, (Node(2, children),))


def to_document(t: RelaxedTree) -> dict:
    return {
        "k": t.k,
        "sink": 1,
        "nodes": [
            {
                "label": node.label,
                "children": [{"type": c.kind, "target": c.target} for c in node.children],
            }
            for node in sorted(t.nodes, key=lambda nd: nd.label)
        ],
    }


def from_document(doc: dict) -> RelaxedTree:
    try:
        k = doc["k"]
        sink = doc["sink"]
        raw_nodes = doc["nodes"]
        if not isinstance(k, int) or not isinstance(raw_nodes, list) or sink != 1:
            raise ValueError
        nodes = []
        for raw in raw_nodes:
            children = tuple(
                Child(str(c["type"]), int(c["target"])) for c in raw["children"]
            )
            nodes.append(Node(int(raw["label"]), children))
    except (KeyError, TypeError, ValueError):
        raise ValueError("tree-format: not a valid tree document") from None
    return RelaxedTree(k, tuple(nodes))


def dumps(t: RelaxedTree) -> str:
    return json.dumps(to_document(t), indent=2) + "\n"


def loads(text: str) -> RelaxedTree:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        raise ValueError("tree-format: not valid JSON") from None
    return from_document(doc)
