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
from dataclasses import dataclass
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


class Violation(NamedTuple):
    code: str
    labels: tuple[int, ...]


def validate_tree(t: RelaxedTree) -> list[Violation]:
    """Check every relaxed-tree invariant; violations are data, not errors,
    and the tree is valid exactly when the list is empty.

    Structural problems (bad arity, bad labels, dangling targets) are
    reported first; traversal-based checks (spine = DFS spanning tree,
    pointer acyclicity, postorder labelling, unique source) run only when
    the structure is sound enough to traverse.
    """
    return _walk(t)[0]


def _walk(t: RelaxedTree) -> tuple[list[Violation], list[int | None] | None]:
    """The one postorder walk: validate_tree's violations, in its order, and
    for a valid tree the step trace of the walk, else None.

    The trace is the steps of the tree's decorated path: None for a U step
    (each completion; the sink completes on its first visit) and the target
    label, the cross, for an H step (each edge that is not a spanning edge).
    The walk's per-label state lives in lists indexed by label.
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
        return violations, [None]

    # DFS from the root, recomputing the spanning tree instead of trusting
    # the spine tags.  An edge is a spanning edge iff it first-visits its
    # target; pointers must target postorder-completed nodes.
    visited = bytearray(n + 2)
    visited[root] = 1
    post_number = [0] * (n + 2)  # 0 until the node completes
    counter = 0
    in_postorder = True
    trace: list[int | None] = []
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
            trace.append(None)
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


def is_compacted(t: RelaxedTree) -> bool:
    """True iff all fringe subtrees of internal nodes are pairwise distinct.

    One pass over the nodes in label order evaluates two independent
    criteria, which are cross-asserted: distinctness of the fringe subtrees,
    hash-consed (a node's id interns the tuple of its children's ids, so
    equal ids mean equal unfolded subtrees, in O(n k) time), and absence of
    a pair (u, v) with the same ordered child targets where v is a cherry
    (all k children pointers).
    """
    violations, _ = _walk(t)
    if violations:
        raise ValueError(f"invalid-tree: {violations[0].code}")
    ids = [0] * (len(t.nodes) + 2)  # the sink's id is 0
    interned: dict[tuple[int, ...], int] = {}
    seen, repeated, cherries = set(), set(), set()  # of child-target tuples
    for label, children in sorted(t.nodes, key=itemgetter(0)):
        kinds, targets = zip(*children)
        ids[label] = interned.setdefault(tuple(map(ids.__getitem__, targets)), len(interned) + 1)
        (repeated if targets in seen else seen).add(targets)
        if SPINE not in kinds:
            cherries.add(targets)
    distinct_keys = len(interned) == len(t.nodes)
    if distinct_keys != repeated.isdisjoint(cherries):
        raise AssertionError(
            "fringe-key and cherry criteria disagree on "
            f"k={t.k} tree with {t.n} internal nodes"
        )
    return distinct_keys


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


def _int(value) -> int:
    """An integer field of a document; a bool, float or string is refused,
    not truncated."""
    if type(value) is not int:
        raise ValueError
    return value


def from_document(doc: dict) -> RelaxedTree:
    try:
        k = _int(doc["k"])
        sink = _int(doc["sink"])
        raw_nodes = doc["nodes"]
        if not isinstance(raw_nodes, list) or sink != 1:
            raise ValueError
        nodes = []
        for raw in raw_nodes:
            children = tuple(
                Child(str(c["type"]), _int(c["target"])) for c in raw["children"]
            )
            nodes.append(Node(_int(raw["label"]), children))
    except (KeyError, TypeError, ValueError):
        raise ValueError("tree-format: not a valid tree document") from None
    return RelaxedTree(k, tuple(nodes))


def dumps(t: RelaxedTree) -> str:
    return json.dumps(to_document(t), indent=2) + "\n"


def loads(text: str) -> RelaxedTree:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError):  # nested past the parser's depth
        raise ValueError("tree-format: not valid JSON") from None
    return from_document(doc)
