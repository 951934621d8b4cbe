"""Brute-force ground truth, independent of the counting recurrences.

Two separate enumerations of relaxed trees (a direct recursive builder and
the decorated-path generator mapped through the bijection) let the test
suite cross-check the bijection against the DP counts without sharing a
code path.  A small-scale minimal-DFA counter provides the third sequence.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from . import bijection, paths
from .trees import Child, Node, POINTER, RelaxedTree, SPINE, is_compacted

# exhaustive-enumeration defaults; anything above needs an explicit limit
DEFAULT_TREE_LIMITS = {2: 6, 3: 4, 4: 3}
FALLBACK_TREE_LIMIT = 2
DFA_STATE_LIMIT = 5


def _tree_limit(k: int, limit: int | None) -> int:
    if limit is not None:
        return limit
    return DEFAULT_TREE_LIMITS.get(k, FALLBACK_TREE_LIMIT)


def enumerate_relaxed(k: int, n: int, limit: int | None = None) -> Iterator[RelaxedTree]:
    """Every relaxed tree with n internal nodes, by direct recursive construction.

    The recursion mirrors the depth-first traversal that defines the
    postorder labels: building a node, each child slot is either a pointer
    to an already completed label, the unique spine edge to the sink (only
    possible while nothing is completed), or a spine edge to a fresh
    internal subtree.  Labels are assigned at completion time.
    """
    if k < 2:
        raise ValueError(f"arity-k: {k}")
    if n < 0:
        raise ValueError(f"negative-size: {n}")
    if n > _tree_limit(k, limit):
        raise ValueError(f"too-large: n={n} exceeds exhaustive limit {_tree_limit(k, limit)}")
    if n == 0:
        yield RelaxedTree(k, ())
        return

    nodes: list[Node] = []
    pointer = [Child(POINTER, target) for target in range(n + 2)]
    spine = [Child(SPINE, target) for target in range(n + 2)]

    def slot_states(
        idx: int, children: tuple[Child, ...], completed: int, created: int
    ) -> Iterator[tuple[int, int]]:
        """Fill slots idx.. of one internal node; yields (completed, created)
        after it closes.  Slot 0 with no children builds a whole node."""
        if idx == k:
            label = completed + 1
            nodes.append(Node(label, children))
            yield label, created
            nodes.pop()
            return
        for target in range(1, completed + 1):
            yield from slot_states(idx + 1, children + (pointer[target],), completed, created)
        if completed == 0:
            yield from slot_states(idx + 1, children + (spine[1],), 1, created)
        if created < n:
            for sub_completed, sub_created in slot_states(0, (), completed, created + 1):
                # the subtree root completed last, so its label is sub_completed
                yield from slot_states(
                    idx + 1, children + (spine[sub_completed],), sub_completed, sub_created
                )

    for completed, created in slot_states(0, (), 0, 1):
        if created == n:
            if completed != n + 1:
                raise AssertionError(f"{completed} labels completed, not n + 1 = {n + 1}")
            # nodes close in label order
            yield RelaxedTree(k, tuple(nodes))


def enumerate_relaxed_via_paths(k: int, n: int, limit: int | None = None) -> Iterator[RelaxedTree]:
    """Second route: enumerate decorated paths and pull them back through the bijection."""
    eff = _tree_limit(k, limit)
    for p in paths.generate_paths(k, n, limit=eff):
        yield bijection.path_to_tree(p)


def count_relaxed_oracle(k: int, n: int, limit: int | None = None) -> int:
    return sum(1 for _ in enumerate_relaxed(k, n, limit=limit))


def count_compacted_oracle(k: int, n: int, limit: int | None = None) -> int:
    return sum(1 for t in enumerate_relaxed(k, n, limit=limit) if is_compacted(t))


def count_min_dfa_oracle(k: int, states: int, minimal: bool = True) -> int:
    """Complete DFAs over a k-letter alphabet recognizing a finite language,
    counted up to isomorphism: initially connected, acyclic except for the
    unique dead state, and (by default) minimal.

    Alignment with the dfa counting sequence: states = n + 1 where n indexes
    the diagonal (n transient states plus the dead state; n = 0 is the
    dead-initial automaton for the empty language).
    """
    if k < 1:
        raise ValueError(f"arity-k: {k}")
    if states < 1:
        raise ValueError(f"negative-size: {states}")
    if states > DFA_STATE_LIMIT:
        raise ValueError(f"too-large: states={states} exceeds limit {DFA_STATE_LIMIT}")
    if states == 1:
        # the dead state itself is initial; language is empty, trivially minimal
        return 1

    transients = states - 1
    dead = transients  # state indices 0..states-2 transient, last one dead

    # candidate transition rows per transient state i: targets above i or dead.
    # Any acyclic-except-dead automaton has a topological order of its
    # transients with the initial state first, so up to isomorphism every
    # class appears among these tables; BFS relabelling dedups the rest.
    rows = [product([*range(i + 1, transients), dead], repeat=k) for i in range(transients)]
    canonical: set = set()
    for table in product(*rows):
        delta = [*table, (dead,) * k]
        order = _bfs_order(delta)
        if len(order) != states:  # a state is unreachable from the initial one
            continue
        relabel = {q: new for new, q in enumerate(order)}
        shape = tuple(tuple(relabel[r] for r in delta[q]) for q in order)
        for acc_mask in range(1 << transients):
            accepting = frozenset(i for i in range(transients) if acc_mask >> i & 1)
            if minimal and not _is_minimal(delta, accepting, states, k):
                continue
            canonical.add((shape, tuple(sorted(relabel[q] for q in accepting))))
    return len(canonical)


def _bfs_order(delta) -> list[int]:
    """The states reachable from the initial state 0, in BFS discovery order."""
    order = [0]
    for q in order:  # the loop reaches the states appended while it runs
        for r in delta[q]:
            if r not in order:
                order.append(r)
    return order


def _is_minimal(delta, accepting, states: int, k: int) -> bool:
    """Moore partition refinement over the complete automaton, dead included."""
    cls = [1 if q in accepting else 0 for q in range(states)]
    while True:
        sigs = [(cls[q], tuple(cls[delta[q][a]] for a in range(k))) for q in range(states)]
        remap: dict = {}
        new_cls = []
        for sig in sigs:
            if sig not in remap:
                remap[sig] = len(remap)
            new_cls.append(remap[sig])
        if new_cls == cls:
            return len(remap) == states
        cls = new_cls

