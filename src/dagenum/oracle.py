"""Brute-force ground truth, independent of the counting recurrences.

Two separate enumerations of relaxed trees (a direct recursive builder and
the decorated-path generator mapped through the bijection) let the test
suite cross-check the bijection against the DP counts without sharing a
code path.  A small-scale minimal-DFA counter provides the third sequence.
"""

from __future__ import annotations

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

    def node_states(completed: int, created: int) -> Iterator[tuple[int, int]]:
        """Build one internal node; yields (completed, created) after it closes."""
        yield from slot_states(0, (), completed, created)

    def slot_states(
        idx: int, children: tuple[Child, ...], completed: int, created: int
    ) -> Iterator[tuple[int, int]]:
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
            for sub_completed, sub_created in node_states(completed, created + 1):
                # the subtree root completed last, so its label is sub_completed
                yield from slot_states(
                    idx + 1, children + (spine[sub_completed],), sub_completed, sub_created
                )

    for completed, created in node_states(0, 1):
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
    dead = states - 1  # state indices 0..states-2 transient, last one dead
    letters = range(k)

    # candidate transition rows per transient state i: targets above i or dead.
    # Any acyclic-except-dead automaton has a topological order of its
    # transients with the initial state first, so up to isomorphism every
    # class appears among these tables; BFS relabelling dedups the rest.
    def rows(i: int) -> Iterator[tuple[int, ...]]:
        choices = list(range(i + 1, transients)) + [dead]
        def rec(pos: int, acc: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
            if pos == k:
                yield acc
                return
            for c in choices:
                yield from rec(pos + 1, acc + (c,))
        yield from rec(0, ())

    def all_tables(i: int, acc: tuple[tuple[int, ...], ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i == transients:
            yield acc
            return
        for row in rows(i):
            yield from all_tables(i + 1, acc + (row,))

    canonical: set = set()
    for table in all_tables(0, ()):
        delta = list(table) + [tuple(dead for _ in letters)]
        # reachability from the initial state 0
        seen = {0}
        frontier = [0]
        while frontier:
            q = frontier.pop()
            for a in letters:
                nxt = delta[q][a]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if len(seen) != states:
            continue
        for acc_mask in range(1 << transients):
            accepting = frozenset(i for i in range(transients) if acc_mask >> i & 1)
            if minimal and not _is_minimal(delta, accepting, states, k):
                continue
            canonical.add(_canonical_form(delta, accepting, states, k))
    return len(canonical)


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


def _canonical_form(delta, accepting, states: int, k: int):
    """Relabel states in BFS discovery order from the initial state."""
    order = {0: 0}
    queue = [0]
    head = 0
    while head < len(queue):
        q = queue[head]
        head += 1
        for a in range(k):
            nxt = delta[q][a]
            if nxt not in order:
                order[nxt] = len(order)
                queue.append(nxt)
    new_delta = [None] * states
    for q, new_q in order.items():
        new_delta[new_q] = tuple(order[delta[q][a]] for a in range(k))
    new_accepting = tuple(sorted(order[q] for q in accepting))
    return tuple(new_delta), new_accepting
