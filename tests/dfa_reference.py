"""The transition-table route to the minimal-DFA counts, for dagenum.oracle.

`count_min_dfa_oracle` counts automata as relaxed trees decorated with
accepting bits.  This module counts the same automata from their definition:
it enumerates every transition table, keeps the initially connected ones
through a BFS that also gives the canonical relabelling, and tests
minimality by Moore partition refinement.  The tests compare the two.
"""

from __future__ import annotations

from itertools import product

# there are (states - 1)!^k tables: 1.7 million at k = 3 with 6 states
DFA_STATE_LIMIT = 5


def count_min_dfa_reference(k: int, states: int, minimal: bool = True) -> int:
    """Complete DFAs over a k-letter alphabet recognizing a finite language,
    counted up to isomorphism: initially connected, acyclic except for the
    unique dead state, and (by default) minimal; states = n + 1."""
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
