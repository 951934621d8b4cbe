"""Brute-force ground truth, independent of the counting recurrences.

Two separate enumerations of relaxed trees (a direct recursive builder and
the decorated-path generator mapped through the bijection) let the test
suite cross-check the bijection against the DP counts without sharing a
code path.  The minimal-DFA counter decorates the same trees with accepting
bits and provides the third sequence.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator

from . import bijection, paths
from .paths import _check_exhaustive
from .trees import Child, Node, POINTER, RelaxedTree, SPINE, is_compacted


def enumerate_relaxed(k: int, n: int, limit: int | None = None) -> Iterator[RelaxedTree]:
    """Every relaxed tree with n internal nodes, by direct recursive construction.

    The recursion mirrors the depth-first traversal that defines the
    postorder labels: building a node, each child slot is either a pointer
    to an already completed label, the unique spine edge to the sink (only
    possible while nothing is completed), or a spine edge to a fresh
    internal subtree.  Labels are assigned at completion time.
    """
    _check_exhaustive(k, n, limit)
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
    for p in paths.generate_paths(k, n, limit=limit):
        yield bijection.path_to_tree(p)


def count_relaxed_oracle(k: int, n: int, limit: int | None = None) -> int:
    return sum(1 for _ in enumerate_relaxed(k, n, limit=limit))


def count_compacted_oracle(k: int, n: int, limit: int | None = None) -> int:
    return sum(1 for t in enumerate_relaxed(k, n, limit=limit) if is_compacted(t))


def count_min_dfa_oracle(k: int, states: int) -> int:
    """Minimal complete DFAs over a k-letter alphabet recognizing a finite
    language, counted up to isomorphism: initially connected and acyclic
    except for the unique dead state.

    Alignment with the dfa counting sequence: states = n + 1 where n indexes
    the diagonal (n transient states plus the dead state; n = 0 is the
    dead-initial automaton for the empty language).

    Such an automaton is a relaxed tree whose sink is the dead state and
    whose root is the initial state, decorated with one accepting bit per
    internal node; so there are 2^n r_n of them, and the size cap is the
    tree enumeration's.  It is minimal iff the bottom-up signatures
    (bit, classes of the children) are pairwise distinct, the dead state's
    (0, dead, ..., dead) included (Revuz 1992).  While they are distinct each
    node is its own class, so a signature is (bit, child labels), and only
    nodes with equal child tuples can collide: each such group needs distinct
    bits, of which there are two, and bit 0 is taken by the dead state when
    every child is dead.  So the count is a product over the groups, with no
    search (`_minimal_bits`).
    """
    if k < 1:
        raise ValueError(f"arity-k: {k}")
    if states < 1:
        raise ValueError(f"negative-size: {states}")
    n = states - 1
    if k == 1:  # a chain, whose last transient state must accept to be minimal
        return 1 << (n - 1) if n else 1
    return sum(_minimal_bits(t) for t in enumerate_relaxed(k, n))


def _minimal_bits(tree: RelaxedTree) -> int:
    """The number of accepting-bit choices that make tree's automaton
    minimal: a factor 2 per group of nodes sharing a child tuple, 1 for the
    group whose children are all dead, and 0 if a group has more nodes than
    free bits."""
    groups = Counter(tuple(c.target for c in node.children) for node in tree.nodes)
    dead = (1,) * tree.k
    if any(size > 2 - (children == dead) for children, size in groups.items()):
        return 0
    return 1 << (len(groups) - (dead in groups))
