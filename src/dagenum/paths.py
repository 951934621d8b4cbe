"""Horizontally k-decorated lattice paths.

A path starts at (0, -1) with a forced initial U step.  U moves one unit up,
H moves one unit right and carries a "cross" decoration.  After removing the
initial U the path starts at the origin, must never cross above the line
y = x/(k-1) and ends on it, at ((k-1)n, n); an H step taken at height m
carries a cross in 1..m+1, encoding the postorder label of a pointer target.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

from .tables import _check_size
from .trees import Child, Node, POINTER, SPINE, _int


@dataclass(frozen=True)
class DecoratedPath:
    k: int
    steps: tuple[int | None, ...]  # None for a U step, the cross for an H

    @property
    def n(self) -> int:
        """Internal-node count of the image tree: U steps minus one."""
        return self.steps.count(None) - 1


class PathReport(NamedTuple):
    ok: bool
    index: int | None = None
    code: str | None = None


# Edges are immutable, so trees can share them; a cache hit costs a third
# of building the NamedTuple.
_edge = lru_cache(maxsize=1024, typed=True)(Child)


def validate_path(p: DecoratedPath) -> PathReport:
    """Check the path invariants, reporting the first violating step index."""
    return _walk(p)[0]


def _walk(p: DecoratedPath) -> tuple[PathReport, list[Node] | None]:
    """The one left-to-right pass: validate_path's report and, for a valid
    path, the internal nodes of its tree in postorder, else None.

    A stack holds completed subtrees as spine edges and pending crosses as
    pointer edges.  The first U creates the sink; every later U closes the
    next label in postorder by popping k items as its children.  Each H
    pushes one item, the first U one and each later U a net 1 - k, so after
    x H steps and y + 1 U steps the stack holds x + 1 - (k-1)y items.  The
    diagonal rule (k-1)y <= x at the vertex after a later U therefore holds
    exactly when k items are on the stack before it, and the endpoint rule
    (k-1)y == x leaves the root alone on it.
    """
    k, steps = p.k, p.steps
    if k < 2:
        return PathReport(False, None, "arity-k"), None
    if not steps or steps[0] is not None:
        return PathReport(False, 0, "first-step"), None
    stack: list[Child] = []
    nodes: list[Node] = []
    label = 0  # labels completed so far, one per U step
    for idx, cross in enumerate(steps):
        if cross is None:  # a U step
            if label:
                if len(stack) < k:
                    return PathReport(False, idx, "diagonal"), None
                nodes.append(Node(label + 1, tuple(stack[-k:])))
                del stack[-k:]
            label += 1
            stack.append(_edge(SPINE, label))
        elif not isinstance(cross, int):
            return PathReport(False, idx, "step-format"), None
        # a cross names a completed label: 1..m+1 at height m
        elif not 1 <= cross <= label:
            return PathReport(False, idx, "cross-range"), None
        else:
            stack.append(_edge(POINTER, cross))
    if len(stack) != 1:
        return PathReport(False, len(steps), "endpoint"), None
    return PathReport(True), nodes


# The exhaustive cap of both enumerations, the paths here and the trees of
# the oracle, by arity; anything above needs an explicit limit.
DEFAULT_TREE_LIMITS = {2: 6, 3: 4, 4: 3}
FALLBACK_TREE_LIMIT = 2


def _tree_limit(k: int) -> int:
    return DEFAULT_TREE_LIMITS.get(k, FALLBACK_TREE_LIMIT)


def _check_exhaustive(k: int, n: int, limit: int | None) -> None:
    """Refuse what _check_size refuses, then a size over limit, which
    defaults to the arity's exhaustive cap."""
    _check_size(k, n)
    limit = _tree_limit(k) if limit is None else limit
    if n > limit:
        raise ValueError(f"too-large: n={n} exceeds exhaustive limit {limit}")


def generate_paths(k: int, n: int, limit: int | None = None) -> Iterator[DecoratedPath]:
    """All valid paths to ((k-1)n, n), lexicographic with U < H(1) < H(2) < ...

    Every partial prefix that respects the diagonal and the step budget can
    be completed (append remaining H steps, then U steps), so the recursion
    never explores dead branches.
    """
    _check_exhaustive(k, n, limit)
    total_u = n + 1
    total_h = (k - 1) * n
    steps: list[int | None] = []

    def rec(us: int, hs: int) -> Iterator[DecoratedPath]:
        if us == total_u and hs == total_h:
            yield DecoratedPath(k, tuple(steps))
            return
        # U first: the new vertex (hs, us) must stay weakly below the diagonal
        if us < total_u and (k - 1) * us <= hs:
            steps.append(None)
            yield from rec(us + 1, hs)
            steps.pop()
        # H at height us - 1, crosses ascending
        if hs < total_h and us >= 1:
            for cross in range(1, us + 1):
                steps.append(cross)
                yield from rec(us, hs + 1)
                steps.pop()

    return rec(0, 0)


def to_document(p: DecoratedPath) -> dict:
    steps = [{"type": "U"} if c is None else {"type": "H", "cross": c} for c in p.steps]
    return {"k": p.k, "steps": steps}


def from_document(doc: dict) -> DecoratedPath:
    try:
        k = _int(doc["k"])
        raw_steps = doc["steps"]
        if not isinstance(raw_steps, list):
            raise ValueError
        steps = []
        for raw in raw_steps:
            kind = raw["type"]
            if kind == "U":
                steps.append(None)
            elif kind == "H":
                steps.append(_int(raw["cross"]))
            else:
                raise ValueError
    except (KeyError, TypeError, ValueError):
        raise ValueError("path-format: not a valid path document") from None
    return DecoratedPath(k, tuple(steps))


def dumps(p: DecoratedPath) -> str:
    return json.dumps(to_document(p), indent=2) + "\n"


def loads(text: str) -> DecoratedPath:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError):  # nested past the parser's depth
        raise ValueError("path-format: not valid JSON") from None
    return from_document(doc)
