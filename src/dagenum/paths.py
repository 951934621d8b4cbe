"""Horizontally k-decorated lattice paths.

A path starts at (0, -1) with a forced initial U step.  U moves one unit up,
H moves one unit right and carries a "cross" decoration.  After removing the
initial U the path starts at the origin and must never cross above the line
y = x/(k-1); an H step taken at height m carries a cross in 1..m+1, encoding
the postorder label of a pointer target.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple


class Step(NamedTuple):
    kind: str  # "U" or "H"
    cross: int | None = None


_UP = Step("U")


def up() -> Step:
    return _UP


# Steps are immutable, so paths can share them; the cache saves building a
# NamedTuple per H step (three times the cost of a cache hit).
@lru_cache(maxsize=1024, typed=True)
def horiz(cross: int) -> Step:
    return Step("H", cross)


@dataclass(frozen=True)
class DecoratedPath:
    k: int
    steps: tuple[Step, ...]

    @property
    def n(self) -> int:
        """Internal-node count of the image tree: U steps minus one."""
        return sum(1 for s in self.steps if s.kind == "U") - 1

    def endpoint(self) -> tuple[int, int]:
        x = sum(1 for s in self.steps if s.kind == "H")
        y = -1 + sum(1 for s in self.steps if s.kind == "U")
        return x, y


class PathReport(NamedTuple):
    ok: bool
    index: int | None = None
    code: str | None = None


def validate_path(p: DecoratedPath) -> PathReport:
    """Check the path invariants, reporting the first violating step index."""
    if p.k < 2:
        return PathReport(False, None, "arity-k")
    if not p.steps or p.steps[0].kind != "U":
        return PathReport(False, 0, "first-step")
    x, y = 0, -1
    for idx, (kind, cross) in enumerate(p.steps):
        if kind == "U":
            if cross is not None:
                return PathReport(False, idx, "step-format")
            y += 1
            # the constraint applies with the initial U removed; the vertex
            # after that first step is (0, 0), which satisfies it anyway
            if (p.k - 1) * y > x:
                return PathReport(False, idx, "diagonal")
        elif kind == "H":
            if not isinstance(cross, int):
                return PathReport(False, idx, "step-format")
            # height m = y, one unit box per row from y = -1 up
            if not 1 <= cross <= y + 1:
                return PathReport(False, idx, "cross-range")
            x += 1
        else:
            return PathReport(False, idx, "step-format")
    return PathReport(True)


def generate_paths(k: int, n: int, limit: int = 8) -> Iterator[DecoratedPath]:
    """All valid paths to ((k-1)n, n), lexicographic with U < H(1) < H(2) < ...

    Every partial prefix that respects the diagonal and the step budget can
    be completed (append remaining H steps, then U steps), so the recursion
    never explores dead branches.
    """
    if k < 2:
        raise ValueError(f"arity-k: {k}")
    if n < 0:
        raise ValueError(f"negative-size: {n}")
    if n > limit:
        raise ValueError(f"too-large: n={n} exceeds exhaustive limit {limit}")
    total_u = n + 1
    total_h = (k - 1) * n
    steps: list[Step] = []

    def rec(us: int, hs: int) -> Iterator[DecoratedPath]:
        if us == total_u and hs == total_h:
            yield DecoratedPath(k, tuple(steps))
            return
        # U first: the new vertex (hs, us) must stay weakly below the diagonal
        if us < total_u and (k - 1) * us <= hs:
            steps.append(up())
            yield from rec(us + 1, hs)
            steps.pop()
        # H at height us - 1, crosses ascending
        if hs < total_h and us >= 1:
            for cross in range(1, us + 1):
                steps.append(horiz(cross))
                yield from rec(us, hs + 1)
                steps.pop()

    return rec(0, 0)


def to_document(p: DecoratedPath) -> dict:
    steps = []
    for step in p.steps:
        if step.kind == "U":
            steps.append({"type": "U"})
        else:
            steps.append({"type": "H", "cross": step.cross})
    return {"k": p.k, "steps": steps}


def from_document(doc: dict) -> DecoratedPath:
    try:
        k = doc["k"]
        raw_steps = doc["steps"]
        if not isinstance(k, int) or not isinstance(raw_steps, list):
            raise ValueError
        steps = []
        for raw in raw_steps:
            kind = raw["type"]
            if kind == "U":
                steps.append(up())
            elif kind == "H":
                steps.append(horiz(int(raw["cross"])))
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
    except json.JSONDecodeError:
        raise ValueError("path-format: not valid JSON") from None
    return from_document(doc)
