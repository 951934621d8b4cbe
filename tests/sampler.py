"""Seeded uniform sampling of decorated paths, hence of relaxed trees.

The relaxed wedge r[x][y] = r[x][y-1] + (y+1) r[x-1][y] counts the
decorated paths from the origin to (x, y): the last step is a U from
(x, y-1) or an H from (x-1, y) with one of y+1 crosses.  Walking back from
((k-1)n, n) and choosing each step with probability proportional to the
paths behind it therefore draws every path of size n with probability
1 / r_n (the recursive method of Nijenhuis and Wilf, Combinatorial
Algorithms, 1978).  Each step is one `randrange` over the exact count of
the current vertex, so no float rounds a weight.
"""

from __future__ import annotations

import random

from dagenum.paths import DecoratedPath
from dagenum.tables import _columns


class PathSampler:
    """Uniform decorated paths of size n over the relaxed k-ary wedge."""

    def __init__(self, k: int, n: int):
        self.k, self.n = k, n
        self.columns = list(_columns("relaxed", k, 0, (k - 1) * n, []))

    def count(self, x: int, y: int) -> int:
        """r[x][y], zero outside the wedge 0 <= (k-1)y <= x."""
        return self.columns[x][y] if 0 <= y and (self.k - 1) * y <= x else 0

    def draw(self, rng: random.Random) -> DecoratedPath:
        x, y = (self.k - 1) * self.n, self.n
        back: list[int | None] = []  # the steps after the forced first U, last first
        while x or y:
            via_u = self.count(x, y - 1)
            per_cross = self.count(x - 1, y)
            pick = rng.randrange(via_u + (y + 1) * per_cross)
            if pick < via_u:
                back.append(None)
                y -= 1
            else:  # pick - via_u is uniform over (y + 1) * per_cross
                back.append((pick - via_u) // per_cross + 1)
                x -= 1
        return DecoratedPath(self.k, (None, *reversed(back)))
