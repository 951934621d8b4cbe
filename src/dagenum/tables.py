"""Arbitrary-precision DP tables for the three counting recurrences.

All three sequences live in the wedge 0 <= m <= n/(k-1) with an all-ones
boundary row at m = 0:

    relaxed:   r[n][m] = r[n][m-1] + (m+1) r[n-1][m]
    compacted: c[n][m] = c[n][m-1] + (m+1) c[n-1][m] - (m-1) c[n-k][m-1]
    dfa:       b[n][m] = 2 b[n][m-1] + (m+1) b[n-1][m] - m b[n-k][m-1]

Reads outside the wedge are zero, with one deliberate exception: the
subtraction term treats the m = 0 boundary row as extending to negative n
with value 1.  Without that extension the dfa recurrence contradicts its own
small values (the m = 1 row would start 2, 4, 8, ... instead of 1, 3, 7, ...);
with it all three diagonals match the brute-force oracles.

The n-th diagonal entry, at (n(k-1), n), counts the structures of size n.
"""

from __future__ import annotations

import hashlib
import os
import sys
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from math import log2
from pathlib import Path

KINDS = ("relaxed", "compacted", "dfa")
_A_MUL = {"relaxed": 1, "compacted": 1, "dfa": 2}

DEFAULT_BYTE_BUDGET = 2**31  # 2 GiB


class CacheError(Exception):
    """Raised for unreadable or mismatched table cache files."""


def _sub_coef(kind: str, m: int) -> int:
    if kind == "compacted":
        return m - 1
    if kind == "dfa":
        return m
    return 0


@dataclass
class CountTable:
    """The wedge up to column n_max, stored as columns[n][m] for
    0 <= m <= n/(k-1)."""

    kind: str
    k: int
    columns: list[list[int]]

    @property
    def n_max(self) -> int:
        return len(self.columns) - 1

    def entry(self, n: int, m: int) -> int:
        if not 0 <= n <= self.n_max or m < 0:
            raise ValueError(f"out-of-range: ({n}, {m})")
        if (self.k - 1) * m > n:
            return 0
        return self.columns[n][m]

    def diagonal(self, n: int) -> int:
        return self.entry((self.k - 1) * n, n)

    def wedge_size(self) -> int:
        return _wedge_size(self.k, self.n_max)


def _wedge_size(k: int, n_max: int) -> int:
    return sum(n_max - (k - 1) * m + 1 for m in range(n_max // (k - 1) + 1))


def _check_args(kind: str, k: int, n_max: int):
    if kind not in KINDS:
        raise ValueError(f"unknown-kind: {kind}")
    if k < 2:
        raise ValueError(f"arity-k: {k}")
    if n_max < 0:
        raise ValueError(f"negative-size: {n_max}")


def _projected_bytes(kind: str, k: int, n_max: int) -> int:
    # crude upper bound: column maxima grow by at most a factor
    # a + m_max + 2 per column, so entry n needs ~n log2(...) bits
    m_max = n_max // (k - 1)
    growth = log2(_A_MUL[kind] + m_max + 2)
    total = 0
    for n in range(n_max + 1):
        rows = min(n // (k - 1), m_max) + 1
        total += rows * (28 + int(n * growth) // 8 + 4)
    return total


def _columns(
    kind: str, k: int, start: int, stop: int, tail: list[list[int]]
) -> Iterator[list[int]]:
    """Yield the wedge columns start..stop, given the columns before start.

    tail holds the columns max(0, start-k) .. start-1 (fewer than k only
    when start < k); no older column is ever read.
    """
    a = _A_MUL[kind]
    sub = [_sub_coef(kind, m) for m in range(stop // (k - 1) + 1)]
    floor = 1 if kind == "relaxed" else 0
    window = deque(tail, maxlen=k)
    for n in range(start, stop + 1):
        m_top = n // (k - 1)
        # Cells with (k-1)m <= n-1 read column n-1 at m and column n-k at
        # m-1; both lie inside the wedge exactly then.  The diagonal cell
        # (k-1)m = n reads neither, apart from the boundary extension.
        m_in = (n - 1) // (k - 1)
        col = [1] * (m_top + 1)
        if m_in > 0:
            prev, back = window[-1], window[0]
            for m in range(1, m_in + 1):
                col[m] = a * col[m - 1] + (m + 1) * prev[m] - sub[m] * back[m - 1]
        if m_top > max(m_in, 0):
            # the boundary row of 1s extends to negative n for the m = 1 cell
            col[m_top] = a * col[m_top - 1] - (sub[1] if m_top == 1 else 0)
        if min(col) < floor:
            m = next(m for m, v in enumerate(col) if v < floor)
            if col[m] < 0:
                raise AssertionError(f"negative entry at ({n}, {m}) for {kind}, k={k}")
            raise AssertionError(f"zero relaxed entry inside the wedge at ({n}, {m})")
        window.append(col)
        yield col


def build_table(
    kind: str, k: int, n_max: int, byte_budget: int = DEFAULT_BYTE_BUDGET
) -> CountTable:
    """Fill the whole wedge up to column n_max, guarding the memory footprint."""
    _check_args(kind, k, n_max)
    if _projected_bytes(kind, k, n_max) > byte_budget:
        raise ValueError(
            f"byte-budget: projected table exceeds configured byte budget ({byte_budget})"
        )
    return extend_table(CountTable(kind, k, []), n_max, byte_budget)


def extend_table(
    table: CountTable, n_max: int, byte_budget: int = DEFAULT_BYTE_BUDGET
) -> CountTable:
    """Grow a table in place to a larger n_max; no-op when already big enough."""
    if n_max <= table.n_max:
        return table
    columns = table.columns
    used = sum(sys.getsizeof(v) for col in columns for v in col)
    for col in _columns(table.kind, table.k, len(columns), n_max, columns[-table.k :]):
        used += sum(sys.getsizeof(v) for v in col)
        if used > byte_budget:
            raise ValueError(
                f"byte-budget: table exceeded configured byte budget ({byte_budget})"
            )
        columns.append(col)
    return table


def diagonal_sequence(kind: str, k: int, n_max: int, table: CountTable | None = None) -> list[int]:
    """[count(n) for n in 0..n_max], i.e. the wedge diagonal ((k-1)n, n).

    With no table given the DP streams over columns keeping only the last
    k, so large diagonals never hold the full wedge in memory.
    """
    _check_args(kind, k, n_max)
    if table is not None:
        if table.kind != kind or table.k != k:
            raise CacheError(
                f"cache-mismatch: table is ({table.kind}, k={table.k}), "
                f"requested ({kind}, k={k})"
            )
        if table.n_max < (k - 1) * n_max:
            raise ValueError(f"out-of-range: table stops at column {table.n_max}")
        return [table.diagonal(n) for n in range(n_max + 1)]
    cols = _columns(kind, k, 0, (k - 1) * n_max, [])
    return [col[n // (k - 1)] for n, col in enumerate(cols) if n % (k - 1) == 0]


_MAGIC = "ctab 1"


def save_table(table: CountTable, path) -> None:
    """Text format: 5-line header, then one decimal integer per line in
    wedge-row order: for m ascending, n from (k-1)m to n_max."""
    columns, k = table.columns, table.k
    body = "".join(
        f"{columns[n][m]}\n"
        for m in range(table.n_max // (k - 1) + 1)
        for n in range((k - 1) * m, table.n_max + 1)
    )
    checksum = hashlib.sha256(body.encode("ascii")).hexdigest()
    header = (
        f"{_MAGIC}\nkind {table.kind}\nk {table.k}\n"
        f"n_max {table.n_max}\nchecksum {checksum}\n"
    )
    # Write beside the target and rename over it, so an interrupted save
    # leaves the previous cache file whole.
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(header + body, encoding="ascii")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_table(path) -> CountTable:
    try:
        text = Path(path).read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise CacheError(f"cache-corrupt: unreadable file ({exc})") from None
    head, sep, body = text.partition("checksum ")
    if not sep:
        raise CacheError("cache-corrupt: missing checksum line")
    checksum, nl, body = body.partition("\n")
    if not nl:
        raise CacheError("cache-corrupt: truncated header")
    head_lines = head.splitlines()
    if len(head_lines) != 4 or head_lines[0] != _MAGIC:
        raise CacheError("cache-corrupt: bad header")
    try:
        kind = head_lines[1].removeprefix("kind ").strip()
        k = int(head_lines[2].removeprefix("k ").strip())
        n_max = int(head_lines[3].removeprefix("n_max ").strip())
    except ValueError:
        raise CacheError("cache-corrupt: malformed header fields") from None
    if kind not in KINDS or k < 2 or n_max < 0:
        raise CacheError("cache-corrupt: malformed header fields")
    if hashlib.sha256(body.encode("ascii")).hexdigest() != checksum:
        raise CacheError("cache-corrupt: checksum mismatch")
    raw = body.splitlines()
    if len(raw) != _wedge_size(k, n_max):
        raise CacheError("cache-corrupt: wrong entry count")
    columns: list[list[int]] = [[0] * (n // (k - 1) + 1) for n in range(n_max + 1)]
    idx = 0
    try:
        for m in range(n_max // (k - 1) + 1):
            for n in range((k - 1) * m, n_max + 1):
                columns[n][m] = int(raw[idx])
                idx += 1
    except ValueError:
        raise CacheError("cache-corrupt: non-integer entry") from None
    for col in columns:
        if col[0] != 1:
            raise CacheError("cache-corrupt: boundary row invariant broken")
    for col in columns:
        if min(col) < 0:
            raise CacheError("cache-corrupt: negative entry")
    if kind == "relaxed" and any(min(col) == 0 for col in columns):
        raise CacheError("cache-corrupt: zero relaxed entry inside the wedge")
    return CountTable(kind, k, columns)
