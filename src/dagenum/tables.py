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

import os
from collections import deque, namedtuple
from collections.abc import Iterator
from itertools import chain, islice
from math import log2, log10, sqrt
from pathlib import Path

KINDS = ("relaxed", "compacted", "dfa")
_A_MUL = {"relaxed": 1, "compacted": 1, "dfa": 2}

DEFAULT_BYTE_BUDGET = 2**31  # 2 GiB
# Decimal digits of the largest count the streaming budget admits, 310,759.
# _check_budget puts c = 32 + (k-1) m growth / 8 bytes in the top cell and
# charges the window about (k-1) m cells of at least c/2 bytes, so
# c (c - 32) <= budget * growth / 4, where growth < log2(budget).
_TOP_CELL = 32 + sqrt(DEFAULT_BYTE_BUDGET * log2(DEFAULT_BYTE_BUDGET) / 4)
MAX_COUNT_DIGITS = int(8 * _TOP_CELL * log10(2)) + 1


class CacheError(Exception):
    """Raised for unreadable or mismatched table cache files."""


def _sub_coef(kind: str, m: int) -> int:
    if kind == "compacted":
        return m - 1
    if kind == "dfa":
        return m
    return 0


class CountTable(namedtuple("CountTable", "kind k columns")):
    """The wedge up to column n_max, stored as columns[n][m] for
    0 <= m <= n/(k-1)."""

    __slots__ = ()

    @property
    def n_max(self) -> int:
        return len(self.columns) - 1

    def wedge_size(self) -> int:
        return _wedge_size(self.k, self.n_max)


def _wedge_size(k: int, n_max: int) -> int:
    return sum(n_max - (k - 1) * m + 1 for m in range(n_max // (k - 1) + 1))


def _check_args(kind: str, k: int, n_max: int):
    if kind not in KINDS:
        raise ValueError(f"unknown-kind: {kind}")
    _check_size(k, n_max)


def _check_budget(kind: str, k: int, col_max: int, wedge: bool) -> None:
    """Refuse, before any work, a DP whose projected footprint exceeds the budget.

    Crude upper bound: column maxima grow by at most a factor a + m_max + 2
    per column, so a cell of column n needs ~n log2(...) bits.  A CountTable
    keeps the whole wedge; the streaming route keeps the columns of its
    window and the diagonal.  Columns are counted largest first or in
    ascending order, so a hopeless request stops after a few terms.
    """
    m_max = col_max // (k - 1)
    growth = log2(_A_MUL[kind] + m_max + 2)

    def column(n: int) -> int:
        return (n // (k - 1) + 1) * (32 + int(n * growth) // 8)

    if wedge:
        sizes = map(column, range(col_max + 1))
    else:
        window = map(column, range(col_max, max(-1, col_max - k - 1), -1))
        diagonal = (32 + int((k - 1) * m * growth) // 8 for m in range(m_max + 1))
        sizes = chain(window, diagonal)
    total = 0
    for size in sizes:
        total += size
        _check_bytes("table", total)


def _check_bytes(what: str, projected: int) -> None:
    """Refuse a projected footprint over the byte budget; bounds.py's sweep
    refuses through this too."""
    if projected > DEFAULT_BYTE_BUDGET:
        raise ValueError(f"byte-budget: projected {what} exceeds byte budget ({DEFAULT_BYTE_BUDGET})")


def _check_arity(k: int) -> None:
    """Refuse an arity below 2, which every recurrence and every route
    built on them (the transform, the witnesses, the oracles) needs."""
    if k < 2:
        raise ValueError(f"arity-k: {k}")


def _check_size(k: int, n: int) -> None:
    """Refuse a bad arity, then a negative size n (a diagonal index, a row
    index or a tree size)."""
    _check_arity(k)
    if n < 0:
        raise ValueError(f"negative-size: {n}")


def _columns(
    kind: str, k: int, start: int, stop: int, tail: list[list[int]]
) -> Iterator[list[int]]:
    """Yield the wedge columns start..stop, given the columns before start.

    tail holds the columns max(0, start-k) .. start-1 (fewer than k only
    when start < k); no older column is ever read.
    """
    a = _A_MUL[kind]
    sub = [_sub_coef(kind, m) for m in range(stop // (k - 1) + 1)]
    # decided once, not per cell: a = 1 (relaxed, compacted) skips a
    # product, an all-zero sub (relaxed) skips the subtraction term
    scale, subtract = a != 1, any(sub)
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
            v = 1
            for m in range(1, m_in + 1):
                v = (m + 1) * prev[m] + (a * v if scale else v)
                if subtract:
                    v -= sub[m] * back[m - 1]
                col[m] = v
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


def build_table(kind: str, k: int, n_max: int) -> CountTable:
    """Fill the whole wedge up to column n_max, guarding the memory footprint."""
    _check_args(kind, k, n_max)
    return extend_table(CountTable(kind, k, []), n_max)


def extend_table(table: CountTable, n_max: int) -> CountTable:
    """Grow a table in place to a larger n_max; no-op when already big enough."""
    if n_max <= table.n_max:
        return table
    _check_budget(table.kind, table.k, n_max, wedge=True)
    columns = table.columns
    columns.extend(_columns(table.kind, table.k, len(columns), n_max, columns[-table.k :]))
    return table


def _extend_diagonal(
    kind: str, k: int, diagonal: list[int], tail: list[list[int]], n_max: int
) -> list[list[int]]:
    """Append the diagonal entries len(diagonal)..n_max to diagonal and
    return the new tail.

    tail holds the columns max(0, c-k+1)..c, c = (k-1)(len(diagonal)-1),
    the k columns the DP resumes from; the new tail is the last k columns
    up to (k-1)n_max.
    """
    start = (k - 1) * (len(diagonal) - 1) + 1 if diagonal else 0
    window = deque(tail, maxlen=k)
    for n, col in enumerate(_columns(kind, k, start, (k - 1) * n_max, tail), start):
        window.append(col)
        if n % (k - 1) == 0:
            diagonal.append(col[n // (k - 1)])
    return list(window)


def diagonal_sequence(kind: str, k: int, n_max: int) -> list[int]:
    """[count(n) for n in 0..n_max], i.e. the wedge diagonal ((k-1)n, n).

    The DP streams over columns keeping only the last k, so large diagonals
    never hold the full wedge in memory.
    """
    _check_args(kind, k, n_max)
    _check_budget(kind, k, (k - 1) * n_max, wedge=False)
    diagonal: list[int] = []
    _extend_diagonal(kind, k, diagonal, [], n_max)
    return diagonal


# ctab 5 holds the whole wedge (save_table/load_table) column by column;
# ctab 4, the CLI's cache, holds the diagonal and the last k columns.  Both
# store each integer as its big-endian bytes behind a 4-byte big-endian byte
# count, which CPython converts in C, in linear time and outside the int-str
# digit limit, and share the ASCII header, the checksum (sha256 of the body
# bytes) and the atomic write.  The earlier layouts, the decimal wedge ctab 1,
# decimal ctab 2 and hexadecimal ctab 3, are checked only that far: the cache
# rebuilds them, and a ctab 5 file, as if the file were missing.
_MAGIC_4 = "ctab 4"
_MAGIC_5 = "ctab 5"
_LAYOUTS = ("ctab 1", "ctab 2", "ctab 3", _MAGIC_4, _MAGIC_5)


def _checksum(body) -> str:
    import hashlib  # only the .ctab path loads it

    return hashlib.sha256(body).hexdigest()


def _write_ctab(path, magic: str, kind: str, k: int, n_max: int, body: bytes) -> None:
    checksum = _checksum(body)
    header = f"{magic}\nkind {kind}\nk {k}\nn_max {n_max}\nchecksum {checksum}\n"
    # Write beside the target and rename over it, so an interrupted save
    # leaves the previous cache file whole.
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(header.encode("ascii") + body)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_ctab(path) -> tuple[str, str, int, int, memoryview]:
    """Magic, kind, k, n_max and body bytes of a .ctab file of any layout,
    once its header parses and its checksum matches."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CacheError(f"cache-corrupt: unreadable file ({exc})") from None
    at = data.find(b"checksum ")
    if at < 0:
        raise CacheError("cache-corrupt: missing checksum line")
    end = data.find(b"\n", at)
    if end < 0:
        raise CacheError("cache-corrupt: truncated header")
    try:
        header = data[:end].decode("ascii")
    except UnicodeDecodeError as exc:
        raise CacheError(f"cache-corrupt: unreadable file ({exc})") from None
    head_lines, checksum = header[:at].splitlines(), header[at + 9 :]
    if len(head_lines) != 4 or head_lines[0] not in _LAYOUTS:
        raise CacheError("cache-corrupt: bad header")
    try:
        kind = head_lines[1].removeprefix("kind ").strip()
        k = int(head_lines[2].removeprefix("k ").strip())
        n_max = int(head_lines[3].removeprefix("n_max ").strip())
    except ValueError:
        raise CacheError("cache-corrupt: malformed header fields") from None
    if kind not in KINDS or k < 2 or n_max < 0:
        raise CacheError("cache-corrupt: malformed header fields")
    body = memoryview(data)[end + 1 :]
    if _checksum(body) != checksum:
        raise CacheError("cache-corrupt: checksum mismatch")
    return head_lines[0], kind, k, n_max, body


def _check_cells(kind: str, columns: list[list[int]]) -> None:
    for col in columns:
        if col[0] != 1:
            raise CacheError("cache-corrupt: boundary row invariant broken")
    for col in columns:
        if min(col) < 0:
            raise CacheError("cache-corrupt: negative entry")
    if kind == "relaxed" and any(min(col) == 0 for col in columns):
        raise CacheError("cache-corrupt: zero relaxed entry inside the wedge")


def save_table(table: CountTable, path) -> None:
    """ctab 5: 5-line header, then the wedge's columns 0..n_max in turn,
    each integer in the ctab 4 encoding."""
    body = _pack(chain(*table.columns))
    _write_ctab(path, _MAGIC_5, table.kind, table.k, table.n_max, body)


def load_table(path) -> CountTable:
    magic, kind, k, n_max, raw = _read_ctab(path)
    if magic != _MAGIC_5:
        raise CacheError(f"cache-version: a {magic} file holds no wedge")
    values = iter(_unpack(raw, _wedge_size(k, n_max)))
    columns = [list(islice(values, n // (k - 1) + 1)) for n in range(n_max + 1)]
    _check_cells(kind, columns)
    return CountTable(kind, k, columns)


def _tail_columns(k: int, n_max: int) -> range:
    c = (k - 1) * n_max
    return range(max(0, c - k + 1), c + 1)


def _pack(values) -> bytes:
    """ctab 4 body: each value as a 4-byte big-endian byte count L, then its
    L big-endian bytes (zero has L = 0)."""
    parts = []
    for v in values:
        size = (v.bit_length() + 7) // 8
        parts += (size.to_bytes(4, "big"), v.to_bytes(size, "big"))
    return b"".join(parts)


def _unpack(body: memoryview, count: int) -> list[int]:
    """The count values of a ctab 4 body, which must end with the last."""
    values, pos, end = [], 0, len(body)
    for _ in range(count):
        if pos == end:
            raise CacheError("cache-corrupt: wrong entry count")
        start = pos + 4
        pos = start + int.from_bytes(body[pos:start], "big")
        if pos > end:
            raise CacheError("cache-corrupt: truncated entry")
        values.append(int.from_bytes(body[start:pos], "big"))
    if pos != end:
        raise CacheError("cache-corrupt: wrong entry count")
    return values


def _load_diagonal(path) -> tuple[str, str, int, list[int], list[list[int]]]:
    """Magic, kind, k, diagonal and tail of a cache file; a file in another
    layout (ctab 1 to 3, or a ctab 5 wedge) gives an empty diagonal and tail."""
    magic, kind, k, n_max, raw = _read_ctab(path)
    if magic != _MAGIC_4:
        return magic, kind, k, [], []
    # the layout fixes each column's length, so the entry count checks it:
    # n_max + 1 on the diagonal and k * n_max + 1 in the tail
    values = iter(_unpack(raw, (k + 1) * n_max + 2))
    diagonal = list(islice(values, n_max + 1))
    tail = [list(islice(values, n // (k - 1) + 1)) for n in _tail_columns(k, n_max)]
    # the diagonal starts at count(0) = 1, as every column starts at m = 0
    _check_cells(kind, [diagonal, *tail])
    if tail[-1][-1] != diagonal[-1]:
        raise CacheError("cache-corrupt: diagonal and last column disagree")
    return magic, kind, k, diagonal, tail


def cached_diagonal(kind: str, k: int, n_max: int, path) -> list[int]:
    """diagonal_sequence(kind, k, n_max) through the cache file at path.

    The file (ctab 4) holds count(0..N) and the columns max(0, c-k+1)..c,
    c = (k-1)N, in binary.  When N >= n_max it is only read; otherwise the
    DP resumes from those columns, and the longer diagonal is saved.  A
    missing file, or one in another layout (ctab 1, 2, 3 or 5), is built
    from column 0 and saved as ctab 4.
    """
    path = Path(path)
    magic, diagonal, tail = None, [], []
    if path.exists():
        magic, found_kind, found_k, diagonal, tail = _load_diagonal(path)
    _check_args(kind, k, n_max)
    if magic is not None and (found_kind, found_k) != (kind, k):
        raise CacheError(
            f"cache-mismatch: table is ({found_kind}, k={found_k}), requested ({kind}, k={k})"
        )
    if n_max >= len(diagonal):
        _check_budget(kind, k, (k - 1) * n_max, wedge=False)
        tail = _extend_diagonal(kind, k, diagonal, tail, n_max)
        _write_ctab(path, _MAGIC_4, kind, k, len(diagonal) - 1, _pack(chain(diagonal, *tail)))
    return diagonal[: n_max + 1]
