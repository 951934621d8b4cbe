import contextlib
import importlib.util
import io
import math
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dagenum import tables
from dagenum.tables import (
    CacheError,
    CountTable,
    KINDS,
    build_table,
    cached_diagonal,
    diagonal_sequence,
    extend_table,
    load_table,
    save_table,
)

from known_values import KNOWN_COUNTS, known_row

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("kind,k", sorted(KNOWN_COUNTS))
def test_diagonals_match_known_rows(kind, k):
    row = known_row(kind, k)
    n_max = max(row)
    assert diagonal_sequence(kind, k, n_max)[min(row):] == [row[n] for n in sorted(row)]


def test_table_route_equals_streaming_route():
    for kind in KINDS:
        table = build_table(kind, 3, 14)
        assert [table.columns[2 * n][n] for n in range(8)] == diagonal_sequence(kind, 3, 7)


def test_argument_guards():
    with pytest.raises(ValueError, match="unknown-kind"):
        build_table("weird", 2, 3)
    with pytest.raises(ValueError, match="arity-k"):
        build_table("relaxed", 1, 3)
    with pytest.raises(ValueError, match="negative-size"):
        diagonal_sequence("relaxed", 2, -1)


def test_byte_budget_guard():
    with pytest.raises(ValueError, match="byte-budget"):
        build_table("relaxed", 2, 3000)


def test_extend_table():
    table = build_table("compacted", 2, 4)
    before = [list(col) for col in table.columns]
    extend_table(table, 8)
    assert table.n_max == 8
    assert table.columns[: len(before)] == before
    assert table.columns[8][8] == known_row("compacted", 2)[8]
    # shrinking is a no-op
    extend_table(table, 3)
    assert table.n_max == 8


def test_save_load_round_trip(tmp_path):
    table = build_table("dfa", 3, 10)
    path = tmp_path / "dfa-k3.ctab"
    save_table(table, path)
    loaded = load_table(path)
    assert loaded.kind == "dfa" and loaded.k == 3 and loaded.n_max == 10
    assert loaded.columns == table.columns


# ctab 5 bytes of build_table("dfa", 3, 6): columns 0..6 in turn, each
# integer as a 4-byte big-endian byte count and then its big-endian bytes.
_DFA3_GOLDEN = (
    b"ctab 5\nkind dfa\nk 3\nn_max 6\n"
    b"checksum e795f266db99b42c1aa2b51615ff63b02615f181035bd754be045c5473cdab0a\n"
) + bytes.fromhex(
    "00000001 01  00000001 01"  # columns 0 and 1: 1; 1
    "00000001 01  00000001 01  00000001 01  00000001 03"  # columns 2 and 3: 1, 1; 1, 3
    "00000001 01  00000001 07  00000001 0e"  # column 4: 1, 7, 14
    "00000001 01  00000001 0f  00000001 46"  # column 5: 1, 15, 70
    "00000001 01  00000001 1f  00000002 010a  00000002 0214"  # column 6: 1, 31, 266, 532
)


def test_save_table_golden_bytes(tmp_path):
    path = tmp_path / "dfa-k3.ctab"
    table = build_table("dfa", 3, 6)
    save_table(table, path)
    assert path.read_bytes() == _DFA3_GOLDEN
    # the body, read length by length, is the wedge column by column
    body, values = _DFA3_GOLDEN.split(b"\n", 5)[5], []
    while body:
        size = int.from_bytes(body[:4], "big")
        values.append(int.from_bytes(body[4 : 4 + size], "big"))
        body = body[4 + size :]
    assert values == [v for col in table.columns for v in col]


@pytest.fixture
def torn_writes(monkeypatch):
    """Within the returned context, every file opened for writing gets half
    of what it is given, and then the run is interrupted."""
    real_open = io.open

    class TornFile:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise KeyboardInterrupt

    def torn_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return TornFile(fh) if "w" in mode else fh

    @contextlib.contextmanager
    def torn():
        with monkeypatch.context() as m:
            m.setattr(io, "open", torn_open)
            m.setattr("builtins.open", torn_open)
            yield

    return torn


def test_interrupted_save_keeps_old_cache(tmp_path, torn_writes):
    path = tmp_path / "relaxed-k2.ctab"
    save_table(build_table("relaxed", 2, 6), path)
    with torn_writes():
        with pytest.raises(KeyboardInterrupt):
            save_table(build_table("relaxed", 2, 12), path)
    assert load_table(path).n_max == 6
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("kind", ["relaxed", "dfa"])
@pytest.mark.parametrize("k", [2, 16, 1024])
def test_max_count_digits_covers_what_the_budget_admits(kind, k):
    def admitted(n):
        try:
            tables._check_budget(kind, k, (k - 1) * n, wedge=False)
        except ValueError:
            return False
        return True

    lo, hi = 1, 2  # bisect for the largest admitted n
    while admitted(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if admitted(mid) else (lo, mid)
    # the projection's own bound on the top count: growth bits per column
    bits = (k - 1) * lo * math.log2(tables._A_MUL[kind] + lo + 2)
    assert bits * math.log10(2) + 1 < tables.MAX_COUNT_DIGITS


def test_byte_budget_is_checked_before_any_column():
    table = build_table("relaxed", 2, 6)
    before = [list(col) for col in table.columns]
    with pytest.raises(ValueError, match="byte-budget"):
        extend_table(table, 3000)
    assert table.columns == before


def test_streaming_route_has_a_byte_budget(tmp_path):
    # the streaming projection keeps a window of columns and the diagonal,
    # so sizes the wedge could never hold still run; absurd ones stop at once
    with pytest.raises(ValueError, match="byte-budget"):
        build_table("relaxed", 2, 2000)
    assert len(diagonal_sequence("relaxed", 2, 1000)) == 1001
    with pytest.raises(ValueError, match="byte-budget"):
        diagonal_sequence("relaxed", 2, 10**6)
    with pytest.raises(ValueError, match="byte-budget"):
        cached_diagonal("dfa", 5, 10**6, tmp_path / "dfa-k5.ctab")
    assert not list(tmp_path.iterdir())
    # a refused rebuild leaves a file in an earlier layout as it was
    old = tmp_path / "dfa-k3.ctab"
    old.write_bytes(_LEGACY["ctab 2"][0])
    with pytest.raises(ValueError, match="byte-budget"):
        cached_diagonal("dfa", 3, 10**6, old)
    assert old.read_bytes() == _LEGACY["ctab 2"][0]
    assert list(tmp_path.iterdir()) == [old]


# ctab 4 bytes of count(0..3) for dfa, k = 3: the diagonal, then the
# columns 4..6, each integer as a 4-byte big-endian byte count and then its
# big-endian bytes.
_DFA3_GOLDEN_4 = (
    b"ctab 4\nkind dfa\nk 3\nn_max 3\n"
    b"checksum 89124b4beb989d26eb12cb9aa143b419be10169687c41a8fcb50e60e0d053cfb\n"
) + bytes.fromhex(
    "00000001 01  00000001 01  00000001 0e  00000002 0214"  # 1, 1, 14, 532
    "00000001 01  00000001 07  00000001 0e"  # column 4: 1, 7, 14
    "00000001 01  00000001 0f  00000001 46"  # column 5: 1, 15, 70
    "00000001 01  00000001 1f  00000002 010a  00000002 0214"  # column 6: 1, 31, 266, 532
)
# The same counts in the cache's earlier text layouts, decimal ctab 2 and
# hexadecimal ctab 3, which the cache rebuilds as ctab 4: inputs of tests
# here, in test_cli.py and in tools/cli_compare.py.
_FIXTURES = Path(__file__).parent / "fixtures"
_LEGACY = {
    "ctab 2": ((_FIXTURES / "dfa_k3_ctab2.ctab").read_bytes(), 10),
    "ctab 3": ((_FIXTURES / "dfa_k3_ctab3.ctab").read_bytes(), 16),
}
# the decimal whole-wedge layout ctab 1 of build_table("dfa", 3, 6), which
# the cache rebuilds and load_table refuses
_CTAB1 = (_FIXTURES / "dfa_k3_ctab1.ctab").read_bytes()


def test_cached_diagonal_golden_bytes(tmp_path):
    path = tmp_path / "dfa-k3.ctab"
    assert cached_diagonal("dfa", 3, 3, path) == [1, 1, 14, 532]
    assert path.read_bytes() == _DFA3_GOLDEN_4
    wedge = build_table("dfa", 3, 6)
    for golden, base in _LEGACY.values():
        tail = [[int(v, base) for v in line.split()] for line in golden.splitlines()[-3:]]
        assert tail == [wedge.columns[n] for n in (4, 5, 6)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_cached_diagonal_resumes_from_its_tail(tmp_path, kind, k):
    path = tmp_path / f"{kind}-k{k}.ctab"
    full = diagonal_sequence(kind, k, 9)
    for n_max in (0, 1, 4, 2, 9, 9):
        assert cached_diagonal(kind, k, n_max, path) == full[: n_max + 1]
    # the file reloads as the diagonal and the last k columns of the wedge
    magic, _, _, diagonal, tail = tables._load_diagonal(path)
    wedge = build_table(kind, k, 9 * (k - 1))
    assert magic == "ctab 4" and diagonal == full
    assert tail == wedge.columns[-k:]


def test_interrupted_cache_save_keeps_old_file(tmp_path, torn_writes):
    # a ctab 4 file that is extended, and a ctab 2 file that is rebuilt
    path, old = tmp_path / "relaxed-k2.ctab", tmp_path / "dfa-k3.ctab"
    cached_diagonal("relaxed", 2, 6, path)
    old.write_bytes(_LEGACY["ctab 2"][0])
    stamps = {p: p.read_bytes() for p in (path, old)}
    with torn_writes():
        with pytest.raises(KeyboardInterrupt):
            cached_diagonal("relaxed", 2, 12, path)
        with pytest.raises(KeyboardInterrupt):
            cached_diagonal("dfa", 3, 2, old)
    assert {p: p.read_bytes() for p in stamps} == stamps
    assert sorted(tmp_path.iterdir()) == sorted(stamps)



def test_ctab_1_is_migrated_to_ctab_4(tmp_path, cache_writes, fixtures_dir):
    # the cache does not read a wedge, decimal ctab 1 or binary ctab 5: it
    # rebuilds the diagonal from column 0 and replaces the file with the
    # ctab 4 of the requested n_max
    fresh = tmp_path / "fresh.ctab"
    cached_diagonal("dfa", 3, 4, fresh)
    for name, data in (("ctab1", _CTAB1), ("ctab5", (fixtures_dir / "dfa_k3_ctab5.ctab").read_bytes())):
        path = tmp_path / name / "dfa-k3.ctab"
        path.parent.mkdir()
        path.write_bytes(data)
        cache_writes.clear()
        assert cached_diagonal("dfa", 3, 4, path) == diagonal_sequence("dfa", 3, 4)
        magic, kind, k, diagonal, _ = tables._load_diagonal(path)
        assert (magic, kind, k) == ("ctab 4", "dfa", 3)
        assert diagonal == diagonal_sequence("dfa", 3, 4)
        assert path.read_bytes() == fresh.read_bytes()
        # rewritten once by the rebuild, then only read
        assert cached_diagonal("dfa", 3, 4, path) == diagonal
        assert cache_writes == [path]


@pytest.mark.parametrize("layout", sorted(_LEGACY), ids=lambda layout: layout.replace(" ", ""))
@pytest.mark.parametrize("n_max", [2, 3, 5])
def test_text_cache_is_migrated_to_ctab_4(tmp_path, cache_writes, n_max, layout):
    # a text layout is rebuilt, not parsed: whatever n_max the file held,
    # it becomes the ctab 4 file a fresh cache of this n_max writes
    path = tmp_path / "dfa-k3.ctab"
    path.write_bytes(_LEGACY[layout][0])
    assert cached_diagonal("dfa", 3, n_max, path) == diagonal_sequence("dfa", 3, n_max)
    fresh = tmp_path / "fresh.ctab"
    cached_diagonal("dfa", 3, n_max, fresh)
    assert path.read_bytes() == fresh.read_bytes()
    if n_max == 3:
        assert path.read_bytes() == _DFA3_GOLDEN_4
    # rewritten once; the rebuilt file is then only read
    assert cached_diagonal("dfa", 3, n_max, path) == diagonal_sequence("dfa", 3, n_max)
    assert cache_writes == [path, fresh]

def test_load_table_refuses_ctab_2(tmp_path):
    path = tmp_path / "dfa-k3.ctab"
    goldens = {"ctab 1": _CTAB1, **{layout: golden for layout, (golden, _) in _LEGACY.items()}}
    for layout, golden in goldens.items():
        path.write_bytes(golden)
        with pytest.raises(CacheError, match=f"cache-version: a {layout} file"):
            load_table(path)
    cached_diagonal("dfa", 3, 3, path)
    with pytest.raises(CacheError, match="cache-version: a ctab 4 file"):
        load_table(path)


def _length_past_end(values):
    last = tables._pack(values[-1:])
    size = int.from_bytes(last[:4], "big") + 1
    return tables._pack(values[:-1]) + size.to_bytes(4, "big") + last[4:]


# Damage to a relaxed k = 2 cache of count(0..6), as (a new body from the
# body and its values, the error); every body is signed again.  The ctab 4
# layout fixes each tail column's length, so a column one entry longer or
# shorter shows as the wrong entry count, and its unsigned integers cannot
# be negative.
_CTAB4_DAMAGE = {
    "one-entry-short": (lambda body, values: tables._pack(values[:-1]), "wrong entry count"),
    "trailing-bytes": (lambda body, values: body + bytes(4), "wrong entry count"),
    "cut-length-prefix": (lambda body, values: tables._pack(values[:-1]) + bytes(2), "truncated entry"),
    "length-past-end": (lambda body, values: _length_past_end(values), "truncated entry"),
    "boundary": (lambda body, values: tables._pack([2, *values[1:]]), "boundary row invariant broken"),
    "zero-cell": (lambda body, values: tables._pack([1, 0, *values[2:]]),
                  "zero relaxed entry inside the wedge"),
    "disagree": (lambda body, values: tables._pack([*values[:-1], values[-1] + 1]),
                 "diagonal and last column disagree"),
}


@pytest.mark.parametrize("damage", sorted(_CTAB4_DAMAGE))
def test_damaged_ctab_4_is_refused(tmp_path, resign, damage):
    path = tmp_path / "relaxed-k2.ctab"
    cached_diagonal("relaxed", 2, 6, path)
    _, _, _, diagonal, tail = tables._load_diagonal(path)
    values = diagonal + [v for col in tail for v in col]
    edit, message = _CTAB4_DAMAGE[damage]
    resign(path, lambda body: edit(body, values))
    stamp = path.read_bytes()
    with pytest.raises(CacheError, match=f"^cache-corrupt: {message}$"):
        cached_diagonal("relaxed", 2, 6, path)
    assert path.read_bytes() == stamp


def test_huge_header_k_is_refused_before_any_allocation(tmp_path):
    # the checksum covers only the body, so a header may name any k; the
    # entry count is checked before a list sized by k is built
    path = tmp_path / "relaxed-k2.ctab"
    tables._write_ctab(path, "ctab 4", "relaxed", 2_000_000, 1, b"")
    assert len(path.read_bytes()) == 112
    tracemalloc.start()
    try:
        with pytest.raises(CacheError, match="^cache-corrupt: wrong entry count$"):
            cached_diagonal("relaxed", 2, 3, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# The first relaxed k = 3 count over CPython's default 4,300-digit int-str
# limit is count(757); count(800) has 4,585 digits.
BIG_N = 800


@pytest.fixture
def default_int_limit():
    """Run under CPython's default int-str limit, whatever an in-process
    CLI run set it to before."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("Python before 3.11 has no int-str limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_cache_round_trips_counts_over_the_int_str_limit(tmp_path, default_int_limit):
    path = tmp_path / "relaxed-k3.ctab"
    cached_diagonal("relaxed", 3, BIG_N - 1, path)
    start = time.perf_counter()
    extended = cached_diagonal("relaxed", 3, BIG_N, path)  # read, two columns, write
    warm = cached_diagonal("relaxed", 3, BIG_N, path)
    elapsed = time.perf_counter() - start
    assert extended == warm == diagonal_sequence("relaxed", 3, BIG_N)
    assert math.log10(warm[-1]) > 4300
    assert elapsed <= 1.0


def test_wedge_cell_over_the_int_str_limit_round_trips(tmp_path, default_int_limit):
    # a ctab 5 cell is its bytes, so a 4,401-digit cell needs no int-str
    # conversion either way
    path = tmp_path / "relaxed-k3.ctab"
    table = build_table("relaxed", 3, 6)
    table.columns[6][3] = 10**4400
    save_table(table, path)
    assert load_table(path).columns == table.columns


def test_load_rejects_corruption(tmp_path, resign):
    path = tmp_path / "t.ctab"
    save_table(build_table("relaxed", 2, 6), path)
    data = path.read_bytes()

    path.write_bytes(data.replace(b"ctab 5", b"ctab 9", 1))
    with pytest.raises(CacheError, match="^cache-corrupt: bad header$"):
        load_table(path)

    # flip one bit of the body: checksum must catch it
    path.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
    with pytest.raises(CacheError, match="^cache-corrupt: checksum mismatch$"):
        load_table(path)

    path.write_bytes(data[:-6])
    with pytest.raises(CacheError, match="^cache-corrupt: checksum mismatch$"):
        load_table(path)

    # a re-signed body one entry short passes the checksum, not the count
    path.write_bytes(data)
    resign(path, lambda body: body[:-6])
    with pytest.raises(CacheError, match="^cache-corrupt: wrong entry count$"):
        load_table(path)

    with pytest.raises(CacheError, match="^cache-corrupt: unreadable file"):
        load_table(tmp_path / "missing.ctab")


def test_cell_invariants_raise(monkeypatch):
    # a broken recurrence must be caught on both the streaming and the
    # table route
    monkeypatch.setitem(tables._A_MUL, "dfa", -1)
    with pytest.raises(AssertionError, match="negative entry at"):
        diagonal_sequence("dfa", 2, 5)
    with pytest.raises(AssertionError, match="negative entry at"):
        build_table("dfa", 2, 5)
    monkeypatch.setitem(tables._A_MUL, "relaxed", 0)
    with pytest.raises(AssertionError, match=r"zero relaxed entry inside the wedge at \(1, 1\)"):
        diagonal_sequence("relaxed", 2, 3)


_REL3 = build_table("relaxed", 3, 24)
_CMP3 = build_table("compacted", 3, 24)
_DFA3 = build_table("dfa", 3, 24)


@settings(derandomize=True, max_examples=50)
@given(st.integers(min_value=2, max_value=24).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n // 2))
))
def test_recurrences_hold_pointwise(point):
    n, m = point

    def read(table, nn, mm):
        if nn < 0 or 2 * mm > nn:  # zero outside the wedge
            return 0
        return table.columns[nn][mm]

    r = _REL3
    assert read(r, n, m) == read(r, n, m - 1) + (m + 1) * read(r, n - 1, m)

    def sub(table, nn, mm):
        return 1 if mm == 0 else read(table, nn, mm)

    c = _CMP3
    assert read(c, n, m) == (
        read(c, n, m - 1) + (m + 1) * read(c, n - 1, m) - (m - 1) * sub(c, n - 3, m - 1)
    )
    b = _DFA3
    assert read(b, n, m) == (
        2 * read(b, n, m - 1) + (m + 1) * read(b, n - 1, m) - m * sub(b, n - 3, m - 1)
    )


@pytest.fixture(scope="module")
def bench_checks():
    """bench/checks.py, whose diagonal_mod writes the three recurrences out
    literally over a dict, modulo the prime 2^61 - 1, with the boundary
    extension to negative n spelled out: a reference that shares no code
    with tables.py."""
    spec = importlib.util.spec_from_file_location("bench_checks", BENCH / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k,n_max", [(2, 300), (3, 150), (4, 100), (5, 75)])
def test_diagonals_match_the_reference_dp_above_the_pinned_sizes(bench_checks, kind, k, n_max):
    # known_values pins far smaller sizes; an off-by-one in one cell past
    # them (the compacted k = 2 cell (250, 100), say) fails here
    got = [c % bench_checks.PRIME for c in diagonal_sequence(kind, k, n_max)]
    assert got == list(bench_checks.diagonal_mod(kind, k, n_max))
