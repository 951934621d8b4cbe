import contextlib
import io
import math

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


@pytest.mark.parametrize("kind,k", sorted(KNOWN_COUNTS))
def test_diagonals_match_known_rows(kind, k):
    row = known_row(kind, k)
    n_max = max(row)
    assert diagonal_sequence(kind, k, n_max)[min(row):] == [row[n] for n in sorted(row)]


def test_table_route_equals_streaming_route():
    for kind in KINDS:
        table = build_table(kind, 3, 14)
        assert diagonal_sequence(kind, 3, 7, table=table) == diagonal_sequence(kind, 3, 7)


def test_entry_semantics():
    table = build_table("relaxed", 2, 6)
    assert table.entry(0, 0) == 1
    assert all(table.entry(n, 0) == 1 for n in range(7))
    assert table.entry(3, 4) == 0  # above the wedge
    with pytest.raises(ValueError, match="out-of-range"):
        table.entry(7, 0)
    with pytest.raises(ValueError, match="out-of-range"):
        table.entry(3, -1)
    assert table.diagonal(6) == table.entry(6, 6)


def test_argument_guards():
    with pytest.raises(ValueError, match="unknown-kind"):
        build_table("weird", 2, 3)
    with pytest.raises(ValueError, match="arity-k"):
        build_table("relaxed", 1, 3)
    with pytest.raises(ValueError, match="negative-size"):
        diagonal_sequence("relaxed", 2, -1)


def test_byte_budget_guard():
    with pytest.raises(ValueError, match="byte-budget"):
        build_table("relaxed", 2, 3000, byte_budget=10_000)


def test_extend_table():
    table = build_table("compacted", 2, 4)
    before = [list(col) for col in table.columns]
    extend_table(table, 8)
    assert table.n_max == 8
    for n, col in enumerate(before):
        for m, value in enumerate(col):
            assert table.entry(n, m) == value
    assert table.diagonal(8) == known_row("compacted", 2)[8]
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


# ctab 1 bytes of build_table("dfa", 3, 6): wedge rows m = 0..3 in turn,
# each for n from 2m to 6.
_DFA3_GOLDEN = (
    "ctab 1\nkind dfa\nk 3\nn_max 6\n"
    "checksum a129b227c8d4fc0e915962f8c16672e2e2e2edda7e5cc934380faddb19828d21\n"
    "1\n1\n1\n1\n1\n1\n1\n"
    "1\n3\n7\n15\n31\n"
    "14\n70\n266\n"
    "532\n"
)


def test_save_table_golden_bytes(tmp_path):
    path = tmp_path / "dfa-k3.ctab"
    save_table(build_table("dfa", 3, 6), path)
    assert path.read_bytes() == _DFA3_GOLDEN.encode("ascii")


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
        extend_table(table, 3000, byte_budget=10_000)
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


# ctab 2 bytes of count(0..3) for dfa, k = 3: the diagonal, then the
# columns 4..6, one per line.
_DFA3_GOLDEN_2 = (
    "ctab 2\nkind dfa\nk 3\nn_max 3\n"
    "checksum 23481fd29c4c6db69e96455b932f8fa31cc751b0827fbf29d6ffb03f328ca827\n"
    "1\n1\n14\n532\n"
    "1 7 14\n"
    "1 15 70\n"
    "1 31 266 532\n"
)


def test_cached_diagonal_golden_bytes(tmp_path):
    path = tmp_path / "dfa-k3.ctab"
    assert cached_diagonal("dfa", 3, 3, path) == [1, 1, 14, 532]
    assert path.read_bytes() == _DFA3_GOLDEN_2.encode("ascii")
    wedge = build_table("dfa", 3, 6)
    tail = [line.split() for line in _DFA3_GOLDEN_2.splitlines()[-3:]]
    assert tail == [[str(v) for v in wedge.columns[n]] for n in (4, 5, 6)]


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
    assert magic == "ctab 2" and diagonal == full
    assert tail == wedge.columns[-k:]


def test_interrupted_cache_save_keeps_old_file(tmp_path, torn_writes):
    path = tmp_path / "relaxed-k2.ctab"
    cached_diagonal("relaxed", 2, 6, path)
    stamp = path.read_bytes()
    with torn_writes():
        with pytest.raises(KeyboardInterrupt):
            cached_diagonal("relaxed", 2, 12, path)
    assert path.read_bytes() == stamp
    assert list(tmp_path.iterdir()) == [path]


def test_ctab_1_is_migrated_to_ctab_2(tmp_path):
    path = tmp_path / "compacted-k3.ctab"
    save_table(build_table("compacted", 3, 11), path)
    assert cached_diagonal("compacted", 3, 4, path) == diagonal_sequence("compacted", 3, 4)
    magic, kind, k, diagonal, tail = tables._load_diagonal(path)
    assert (magic, kind, k) == ("ctab 2", "compacted", 3)
    # column 11 has no diagonal entry; the file keeps count(0..5) and
    # columns 8..10
    assert diagonal == diagonal_sequence("compacted", 3, 5)
    assert tail == build_table("compacted", 3, 10).columns[8:]


def test_load_table_refuses_ctab_2(tmp_path):
    path = tmp_path / "relaxed-k2.ctab"
    cached_diagonal("relaxed", 2, 3, path)
    with pytest.raises(CacheError, match="cache-version"):
        load_table(path)


def test_load_rejects_corruption(tmp_path):
    table = build_table("relaxed", 2, 6)
    path = tmp_path / "t.ctab"
    save_table(table, path)
    text = path.read_text()

    path.write_text(text.replace("ctab 1", "ctab 9", 1))
    with pytest.raises(CacheError, match="cache-corrupt"):
        load_table(path)

    # flip one digit of the body: checksum must catch it
    lines = text.splitlines(keepends=True)
    lines[-1] = "9" + lines[-1][1:]
    path.write_text("".join(lines))
    with pytest.raises(CacheError, match="checksum"):
        load_table(path)

    path.write_text(text.rstrip("\n0123456789"))
    with pytest.raises(CacheError, match="cache-corrupt"):
        load_table(path)

    with pytest.raises(CacheError, match="cache-corrupt"):
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


def test_cache_mismatch_is_a_cache_error():
    table = build_table("relaxed", 2, 4)
    with pytest.raises(CacheError, match="cache-mismatch"):
        diagonal_sequence("compacted", 2, 2, table=table)
    with pytest.raises(CacheError, match="cache-mismatch"):
        diagonal_sequence("relaxed", 3, 2, table=table)
    with pytest.raises(ValueError, match="out-of-range"):
        diagonal_sequence("relaxed", 2, 40, table=table)


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
        if nn < 0 or 2 * mm > nn:
            return 0
        return table.entry(nn, mm)

    r = _REL3
    assert r.entry(n, m) == read(r, n, m - 1) + (m + 1) * read(r, n - 1, m)

    def sub(table, nn, mm):
        return 1 if mm == 0 else read(table, nn, mm)

    c = _CMP3
    assert c.entry(n, m) == (
        read(c, n, m - 1) + (m + 1) * read(c, n - 1, m) - (m - 1) * sub(c, n - 3, m - 1)
    )
    b = _DFA3
    assert b.entry(n, m) == (
        2 * read(b, n, m - 1) + (m + 1) * read(b, n - 1, m) - m * sub(b, n - 3, m - 1)
    )
