import json

import pytest

from dagenum.paths import DEFAULT_TREE_LIMITS, DecoratedPath, dumps, generate_paths, loads, validate_path

U = None  # a U step; an H step is its cross


def test_trivial_path():
    p = DecoratedPath(2, (U,))
    assert p.n == 0
    assert validate_path(p).ok  # the endpoint rule: ok and n = 0 put it at (0, 0)


def test_arity_rejected():
    rep = validate_path(DecoratedPath(1, (U,)))
    assert not rep.ok and rep.code == "arity-k"


def test_first_step_must_be_up():
    rep = validate_path(DecoratedPath(2, (1, U)))
    assert not rep.ok and rep.code == "first-step" and rep.index == 0
    rep = validate_path(DecoratedPath(2, ()))
    assert not rep.ok and rep.code == "first-step"


def test_diagonal_constraint():
    # second U at (0, 1) sits above y = x for k = 2
    rep = validate_path(DecoratedPath(2, (U, U)))
    assert not rep.ok and rep.code == "diagonal" and rep.index == 1


def test_endpoint_constraint():
    # U H(1) stops at (1, 0), short of the diagonal point (1, 1)
    rep = validate_path(DecoratedPath(2, (U, 1)))
    assert not rep.ok and rep.code == "endpoint" and rep.index == 2


def test_cross_range():
    # H at height 0 allows only cross 1
    rep = validate_path(DecoratedPath(2, (U, 2)))
    assert not rep.ok and rep.code == "cross-range" and rep.index == 1
    rep = validate_path(DecoratedPath(2, (U, 0)))
    assert not rep.ok and rep.code == "cross-range"


def test_step_format():
    # a step is None (U) or an int cross (H); anything else is refused
    for step in ("U", ("H", 1), 1.0, "1"):
        rep = validate_path(DecoratedPath(2, (U, step, U)))
        assert not rep.ok and rep.code == "step-format" and rep.index == 1
    rep = validate_path(DecoratedPath(2, ("U",)))
    assert not rep.ok and rep.code == "first-step" and rep.index == 0


def test_generation_order_k2_n2():
    got = list(generate_paths(2, 2))
    want = [
        DecoratedPath(2, (U, 1, U, 1, U)),
        DecoratedPath(2, (U, 1, U, 2, U)),
        DecoratedPath(2, (U, 1, 1, U, U)),
    ]
    assert got == want


@pytest.mark.parametrize("k", sorted(DEFAULT_TREE_LIMITS))
def test_generation_is_strictly_lexicographic(k):
    # U < H(1) < H(2) < ...: with U as 0 the step tuples strictly increase,
    # so no path is missing from its place or yielded twice
    for n in range(DEFAULT_TREE_LIMITS[k] + 1):
        keys = [tuple(0 if c is None else c for c in p.steps) for p in generate_paths(k, n)]
        assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize(
    "k,n,count",
    [(2, 0, 1), (2, 1, 1), (2, 3, 16), (2, 4, 127), (3, 2, 7), (3, 3, 139), (4, 2, 15)],
)
def test_generated_counts(k, n, count):
    seen = 0
    for p in generate_paths(k, n):
        # the endpoint rule: ok and p.n == n put the path's end at ((k-1)n, n)
        assert validate_path(p).ok
        assert p.n == n
        seen += 1
    assert seen == count


def test_generation_guards():
    with pytest.raises(ValueError, match="arity-k"):
        list(generate_paths(1, 2))
    with pytest.raises(ValueError, match="negative-size"):
        list(generate_paths(2, -1))
    with pytest.raises(ValueError, match="too-large"):
        list(generate_paths(2, 9))
    # the default cap is the tree oracle's, per arity
    for k, n in ((3, 5), (4, 4), (5, 3)):
        with pytest.raises(ValueError, match=f"too-large: n={n} exceeds exhaustive limit {n - 1}"):
            list(generate_paths(k, n))
    # the limit is overridable
    assert sum(1 for _ in generate_paths(3, 1, limit=1)) == 1


def test_document_round_trip():
    p = DecoratedPath(3, (U, 1, 1, 1, U))
    assert loads(dumps(p)) == p


def test_loads_rejects_garbage():
    with pytest.raises(ValueError, match="path-format"):
        loads("[[[")
    with pytest.raises(ValueError, match="path-format"):
        loads('{"k": 2, "steps": [{"type": "D"}]}')
    with pytest.raises(ValueError, match="path-format"):
        loads('{"k": 2, "steps": [{"type": "H"}]}')
    # a cross that is not an integer is refused, not truncated to 1
    for cross in (1.9, 1.0, True, "1"):
        doc = {"k": 2, "steps": [{"type": "U"}, {"type": "H", "cross": cross}, {"type": "U"}]}
        with pytest.raises(ValueError, match="path-format"):
            loads(json.dumps(doc))


@pytest.mark.parametrize("cross", [0, -1])
def test_h_step_below_cross_1_is_not_a_u(cross):
    # the document loads; its H step keeps its index and fails the range
    doc = {"k": 2, "steps": [{"type": "U"}, {"type": "H", "cross": cross}, {"type": "U"}]}
    p = loads(json.dumps(doc))
    assert p.steps == (U, cross, U) and p.n == 1
    rep = validate_path(p)
    assert not rep.ok and rep.code == "cross-range" and rep.index == 1


def test_fixture_path_is_valid(fixtures_dir):
    text = (fixtures_dir / "ternary7_path.json").read_text()
    p = loads(text)
    assert p.k == 3 and p.n == 7
    assert validate_path(p).ok
    assert dumps(p) == text
