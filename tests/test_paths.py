import pytest

from dagenum.paths import (
    DecoratedPath,
    Step,
    dumps,
    generate_paths,
    horiz,
    loads,
    up,
    validate_path,
)


def test_trivial_path():
    p = DecoratedPath(2, (up(),))
    assert p.n == 0
    assert p.endpoint() == (0, 0)
    assert validate_path(p).ok


def test_arity_rejected():
    rep = validate_path(DecoratedPath(1, (up(),)))
    assert not rep.ok and rep.code == "arity-k"


def test_first_step_must_be_up():
    rep = validate_path(DecoratedPath(2, (horiz(1), up())))
    assert not rep.ok and rep.code == "first-step" and rep.index == 0
    rep = validate_path(DecoratedPath(2, ()))
    assert not rep.ok and rep.code == "first-step"


def test_diagonal_constraint():
    # second U at (0, 1) sits above y = x for k = 2
    rep = validate_path(DecoratedPath(2, (up(), up())))
    assert not rep.ok and rep.code == "diagonal" and rep.index == 1


def test_endpoint_constraint():
    # U H(1) stops at (1, 0), short of the diagonal point (1, 1)
    rep = validate_path(DecoratedPath(2, (up(), horiz(1))))
    assert not rep.ok and rep.code == "endpoint" and rep.index == 2


def test_cross_range():
    # H at height 0 allows only cross 1
    rep = validate_path(DecoratedPath(2, (up(), horiz(2))))
    assert not rep.ok and rep.code == "cross-range" and rep.index == 1
    rep = validate_path(DecoratedPath(2, (up(), horiz(0))))
    assert not rep.ok and rep.code == "cross-range"


def test_step_format():
    rep = validate_path(DecoratedPath(2, (Step("U", 1),)))
    assert not rep.ok and rep.code == "step-format"
    rep = validate_path(DecoratedPath(2, (up(), Step("H", None))))
    assert not rep.ok and rep.code == "step-format"
    rep = validate_path(DecoratedPath(2, (up(), Step("X", None))))
    assert not rep.ok and rep.code == "step-format"
    # horiz shares its steps; an equal cross of another type is another step
    assert horiz(1) == Step("H", 1)
    assert type(horiz(1.0).cross) is float and type(horiz(True).cross) is bool
    rep = validate_path(DecoratedPath(2, (up(), horiz(1.0))))
    assert not rep.ok and rep.code == "step-format"


def test_generation_order_k2_n2():
    got = list(generate_paths(2, 2))
    want = [
        DecoratedPath(2, (up(), horiz(1), up(), horiz(1), up())),
        DecoratedPath(2, (up(), horiz(1), up(), horiz(2), up())),
        DecoratedPath(2, (up(), horiz(1), horiz(1), up(), up())),
    ]
    assert got == want


@pytest.mark.parametrize(
    "k,n,count",
    [(2, 0, 1), (2, 1, 1), (2, 3, 16), (2, 4, 127), (3, 2, 7), (3, 3, 139), (4, 2, 15)],
)
def test_generated_counts(k, n, count):
    seen = 0
    for p in generate_paths(k, n):
        assert validate_path(p).ok
        assert p.n == n
        assert p.endpoint() == ((k - 1) * n, n)
        seen += 1
    assert seen == count


def test_generation_guards():
    with pytest.raises(ValueError, match="arity-k"):
        list(generate_paths(1, 2))
    with pytest.raises(ValueError, match="negative-size"):
        list(generate_paths(2, -1))
    with pytest.raises(ValueError, match="too-large"):
        list(generate_paths(2, 9))
    # the limit is overridable
    assert sum(1 for _ in generate_paths(3, 1, limit=1)) == 1


def test_document_round_trip():
    p = DecoratedPath(3, (up(), horiz(1), horiz(1), horiz(1), up()))
    assert loads(dumps(p)) == p


def test_loads_rejects_garbage():
    with pytest.raises(ValueError, match="path-format"):
        loads("[[[")
    with pytest.raises(ValueError, match="path-format"):
        loads('{"k": 2, "steps": [{"type": "D"}]}')
    with pytest.raises(ValueError, match="path-format"):
        loads('{"k": 2, "steps": [{"type": "H"}]}')


def test_fixture_path_is_valid(fixtures_dir):
    text = (fixtures_dir / "ternary7_path.json").read_text()
    p = loads(text)
    assert p.k == 3 and p.n == 7
    assert validate_path(p).ok
    assert dumps(p) == text
