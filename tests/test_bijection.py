import pytest
from hypothesis import given, settings, strategies as st

from dagenum.bijection import path_to_tree, tree_to_path
from dagenum.oracle import enumerate_relaxed, enumerate_relaxed_via_paths
from dagenum.paths import DecoratedPath, dumps as path_dumps, generate_paths, loads as path_loads, validate_path
from dagenum.trees import Child, Node, POINTER, RelaxedTree, SPINE, dumps as tree_dumps, loads as tree_loads, validate_tree


def one_node_tree(k):
    """One internal node: first child spine to the sink, k-1 pointers to it."""
    return RelaxedTree(k, (Node(2, (Child(SPINE, 1),) + (Child(POINTER, 1),) * (k - 1)),))


def test_empty_tree_maps_to_single_up():
    t = RelaxedTree(2, ())
    p = tree_to_path(t)
    assert p.steps == (None,)
    assert path_to_tree(p) == t


@pytest.mark.parametrize("k", [2, 3, 4])
def test_smallest_tree_image(k):
    p = tree_to_path(one_node_tree(k))
    assert p.steps == (None,) + (1,) * (k - 1) + (None,)
    assert path_to_tree(p) == one_node_tree(k)


@pytest.mark.parametrize("k,n", [(2, 4), (3, 2), (4, 1)])
def test_tree_round_trips(k, n):
    count = 0
    for t in enumerate_relaxed(k, n):
        p = tree_to_path(t)
        assert validate_path(p).ok
        assert p.n == n
        assert path_to_tree(p) == t
        count += 1
    assert count > 0


@pytest.mark.parametrize("k,n", [(2, 4), (3, 2)])
def test_path_round_trips(k, n):
    for p in generate_paths(k, n):
        t = path_to_tree(p)
        assert not validate_tree(t)
        assert tree_to_path(t) == p


@pytest.mark.parametrize("k,n", [(2, 3), (2, 4), (3, 2)])
def test_both_enumerations_agree(k, n):
    direct = set(enumerate_relaxed(k, n))
    pulled = set(enumerate_relaxed_via_paths(k, n))
    assert direct == pulled


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError, match="invalid-tree"):
        tree_to_path(RelaxedTree(2, (Node(2, ()),)))
    with pytest.raises(ValueError, match="invalid-path: diagonal at step 1"):
        path_to_tree(DecoratedPath(2, (None, None)))
    with pytest.raises(ValueError, match="invalid-path: endpoint at step 2"):
        path_to_tree(DecoratedPath(2, (None, 1)))
    with pytest.raises(ValueError) as err:  # no step to name
        path_to_tree(DecoratedPath(1, (None,)))
    assert str(err.value) == "invalid-path: arity-k"


def _prefix_maps_or_refuses(p: DecoratedPath) -> None:
    """Every proper prefix of p is a valid smaller path or a ValueError."""
    for end in range(len(p.steps)):
        prefix = DecoratedPath(p.k, p.steps[:end])
        if validate_path(prefix).ok:
            assert tree_to_path(path_to_tree(prefix)) == prefix
        else:
            with pytest.raises(ValueError, match="invalid-path"):
                path_to_tree(prefix)


def test_fixture_path_prefixes_map_or_raise_value_error(fixtures_dir):
    _prefix_maps_or_refuses(path_loads((fixtures_dir / "ternary7_path.json").read_text()))


@pytest.mark.parametrize("k,n", [(2, 3), (3, 2), (4, 2)])
def test_generated_path_prefixes_map_or_raise_value_error(k, n):
    for p in generate_paths(k, n):
        _prefix_maps_or_refuses(p)


def test_fixture_pair_matches(fixtures_dir):
    t = tree_loads((fixtures_dir / "ternary7_tree.json").read_text())
    p = path_loads((fixtures_dir / "ternary7_path.json").read_text())
    assert tree_to_path(t) == p
    assert path_to_tree(p) == t
    assert path_dumps(tree_to_path(t)) == (fixtures_dir / "ternary7_path.json").read_text()
    assert tree_dumps(path_to_tree(p)) == (fixtures_dir / "ternary7_tree.json").read_text()


def _random_path(draw, k: int, n: int) -> DecoratedPath:
    """Uniformly-chosen moves along the feasible prefixes of a decorated path."""
    total_u, total_h = n + 1, (k - 1) * n
    us = hs = 0
    steps = []
    while us < total_u or hs < total_h:
        moves = []
        if us < total_u and (k - 1) * us <= hs:
            moves.append(-1)
        if hs < total_h and us >= 1:
            moves.extend(range(1, us + 1))
        move = draw(st.sampled_from(moves))
        if move == -1:
            steps.append(None)
            us += 1
        else:
            steps.append(move)
            hs += 1
    return DecoratedPath(k, tuple(steps))


@settings(derandomize=True, max_examples=60)
@given(st.data())
def test_random_paths_round_trip(data):
    k = data.draw(st.integers(min_value=2, max_value=4))
    n = data.draw(st.integers(min_value=0, max_value=6))
    p = _random_path(data.draw, k, n)
    assert validate_path(p).ok
    t = path_to_tree(p)
    assert not validate_tree(t)
    assert t.n == n
    assert tree_to_path(t) == p
