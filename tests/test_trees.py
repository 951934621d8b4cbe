import hashlib
import json
import sys

import pytest

from dagenum import paths
from dagenum.bijection import tree_to_path
from dagenum.oracle import enumerate_relaxed
from dagenum.trees import (
    Child,
    Node,
    POINTER,
    RelaxedTree,
    SPINE,
    Violation,
    dumps,
    is_compacted,
    loads,
    validate_tree,
)

S = lambda t: Child(SPINE, t)
P = lambda t: Child(POINTER, t)


def one_node_tree(k):
    """One internal node: first child spine to the sink, k-1 pointers to it."""
    return RelaxedTree(k, (Node(2, (S(1),) + (P(1),) * (k - 1)),))


def test_empty_tree_is_valid():
    assert validate_tree(RelaxedTree(2, ())) == []


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_smallest_tree_is_valid(k):
    t = one_node_tree(k)
    assert t.n == 1
    assert not validate_tree(t)


def test_bad_arity_k():
    violations = validate_tree(RelaxedTree(1, ()))
    assert violations[0].code == "arity-k"


def test_wrong_child_count():
    t = RelaxedTree(3, (Node(2, (S(1), P(1))),))
    violations = validate_tree(t)
    assert violations[0].code == "arity"


def test_label_range_and_duplicates():
    t = RelaxedTree(2, (Node(2, (S(1), P(1))), Node(2, (P(1), P(1)))))
    codes = {v.code for v in validate_tree(t)}
    assert "label-duplicate" in codes
    assert "label-range" in codes


def test_dangling_target():
    t = RelaxedTree(2, (Node(2, (S(1), P(9))),))
    violations = validate_tree(t)
    assert ("dangling-target", (2, 9)) in violations


def test_pointer_to_open_ancestor():
    # node 3's second slot points at itself: visited but not completed
    t = RelaxedTree(2, (Node(2, (S(1), P(1))), Node(3, (S(2), P(3)))))
    violations = validate_tree(t)
    assert violations[0].code == "pointer-order"


def test_spine_tag_mismatch():
    # second edge to the sink claims to be spine but the sink is already visited
    t = RelaxedTree(2, (Node(2, (S(1), S(1))),))
    violations = validate_tree(t)
    assert violations[0].code == "spine-tag"


def test_postorder_labels_enforced():
    # DFS completes the right subtree's node first, so labels 2 and 3 are swapped
    t = RelaxedTree(
        2,
        (
            Node(2, (P(1), P(1))),
            Node(3, (S(1), P(1))),
            Node(4, (S(3), S(2))),
        ),
    )
    violations = validate_tree(t)
    assert "postorder" in {v.code for v in violations}


def test_unreachable_nodes():
    t = RelaxedTree(
        2,
        (
            Node(2, (S(1), P(1))),
            Node(3, (P(2), P(2))),
            Node(4, (S(2), P(2))),
        ),
    )
    # node 3 is never the target of any edge
    violations = validate_tree(t)
    codes = {v.code for v in violations}
    assert "unreachable" in codes or "unique-source" in codes


def _valid_pair_tree(second_children):
    return RelaxedTree(
        2,
        (
            Node(2, (S(1), P(1))),
            Node(3, second_children),
            Node(4, (S(2), S(3))),
        ),
    )


def test_is_compacted_detects_duplicate_fringe():
    dup = _valid_pair_tree((P(1), P(1)))
    assert not validate_tree(dup)
    assert not is_compacted(dup)

    ok = _valid_pair_tree((P(1), P(2)))
    assert not validate_tree(ok)
    assert is_compacted(ok)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="caps RLIMIT_AS")
def test_is_compacted_is_linear_on_the_doubling_chain(run_python):
    # node m = (spine m-1, pointer m-1): each node doubles the unfolded fringe
    # (3.1 M characters at n = 20), so only interned ids classify n = 300;
    # the address-space cap makes a run that unfolds fail fast, in the child
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from dagenum.trees import Child, Node, POINTER, RelaxedTree, SPINE, is_compacted\n"
        "nodes = [Node(m, (Child(SPINE, m - 1), Child(POINTER, m - 1))) for m in range(2, 302)]\n"
        "print(is_compacted(RelaxedTree(2, tuple(nodes))))\n"
    )
    proc = run_python("-c", code, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


def test_is_compacted_rejects_invalid_tree():
    with pytest.raises(ValueError, match="invalid-tree"):
        is_compacted(RelaxedTree(2, (Node(2, (S(1),)),)))


def test_document_round_trip():
    t = _valid_pair_tree((P(1), P(2)))
    assert loads(dumps(t)) == t
    assert dumps(t).endswith("\n")


def test_loads_rejects_garbage():
    with pytest.raises(ValueError, match="tree-format"):
        loads("not json at all {")
    with pytest.raises(ValueError, match="tree-format"):
        loads('{"k": 2, "sink": 2, "nodes": []}')
    # sink is an integer field: true and 1.0 are refused, not read as 1
    for sink in ("true", "1.0"):
        with pytest.raises(ValueError, match="tree-format"):
            loads(f'{{"k": 2, "sink": {sink}, "nodes": []}}')
    with pytest.raises(ValueError, match="tree-format"):
        loads('{"k": 2, "sink": 1, "nodes": [{"label": 2}]}')
    # a label, target or arity that is not an integer is refused, not truncated
    node = {"label": 2, "children": [{"type": "spine", "target": 1}, {"type": "pointer", "target": 1}]}
    assert loads(json.dumps({"k": 2, "sink": 1, "nodes": [node]})).nodes[0].label == 2
    for k, label, target in ((2, 2.7, 1), (2, "2", 1), (2, True, 1), (2, 2, "1"), (2, 2, 1.0), (2.0, 2, 1)):
        node = {"label": label, "children": [{"type": "spine", "target": target}, {"type": "pointer", "target": 1}]}
        with pytest.raises(ValueError, match="tree-format"):
            loads(json.dumps({"k": k, "sink": 1, "nodes": [node]}))


def test_fixture_tree_is_valid(fixtures_dir):
    t = loads((fixtures_dir / "ternary7_tree.json").read_text())
    assert t.k == 3 and t.n == 7
    assert not validate_tree(t)
    # nodes 4 and 5 share the child targets (1, 2, 3) and node 5 is a
    # cherry, so this relaxed tree is not a compacted one
    assert not is_compacted(t)
    assert dumps(t) == (fixtures_dir / "ternary7_tree.json").read_text()


V = Violation
# Every violation code, each case with its whole report: the codes, their
# labels and their order are frozen, so a rewrite of the walk cannot drop,
# add or reorder a finding.
MALFORMED = {
    "arity-k": (RelaxedTree(1, ()), [V("arity-k", ())]),
    "label-duplicate": (
        RelaxedTree(2, (Node(2, (S(1), P(1))), Node(2, (P(1), P(1))))),
        [V("label-duplicate", (2,)), V("label-range", (3,))],
    ),
    "label-duplicate-out-of-range": (
        RelaxedTree(2, (Node(2, (S(1), P(1))), Node(7, (P(1), P(7))), Node(7, (P(1), P(1))))),
        [V("label-duplicate", (7,)), V("label-range", (3, 4, 7))],
    ),
    "label-range": (
        RelaxedTree(2, (Node(5, (S(1), P(1))), Node(0, (S(1), P(1))))),
        [V("label-range", (0, 2, 3, 5))],
    ),
    "arity": (RelaxedTree(3, (Node(2, (S(1), P(1))),)), [V("arity", (2,))]),
    "edge-kind": (RelaxedTree(2, (Node(2, (S(1), Child("loop", 1))),)), [V("edge-kind", (2,))]),
    "dangling-target": (
        RelaxedTree(2, (Node(2, (S(1), P(9))), Node(3, (S(2), Child("loop", 4), P(3))))),
        [V("dangling-target", (2, 9)), V("arity", (3,)), V("edge-kind", (3,)), V("dangling-target", (3, 4))],
    ),
    "spine-tag": (RelaxedTree(2, (Node(2, (S(1), S(1))),)), [V("spine-tag", (2, 1))]),
    "pointer-order": (
        RelaxedTree(2, (Node(2, (S(1), P(1))), Node(3, (S(2), P(3))))),
        [V("pointer-order", (3, 3))],
    ),
    "first-visit-pointer": (
        RelaxedTree(2, (Node(2, (P(1), P(1))), Node(3, (P(2), S(1))))),
        [
            V("spine-tag", (3, 2)),
            V("pointer-order", (3, 2)),
            V("spine-tag", (2, 1)),
            V("pointer-order", (2, 1)),
            V("spine-tag", (3, 1)),
        ],
    ),
    "unreachable": (
        RelaxedTree(
            2,
            (
                Node(2, (S(1), P(1))),
                Node(3, (P(2), P(2))),
                Node(4, (P(3), P(3))),
                Node(5, (S(2), P(2))),
            ),
        ),
        [V("unreachable", (3, 4)), V("postorder", (5,)), V("unique-source", (4,))],
    ),
    "postorder": (
        RelaxedTree(2, (Node(2, (P(1), P(1))), Node(3, (S(1), P(1))), Node(4, (S(3), S(2))))),
        [V("postorder", (2,)), V("postorder", (3,))],
    ),
    "unique-source": (
        RelaxedTree(2, (Node(2, (P(2), P(2))),)),
        [
            V("pointer-order", (2, 2)),
            V("pointer-order", (2, 2)),
            V("unreachable", (1,)),
            V("postorder", (2,)),
            V("unique-source", (1,)),
        ],
    ),
}


def test_malformed_table_covers_every_code():
    codes = {v.code for _, expected in MALFORMED.values() for v in expected}
    assert codes == {
        "arity-k", "label-duplicate", "label-range", "arity", "edge-kind", "dangling-target",
        "spine-tag", "pointer-order", "unreachable", "postorder", "unique-source",
    }


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_tree_report_is_frozen(name):
    t, expected = MALFORMED[name]
    assert validate_tree(t) == expected
    with pytest.raises(ValueError, match=f"^invalid-tree: {expected[0].code}$"):
        tree_to_path(t)


@pytest.mark.parametrize(
    "k,n_max,count,digest",
    [
        (2, 5, 1511, "6d4656b6d9ab4d6bec525ae38eefe21586b3a66f3ca51168b0cc35518eae493a"),
        (3, 3, 148, "f4d9b747844c7c2e6e0307318ce60463ba07a53754921ac751264da73f147b81"),
    ],
)
def test_tree_to_path_golden_digest(k, n_max, count, digest):
    # sha256 of the path documents of every tree of sizes 0..n_max, in
    # enumeration order
    h = hashlib.sha256()
    seen = 0
    for n in range(n_max + 1):
        for t in enumerate_relaxed(k, n):
            h.update(paths.dumps(tree_to_path(t)).encode())
            seen += 1
    assert seen == count
    assert h.hexdigest() == digest
