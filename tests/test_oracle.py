import pytest

from dagenum.oracle import (
    count_compacted_oracle,
    count_min_dfa_oracle,
    count_relaxed_oracle,
    enumerate_relaxed,
)
from dagenum.paths import DEFAULT_TREE_LIMITS
from dagenum.tables import diagonal_sequence
from dagenum.trees import validate_tree

from dfa_reference import count_min_dfa_reference
from known_values import known_row


@pytest.mark.parametrize(
    "k,n",
    [(2, n) for n in range(6)] + [(3, n) for n in range(4)] + [(4, n) for n in range(3)],
)
def test_relaxed_oracle_matches_known_row(k, n):
    row = known_row("relaxed", k)
    expected = row.get(n, 1)  # size 0 is the lone sink
    assert count_relaxed_oracle(k, n) == expected


@pytest.mark.parametrize(
    "k,n",
    [(2, n) for n in range(6)] + [(3, n) for n in range(4)],
)
def test_compacted_oracle_matches_known_row(k, n):
    assert count_compacted_oracle(k, n) == known_row("compacted", k)[n]


def test_enumerated_trees_are_valid_and_distinct():
    seen = set()
    for t in enumerate_relaxed(3, 3):
        assert not validate_tree(t)
        assert t.n == 3
        seen.add(t)
    assert len(seen) == 139


def test_enumeration_guards():
    with pytest.raises(ValueError, match="arity-k"):
        list(enumerate_relaxed(1, 1))
    with pytest.raises(ValueError, match="negative-size"):
        list(enumerate_relaxed(2, -1))
    with pytest.raises(ValueError, match="too-large"):
        list(enumerate_relaxed(2, DEFAULT_TREE_LIMITS[2] + 1))
    with pytest.raises(ValueError, match="too-large"):
        list(enumerate_relaxed(7, 3))  # fallback limit is 2
    # explicit limit overrides the default
    assert count_relaxed_oracle(7, 1, limit=1) == 1


# (2, 7), (3, 5) and (4, 4) reach the tree oracle's sizes n <= 6/4/3
@pytest.mark.parametrize("k,states_max", [(2, 5), (2, 7), (3, 4), (3, 5), (4, 4), (5, 3)])
def test_min_dfa_oracle_matches_known_row(k, states_max):
    # alignment: a size-n entry counts automata with n + 1 states
    row = known_row("dfa", k)
    diagonal = diagonal_sequence("dfa", k, states_max - 1)
    for states in range(1, states_max + 1):
        assert count_min_dfa_oracle(k, states) == row[states - 1] == diagonal[states - 1]


def _decorated_trees(k, n):
    """2^n r_n: every automaton, minimal or not, is a relaxed tree with one
    accepting bit per internal node (a chain for k = 1)."""
    return count_relaxed_oracle(k, n) << n if k > 1 else 1 << n


# every size both routes reach: the reference stops at 5 states, the oracle
# at the tree enumeration's n <= 6/4/3/2 for k = 2/3/4/5
@pytest.mark.parametrize("k,states_max", [(1, 5), (2, 5), (3, 5), (4, 4), (5, 3)])
def test_min_dfa_oracle_matches_transition_tables(k, states_max):
    for states in range(1, states_max + 1):
        expected = count_min_dfa_reference(k, states)
        assert count_min_dfa_oracle(k, states) == expected, states
        all_count = count_min_dfa_reference(k, states, minimal=False)
        assert _decorated_trees(k, states - 1) == all_count, states


@pytest.mark.parametrize(
    "k,states,minimal_count,all_count",
    [(1, 3, 2, 4), (2, 3, 6, 12), (2, 4, 60, 128), (2, 5, 900, 2032),
     (3, 4, 532, 1112), (4, 3, 30, 60), (5, 3, 62, 124)],
)
def test_min_dfa_oracle_pinned_counts(k, states, minimal_count, all_count):
    assert count_min_dfa_oracle(k, states) == minimal_count
    assert count_min_dfa_reference(k, states, minimal=False) == all_count
    assert _decorated_trees(k, states - 1) == all_count


def test_dfa_guards():
    with pytest.raises(ValueError, match="arity-k"):
        count_min_dfa_oracle(0, 2)
    with pytest.raises(ValueError, match="negative-size"):
        count_min_dfa_oracle(2, 0)
    # the cap is the tree enumeration's, at n = states - 1
    with pytest.raises(ValueError, match="too-large"):
        count_min_dfa_oracle(2, DEFAULT_TREE_LIMITS[2] + 2)
    with pytest.raises(ValueError, match="too-large"):
        count_min_dfa_oracle(7, 4)  # fallback limit is 2
    # a unary automaton is a chain, counted in closed form at any size
    assert count_min_dfa_oracle(1, 40) == 2**38
