"""Containment predicates and the two embedding representations."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqmine import (
    Pattern,
    fill_gaps_frontier,
    is_prefix,
    is_subitemset,
    is_subsequence,
    skip_gaps_embedding,
    support,
)
from seqmine.relations import skip_gaps_levels

from helpers import pat


def elems(*groups):
    return tuple(tuple(g) for g in groups)


# ---------------------------------------------------------------------------
# Predicates


def test_is_subitemset():
    assert is_subitemset((1,), (0, 1, 2))
    assert is_subitemset((1, 3), (1, 2, 3))
    assert not is_subitemset((1, 4), (1, 2, 3))
    assert not is_subitemset((0, 1), (1,))
    assert is_subitemset((), (1,))


def test_is_subsequence_basic():
    s = elems((0,), (2,), (1,), (2,))  # acbc over a<b<c
    assert is_subsequence(elems((0,), (2,)), s)
    assert is_subsequence(elems((2,), (2,)), s)
    assert not is_subsequence(elems((2,), (0,)), s)
    assert is_subsequence((), s)


def test_is_subsequence_itemset_elements():
    s = elems((0, 1), (2,))
    assert is_subsequence(elems((0,), (2,)), s)
    assert is_subsequence(elems((0, 1),), s)
    assert not is_subsequence(elems((0, 2),), s)


def test_is_prefix():
    t = elems((0,), (1, 2), (0,))
    assert is_prefix((), t)
    assert is_prefix(elems((0,)), t)
    assert is_prefix(elems((0,), (1,)), t)  # last element may be a sub-itemset
    assert is_prefix(elems((0,), (1, 2)), t)
    assert not is_prefix(elems((1,)), t)
    assert not is_prefix(elems((0,), (1,), (0,), (0,)), t)
    assert not is_prefix(elems((0, 1),), t)


def test_support_on_fixture(d7):
    assert support(d7, pat(d7, "a")) == (6, (1, 2, 4, 5, 6, 7))
    assert support(d7, pat(d7, "b", "c")) == (4, (2, 4, 6, 7))
    assert support(d7, pat(d7, "d")) == (1, (2,))
    with pytest.raises(ValueError):
        support(d7, Pattern(()))


# ---------------------------------------------------------------------------
# Skip-gaps representation


def test_skip_gaps_pairs_worked_example():
    # pattern <(a)(c)> in acbc: level 1 matches {1}, level 2 matches {2, 4}.
    emb = skip_gaps_embedding(elems((0,), (2,), (1,), (2,)), elems((0,), (2,)))
    assert emb.pairs == frozenset({(1, 1), (2, 2), (2, 4)})
    assert emb.supports


def test_skip_gaps_levels_cut_off_after_failure():
    # <(c)(a)> in acbc: level 1 = [2, 4], level 2 needs a past 2 and fails.
    levels = skip_gaps_levels(elems((0,), (2,), (1,), (2,)), elems((2,), (0,)))
    assert levels == [[2, 4], []]
    assert not skip_gaps_embedding(elems((0,), (2,)), elems((2,), (0,))).supports


def test_skip_gaps_empty_pattern_supports():
    assert skip_gaps_embedding(elems((0,)), ()).supports


# ---------------------------------------------------------------------------
# Fill-gaps representation


def test_fill_gaps_frontier_worked_examples():
    ac = elems((0,), (2,))
    emb = fill_gaps_frontier(ac, ac)
    assert emb.firsts == (1, 2)
    assert emb.pairs() == frozenset({(1, 1), (1, 2), (2, 2)})
    emb = fill_gaps_frontier(elems((0,), (2,), (1,), (2,)), ac)
    assert emb.firsts == (1, 2)
    assert emb.pairs() == frozenset(
        {(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4)}
    )
    assert emb.supports


def test_fill_gaps_partial_prefix():
    emb = fill_gaps_frontier(elems((0,), (1,)), elems((0,), (2,)))
    assert emb.firsts == (1,)
    assert not emb.supports


# ---------------------------------------------------------------------------
# Properties tying the representations together

raw_elements = st.lists(
    st.sets(st.integers(min_value=0, max_value=4), min_size=1, max_size=3).map(
        lambda s: tuple(sorted(s))
    ),
    max_size=6,
).map(tuple)


@settings(max_examples=200, deadline=None)
@given(raw_elements, raw_elements)
def test_representations_agree_on_support(seq, pattern):
    expected = is_subsequence(pattern, seq)
    assert skip_gaps_embedding(seq, pattern).supports == expected
    assert fill_gaps_frontier(seq, pattern).supports == expected


@settings(max_examples=200, deadline=None)
@given(raw_elements, raw_elements)
def test_fill_pairs_contain_skip_pairs(seq, pattern):
    skip = skip_gaps_embedding(seq, pattern)
    fill = fill_gaps_frontier(seq, pattern)
    assert skip.pairs <= fill.pairs()
    # frontier positions are strictly increasing and each is a skip match
    assert all(a < b for a, b in zip(fill.firsts, fill.firsts[1:]))
    for i, first in enumerate(fill.firsts, start=1):
        assert (i, first) in skip.pairs


@settings(max_examples=200, deadline=None)
@given(raw_elements, raw_elements)
def test_skip_levels_structure(seq, pattern):
    levels = skip_gaps_levels(seq, pattern)
    assert len(levels) == len(pattern)
    seen_empty = False
    prev_min = 0
    for level in levels:
        if not level:
            seen_empty = True
        else:
            assert not seen_empty
            assert level == sorted(level)
            assert level[0] > prev_min
            prev_min = level[0]
