"""Brute-force reference implementations and their guard rails."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqmine import (
    ConstraintSet,
    GuardError,
    OracleConfig,
    Pattern,
    SequenceDatabase,
    is_prefix,
    is_subsequence,
    oracle_condensed,
    oracle_constrained,
    oracle_embeddings,
    oracle_frequent,
    support,
)
from seqmine.oracle import naive_contains, naive_is_prefix, naive_support, reference_regex_match

from helpers import entry_labels, pat, random_simple_db, result_key

A, B, C, D = 0, 1, 2, 3


def elems(*groups):
    return tuple(tuple(g) for g in groups)


raw_elements = st.lists(
    st.sets(st.integers(min_value=0, max_value=3), min_size=1, max_size=2).map(
        lambda s: tuple(sorted(s))
    ),
    max_size=6,
).map(tuple)


# ---------------------------------------------------------------------------
# Naive predicates agree with the production ones


@settings(max_examples=200, deadline=None)
@given(raw_elements, raw_elements)
def test_naive_contains_matches_is_subsequence(pattern, target):
    assert naive_contains(pattern, target) == is_subsequence(pattern, target)


@settings(max_examples=200, deadline=None)
@given(raw_elements, raw_elements)
def test_naive_is_prefix_matches_is_prefix(pattern, target):
    assert naive_is_prefix(pattern, target) == is_prefix(pattern, target)


def test_naive_support_matches_support(d7):
    for labels in ["a", "ab", "abc", "d", "dc"]:
        p = pat(d7, *labels)
        assert naive_support(d7, p) == support(d7, p)


# ---------------------------------------------------------------------------
# Exhaustive embeddings


def test_oracle_embeddings_worked_example():
    acbc = elems((A,), (C,), (B,), (C,))
    assert oracle_embeddings(acbc, elems((A,), (C,))) == ((1, 2), (1, 4))
    assert oracle_embeddings(acbc, elems((C,), (C,))) == ((2, 4),)
    assert oracle_embeddings(acbc, elems((D,),)) == ()
    assert oracle_embeddings(acbc, ()) == ((),)


def test_oracle_embeddings_are_lexicographic_and_increasing():
    seq = elems((A,), (A,), (A,), (A,))
    maps = oracle_embeddings(seq, elems((A,), (A,)))
    assert maps == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def test_oracle_embeddings_guards():
    seq = elems(*[(A,)] * 41)
    with pytest.raises(GuardError):
        oracle_embeddings(seq, elems((A,),))
    long_pattern = elems(*[(A,)] * 9)
    with pytest.raises(GuardError):
        oracle_embeddings(elems((A,),), long_pattern)
    cfg = OracleConfig(max_pattern_len=9, max_seq_len=50)
    assert oracle_embeddings(elems((A,),), long_pattern, cfg) == ()


# ---------------------------------------------------------------------------
# Frequent enumeration and guards


def test_oracle_frequent_fixture(d7):
    result = oracle_frequent(d7, 3, 4)
    assert set(entry_labels(d7, result)) == {
        ("a", 6),
        ("b", 6),
        ("c", 5),
        ("ab", 5),
        ("ac", 5),
        ("bc", 4),
        ("abc", 4),
    }
    assert len(oracle_frequent(d7, 8, 4)) == 0


def test_oracle_frequent_guards(d7):
    with pytest.raises(GuardError):
        oracle_frequent(d7, 3, 9)
    big = SequenceDatabase.from_label_sequences([["a"]] * 91)
    with pytest.raises(GuardError):
        oracle_frequent(big, 1, 1)
    wide = SequenceDatabase.from_label_sequences([[chr(ord("a") + i) for i in range(13)]])
    with pytest.raises(GuardError):
        oracle_frequent(wide, 1, 1)
    long_seq = SequenceDatabase.from_label_sequences([["a"] * 41])
    with pytest.raises(GuardError):
        oracle_frequent(long_seq, 1, 1)


def test_oracle_condensed_kinds(d7):
    frequent = oracle_frequent(d7, 3, 4)
    expected = {
        "closed": {"a", "b", "ab", "ac", "abc"},
        "maximal": {"abc"},
        "backward-maximal": {"c", "bc", "ac", "abc"},
        "backward-closed": {"a", "b", "c", "ab", "ac", "bc", "abc"},
    }
    for kind, labels in expected.items():
        got = oracle_condensed(frequent, kind)
        assert {l for l, _ in entry_labels(d7, got)} == labels
    with pytest.raises(ValueError):
        oracle_condensed(frequent, "open")


# ---------------------------------------------------------------------------
# Constrained reference


def test_oracle_constrained_contiguity(d7):
    result = oracle_constrained(d7, 3, 4, ConstraintSet(maxgap=0))
    by_labels = dict(entry_labels(d7, result))
    assert by_labels["abc"] == 3
    entry = next(e for e in result if e.pattern == pat(d7, "a", "b", "c"))
    assert entry.support_ids == (2, 4, 7)
    # A neutral gap bound recounts every support over the embeddings and
    # changes none.
    assert result_key(oracle_constrained(d7, 3, 4, ConstraintSet(mingap=0))) == result_key(
        oracle_constrained(d7, 3, 4, ConstraintSet())
    )


def test_oracle_constrained_minlen(d7):
    result = oracle_constrained(d7, 3, 4, ConstraintSet(), minlen=2)
    assert {l for l, _ in entry_labels(d7, result)} == {"ab", "ac", "bc", "abc"}


def test_oracle_constrained_item_filters(d7):
    cs = ConstraintSet(must_have={C}, cannot_have={B})
    result = oracle_constrained(d7, 3, 4, cs)
    assert set(entry_labels(d7, result)) == {("c", 5), ("ac", 5)}


# ---------------------------------------------------------------------------
# Regex reference


def test_reference_regex_match(d7):
    al = d7.alphabet
    assert reference_regex_match("a(b|c)*c", al, elems((A,), (C,)))
    assert reference_regex_match("a(b|c)*c", al, elems((A,), (B,), (C,)))
    assert not reference_regex_match("a(b|c)*c", al, elems((A,), (B,)))
    assert not reference_regex_match("a(b|c)*c", al, elems((B,),))
    assert reference_regex_match("a?", al, ())
    with pytest.raises(ValueError):
        reference_regex_match("a.", al, elems((A,),))
    with pytest.raises(ValueError):
        reference_regex_match("a", al, elems((A, B),))


def test_reference_regex_multichar_labels():
    from seqmine import Alphabet

    al = Alphabet(["ab", "b"])
    assert reference_regex_match("(ab)+", al, elems((0,), (0,)))
    assert not reference_regex_match("(ab)+", al, elems((0,), (1,)))
    assert reference_regex_match("ab b", al, elems((0,), (1,)))


# ---------------------------------------------------------------------------
# Spot differential: naive support vs engine-facing support on random data


def test_naive_support_random_agreement():
    rng = random.Random(11)
    for _ in range(20):
        db = random_simple_db(rng)
        items = sorted({i for s in db.sequences for i in s.items()})
        if not items:
            continue
        for _ in range(5):
            k = rng.randint(1, 3)
            p = elems(*[(rng.choice(items),) for _ in range(k)])
            assert naive_support(db, p) == support(db, Pattern(p))
