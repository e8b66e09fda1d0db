"""Occurrence bounds, insertable regions, and condensed result filtering."""

from __future__ import annotations

import random
import time
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqmine import (
    ConstraintSet,
    GenParams,
    MiningParams,
    MiningResult,
    MiningTimeout,
    OracleConfig,
    SequenceDatabase,
    backward_filter,
    generate,
    insertable_regions,
    is_closed,
    is_maximal,
    is_subsequence,
    mine,
    occurrence_bounds,
    oracle_condensed,
    oracle_embeddings,
    oracle_frequent,
    support,
)
from seqmine import condensed
from seqmine.condensed import _extension_candidates, filter_result
from seqmine.oracle import naive_contains

from helpers import db_maxlen, entry_labels, pat, pattern_set, random_simple_db, result_key

A, B, C, D = 0, 1, 2, 3


def elems(*groups):
    return tuple(tuple(g) for g in groups)


ACBC = elems((A,), (C,), (B,), (C,))
DABC = elems((D,), (A,), (B,), (C,))
AC = elems((A,), (C,))


# ---------------------------------------------------------------------------
# Occurrence bounds


def test_occurrence_bounds_worked_examples():
    ob = occurrence_bounds(DABC, AC)
    assert (ob.leftmost, ob.rightmost) == ((2, 4), (2, 4))
    ob = occurrence_bounds(ACBC, AC)
    assert (ob.leftmost, ob.rightmost) == ((1, 2), (1, 4))
    assert occurrence_bounds(elems((B,)), AC) is None
    empty = occurrence_bounds(ACBC, ())
    assert (empty.leftmost, empty.rightmost) == ((), ())


raw_elements = st.lists(
    st.sets(st.integers(min_value=0, max_value=3), min_size=1, max_size=2).map(
        lambda s: tuple(sorted(s))
    ),
    max_size=6,
).map(tuple)


@settings(max_examples=300, deadline=None)
@given(raw_elements, raw_elements)
def test_occurrence_bounds_match_oracle(seq, pattern):
    """Per element, the least and greatest position any embedding uses;
    None exactly when there is no embedding."""
    embeddings = oracle_embeddings(seq, pattern)
    ob = occurrence_bounds(seq, pattern)
    if not embeddings:
        assert ob is None
        return
    assert ob.leftmost == tuple(min(e[i] for e in embeddings) for i in range(len(pattern)))
    assert ob.rightmost == tuple(max(e[i] for e in embeddings) for i in range(len(pattern)))


# ---------------------------------------------------------------------------
# Insertable regions


def test_insertable_regions_worked_examples():
    r = insertable_regions(DABC, AC)
    assert r.bounds == ((0, 2), (2, 4), (4, 5))
    assert r.items == (frozenset({D}), frozenset({B}), frozenset())

    r = insertable_regions(AC, AC)
    assert r.bounds == ((0, 1), (1, 2), (2, 3))
    assert r.items == (frozenset(), frozenset(), frozenset())

    r = insertable_regions(ACBC, AC)
    assert r.bounds == ((0, 1), (1, 4), (2, 5))
    assert r.items == (frozenset(), frozenset({B, C}), frozenset({B, C}))


def test_insertable_regions_requires_support():
    with pytest.raises(ValueError):
        insertable_regions(elems((B,)), AC)


@settings(max_examples=150, deadline=None)
@given(raw_elements, raw_elements)
def test_insertable_regions_sound(seq, pattern):
    """An item is advertised at a slot exactly when inserting it there as a
    new element keeps the sequence a supporter."""
    if occurrence_bounds(seq, pattern) is None:
        return
    regions = insertable_regions(seq, pattern)
    for i, pool in enumerate(regions.items):
        for item in range(4):
            grown = pattern[:i] + ((item,),) + pattern[i:]
            assert (item in pool) == is_subsequence(grown, seq)


@st.composite
def supported_pairs(draw):
    """A sequence of 1-7 elements of 1-3 items over four items, and a pattern
    it contains: some of its positions, each with a non-empty sub-itemset."""
    element = st.sets(st.integers(0, 3), min_size=1, max_size=3).map(lambda e: tuple(sorted(e)))
    seq = tuple(draw(st.lists(element, min_size=1, max_size=7)))
    picks = draw(st.sets(st.integers(0, len(seq) - 1), min_size=1))
    pattern = tuple(
        tuple(sorted(draw(st.sets(st.sampled_from(seq[j]), min_size=1)))) for j in sorted(picks)
    )
    return seq, pattern


@settings(max_examples=300, deadline=None)
@given(supported_pairs(), st.booleans())
def test_augmentation_keys_match_oracle(pair, append_only):
    """In itemset mode a supporter advertises ("aug", i, a) exactly when it
    contains the pattern with item a added to element i (only the last
    element when ``append_only``)."""
    seq, pattern = pair
    keys = _extension_candidates(seq, pattern, itemset_mode=True, append_only=append_only)
    for i in range(1, len(pattern) + 1):
        for a in set(range(4)) - set(pattern[i - 1]):
            grown = pattern[: i - 1] + (tuple(sorted(pattern[i - 1] + (a,))),) + pattern[i:]
            expect = naive_contains(grown, seq) and (not append_only or i == len(pattern))
            assert (("aug", i, a) in keys) == expect


# ---------------------------------------------------------------------------
# Point checks on the fixture


def test_is_maximal_fixture(d7):
    for labels, expect in [("abc", True), ("ab", False), ("a", False)]:
        p = pat(d7, *labels)
        _, ids = support(d7, p)
        assert is_maximal(d7, p, 3, ids) is expect


def test_is_closed_fixture(d7):
    for labels, expect in [("abc", True), ("bc", False), ("c", False), ("a", True)]:
        p = pat(d7, *labels)
        _, ids = support(d7, p)
        assert is_closed(d7, p, 3, ids) is expect


def test_backward_filter_fixture(d7):
    a = pat(d7, "a")
    _, a_ids = support(d7, a)
    assert backward_filter(d7, a, 3, a_ids, "maximal") is False
    abc = pat(d7, "a", "b", "c")
    _, abc_ids = support(d7, abc)
    assert backward_filter(d7, abc, 3, abc_ids, "closed") is True
    c = pat(d7, "c")
    _, c_ids = support(d7, c)
    assert backward_filter(d7, c, 3, c_ids, "maximal") is True
    with pytest.raises(ValueError):
        backward_filter(d7, a, 3, a_ids, "sideways")


def test_rescans_stop_once_no_extension_can_reach(monkeypatch):
    """A closed check stops at the supporter that leaves no common key; a
    maximal check stops once no key can still reach fmin."""
    scans = []
    scan = condensed.insertable_regions
    monkeypatch.setattr(condensed, "insertable_regions", lambda s, p: scans.append(s) or scan(s, p))
    db = SequenceDatabase.from_label_sequences(["ab", "ac", "ad", "ab"])
    a = pat(db, "a")
    ids = (1, 2, 3, 4)
    assert is_closed(db, a, 1, ids) is True
    assert len(scans) == 2  # "ab" and "ac" share no insertion
    scans.clear()
    assert is_maximal(db, a, 3, ids) is True
    assert len(scans) == 3  # b, c and d counted once each, one supporter left
    scans.clear()
    assert backward_filter(db, a, 3, ids, "maximal") is True
    assert len(scans) == 3
    scans.clear()
    assert is_maximal(db, a, 2, ids) is False
    assert len(scans) == 4  # b reaches 2 at the last supporter


# ---------------------------------------------------------------------------
# Whole-result filtering

D7_CONDENSED = {
    "closed": {"a", "b", "ab", "ac", "abc"},
    "maximal": {"abc"},
    "backward-maximal": {"c", "bc", "ac", "abc"},
    "backward-closed": {"a", "b", "c", "ab", "ac", "bc", "abc"},
}


@pytest.mark.parametrize("kind", sorted(D7_CONDENSED))
def test_condensed_kinds_on_fixture(d7, kind):
    result = mine(d7, MiningParams(fmin=3, maxlen=4, mode=kind))
    assert {l for l, _ in entry_labels(d7, result)} == D7_CONDENSED[kind]
    # filtering the frequent result directly gives the same answer
    frequent = mine(d7, MiningParams(fmin=3, maxlen=4))
    filtered = filter_result(d7, frequent, 3, kind)
    assert result_key(result) == result_key(filtered)


def test_filter_result_rejects_unknown_kind(d7):
    frequent = mine(d7, MiningParams(fmin=3, maxlen=4))
    with pytest.raises(ValueError):
        filter_result(d7, frequent, 3, "open")


def test_filter_result_honours_the_deadline(d7):
    frequent = mine(d7, MiningParams(fmin=3, maxlen=4))
    for kind in ("closed", "maximal"):
        with pytest.raises(MiningTimeout):
            filter_result(d7, frequent, 3, kind, deadline=time.monotonic() - 1)


def test_condensed_containment_and_closure_recovery(d7):
    frequent = mine(d7, MiningParams(fmin=3, maxlen=4))
    closed = mine(d7, MiningParams(fmin=3, maxlen=4, mode="closed"))
    maximal = mine(d7, MiningParams(fmin=3, maxlen=4, mode="maximal"))
    assert pattern_set(maximal) <= pattern_set(closed) <= pattern_set(frequent)
    # every frequent pattern as a closed super-pattern of equal support
    for e in frequent:
        assert any(
            ce.support == e.support and is_subsequence(e.pattern, ce.pattern)
            for ce in closed
        )


def test_within_constraints_changes_the_answer(d7):
    cs = ConstraintSet(cannot_have={C})
    params = MiningParams(fmin=3, maxlen=4, mode="maximal")
    default = mine(d7, params, cs)
    assert len(default) == 0
    within = mine(d7, params, cs, condensed_within_constraints=True)
    assert {l for l, _ in entry_labels(d7, within)} == {"ab"}


def test_within_constraints_honours_the_deadline():
    # 40 sequences at 20% give about 3,000 frequent patterns in well under a
    # second; comparing every pair of them takes several seconds more, so the
    # deadline falls inside the pairwise filter.
    db, _ = generate(GenParams(num_sequences=40, seed=5))
    params = MiningParams(fmin=0.2, maxlen=8, mode="maximal")
    start = time.monotonic()
    with pytest.raises(MiningTimeout):
        mine(db, params, condensed_within_constraints=True, timeout=0.5)
    assert time.monotonic() - start < 3.0
    # The filter alone stops at its first entry past the deadline.
    frequent = mine(db, replace(params, mode="frequent"))
    with pytest.raises(MiningTimeout):
        filter_result(db, frequent, 8, kind="maximal", within_constraints=True, deadline=time.monotonic() - 1)


def test_itemset_closed_absorbs_same_support_subsets():
    db = SequenceDatabase.from_label_sequences([[], [("a", "b")]])
    result = mine(db, MiningParams(fmin=1, maxlen=1, mode="closed", itemset_mode=True))
    assert pattern_set(result) == {((0, 1),)}


def test_condensed_random_vs_oracle():
    rng = random.Random(31)
    for _ in range(10):
        db = random_simple_db(rng)
        maxlen = db_maxlen(db)
        for kind in ("closed", "maximal", "backward-closed", "backward-maximal"):
            got = mine(db, MiningParams(fmin=2, maxlen=maxlen, mode=kind))
            want = oracle_condensed(oracle_frequent(db, 2, maxlen), kind)
            assert result_key(got) == result_key(want)


# ---------------------------------------------------------------------------
# Result-set judgement against supporter rescans and the oracle

KINDS = ("closed", "maximal", "backward-closed", "backward-maximal")
# Patterns may be as long as the longest drawn sequence.
LONG = OracleConfig(max_pattern_len=9)
# Draws whose frequent set is larger are discarded, so that the rescan and
# the oracle's pairwise comparison stay fast.
MAX_PATTERNS = 150


@st.composite
def condensed_dbs(draw, itemset_mode):
    """Up to six sequences of 0-9 elements over at most three labels; in
    itemset mode an element holds one or two labels."""
    labels = "abc"[: draw(st.integers(1, 3))]
    element = st.sampled_from(labels)
    if itemset_mode:
        element = st.lists(element, min_size=1, max_size=2, unique=True)
    rows = draw(st.lists(st.lists(element, max_size=9), min_size=1, max_size=6))
    return SequenceDatabase.from_label_sequences(rows)


def rescan_filter(db, result, fmin, kind, itemset_mode):
    """Every entry judged by rescanning its supporters."""
    kept = []
    for e in result:
        if kind == "closed":
            ok = is_closed(db, e.pattern, fmin, e.support_ids, itemset_mode=itemset_mode)
        elif kind == "maximal":
            ok = is_maximal(db, e.pattern, fmin, e.support_ids, itemset_mode=itemset_mode)
        else:
            ok = backward_filter(
                db, e.pattern, fmin, e.support_ids, kind.removeprefix("backward-"), itemset_mode=itemset_mode
            )
        if ok:
            kept.append(e)
    return kept


def brute_filter(db, result, fmin, kind, itemset_mode):
    """Every entry judged by trying each one-item extension on its
    supporters: an item inserted as a new element at any slot or, in itemset
    mode, added to any element; backward kinds only at the end."""
    alphabet = sorted({a for s in db.sequences for elem in s.elements for a in elem})
    backward = kind.startswith("backward")
    kept = []
    for e in result:
        p = e.pattern.elements
        need = len(e.support_ids) if kind.endswith("closed") else fmin
        slots = [len(p)] if backward else range(len(p) + 1)
        grown = [p[:i] + ((a,),) + p[i:] for i in slots for a in alphabet]
        if itemset_mode:
            grown += [
                p[:i] + (tuple(sorted(p[i] + (a,))),) + p[i + 1 :]
                for i in ([len(p) - 1] if backward else range(len(p)))
                for a in alphabet
                if a not in p[i]
            ]
        if all(sum(naive_contains(g, db.sequence(sid)) for sid in e.support_ids) < need for g in grown):
            kept.append(e)
    return kept


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_filter_result_matches_rescan_and_oracle(data):
    """The result-set judgement, for all four kinds, against the supporter
    rescan and a brute-force extension count on every pattern, and against
    the oracle below ``maxlen``.  The caller's threshold above the result's,
    a neutral constraint set, a constrained run, a result without params and
    an already condensed result must all keep the rescan's answer."""
    itemset_mode = data.draw(st.booleans())
    db = data.draw(condensed_dbs(itemset_mode))
    maxlen = data.draw(st.integers(1, max(1, max(len(s) for s in db.sequences))))
    params = MiningParams(
        fmin=data.draw(st.integers(1, len(db))),
        maxlen=maxlen,
        minlen=data.draw(st.integers(1, maxlen)),
        itemset_mode=itemset_mode,
    )
    cs = data.draw(st.sampled_from([ConstraintSet(cannot_have={0}), ConstraintSet(maxgap=1)]))
    for level in range(1, maxlen + 1):
        assume(len(mine(db, replace(params, maxlen=level, minlen=1))) <= MAX_PATTERNS)

    fmin = params.fmin
    frequent = mine(db, params)
    cases = [
        (fmin, None, frequent),
        (fmin + data.draw(st.integers(1, 2)), None, frequent),
        (fmin, ConstraintSet(), frequent),
        (fmin, None, MiningResult.build(frequent.entries)),
        (fmin, cs, mine(db, params, cs)),
    ] + [(fmin, None, mine(db, replace(params, mode=k))) for k in KINDS]
    want_oracle = oracle_frequent(db, fmin, maxlen, itemset_mode, config=LONG)
    for kind in KINDS:
        for caller_fmin, constraints, result in cases:
            got = filter_result(
                db, result, caller_fmin, kind, itemset_mode=itemset_mode, constraints=constraints
            )
            want = rescan_filter(db, result, caller_fmin, kind, itemset_mode)
            assert result_key(got) == result_key(want)
            want = brute_filter(db, result, caller_fmin, kind, itemset_mode)
            assert result_key(got) == result_key(want)
        got = filter_result(db, frequent, fmin, kind, itemset_mode=itemset_mode)
        assert result_key(got) == result_key(mine(db, replace(params, mode=kind)))
        want = oracle_condensed(want_oracle, kind)
        assert result_key([e for e in got if len(e.pattern) < maxlen]) == result_key(
            [e for e in want if params.minlen <= len(e.pattern) < maxlen]
        )
