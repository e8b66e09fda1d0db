"""Insertable regions, and condensed result filtering."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqmine import (
    ConstraintSet,
    GenParams,
    MiningParams,
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
    oracle_condensed,
    oracle_embeddings,
    oracle_frequent,
    support,
)
from seqmine import condensed
from seqmine.condensed import _pairwise_keep, filter_result
from seqmine.oracle import naive_contains

from helpers import db_maxlen, entry_labels, pat, pattern_set, random_simple_db, result_key

A, B, C, D = 0, 1, 2, 3


def elems(*groups):
    return tuple(tuple(g) for g in groups)


ACBC = elems((A,), (C,), (B,), (C,))
DABC = elems((D,), (A,), (B,), (C,))
AC = elems((A,), (C,))


# ---------------------------------------------------------------------------
# Occurrence bounds: the lower ends of slots 2..k+1 are the leftmost matches
# of the pattern's k elements over all embeddings, the upper ends of slots
# 1..k the rightmost.


def occurrence_bounds(seq, pattern):
    bounds = insertable_regions(seq, pattern).bounds
    return tuple(lo for lo, _ in bounds[1:]), tuple(hi for _, hi in bounds[:-1])


def test_occurrence_bounds_worked_examples():
    assert occurrence_bounds(DABC, AC) == ((2, 4), (2, 4))
    assert occurrence_bounds(ACBC, AC) == ((1, 2), (1, 4))
    assert occurrence_bounds(ACBC, ()) == ((), ())


raw_elements = st.lists(
    st.sets(st.integers(min_value=0, max_value=3), min_size=1, max_size=2).map(
        lambda s: tuple(sorted(s))
    ),
    max_size=6,
).map(tuple)


@settings(max_examples=300, deadline=None)
@given(raw_elements, raw_elements)
def test_occurrence_bounds_match_oracle(seq, pattern):
    """Per element, the least and greatest position any embedding uses; no
    bounds exactly when there is no embedding."""
    embeddings = oracle_embeddings(seq, pattern)
    if not embeddings:
        with pytest.raises(ValueError):
            insertable_regions(seq, pattern)
        return
    leftmost, rightmost = occurrence_bounds(seq, pattern)
    assert leftmost == tuple(min(e[i] for e in embeddings) for i in range(len(pattern)))
    assert rightmost == tuple(max(e[i] for e in embeddings) for i in range(len(pattern)))


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
    if not is_subsequence(pattern, seq):
        return
    regions = insertable_regions(seq, pattern)
    for i, pool in enumerate(regions.items):
        for item in range(4):
            grown = pattern[:i] + ((item,),) + pattern[i:]
            assert (item in pool) == is_subsequence(grown, seq)


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
        assert is_closed(d7, p, ids) is expect
        # A repeated sid is one supporter: <c> is not closed either way.
        assert is_closed(d7, p, ids + ids[:1]) is expect


def test_backward_filter_fixture(d7):
    a = pat(d7, "a")
    _, a_ids = support(d7, a)
    assert backward_filter(d7, a, 3, a_ids, "maximal") is False
    abc = pat(d7, "a", "b", "c")
    _, abc_ids = support(d7, abc)
    assert backward_filter(d7, abc, 3, abc_ids, "closed") is True
    # A repeated sid is one supporter: y follows <x> in both sequences.
    xy = SequenceDatabase.from_label_sequences([["x", "y"], ["x", "y"]])
    x = pat(xy, "x")
    assert backward_filter(xy, x, 1, (1, 2), "closed") is backward_filter(xy, x, 1, (1, 2, 2), "closed") is False
    c = pat(d7, "c")
    _, c_ids = support(d7, c)
    assert backward_filter(d7, c, 3, c_ids, "maximal") is True
    with pytest.raises(ValueError):
        backward_filter(d7, a, 3, a_ids, "sideways")


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


def test_constrained_run_counts_extensions_among_its_own_supporters():
    # Under maxgap=0, <a c> is supported by "ac" alone; "abc" holds <a b c>
    # but does not support <a c>, so <a c> stays closed.
    db = SequenceDatabase.from_label_sequences(["ac", "abc"])
    result = mine(db, MiningParams(fmin=1, maxlen=3, mode="closed"), ConstraintSet(maxgap=0))
    assert {l for l, _ in entry_labels(db, result)} == {"ac", "abc"}


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
    # deadline falls inside the pairwise filter.  The maxgap bounds nothing,
    # but a constrained run is not known to be the frequent set, so the
    # filter compares pairs instead of looking patterns up.
    db, _ = generate(GenParams(num_sequences=40, seed=5))
    params = MiningParams(fmin=0.2, maxlen=8, mode="maximal")
    start = time.monotonic()
    with pytest.raises(MiningTimeout):
        mine(db, params, ConstraintSet(maxgap=100), condensed_within_constraints=True, timeout=0.5)
    assert time.monotonic() - start < 3.0
    # The filter alone stops at its first entry past the deadline.
    frequent = mine(db, params.replace(mode="frequent"))
    with pytest.raises(MiningTimeout):
        filter_result(db, frequent, 8, kind="maximal", within_constraints=True, deadline=time.monotonic() - 1)


def test_maximal_at_maxlen_on_a_larger_database():
    # 2,014 of the maximal patterns are at maxlen, so the filter counts their
    # extensions on the bitmaps: 0.8 s on a 2-CPU host with Python 3.11,
    # where rescanning each one's supporters took 4.8 s.
    db, _ = generate(GenParams(num_sequences=200))
    result = mine(db, MiningParams(0.10, 4, mode="maximal"), timeout=2.5)
    assert len(result) == 2229


def test_itemset_closed_absorbs_same_support_subsets():
    db = SequenceDatabase.from_label_sequences([[], [("a", "b")]])
    result = mine(db, MiningParams(fmin=1, maxlen=1, mode="closed"))
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
# Result-set judgement against one-pattern checks, brute force and the oracle

KINDS = ("closed", "maximal", "backward-closed", "backward-maximal")
# Patterns may be as long as the longest drawn sequence.
LONG = OracleConfig(max_pattern_len=9)
# Draws whose frequent set is larger are discarded, so that brute force and
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


def one_by_one_filter(db, result, fmin, kind):
    """Every entry judged on its own by is_closed, is_maximal or backward_filter."""
    kept = []
    for e in result:
        if kind == "closed":
            ok = is_closed(db, e.pattern, e.support_ids)
        elif kind == "maximal":
            ok = is_maximal(db, e.pattern, fmin, e.support_ids)
        else:
            ok = backward_filter(db, e.pattern, fmin, e.support_ids, kind.removeprefix("backward-"))
        if ok:
            kept.append(e)
    return kept


def brute_filter(db, result, fmin, kind):
    """Every entry judged by trying each one-item extension on its
    supporters: an item inserted as a new element at any slot or added to
    any element (never contained where every element holds one item);
    backward kinds only at the end."""
    alphabet = sorted({a for s in db.sequences for elem in s.elements for a in elem})
    backward = kind.startswith("backward")
    kept = []
    for e in result:
        p = e.pattern.elements
        need = len(e.support_ids) if kind.endswith("closed") else fmin
        slots = [len(p)] if backward else range(len(p) + 1)
        grown = [p[:i] + ((a,),) + p[i:] for i in slots for a in alphabet]
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
    """The result-set judgement, for all four kinds, against the one-pattern
    checks and a brute-force extension count on every pattern, and against
    the oracle below ``maxlen``.  The frequent result judged by lookup
    (``complete_to=maxlen``) or without that promise, the caller's threshold
    above the result's, a constrained run and an already condensed result
    must all keep the brute-force answer."""
    itemset_mode = data.draw(st.booleans())
    db = data.draw(condensed_dbs(itemset_mode))
    maxlen = data.draw(st.integers(1, max(1, max(len(s) for s in db.sequences))))
    params = MiningParams(
        fmin=data.draw(st.integers(1, len(db))),
        maxlen=maxlen,
        minlen=data.draw(st.integers(1, maxlen)),
    )
    # Every layout the constrained search builds: per-start segments under a
    # maxspan, and a raised first window under a minspan.
    cs = data.draw(
        st.sampled_from(
            [
                ConstraintSet(cannot_have={0}),
                ConstraintSet(maxgap=1),
                ConstraintSet(mingap=1),
                ConstraintSet(minspan=2),
                ConstraintSet(maxspan=2),
            ]
        )
    )
    for level in range(1, maxlen + 1):
        assume(len(mine(db, params.replace(maxlen=level, minlen=1))) <= MAX_PATTERNS)

    fmin = params.fmin
    frequent = mine(db, params)
    cases = [
        (fmin, maxlen, frequent),
        (fmin, None, frequent),
        (fmin + data.draw(st.integers(1, 2)), None, frequent),
        (fmin, None, mine(db, params, cs)),
    ] + [(fmin, None, mine(db, params.replace(mode=k))) for k in KINDS]
    want_oracle = oracle_frequent(db, fmin, maxlen, itemset_mode, config=LONG)
    for kind in KINDS:
        for caller_fmin, complete_to, result in cases:
            got = filter_result(db, result, caller_fmin, kind, complete_to=complete_to)
            want = one_by_one_filter(db, result, caller_fmin, kind)
            assert result_key(got) == result_key(want)
            want = brute_filter(db, result, caller_fmin, kind)
            assert result_key(got) == result_key(want)
        got = filter_result(db, frequent, fmin, kind)
        assert result_key(got) == result_key(mine(db, params.replace(mode=kind)))
        want = oracle_condensed(want_oracle, kind)
        assert result_key([e for e in got if len(e.pattern) < maxlen]) == result_key(
            [e for e in want if params.minlen <= len(e.pattern) < maxlen]
        )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_within_constraints_without_constraints_matches_pairwise_and_oracle(data):
    """Without constraints the result is the whole frequent set up to
    ``maxlen``, so judging a pattern by lookup in it equals comparing it
    with every other entry, at every length up to and including ``maxlen``."""
    itemset_mode = data.draw(st.booleans())
    db = data.draw(condensed_dbs(itemset_mode))
    maxlen = data.draw(st.integers(1, max(1, max(len(s) for s in db.sequences))))
    params = MiningParams(
        fmin=data.draw(st.integers(1, len(db))),
        maxlen=maxlen,
        minlen=data.draw(st.integers(1, maxlen)),
    )
    assume(len(mine(db, params.replace(minlen=1))) <= MAX_PATTERNS)

    fmin = params.fmin
    frequent = mine(db, params)
    want_frequent = oracle_frequent(db, fmin, maxlen, itemset_mode, config=LONG)
    for kind in KINDS:
        got = mine(db, params.replace(mode=kind), condensed_within_constraints=True)
        want = oracle_condensed(want_frequent, kind)
        assert result_key(got) == result_key([e for e in want if len(e.pattern) >= params.minlen])
        got = filter_result(db, frequent, fmin, kind, complete_to=maxlen, within_constraints=True)
        assert result_key(got) == result_key(_pairwise_keep(frequent, kind, None))


def count_reaches(monkeypatch):
    """The patterns ``condensed._reaches`` is asked about, in call order."""
    calls = []
    reaches = condensed._reaches

    def counting(plain, entry, *rest):
        calls.append(entry.pattern)
        return reaches(plain, entry, *rest)

    monkeypatch.setattr(condensed, "_reaches", counting)
    return calls


@pytest.mark.parametrize("kind", KINDS)
def test_only_patterns_no_lookup_can_judge_count_their_extensions(d7, monkeypatch, kind):
    params = MiningParams(fmin=3, maxlen=2)
    cs = ConstraintSet(maxgap=100)  # bounds nothing, but is not neutral
    frequent, constrained = mine(d7, params), mine(d7, params, cs)
    calls = count_reaches(monkeypatch)
    mine(d7, params.replace(mode=kind))
    assert calls and calls == [e.pattern for e in frequent if len(e.pattern) == 2]
    calls.clear()
    mine(d7, params.replace(mode=kind), cs)
    assert calls == [e.pattern for e in constrained]
    calls.clear()
    filter_result(d7, frequent, 3, kind)
    assert calls == [e.pattern for e in frequent]
    calls.clear()
    mine(d7, params.replace(mode=kind), condensed_within_constraints=True)
    assert calls == []


def test_within_constraints_without_constraints_on_the_default_database():
    # Judged by lookup in the frequent set this takes about 0.4 s on a 2-CPU
    # host with Python 3.11; comparing every pair of its 12,547 entries did
    # not finish in 60 s.
    db, _ = generate(GenParams())
    params = MiningParams(0.10, 20, mode="maximal")
    result = mine(db, params, condensed_within_constraints=True, timeout=30)
    assert len(result) == 8800
