"""Projection primitives and the pattern-growth engine."""

from __future__ import annotations

import random

import pytest

from seqmine import (
    ConstraintSet,
    DataError,
    MineStats,
    MiningParams,
    MiningTimeout,
    SequenceDatabase,
    frequent_items,
    generate,
    locally_frequent_items,
    mine,
    mine_frequent,
    mine_itemset_patterns,
    oracle_frequent,
    project,
    root_view,
)
from seqmine.datagen import GenParams

from helpers import entry_labels, pat, result_key

A, B, C, D = 0, 1, 2, 3  # D7 item ids


# ---------------------------------------------------------------------------
# Parameter validation


def test_mining_params_validation():
    for bad in [
        dict(fmin=0, maxlen=3),
        dict(fmin=-2, maxlen=3),
        dict(fmin=0.0, maxlen=3),
        dict(fmin=1.5, maxlen=3),
        dict(fmin=True, maxlen=3),
        dict(fmin="3", maxlen=3),
        dict(fmin=3, maxlen=0),
        dict(fmin=3, maxlen=2, minlen=3),
        dict(fmin=3, maxlen=2, minlen=0),
        dict(fmin=3, maxlen=3, strategy="hop"),
        dict(fmin=3, maxlen=3, mode="open"),
    ]:
        with pytest.raises(ValueError):
            MiningParams(**bad)


def test_fractional_fmin_resolution():
    assert MiningParams(fmin=3, maxlen=3).resolved_fmin(7) == 3
    assert MiningParams(fmin=0.43, maxlen=3).resolved_fmin(7) == 4
    assert MiningParams(fmin=3 / 7, maxlen=3).resolved_fmin(7) == 3
    assert MiningParams(fmin=1.0, maxlen=3).resolved_fmin(7) == 7
    # The float products overshoot: 0.07 * 100 == 7.000000000000001.
    assert MiningParams(fmin=0.07, maxlen=3).resolved_fmin(100) == 7
    assert MiningParams(fmin=0.14, maxlen=3).resolved_fmin(100) == 14
    assert MiningParams(fmin=0.28, maxlen=3).resolved_fmin(100) == 28
    with pytest.raises(ValueError):
        MiningParams(fmin=0.5, maxlen=3).resolved_fmin(0)


# ---------------------------------------------------------------------------
# Projection primitives


def test_frequent_items(d7):
    assert frequent_items(d7, 3) == {A, B, C}
    assert frequent_items(d7, 1) == {A, B, C, D}
    assert frequent_items(d7, 7) == frozenset()


def test_root_view_and_project(d7):
    root = root_view(d7)
    assert root.entries == tuple((sid, 1) for sid in range(1, 8))
    after_a = project(root, d7, A)
    assert after_a.entries == ((1, 2), (2, 3), (4, 2), (5, 2), (6, 2), (7, 2))
    after_ac = project(after_a, d7, C)
    assert after_ac.entries == ((1, 3), (2, 5), (4, 4), (6, 3), (7, 4))


def test_project_with_itemset_extension():
    db = SequenceDatabase.from_label_sequences([[("a", "b"), "c"], ["a", ("b", "c")]])
    view = project(root_view(db), db, (0, 1))
    assert view.entries == ((1, 2),)


def test_locally_frequent_items(d7):
    after_a = project(root_view(d7), d7, A)
    assert locally_frequent_items(after_a, d7, 3) == {B, C}
    after_abc = project(project(after_a, d7, B), d7, C)
    assert locally_frequent_items(after_abc, d7, 3) == frozenset()
    assert locally_frequent_items(after_abc, d7, 1) == {C}


# ---------------------------------------------------------------------------
# Frequent mining on the golden fixture

D7_AT_3 = {
    ("a", 6),
    ("b", 6),
    ("c", 5),
    ("ab", 5),
    ("ac", 5),
    ("bc", 4),
    ("abc", 4),
}


@pytest.mark.parametrize("strategy", ["skip", "fill"])
def test_mine_d7_fmin3(d7, strategy):
    result = mine_frequent(d7, MiningParams(fmin=3, maxlen=4, strategy=strategy))
    assert set(entry_labels(d7, result)) == D7_AT_3
    assert result.support_of(pat(d7, "a", "b", "c")) == 4


def test_mine_d7_fmin5(d7):
    result = mine_frequent(d7, MiningParams(fmin=5, maxlen=4))
    assert set(entry_labels(d7, result)) == {
        ("a", 6),
        ("b", 6),
        ("c", 5),
        ("ab", 5),
        ("ac", 5),
    }


def test_mine_d7_length_bounds(d7):
    short = mine_frequent(d7, MiningParams(fmin=3, maxlen=1))
    assert set(entry_labels(d7, short)) == {("a", 6), ("b", 6), ("c", 5)}
    long = mine_frequent(d7, MiningParams(fmin=3, maxlen=4, minlen=2))
    assert set(entry_labels(d7, long)) == {("ab", 5), ("ac", 5), ("bc", 4), ("abc", 4)}


def test_mine_d7_fractional_threshold(d7):
    frac = mine_frequent(d7, MiningParams(fmin=3 / 7, maxlen=4))
    absolute = mine_frequent(d7, MiningParams(fmin=3, maxlen=4))
    assert result_key(frac) == result_key(absolute)


def test_mine_support_ids_are_exact(d7):
    result = mine_frequent(d7, MiningParams(fmin=3, maxlen=4))
    by_pattern = {e.pattern: e for e in result}
    assert by_pattern[pat(d7, "b", "c")].support_ids == (2, 4, 6, 7)
    assert by_pattern[pat(d7, "a")].support_ids == (1, 2, 4, 5, 6, 7)


def test_mine_canonical_order(d7):
    result = mine_frequent(d7, MiningParams(fmin=3, maxlen=4))
    keys = [e.pattern.sort_key() for e in result]
    assert keys == sorted(keys)


def test_local_pruning_toggle_is_pure_optimization(d7):
    on = mine(d7, MiningParams(fmin=2, maxlen=4))
    off = mine(d7, MiningParams(fmin=2, maxlen=4), use_local_pruning=False)
    assert result_key(on) == result_key(off)


def test_stats_counts_nodes(d7):
    stats = MineStats()
    mine(d7, MiningParams(fmin=3, maxlen=4), stats=stats)
    assert stats.nodes_expanded >= 7


@pytest.mark.parametrize(
    "itemset_mode, constraints",
    [(False, None), (True, None), (False, ConstraintSet(maxgap=0))],
    ids=["simple", "itemset", "chain"],
)
def test_deep_pattern_search(itemset_mode, constraints):
    # Deeper than the interpreter's default recursion limit.
    db = SequenceDatabase.from_label_sequences([["a"] * 1200])
    params = MiningParams(fmin=1, maxlen=1200, itemset_mode=itemset_mode)
    result = mine(db, params, constraints)
    assert len(result) == 1200
    assert result.entries[-1].pattern.elements == ((0,),) * 1200


def test_timeout_raises():
    db, _ = generate(GenParams(num_sequences=150, seed=5))
    with pytest.raises(MiningTimeout):
        mine(db, MiningParams(fmin=2, maxlen=8), timeout=1e-5)


# ---------------------------------------------------------------------------
# Itemset mode


def test_simple_engine_rejects_itemset_data():
    db = SequenceDatabase.from_label_sequences([[("a", "b")]])
    with pytest.raises(DataError):
        mine(db, MiningParams(fmin=1, maxlen=2))


def test_itemset_mode_small_fixture():
    db = SequenceDatabase.from_label_sequences(
        [[("a", "b"), "c"], [("a", "b"), ("a", "c")]]
    )
    result = mine_itemset_patterns(db, MiningParams(fmin=2, maxlen=3))
    assert {(e.pattern.elements, e.support) for e in result} == {
        (((0,),), 2),
        (((1,),), 2),
        (((2,),), 2),
        (((0, 1),), 2),
        (((0,), (2,)), 2),
        (((1,), (2,)), 2),
        (((0, 1), (2,)), 2),
    }


def test_itemset_mode_agrees_with_simple_on_singleton_data(d7):
    simple = mine_frequent(d7, MiningParams(fmin=3, maxlen=4))
    itemset = mine_itemset_patterns(d7, MiningParams(fmin=3, maxlen=4))
    assert result_key(simple) == result_key(itemset)


def test_itemset_repeated_triple_regression():
    # Augmentations stay legal even when the frontier has no strict suffix
    # left, which once broke candidate inheritance on this database.
    db = SequenceDatabase.from_label_sequences(
        [[("a", "b", "c"), ("a", "b", "c"), ("a", "b", "c")]]
    )
    result = mine_itemset_patterns(db, MiningParams(fmin=1, maxlen=3))
    expected = oracle_frequent(db, 1, 3, itemset_mode=True)
    assert result_key(result) == result_key(expected)
    assert len(result) == 399


@pytest.mark.parametrize("strategy", ["skip", "fill"])
def test_itemset_mode_random_vs_oracle(strategy):
    rng = random.Random(20)
    from helpers import db_maxlen, random_itemset_db

    for _ in range(15):
        db = random_itemset_db(rng)
        maxlen = db_maxlen(db, cap=5)
        for fmin in (1, 2):
            got = mine(
                db,
                MiningParams(fmin=fmin, maxlen=maxlen, strategy=strategy, itemset_mode=True),
            )
            want = oracle_frequent(db, fmin, maxlen, itemset_mode=True)
            assert result_key(got) == result_key(want)


# ---------------------------------------------------------------------------
# Random differential check (small; the acceptance suite does the big sweep)


@pytest.mark.parametrize("strategy", ["skip", "fill"])
def test_simple_mode_random_vs_oracle(strategy):
    rng = random.Random(7)
    from helpers import db_maxlen, random_simple_db

    for _ in range(25):
        db = random_simple_db(rng)
        maxlen = db_maxlen(db)
        for fmin in (1, 2, 3):
            got = mine(db, MiningParams(fmin=fmin, maxlen=maxlen, strategy=strategy))
            want = oracle_frequent(db, fmin, maxlen)
            assert result_key(got) == result_key(want)
