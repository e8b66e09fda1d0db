"""Parameter validation and the pattern-growth engine."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from seqmine import (
    AggregateSpec,
    ConstraintError,
    ConstraintSet,
    MineStats,
    MiningParams,
    MiningResult,
    MiningTimeout,
    Pattern,
    SequenceDatabase,
    generate,
    mine,
    OracleConfig,
    oracle_condensed,
    oracle_constrained,
    oracle_frequent,
    regex_compile,
)
from seqmine import seqdb
from seqmine.datagen import GenParams
from seqmine.constraints import constrained_embeddings
from seqmine.miner import MODES, _Index, _search

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
        dict(fmin=3, maxlen=3, mode="open"),
        # Lengths are ints: the search compares depths with them, so
        # maxlen=2.5 grew length-3 patterns and minlen=1.5 dropped length 1.
        dict(fmin=3, maxlen=2.5),
        dict(fmin=3, maxlen=3.0),
        dict(fmin=3, maxlen=True),
        dict(fmin=3, maxlen="3"),
        dict(fmin=3, maxlen=4, minlen=1.5),
        dict(fmin=3, maxlen=4, minlen=True),
        dict(fmin=3, maxlen=4, minlen=None),
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


@given(
    fmin=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    n=st.one_of(st.integers(0, 1000), st.integers(0, 10**7)),
)
@example(fmin=0.07, n=100)
@example(fmin=1e-05, n=10**5)
@example(fmin=1e-05, n=10**5 + 1)
@example(fmin=5e-324, n=10**7)
@example(fmin=1.0, n=10**7)
@settings(max_examples=500, deadline=None)
def test_fractional_fmin_matches_the_exact_fraction(fmin, n):
    # The count is the ceiling of the decimal that the float's repr spells,
    # times n, as exact rational arithmetic gives it.
    want = math.ceil(Fraction(repr(fmin)) * n)
    params = MiningParams(fmin=fmin, maxlen=3)
    if want < 1:
        with pytest.raises(ValueError):
            params.resolved_fmin(n)
    else:
        assert params.resolved_fmin(n) == want


# ---------------------------------------------------------------------------
# Root candidates


def _roots(db, fmin, **bounds):
    index = _Index(db, fmin, ConstraintSet(**bounds))
    assert index.lasts is None or list(index.lasts) == list(index.items)
    return list(index.items)


def test_root_candidates(d7):
    # The index keeps, ascending, the items in at least fmin sequences.
    assert _roots(d7, 3) == [A, B, C]
    assert _roots(d7, 1) == [A, B, C, D]
    assert _roots(d7, 7) == []
    assert _roots(d7, 1, cannot_have=frozenset({B, D})) == [A, C]
    # Under maxspan=2 the first sequence is four start segments; b lies in
    # all four, but in one sequence, so it is no candidate at fmin 2.
    db = SequenceDatabase.from_label_sequences([list("abab"), list("ac")])
    assert _roots(db, 2, maxspan=2) == [db.alphabet.id_of("a")]


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


def test_mine_d7_fmin3(d7):
    result = mine(d7, MiningParams(fmin=3, maxlen=4))
    assert set(entry_labels(d7, result)) == D7_AT_3
    assert {e.pattern: e.support for e in result}[pat(d7, "a", "b", "c")] == 4


def test_mine_d7_fmin5(d7):
    result = mine(d7, MiningParams(fmin=5, maxlen=4))
    assert set(entry_labels(d7, result)) == {
        ("a", 6),
        ("b", 6),
        ("c", 5),
        ("ab", 5),
        ("ac", 5),
    }


def test_mine_d7_length_bounds(d7):
    short = mine(d7, MiningParams(fmin=3, maxlen=1))
    assert set(entry_labels(d7, short)) == {("a", 6), ("b", 6), ("c", 5)}
    long = mine(d7, MiningParams(fmin=3, maxlen=4, minlen=2))
    assert set(entry_labels(d7, long)) == {("ab", 5), ("ac", 5), ("bc", 4), ("abc", 4)}


def test_mine_d7_fractional_threshold(d7):
    frac = mine(d7, MiningParams(fmin=3 / 7, maxlen=4))
    absolute = mine(d7, MiningParams(fmin=3, maxlen=4))
    assert result_key(frac) == result_key(absolute)


def test_mine_support_ids_are_exact(d7):
    result = mine(d7, MiningParams(fmin=3, maxlen=4))
    by_pattern = {e.pattern: e for e in result}
    assert by_pattern[pat(d7, "b", "c")].support_ids == (2, 4, 6, 7)
    assert by_pattern[pat(d7, "a")].support_ids == (1, 2, 4, 5, 6, 7)


def test_mine_canonical_order(d7):
    result = mine(d7, MiningParams(fmin=3, maxlen=4))
    keys = [e.pattern.sort_key() for e in result]
    assert keys == sorted(keys)


def test_local_pruning_toggle_is_pure_optimization(d7):
    params = MiningParams(fmin=2, maxlen=4)
    on = mine(d7, params)
    off = _search_on(d7, params, ConstraintSet(), narrow=False)
    assert result_key(on) == result_key(off)


def test_stats_counts_nodes(d7):
    stats = MineStats()
    mine(d7, MiningParams(fmin=3, maxlen=4), stats=stats)
    assert stats.nodes_expanded >= 7
    assert stats.candidate_tests > 0 and stats.gated == 0


def test_stats_count_tests_and_gates(d7):
    # Under a*, only a is counted at each node; b, c and d are gated.
    stats = MineStats()
    params = MiningParams(fmin=1, maxlen=4)
    mine(d7, params, ConstraintSet(regex=regex_compile("a*", d7.alphabet)), stats=stats)
    assert 0 < stats.candidate_tests <= stats.nodes_expanded
    assert stats.gated >= 3
    # A summed bound of 2 gates c (cost 5) at every node, so it is never counted.
    stats = MineStats()
    agg = AggregateSpec({A: 1, B: 1, C: 5, D: 1}, "sum", "le", 2)
    result = mine(d7, params, ConstraintSet(aggregate=agg), stats=stats)
    assert stats.gated >= 1
    assert all(C not in e.pattern.items() for e in result)


@pytest.mark.parametrize(
    "costs, regex, fmin, raises",
    [
        # c is a frequent root extension.
        ({A: 1, B: 1}, None, 3, True),
        # The regex admits c only after a, and <a c> is frequent.
        ({A: 1, B: 1}, "a c", 3, True),
        # The regex never admits c.
        ({A: 1, B: 1}, "(a|b)*", 3, False),
        # a is frequent, but the regex admits it only after b, and <b a>
        # occurs nowhere.
        ({B: 1, C: 1}, "b a", 3, False),
        # d occurs in one sequence: frequent at fmin=1 only.
        ({A: 1, B: 1, C: 1}, None, 3, False),
        ({A: 1, B: 1, C: 1}, None, 1, True),
    ],
)
def test_missing_cost_raises_only_for_an_admitted_frequent_extension(d7, costs, regex, fmin, raises):
    # An item without a cost entry is never gated: the search raises exactly
    # when it would grow a pattern by it, and otherwise runs as if the item
    # had any cost.
    params = MiningParams(fmin=fmin, maxlen=4)
    dfa = None if regex is None else regex_compile(regex, d7.alphabet)
    cs = ConstraintSet(regex=dfa, aggregate=AggregateSpec(costs, "sum", "le", 10))
    if raises:
        with pytest.raises(ConstraintError, match="no cost entry"):
            mine(d7, params, cs)
    else:
        full = AggregateSpec({A: 1, B: 1, C: 1, D: 1, **costs}, "sum", "le", 10)
        assert result_key(mine(d7, params, cs)) == result_key(mine(d7, params, cs.replace(aggregate=full)))


@pytest.mark.parametrize(
    "extra, constraints, count, deepest",
    [
        ([], None, 1200, 1200),
        # A second sequence (a b) makes itemset data: b and (a b) join the result.
        ([[("a", "b")]], None, 1202, 1200),
        ([], ConstraintSet(maxgap=0), 1200, 1200),
        # A chain over all 1,200 positions spans 1,200.
        ([], ConstraintSet(maxspan=1199), 1199, 1199),
    ],
    ids=["simple", "itemset", "gap", "span"],
)
def test_deep_pattern_search(extra, constraints, count, deepest):
    # Deeper than the interpreter's default recursion limit.  The gap case
    # runs on the gap bitmaps, the span case on the span state.
    db = SequenceDatabase.from_label_sequences([["a"] * 1200] + extra)
    result = mine(db, MiningParams(fmin=1, maxlen=1200), constraints)
    assert len(result) == count
    assert result.entries[-1].pattern.elements == ((0,),) * deepest


def test_timeout_raises():
    db, _ = generate(GenParams(num_sequences=150, seed=5))
    with pytest.raises(MiningTimeout):
        mine(db, MiningParams(fmin=2, maxlen=8), timeout=1e-5)


def test_timeout_must_be_positive(d7):
    # time.monotonic() > deadline is never true for a NaN deadline, so a NaN
    # timeout would run with none; zero or less is past before the search.
    params = MiningParams(fmin=3, maxlen=4)
    for bad in (float("nan"), 0, 0.0, -1.0, float("-inf")):
        with pytest.raises(ValueError, match="timeout"):
            mine(d7, params, timeout=bad)
    assert mine(d7, params, timeout=float("inf")) == mine(d7, params)


# ---------------------------------------------------------------------------
# Itemset mode


def test_itemset_mode_small_fixture():
    db = SequenceDatabase.from_label_sequences(
        [[("a", "b"), "c"], [("a", "b"), ("a", "c")]]
    )
    result = mine(db, MiningParams(fmin=2, maxlen=3))
    assert {(e.pattern.elements, e.support) for e in result} == {
        (((0,),), 2),
        (((1,),), 2),
        (((2,),), 2),
        (((0, 1),), 2),
        (((0,), (2,)), 2),
        (((1,), (2,)), 2),
        (((0, 1), (2,)), 2),
    }


def test_itemset_repeated_triple_regression():
    # Augmentations stay legal even when the frontier has no strict suffix
    # left, which once broke candidate inheritance on this database.
    db = SequenceDatabase.from_label_sequences(
        [[("a", "b", "c"), ("a", "b", "c"), ("a", "b", "c")]]
    )
    result = mine(db, MiningParams(fmin=1, maxlen=3))
    expected = oracle_frequent(db, 1, 3, itemset_mode=True)
    assert result_key(result) == result_key(expected)
    assert len(result) == 399


def test_itemset_mode_random_vs_oracle():
    # mine() reads the multi-item elements off the database; the oracle is told.
    rng = random.Random(20)
    from helpers import db_maxlen, random_itemset_db

    for _ in range(15):
        db = random_itemset_db(rng)
        maxlen = db_maxlen(db, cap=5)
        for fmin in (1, 2):
            got = mine(db, MiningParams(fmin=fmin, maxlen=maxlen))
            want = oracle_frequent(db, fmin, maxlen, itemset_mode=True)
            assert result_key(got) == result_key(want)


# ---------------------------------------------------------------------------
# Random differential check (small; the acceptance suite does the big sweep)


def test_simple_mode_random_vs_oracle():
    rng = random.Random(7)
    from helpers import db_maxlen, random_simple_db

    for _ in range(25):
        db = random_simple_db(rng)
        maxlen = db_maxlen(db)
        for fmin in (1, 2, 3):
            got = mine(db, MiningParams(fmin=fmin, maxlen=maxlen))
            want = oracle_frequent(db, fmin, maxlen)
            assert result_key(got) == result_key(want)


# ---------------------------------------------------------------------------
# The bitmap search against the oracle, on the bitmap's layout edges
#
# A sequence of L elements takes ceil((L+1)/8) bytes of the bitmap, so 0, 7,
# 15 and 23 fill a segment exactly and 8, 16 and 24 start a new byte.  Both
# simple and itemset mode run on the bitmap.

BOUNDARY_LENGTHS = (0, 1, 2, 6, 7, 8, 9, 15, 16, 17)
# Long enough for every maxlen the databases below allow; the guard exists to
# stop accidental blow-ups, which the pattern cap below already prevents.
WIDE = OracleConfig(max_pattern_len=17)
# Frequent sets larger than this make the oracle slow; such draws are
# discarded.
MAX_PATTERNS = 200


@st.composite
def bitmap_dbs(draw, itemset_mode):
    """Up to six sequences over at most three labels, with lengths on the
    byte boundaries and often skewed: a long sequence among short ones.  In
    itemset mode an element holds one or two labels."""
    labels = "abc"[: draw(st.integers(1, 3))]
    lengths = draw(st.lists(st.sampled_from(BOUNDARY_LENGTHS), min_size=1, max_size=6))
    element = st.sampled_from(labels)
    if itemset_mode:
        element = st.lists(element, min_size=1, max_size=2, unique=True)
    rows = [draw(st.lists(element, min_size=n, max_size=n)) for n in lengths]
    return SequenceDatabase.from_label_sequences(rows)


@st.composite
def bitmap_params(draw, db):
    """fmin from 1 to the database size; maxlen from 1 to the longest
    sequence; minlen from 1 to maxlen."""
    longest = max(len(s) for s in db.sequences)
    maxlen = draw(st.integers(1, max(1, longest)))
    return MiningParams(
        fmin=draw(st.integers(1, len(db))),
        maxlen=maxlen,
        minlen=draw(st.integers(1, maxlen)),
    )


@st.composite
def bitmap_constraints(draw, db, itemset_mode):
    """None, must-have, cannot-have, super-patterns (any or all of them), a
    regex over the database's labels (simple mode only), an aggregate (the
    summed upper bound prunes during the search, the others do not), or a
    regex with a summed upper bound, whose gates both run before the count.
    Together these cover every rule ``ConstraintSet.accepts`` checks."""
    labels = [db.alphabet.label(i) for i in range(len(db.alphabet))]
    kinds = ["none", "must_have", "cannot_have", "super_patterns", "regex", "aggregate", "regex_sum"]
    if itemset_mode:
        kinds.remove("regex")
        kinds.remove("regex_sum")
    kind = draw(st.sampled_from(kinds))
    if kind == "none" or not labels:
        return None
    item = st.sampled_from(range(len(labels)))
    if kind == "must_have":
        return ConstraintSet(must_have={draw(item)})
    if kind == "cannot_have":
        return ConstraintSet(cannot_have={draw(item)})
    if kind == "super_patterns":
        element = st.lists(item, min_size=1, max_size=2 if itemset_mode else 1, unique=True).map(
            lambda e: tuple(sorted(e))
        )
        pattern = st.lists(element, min_size=1, max_size=3).map(lambda e: Pattern(tuple(e)))
        return ConstraintSet(
            super_patterns=draw(st.lists(pattern, min_size=1, max_size=3)),
            super_pattern_all=draw(st.booleans()),
        )
    regex = None
    if kind in ("regex", "regex_sum"):
        x, y, z = (draw(st.sampled_from(labels)) for _ in range(3))
        template = draw(st.sampled_from(["{x}*", "({x}|{y})* {z}", "{x} ({y}|{z})*", "({x} {y})+ {z}?"]))
        regex = regex_compile(template.format(x=x, y=y, z=z), db.alphabet)
        if kind == "regex":
            return ConstraintSet(regex=regex)
    costs = {i: draw(st.integers(0, 3)) for i in range(len(db.alphabet))}
    if kind == "regex_sum":
        cmp = draw(st.sampled_from(["le", "lt"]))
        return ConstraintSet(regex=regex, aggregate=AggregateSpec(costs, "sum", cmp, draw(st.integers(0, 8))))
    op = draw(st.sampled_from(["sum", "sum", "min", "max", "avg"]))
    cmp = draw(st.sampled_from(["le", "lt", "ge"]))
    return ConstraintSet(aggregate=AggregateSpec(costs, op, cmp, draw(st.integers(0, 8))))


def _assert_canonical(result):
    """The search builds its patterns without validation; each must equal
    the pattern validation builds from its elements."""
    for e in result:
        assert e.pattern == Pattern(e.pattern.elements), e.pattern


def _assume_oracle_sized(db, params):
    """Discard a draw whose frequent set, which the oracle enumerates, holds
    more than MAX_PATTERNS patterns.  Growing maxlen one level at a time
    keeps a discarded draw cheap."""
    for maxlen in range(1, params.maxlen + 1):
        level = MiningParams(fmin=params.fmin, maxlen=maxlen)
        assume(len(mine(db, level)) <= MAX_PATTERNS)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_simple_search_matches_oracle(data):
    itemset_mode = data.draw(st.booleans())
    db = data.draw(bitmap_dbs(itemset_mode))
    params = data.draw(bitmap_params(db))
    _assume_oracle_sized(db, params)
    got = _search_on(db, params, ConstraintSet(), narrow=data.draw(st.booleans()))
    want = oracle_frequent(db, params.fmin, params.maxlen, itemset_mode=itemset_mode, config=WIDE)
    want = [e for e in want if len(e.pattern) >= params.minlen]
    assert result_key(got) == result_key(want)
    _assert_canonical(got)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_constrained_simple_search_matches_oracle(data):
    itemset_mode = data.draw(st.booleans())
    db = data.draw(bitmap_dbs(itemset_mode))
    params = data.draw(bitmap_params(db))
    cs = data.draw(bitmap_constraints(db, itemset_mode))
    _assume_oracle_sized(db, params)
    cs = cs or ConstraintSet()
    got = _search_on(db, params, cs, narrow=data.draw(st.booleans()))
    want = oracle_constrained(
        db, params.fmin, params.maxlen, cs, minlen=params.minlen,
        itemset_mode=itemset_mode, config=WIDE,
    )
    assert result_key(got) == result_key(want)
    _assert_canonical(got)



@st.composite
def chain_constraints(draw):
    """Gap and span bounds, each set or not and at least one set: mingap
    0-2, maxgap at least mingap, minspan 1-4, maxspan at least minspan.  A
    draw with a maxspan that bounds something runs on per-start segments, a
    minspan on the first S-step's window."""
    optional = st.booleans()
    mingap = draw(st.integers(0, 2)) if draw(optional) else None
    maxgap = draw(st.integers(mingap or 0, (mingap or 0) + 3)) if draw(optional) else None
    minspan = draw(st.integers(1, 4)) if draw(optional) else None
    maxspan = draw(st.integers(minspan or 1, (minspan or 1) + 5)) if draw(optional) else None
    if (mingap, maxgap, minspan, maxspan) == (None, None, None, None):
        maxgap = draw(st.integers(0, 3))
    return ConstraintSet(mingap=mingap, maxgap=maxgap, minspan=minspan, maxspan=maxspan)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_chain_search_matches_oracle(data):
    itemset_mode = data.draw(st.booleans())
    db = data.draw(bitmap_dbs(itemset_mode))
    params = data.draw(bitmap_params(db))
    cs = data.draw(chain_constraints())
    _assume_oracle_sized(db, params)
    got = _search_on(db, params, cs, narrow=data.draw(st.booleans()))
    want = oracle_constrained(
        db, params.fmin, params.maxlen, cs, minlen=params.minlen,
        itemset_mode=itemset_mode, config=WIDE,
    )
    assert result_key(got) == result_key(want)
    _assert_canonical(got)



# ---------------------------------------------------------------------------
# Gap and span bounds: the bitmap layouts against the oracle
#
# The layout is built from the constraint set's gap and span windows.  Each
# run drives _search directly on a fresh _Index, as mine() sets it up, and
# must match the oracle with narrowing on or off.


def _search_on(db, params, cs, narrow=True, deadline=None, stats=None):
    """One frequent run of _search on a fresh _Index for ``cs``, as mine()
    sets it up; ``narrow`` narrows candidates wherever the layout allows
    it, and ``narrow=False`` is the differential without narrowing.

    The run is repeated on the same state with its last-occurrence bits
    removed, so every step takes the general count; it must give the same
    entries, sids included, and the same counters."""
    fmin = params.resolved_fmin(len(db))
    index = _Index(db, fmin, cs)
    index.narrows = narrow and index.narrows
    stats = MineStats() if stats is None else stats
    general_stats = stats.replace()
    entries = _search(index, fmin, params, cs, stats, deadline)
    index.lasts = None
    general = _search(index, fmin, params, cs, general_stats, deadline)
    assert general == entries
    assert general_stats == stats
    return MiningResult.build(chain.from_iterable(entries))


@st.composite
def gap_bounds(draw):
    """maxgap only, mingap only (the unbounded shift), both, or maxgap=0.
    Bounds run to 20, past the longest sequence (17 elements)."""
    bound = st.one_of(st.integers(0, 3), st.integers(0, 20))
    kind = draw(st.sampled_from(["maxgap", "mingap", "both", "zero"]))
    if kind == "zero":
        return dict(maxgap=0)
    if kind == "maxgap":
        return dict(maxgap=draw(bound))
    if kind == "mingap":
        return dict(mingap=draw(bound))
    mingap = draw(bound)
    return dict(mingap=mingap, maxgap=draw(st.integers(mingap, 20)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_gap_bitmap_search_matches_oracle(data):
    itemset_mode = data.draw(st.booleans())
    db = data.draw(bitmap_dbs(itemset_mode))
    params = data.draw(bitmap_params(db))
    rules = data.draw(bitmap_constraints(db, itemset_mode)) or ConstraintSet()
    cs = rules.replace(**data.draw(gap_bounds()))
    _assume_oracle_sized(db, params)
    want = oracle_constrained(
        db, params.fmin, params.maxlen, cs, minlen=params.minlen,
        itemset_mode=itemset_mode, config=WIDE,
    )
    got = _search_on(db, params, cs, narrow=data.draw(st.booleans()))
    assert result_key(got) == result_key(want)
    _assert_canonical(got)


@pytest.mark.parametrize("length", [7, 8, 9, 15, 16, 17])
def test_gap_window_at_the_sequence_length(length):
    # <a c> embeds only across the whole sequence, a gap of length - 2; one
    # short sequence sits beside it.  Gap windows just short of, equal to
    # and past that gap must cut or keep the pattern exactly.
    db = SequenceDatabase.from_label_sequences([["b"] * 3, ["a"] + ["b"] * (length - 2) + ["c"]])
    params = MiningParams(fmin=1, maxlen=2)
    for gaps in (
        dict(maxgap=length - 3), dict(maxgap=length - 2), dict(maxgap=length - 1),
        dict(mingap=length - 2), dict(mingap=length - 1), dict(mingap=1, maxgap=length - 3),
    ):
        cs = ConstraintSet(**gaps)
        want = oracle_constrained(db, 1, 2, cs, config=WIDE)
        for narrow in (True, False):
            assert result_key(_search_on(db, params, cs, narrow)) == result_key(want), (gaps, narrow)


@st.composite
def span_bounds(draw):
    """maxspan, minspan or both, with or without gap bounds.  Windows of 7,
    8, 9, 15, 16 and 17 positions sit on the byte boundaries; bounds run past
    the longest sequence (17 elements), so vacuous ones are drawn too, and a
    minspan can be longer than some sequences."""
    span = st.sampled_from([1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 18])
    kind = draw(st.sampled_from(["maxspan", "minspan", "both"]))
    bounds = dict(maxspan=draw(span)) if kind == "maxspan" else dict(minspan=draw(span))
    if kind == "both":
        bounds["maxspan"] = draw(st.integers(bounds["minspan"], 18))
    if draw(st.booleans()):
        bounds.update(draw(gap_bounds()))
    return bounds


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_span_bitmap_search_matches_oracle_and_embeddings(data):
    itemset_mode = data.draw(st.booleans())
    db = data.draw(bitmap_dbs(itemset_mode))
    params = data.draw(bitmap_params(db))
    rules = data.draw(bitmap_constraints(db, itemset_mode)) or ConstraintSet()
    bounds = data.draw(span_bounds())
    cs = rules.replace(**bounds)
    _assume_oracle_sized(db, params)
    want = oracle_constrained(
        db, params.fmin, params.maxlen, cs, minlen=params.minlen,
        itemset_mode=itemset_mode, config=WIDE,
    )
    got = _search_on(db, params, cs, narrow=data.draw(st.booleans()))
    assert result_key(got) == result_key(want)
    _assert_canonical(got)
    # Each pattern's supporters are the sequences the chain reference admits.
    for e in got:
        chained = [s.sid for s in db.sequences if constrained_embeddings(s, e.pattern, **bounds).supports]
        assert e.support_ids == tuple(chained), e.pattern


def test_state_follows_the_bounds(d7):
    # A maxspan that bounds something lays out one segment per start
    # position, so more position bits than the database holds; a minspan
    # never does.  A maxgap that bounds something gives a finite window
    # width, and then no narrowing.  A minspan raises the first S-step's
    # nearest distance alone.  The longest d7 sequence has 4 elements, so
    # maxspan >= 4 and maxgap >= 2 bound nothing.
    positions = sum(len(s) for s in d7.sequences)
    for bounds, per_start, later, first in (
        (dict(), False, (1, None), (1, None)),
        (dict(maxgap=0), False, (1, 1), (1, 1)),
        (dict(mingap=1), False, (2, None), (2, None)),
        (dict(mingap=0, maxgap=2), False, (1, None), (1, None)),
        (dict(maxspan=3), True, (1, None), (1, None)),
        (dict(minspan=3), False, (1, None), (2, None)),
        # Segments of 3 positions: no two lie more than maxgap + 1 apart.
        (dict(maxgap=1, maxspan=3), True, (1, None), (1, None)),
        (dict(maxspan=4), False, (1, None), (1, None)),
        (dict(minspan=2, maxspan=9), False, (1, None), (1, None)),
        (dict(mingap=1, minspan=1, maxspan=4), False, (2, None), (2, None)),
    ):
        index = _Index(d7, 2, ConstraintSet(**bounds))
        assert (index.mask.bit_count() > positions) is per_start, bounds
        assert index.windows == (later, first), bounds
        assert index.narrows is (later[1] is None), bounds
        # Last-occurrence bits count sequences only where a segment is one.
        assert (index.lasts is None) is per_start, bounds
    # A minspan past the maxgap empties the first window: width 0.
    index = _Index(d7, 2, ConstraintSet(minspan=10, maxgap=0))
    assert index.windows == ((1, 1), (9, 0))
    assert index.after(index.mask, True) == 0 != index.after(index.mask, False)


@pytest.mark.parametrize("itemset_mode", [False, True])
@pytest.mark.parametrize("bounds", [{}, dict(maxspan=2), dict(maxgap=1, minspan=3)])
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_head_bits_and_sid_bits_invert_each_other(itemset_mode, bounds, data):
    # On each layout (one segment per sequence, one per start position under
    # a maxspan, either one on itemset data) a sid int goes to head bits and
    # back unchanged, and so do head bits; every sid is every head.
    db = data.draw(bitmap_dbs(itemset_mode))
    index = _Index(db, 1, ConstraintSet(**bounds))
    longest = max(map(len, db.sequences))
    assert (index.lasts is None) is ("maxspan" in bounds and longest > 2)
    assert len(index.head_bytes) == len(db)
    everyone = (1 << len(db)) - 1
    assert index.head_bits(everyone) == index.heads and index.sid_bits(index.heads) == everyone
    sids = data.draw(st.integers(0, everyone))
    heads = index.head_bits(sids)
    assert heads & ~index.heads == 0 and heads.bit_count() == sids.bit_count()
    assert index.sid_bits(heads) == sids and index.head_bits(index.sid_bits(heads)) == heads


def test_minspan_past_the_maxgap_leaves_one_element_patterns(d7):
    # Under maxgap=0 a second element matches 1 position after the first,
    # never the 9 a minspan of 10 needs, so no pattern grows past one element.
    cs = ConstraintSet(minspan=10, maxgap=0)
    got = mine(d7, MiningParams(fmin=1, maxlen=4), cs)
    assert result_key(got) == result_key(oracle_constrained(d7, 1, 4, cs))
    assert got.entries and all(len(e.pattern) == 1 for e in got)


@pytest.mark.parametrize("bounds", [dict(mingap=1), dict(maxspan=3)], ids=["mingap", "maxspan"])
def test_bounded_runs_narrow(d7, bounds):
    # Without a maxgap, narrowing leaves the results as they are and counts
    # fewer candidates.
    params, cs = MiningParams(fmin=1, maxlen=4), ConstraintSet(**bounds)
    on, off = MineStats(), MineStats()
    narrowed = mine(d7, params, cs, stats=on)
    assert result_key(narrowed) == result_key(_search_on(d7, params, cs, narrow=False, stats=off))
    assert on.nodes_expanded == off.nodes_expanded
    assert on.candidate_tests < off.candidate_tests


# ---------------------------------------------------------------------------
# The sibling bound: where the search narrows, a candidate is counted only
# if the node's supporters share fmin with the supporters of the extension
# that adds the same item to the node's parent.


@st.composite
def deep_itemset_dbs(draw, labels="abcd", max_sequences=5):
    """Up to ``max_sequences`` sequences of up to six elements, an element
    holding one to four of ``labels``, so that patterns add an item to an
    element already grown by an added item (I-steps after I-steps)."""
    element = st.lists(st.sampled_from(labels), min_size=1, max_size=4, unique=True)
    return SequenceDatabase.from_label_sequences(
        draw(st.lists(st.lists(element, max_size=6), min_size=1, max_size=max_sequences))
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sibling_bound_matches_unbounded_search_and_oracle(data):
    # Three answers must agree: the search as shipped (narrowed and bounded
    # wherever the layout allows), the search with ``narrows`` cleared
    # (neither narrowing nor bound), and the oracle.  The constraints reach
    # every sibling case: regex-gated items inherited untested (no sibling),
    # sum-gated ones, span bounds (bounded) and gap bounds (a maxgap clears
    # ``narrows``, so no bound), at any maxlen up to the longest sequence.
    kind = data.draw(st.sampled_from(["simple", "itemset", "deep_itemset"]))
    itemset_mode = kind != "simple"
    db = data.draw(deep_itemset_dbs() if kind == "deep_itemset" else bitmap_dbs(itemset_mode))
    params = data.draw(bitmap_params(db))
    rules = data.draw(bitmap_constraints(db, itemset_mode)) or ConstraintSet()
    cs = rules.replace(**data.draw(st.one_of(st.just({}), gap_bounds(), span_bounds())))
    _assume_oracle_sized(db, params)
    shipped_stats, plain_stats = MineStats(), MineStats()
    shipped = _search_on(db, params, cs, stats=shipped_stats)
    plain = _search_on(db, params, cs, narrow=False, stats=plain_stats)
    want = oracle_constrained(
        db, params.fmin, params.maxlen, cs, minlen=params.minlen,
        itemset_mode=itemset_mode, config=WIDE,
    )
    assert result_key(shipped) == result_key(plain) == result_key(want)
    assert shipped_stats.nodes_expanded == plain_stats.nodes_expanded
    assert plain_stats.bounded == 0
    if not _Index(db, 1, cs).narrows:
        assert shipped_stats.bounded == 0


@settings(max_examples=500, deadline=None)
@given(deep_itemset_dbs("abcde", 10), st.data())
def test_sibling_bound_on_itemset_data_matches_unbounded_search(db, data):
    # Larger itemset databases than the oracle takes: the bounded search
    # against the one with ``narrows`` cleared.  Bounding an I-candidate
    # after an I-step by the parent's S-hit loses patterns on a few percent
    # of these databases.
    params = MiningParams(fmin=data.draw(st.integers(1, len(db))), maxlen=data.draw(st.integers(1, 4)))
    shipped = _search_on(db, params, ConstraintSet())
    assert result_key(shipped) == result_key(_search_on(db, params, ConstraintSet(), narrow=False))


def test_sibling_of_an_added_item_after_an_added_item():
    # <(a b c)> grows from <(a b)> by c.  Its sibling is <(a c)>, which the
    # two supporters of <(a b)> hold, not <(a)(c)>, which only the other two
    # sequences hold; <(a b)>'s S-candidate c is bounded by <(a)(c)>.
    db = SequenceDatabase.from_label_sequences([[["a", "b", "c"]]] * 2 + [["a", "c"]] * 2)
    stats = MineStats()
    got = _search_on(db, MiningParams(fmin=2, maxlen=2), ConstraintSet(), stats=stats)
    assert result_key(got) == result_key(oracle_frequent(db, 2, 2, itemset_mode=True))
    assert pat(db, "abc") in {e.pattern for e in got}
    assert stats.bounded > 0


@pytest.mark.parametrize(
    "fmin, maxlen, cs, skipped",
    [
        (5, 4, ConstraintSet(), 4),
        (5, 3, ConstraintSet(minspan=2, maxspan=3), 4),
        (5, 4, ConstraintSet(mingap=1), 2),
        (2, 4, ConstraintSet(), 0),
        (5, 4, ConstraintSet(maxgap=1), 0),
    ],
    ids=["fmin5", "span", "mingap", "fmin2", "maxgap"],
)
def test_bound_accounts_for_the_counts_it_skips(d7, monkeypatch, fmin, maxlen, cs, skipped):
    # The same search with the bound replaced by one that keeps every
    # candidate: the bounded run counts exactly the candidates it did not
    # skip, and emits the same entries.  On d7 only fmin 5 leaves a sibling
    # too few shared supporters, and a maxgap clears ``narrows``.
    params = MiningParams(fmin=fmin, maxlen=maxlen)
    bounded = MineStats()
    got = _search_on(d7, params, cs, stats=bounded)
    monkeypatch.setattr("seqmine.miner._bound", lambda tests, bits, siblings, fmin: tests)
    unbounded = MineStats()
    assert result_key(_search_on(d7, params, cs, stats=unbounded)) == result_key(got)
    assert (bounded.bounded, unbounded.bounded) == (skipped, 0)
    assert bounded.candidate_tests + bounded.bounded == unbounded.candidate_tests
    assert bounded.nodes_expanded == unbounded.nodes_expanded


# ---------------------------------------------------------------------------
# Canonical order: the pre-order walk, S-children before I-children and each
# kind ascending, meets each element count's patterns in canonical order, so
# MiningResult.build keeps mine()'s entries as they come, without a sort.


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_search_emits_each_length_in_canonical_order(data):
    # Simple and itemset data, minlen above 1, regexes whose prefixes emit
    # nothing, gap and span windows, the sum gate and every mode, condensed
    # ones within constraints or not.
    kind = data.draw(st.sampled_from(["simple", "itemset", "deep_itemset"]))
    itemset_mode = kind != "simple"
    db = data.draw(deep_itemset_dbs() if kind == "deep_itemset" else bitmap_dbs(itemset_mode))
    params = data.draw(bitmap_params(db)).replace(mode=data.draw(st.sampled_from(MODES)))
    rules = data.draw(bitmap_constraints(db, itemset_mode)) or ConstraintSet()
    cs = rules.replace(**data.draw(st.one_of(st.just({}), gap_bounds(), span_bounds())))
    within = data.draw(st.booleans())
    _assume_oracle_sized(db, params)

    fmin = params.resolved_fmin(len(db))
    by_length = _search(_Index(db, fmin, cs), fmin, params, cs, MineStats(), None)
    lengths = [len(level[0].pattern) for level in by_length]
    assert lengths == sorted(set(lengths)) and all(n >= params.minlen for n in lengths)
    for n, level in zip(lengths, by_length):
        keys = [e.pattern.sort_key() for e in level]
        assert all(len(e.pattern) == n for e in level)
        assert all(a < b for a, b in zip(keys, keys[1:]))
    entries = list(chain.from_iterable(by_length))
    assert MiningResult.build(entries).entries == tuple(entries)

    # mine() and the condensed filter hand build ordered entries: no sort.
    sorts = []

    def recording_sorted(*args, **kwargs):
        sorts.append(args)
        return sorted(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seqdb, "sorted", recording_sorted, raising=False)
        result = mine(db, params, cs, condensed_within_constraints=within)
    assert sorts == []
    if params.mode == "frequent":
        assert result.entries == tuple(entries)
    want = oracle_constrained(
        db, params.fmin, params.maxlen, cs, minlen=params.minlen, itemset_mode=itemset_mode, config=WIDE
    )
    if params.mode != "frequent":
        want = oracle_condensed(want, params.mode) if within else None
    if want is not None:
        assert result_key(result) == result_key(want)


def test_maxspan_support_counts_sequences_not_segments():
    # Under maxspan=2 the first sequence is laid out as four start segments
    # of up to two positions; a lies in three of them and b in all four, and
    # <a b> and <b a> embed in several.  Support still counts sequences.
    db = SequenceDatabase.from_label_sequences([list("abab"), list("ac")])
    cs = ConstraintSet(maxspan=2)
    assert _Index(db, 1, cs).lasts is None

    def supports(fmin):
        result = _search_on(db, MiningParams(fmin=fmin, maxlen=3), cs)
        return {labels: (n, e.support_ids) for (labels, n), e in zip(entry_labels(db, result), result)}

    sids = [s.sid for s in db.sequences]
    assert supports(2) == {"a": (2, tuple(sids))}
    assert supports(1) == {
        "a": (2, tuple(sids)),
        "b": (1, (sids[0],)),
        "c": (1, (sids[1],)),
        "ab": (1, (sids[0],)),
        "ac": (1, (sids[1],)),
        "ba": (1, (sids[0],)),
    }


def test_span_search_on_a_long_sequence():
    # One 1,200-element sequence: one window of up to 600 positions per
    # start, so every chain of up to 600 elements is admitted.
    db = SequenceDatabase.from_label_sequences([["a"] * 1200])
    result = mine(db, MiningParams(fmin=1, maxlen=1200), ConstraintSet(maxspan=600), timeout=10)
    assert len(result) == 600


def test_minspan_search_on_long_sequences():
    # 40 sequences of about 200 elements.  A minspan keeps one segment per
    # sequence, so the run ends well inside the timeout; one segment per
    # start position took over 20 s on this database.
    db, _ = generate(GenParams(num_sequences=40, mean_seq_len=200, num_patterns=5, alphabet_size=200, seed=0))
    result = mine(db, MiningParams(fmin=0.5, maxlen=3), ConstraintSet(minspan=5), timeout=10)
    assert len(result) == 52812
    # A sample of patterns, against the chain reference.
    for e in result.entries[::5000]:
        chained = [s.sid for s in db.sequences if constrained_embeddings(s, e.pattern, minspan=5).supports]
        assert e.support_ids == tuple(chained), e.pattern


@pytest.mark.parametrize("gaps", [dict(maxgap=3), dict(mingap=1)], ids=["maxgap", "mingap"])
def test_gap_timeout_raises(gaps):
    db, _ = generate(GenParams(num_sequences=150, seed=5))
    cs = ConstraintSet(**gaps)
    with pytest.raises(MiningTimeout):
        mine(db, MiningParams(fmin=2, maxlen=8), cs, timeout=1e-5)
    # Past the deadline, the search stops at the root.
    with pytest.raises(MiningTimeout):
        _search_on(db, MiningParams(fmin=2, maxlen=8), cs, deadline=time.monotonic() - 1)


@pytest.mark.parametrize("spans", [dict(maxspan=8), dict(minspan=5)], ids=["maxspan", "minspan"])
def test_span_timeout_raises(spans):
    db, _ = generate(GenParams(num_sequences=150, seed=5))
    cs = ConstraintSet(**spans)
    with pytest.raises(MiningTimeout):
        mine(db, MiningParams(fmin=2, maxlen=8), cs, timeout=1e-5)
    # Past the deadline, the search stops at the root.
    with pytest.raises(MiningTimeout):
        _search_on(db, MiningParams(fmin=2, maxlen=8), cs, deadline=time.monotonic() - 1)


def test_simple_search_long_sequence_among_short_ones():
    # One 1,200-element sequence (a 151-byte bitmap segment) among 60 short
    # ones, some of them empty, in both modes.  In itemset mode the oracle
    # also enumerates (abc), which no element of two labels holds.
    rng = random.Random(12)
    config = OracleConfig(max_db_size=61, max_seq_len=1200)
    for itemset_mode, labels in ((False, "abcd"), (True, "abc")):

        def element():
            return rng.sample(labels, rng.randint(1, 2)) if itemset_mode else rng.choice(labels)

        rows = [[element() for _ in range(rng.randint(0, 9))] for _ in range(60)]
        rows.insert(17, [element() for _ in range(1200)])
        db = SequenceDatabase.from_label_sequences(rows)
        for fmin, maxlen in ((1, 3), (2, 4), (6, 4)):
            got = mine(db, MiningParams(fmin=fmin, maxlen=maxlen))
            want = oracle_frequent(db, fmin, maxlen, itemset_mode=itemset_mode, config=config)
            assert result_key(got) == result_key(want)
            assert all(18 in e.support_ids for e in got)
