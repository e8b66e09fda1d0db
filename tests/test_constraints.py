"""Constraint sets, the regex automaton, and constrained mining."""

from __future__ import annotations

import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqmine import (
    AggregateSpec,
    Alphabet,
    ConstraintError,
    ConstraintSet,
    FormatError,
    MiningParams,
    Pattern,
    RegexError,
    constrained_embeddings,
    load_cost_text,
    mine,
    oracle_constrained,
    read_asp_facts,
    regex_compile,
    resolve_costs,
)
from seqmine.oracle import reference_regex_match

from helpers import entry_labels, pat, result_key

A, B, C, D = 0, 1, 2, 3


def elems(*groups):
    return tuple(tuple(g) for g in groups)


# ---------------------------------------------------------------------------
# ConstraintSet validation


def test_constraint_set_validation():
    with pytest.raises(ConstraintError):
        ConstraintSet(must_have={1}, cannot_have={1, 2})
    with pytest.raises(ConstraintError):
        ConstraintSet(mingap=-1)
    with pytest.raises(ConstraintError):
        ConstraintSet(maxgap=-1)
    with pytest.raises(ConstraintError):
        ConstraintSet(minspan=0)
    with pytest.raises(ConstraintError):
        ConstraintSet(maxspan=0)
    with pytest.raises(ConstraintError):
        ConstraintSet(mingap=3, maxgap=2)
    with pytest.raises(ConstraintError):
        ConstraintSet(minspan=4, maxspan=3)


def test_constraint_set_flags():
    assert ConstraintSet().is_neutral()


# ---------------------------------------------------------------------------
# The emission check, one family at a time


def test_accepts_item_rules():
    p = elems((0,), (2,))
    assert ConstraintSet().accepts(p)
    assert ConstraintSet(must_have={0, 2}).accepts(p)
    assert not ConstraintSet(must_have={1}).accepts(p)
    assert not ConstraintSet(cannot_have={2}).accepts(p)
    assert ConstraintSet(must_have={0}, cannot_have={1}).accepts(p)


def test_accepts_super_patterns():
    p = elems((0,), (1,), (2,))
    ac = Pattern(elems((0,), (2,)))
    ca = Pattern(elems((2,), (0,)))
    assert ConstraintSet(super_patterns=[ac]).accepts(p)
    assert not ConstraintSet(super_patterns=[ca]).accepts(p)
    assert ConstraintSet(super_patterns=[ac, ca]).accepts(p)
    assert not ConstraintSet(super_patterns=[ac, ca], super_pattern_all=True).accepts(p)
    # No super-patterns is no rule, whichever way it is combined.
    assert ConstraintSet(super_pattern_all=True).accepts(p)
    # Itemset containment: (0 1) holds (1), not the other way round.
    assert ConstraintSet(super_patterns=[Pattern(elems((1,)))]).accepts(elems((0, 1)))
    assert not ConstraintSet(super_patterns=[Pattern(elems((0, 1)))]).accepts(elems((0,), (1,)))


def test_accepts_ignores_search_time_rules(d7):
    # Regex and gap/span bounds are enforced while the search grows a
    # pattern; the emission check does not judge them again.
    p = elems((B,),)
    assert ConstraintSet(regex=regex_compile("a", d7.alphabet)).accepts(p)
    assert ConstraintSet(maxgap=0, maxspan=1).accepts(p)


def test_aggregate_spec_validation():
    with pytest.raises(ConstraintError):
        AggregateSpec({0: 1}, "median", "le", 3)
    with pytest.raises(ConstraintError):
        AggregateSpec({0: 1}, "sum", "!=", 3)
    spec = AggregateSpec({0: 1}, "sum", "le", 3)
    with pytest.raises(ConstraintError):
        spec.cost_of(9)
    with pytest.raises(ConstraintError):
        spec.value([])
    # Every comparison with NaN is false, so a NaN threshold would reject
    # every pattern; an infinite one keeps its meaning.
    for op in ("sum", "min", "max", "avg"):
        with pytest.raises(ConstraintError, match="NaN"):
            AggregateSpec({0: 1}, op, "ge", float("nan"))
    assert AggregateSpec({0: 1}, "sum", "le", float("inf")).accepts([0])
    assert not AggregateSpec({0: 1}, "sum", "ge", float("inf")).accepts([0])
    # A cost past the float range once made ``avg`` raise OverflowError when
    # it divided; the spec now refuses it, whoever builds it.
    for cost in (10**400, -(10**400)):
        with pytest.raises(ConstraintError, match="item id 1 is outside the float range"):
            AggregateSpec({0: 1, 1: cost}, "avg", "le", 1)
    assert AggregateSpec({0: int(sys.float_info.max)}, "avg", "le", float("inf")).accepts([0])


def test_aggregate_ops_and_comparators():
    costs = {0: 1, 1: 2, 2: 4}
    items = [0, 1, 1, 2]
    assert AggregateSpec(costs, "sum", "le", 9).accepts(items)
    assert not AggregateSpec(costs, "sum", "lt", 9).accepts(items)
    assert AggregateSpec(costs, "min", "eq", 1).accepts(items)
    assert AggregateSpec(costs, "max", "ge", 4).accepts(items)
    assert AggregateSpec(costs, "avg", "le", 2.25).accepts(items)
    # Counted with multiplicity across elements: 1 + 2 + 2 + 4.
    p = elems((0, 1), (1,), (2,))
    assert ConstraintSet(aggregate=AggregateSpec(costs, "sum", "eq", 9)).accepts(p)
    assert not ConstraintSet(aggregate=AggregateSpec(costs, "sum", "lt", 9)).accepts(p)


def test_aggregate_sum_pruning_predicates():
    nonneg = AggregateSpec({0: 1, 1: 0}, "sum", "le", 5)
    assert nonneg.prunes_as_sum()
    assert nonneg.sum_viable(5) and not nonneg.sum_viable(6)
    strict = AggregateSpec({0: 1}, "sum", "lt", 5)
    assert strict.prunes_as_sum()
    assert strict.sum_viable(4) and not strict.sum_viable(5)
    assert not AggregateSpec({0: -1}, "sum", "le", 5).prunes_as_sum()
    assert not AggregateSpec({0: 1}, "sum", "ge", 5).prunes_as_sum()
    assert not AggregateSpec({0: 1}, "max", "le", 5).prunes_as_sum()


# ---------------------------------------------------------------------------
# Regex compilation and checking


def regex_verdict(dfa, items):
    """(viable, accepted): whether some extension of the item sequence can
    still match, and whether it matches now."""
    state = dfa.run(items)
    if state is None:
        return False, False
    return state in dfa.live, state in dfa.accepting


def test_regex_accepts_and_viability(d7):
    dfa = regex_compile("a(b|c)*c", d7.alphabet)
    assert regex_verdict(dfa, [A, C]) == (True, True)
    assert regex_verdict(dfa, [A, B, C]) == (True, True)
    assert regex_verdict(dfa, [A]) == (True, False)
    assert regex_verdict(dfa, [B]) == (False, False)
    assert dfa.run([A, B, B, C, B, C]) in dfa.accepting
    assert dfa.run([A, B]) not in dfa.accepting


def test_regex_postfix_ops(d7):
    plus = regex_compile("a+", d7.alphabet)
    assert plus.run([]) not in plus.accepting
    assert plus.run([A]) in plus.accepting and plus.run([A, A, A]) in plus.accepting
    opt = regex_compile("a?", d7.alphabet)
    assert regex_verdict(opt, []) == (True, True)
    assert regex_verdict(regex_compile("a", d7.alphabet), []) == (True, False)
    assert opt.run([A]) in opt.accepting and opt.run([A, A]) not in opt.accepting


def test_regex_multichar_labels_and_maximal_munch():
    al = Alphabet(["ab", "b"])
    dfa = regex_compile("ab b", al)
    assert dfa.run([0, 1]) in dfa.accepting
    assert dfa.run([0, 0]) not in dfa.accepting
    with pytest.raises(RegexError):
        regex_compile("abb", al)  # lexes as one unknown label


def test_regex_errors(d7):
    for expr in ["", "a.", "(a", "a)", "a|", "*a", "z", "a||b", "()", "(a|)", "|a"]:
        with pytest.raises(RegexError):
            regex_compile(expr, d7.alphabet)
    # Stacked postfix operators are legal: a** is a*.
    star = regex_compile("a**", d7.alphabet)
    assert all(star.run([A] * n) in star.accepting for n in range(4))
    assert star.run([B]) is None


def test_regex_nesting_is_bounded(d7):
    # The parser recurses once per group; 10,000 groups once overflowed the stack.
    for depth in (101, 10_000):
        with pytest.raises(RegexError, match="nests more than 100 groups deep"):
            regex_compile("(" * depth + "a" + ")" * depth, d7.alphabet)
    deep = regex_compile("(" * 100 + "a|b" + ")" * 100, d7.alphabet)
    assert deep.run([A]) in deep.accepting and deep.run([B]) in deep.accepting
    # The bound counts open groups, not all of them.
    wide = regex_compile("(a)" * 500, d7.alphabet)
    assert wide.run([A] * 500) in wide.accepting


REGEX_LABELS = ("a", "bc", "x²", "é")  # sorted, as Alphabet requires


@st.composite
def regex_cases(draw, leaves=3, depth=3):
    """A random expression over REGEX_LABELS and its number of label
    occurrences, at most ``leaves``: labels, nested groups, concatenation,
    ``|`` and stacked postfix operators, with spare whitespace wherever the
    grammar allows it."""
    space = st.sampled_from(("", " ", " \t "))
    kinds = ["label"] + ["group"] * (depth > 0) + ["concat", "alt"] * (depth > 0 and leaves > 1)
    kind = draw(st.sampled_from(kinds))
    if kind == "label":
        text, count = draw(st.sampled_from(REGEX_LABELS)), 1
    elif kind == "group":
        inner, count = draw(regex_cases(leaves, depth - 1))
        text = f"({draw(space)}{inner}{draw(space)})"
    else:
        split = draw(st.integers(1, leaves - 1))
        left, i = draw(regex_cases(split, depth - 1))
        right, j = draw(regex_cases(leaves - split, depth - 1))
        # Labels side by side need a space between them: "abc" is one label.
        sep = f"{draw(space)}|{draw(space)}" if kind == "alt" else " " + draw(space)
        text, count = left + sep + right, i + j
    for op in draw(st.lists(st.sampled_from("*+?"), max_size=2)):
        text += draw(space) + op
    return text, count


@settings(max_examples=150, deadline=None)
@given(regex_cases())
def test_regex_dfa_matches_reference(case):
    """The accept and live verdicts on every word of up to 4 items, against
    the ``re``-based reference.  From a live state, acceptance is at most as
    many items away as the expression has label occurrences, so a word is
    live exactly when the reference accepts it followed by at most that many
    items."""
    expr, count = case
    al = Alphabet(REGEX_LABELS)
    dfa = regex_compile(expr, al)
    # A word with an item the expression never names cannot match it.
    named = [i for i, label in enumerate(al.labels) if label in expr]
    accepted = {
        w for n in range(5 + count) for w in product(named, repeat=n)
        if reference_regex_match(expr, al, [(i,) for i in w])
    }
    viable = {v[:n] for v in accepted for n in range(max(0, len(v) - count), len(v) + 1)}
    for n in range(5):
        for w in product(range(len(al.labels)), repeat=n):
            state = dfa.run(w)
            assert (state in dfa.accepting) == (w in accepted), (expr, w)
            assert (state in dfa.live) == (w in viable), (expr, w)


# ---------------------------------------------------------------------------
# Gap/span chained embeddings

ACBC = elems((A,), (C,), (B,), (C,))
DABC = elems((D,), (A,), (B,), (C,))
AC = elems((A,), (C,))


def test_constrained_embeddings_contiguous():
    emb = constrained_embeddings(ACBC, AC, maxgap=0)
    assert emb.triples == frozenset({(1, 1, 1), (2, 2, 1)})
    assert emb.supports
    assert not constrained_embeddings(DABC, AC, maxgap=0).supports


def test_constrained_embeddings_span_bounds():
    abc = elems((A,), (B,), (C,))
    assert not constrained_embeddings(abc, AC, maxspan=2).supports
    assert constrained_embeddings(abc, AC, maxspan=3).supports
    assert constrained_embeddings(abc, AC, minspan=3).supports
    assert not constrained_embeddings(abc, AC, minspan=4).supports


def test_constrained_embeddings_mingap():
    abc = elems((A,), (B,), (C,))
    assert constrained_embeddings(abc, AC, mingap=1).supports
    assert not constrained_embeddings(elems((A,), (C,)), AC, mingap=1).supports


def test_constrained_embeddings_empty_pattern():
    assert constrained_embeddings(ACBC, ()).supports


def test_constrained_embeddings_rejects_bad_bounds():
    for bad in [
        dict(mingap=2, maxgap=1),
        dict(minspan=4, maxspan=3),
        dict(mingap=-1),
        dict(maxgap=-1),
        dict(minspan=0),
        dict(maxspan=0),
    ]:
        with pytest.raises(ConstraintError):
            constrained_embeddings(ACBC, AC, **bad)


def _chains(emb, level: int) -> set[tuple[int, int]]:
    """The (position, first position) of the chains at one pattern level."""
    return {(j, f) for i, j, f in emb.triples if i == level}


def test_constrained_embeddings_chain_step():
    # Every position of a sequence holding each element starts a chain.
    assert _chains(constrained_embeddings(elems(*[(A,)] * 3), elems((A,))), 1) == {(1, 1), (2, 2), (3, 3)}
    # From a chain ending at last that began at first, on 6 positions: the
    # gap bounds admit last+2..last+3, the span bounds first+2..first+4.
    cs = dict(mingap=1, maxgap=2, minspan=3, maxspan=5)
    emb = constrained_embeddings(elems(*[(A,)] * 6), elems(*[(A,)] * 3), **cs)
    assert _chains(emb, 2) == {(3, 1), (4, 1), (4, 2), (5, 2), (5, 3), (6, 3), (6, 4)}
    # From (3, 1) the maxspan leaves 5 of the gap's 5..6, and from (4, 1)
    # nothing; from (4, 2) it leaves 6.
    assert _chains(emb, 3) == {(5, 1), (6, 2)}
    # Chains that began at different positions may reach one position.
    emb = constrained_embeddings(elems(*[(A,)] * 4), elems(*[(A,)] * 2), maxgap=1)
    assert _chains(emb, 2) == {(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)}
    # A span bound can leave no next position.
    emb = constrained_embeddings(elems(*[(A,)] * 4), elems(*[(A,)] * 3), maxspan=2)
    assert _chains(emb, 2) == {(2, 1), (3, 2), (4, 3)}
    assert _chains(emb, 3) == set() and not emb.supports
    # The span bounds as offsets j - first, which the span state's segments
    # read too.
    assert ConstraintSet(**cs).span_window() == (2, 4)
    assert ConstraintSet(maxgap=1).span_window() == (0, None)


def test_gap_window_is_the_gap_rule():
    # Distances j - last from a match at last to the next match at j.
    assert ConstraintSet().gap_window() == (1, None)
    assert ConstraintSet(maxgap=0).gap_window() == (1, 1)
    assert ConstraintSet(mingap=2).gap_window() == (3, None)
    assert ConstraintSet(mingap=1, maxgap=3, maxspan=9).gap_window() == (2, 4)
    # The chain step admits exactly that window when no span bound narrows it.
    emb = constrained_embeddings(elems(*[(A,)] * 9), elems((A,), (A,)), mingap=1, maxgap=3)
    assert sorted(j for j, f in _chains(emb, 2) if f == 2) == [2 + d for d in range(2, 5)]


# ---------------------------------------------------------------------------
# Cost tables


def test_load_cost_text():
    table = load_cost_text("a\t1\n\nb\t-2\n")
    assert table == {"a": 1, "b": -2}
    # A cost past the float range once made ``avg`` raise OverflowError.
    for bad in ["a 1\n", "a\t1\na\t2\n", "a\tx\n", "\t3\n", "a\t-" + "9" * 400]:
        with pytest.raises(FormatError, match="cost file line"):
            load_cost_text(bad)
    with pytest.raises(FormatError, match="^cost file: not UTF-8: invalid start byte at byte 2$"):
        load_cost_text(b"a\t\xff\n")


def test_resolve_costs(d7):
    table = {"a": 1, "z": 9}
    assert resolve_costs(table, d7.alphabet) == {A: 1}


# ---------------------------------------------------------------------------
# Constrained mining end to end


def test_mine_with_must_and_cannot_have(d7):
    cs = ConstraintSet(must_have={C}, cannot_have={B})
    result = mine(d7, MiningParams(fmin=3, maxlen=4), cs)
    assert set(entry_labels(d7, result)) == {("c", 5), ("ac", 5)}


def test_mine_with_length_window(d7):
    result = mine(d7, MiningParams(fmin=3, maxlen=2, minlen=2))
    assert set(entry_labels(d7, result)) == {("ab", 5), ("ac", 5), ("bc", 4)}


def test_mine_with_contiguity(d7):
    cs = ConstraintSet(maxgap=0)
    result = mine(d7, MiningParams(fmin=3, maxlen=4), cs)
    by_pattern = {e.pattern: e for e in result}
    entry = by_pattern[pat(d7, "a", "b", "c")]
    assert entry.support == 3
    assert entry.support_ids == (2, 4, 7)


def test_mine_with_aggregate(d7):
    spec = AggregateSpec({A: 1, B: 2, C: 3, D: 10}, "sum", "le", 3)
    result = mine(d7, MiningParams(fmin=3, maxlen=4), ConstraintSet(aggregate=spec))
    assert set(entry_labels(d7, result)) == {("a", 6), ("b", 6), ("c", 5), ("ab", 5)}


def test_mine_with_superpatterns(d7):
    any_of = ConstraintSet(super_patterns=(pat(d7, "a", "c"), pat(d7, "b", "c")))
    result = mine(d7, MiningParams(fmin=3, maxlen=4), any_of)
    assert set(entry_labels(d7, result)) == {("ac", 5), ("bc", 4), ("abc", 4)}
    all_of = ConstraintSet(
        super_patterns=(pat(d7, "a", "c"), pat(d7, "b", "c")), super_pattern_all=True
    )
    result = mine(d7, MiningParams(fmin=3, maxlen=4), all_of)
    assert set(entry_labels(d7, result)) == {("abc", 4)}


def test_mine_with_regex(d7):
    cs = ConstraintSet(regex=regex_compile("a(b|c)*c", d7.alphabet))
    result = mine(d7, MiningParams(fmin=3, maxlen=4), cs)
    assert set(entry_labels(d7, result)) == {("ac", 5), ("abc", 4)}


def test_mine_regex_on_non_ascii_labels_matches_oracle():
    """A label of any str.isalnum() characters can be named in a regex, by
    the engine and by the reference alike."""
    db = read_asp_facts(
        'seq(1,1,a). seq(1,2,"é"). seq(1,3,"x²").\n'
        'seq(2,1,"é"). seq(2,2,a). seq(2,3,"x²"). seq(2,4,"é").\n'
        'seq(3,1,a). seq(3,2,"x²"). seq(3,3,"é").\n'
    )
    assert db.alphabet.labels == ("a", "x²", "é")
    for expr in ["a é", "a? (é|x²)+", "(x² | a)* é"]:
        cs = ConstraintSet(regex=regex_compile(expr, db.alphabet))
        got = mine(db, MiningParams(fmin=2, maxlen=3), cs)
        assert len(got) > 0
        assert result_key(got) == result_key(oracle_constrained(db, 2, 3, cs))


def test_mine_regex_on_itemset_data_is_rejected(d7):
    from seqmine import SequenceDatabase

    # The database decides: a regex runs on one-item elements, unasked...
    cs = ConstraintSet(regex=regex_compile("a", d7.alphabet))
    got = mine(d7, MiningParams(fmin=1, maxlen=2), cs)
    assert len(got) > 0 and result_key(got) == result_key(oracle_constrained(d7, 1, 2, cs))
    # ...and is refused on multi-item ones.
    db = SequenceDatabase.from_label_sequences([[("a", "b"), "c"]])
    cs = ConstraintSet(regex=regex_compile("a", db.alphabet))
    with pytest.raises(ConstraintError, match="simple mode"):
        mine(db, MiningParams(fmin=1, maxlen=2), cs)


def test_mine_combined_constraints(d7):
    cs = ConstraintSet(must_have={B}, maxgap=1, maxspan=3)
    result = mine(d7, MiningParams(fmin=3, maxlen=4), cs)
    labels = dict(entry_labels(d7, result))
    assert "b" in labels and "a" not in labels
    for joined in labels:
        assert "b" in joined
