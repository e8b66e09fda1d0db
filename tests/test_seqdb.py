"""Database model, SPMF text, ASP facts, and result record round trips."""

from __future__ import annotations

import copy
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqmine import (
    AggregateSpec,
    Alphabet,
    ConstraintSet,
    FormatError,
    MineStats,
    MiningParams,
    MiningResult,
    Pattern,
    RegexDfa,
    ResultEntry,
    Sequence,
    SequenceDatabase,
    constrained_embeddings,
    fill_gaps_frontier,
    insertable_regions,
    load_cost_text,
    load_database,
    mine,
    read_asp_facts,
    read_results,
    read_spmf,
    regex_compile,
    skip_gaps_embedding,
    write_asp_facts,
    write_results,
    write_spmf,
)
from seqmine.seqdb import FrozenError

from helpers import make_d7, pat


# ---------------------------------------------------------------------------
# Alphabet


def test_alphabet_id_label_inverse():
    al = Alphabet(["a", "b", "c"])
    assert len(al) == 3
    for i, lab in enumerate(["a", "b", "c"]):
        assert al.id_of(lab) == i
        assert al.label(i) == lab
    assert "b" in al and "z" not in al
    assert list(al) == [0, 1, 2]


def test_alphabet_requires_sorted_unique():
    with pytest.raises(ValueError):
        Alphabet(["b", "a"])
    with pytest.raises(ValueError):
        Alphabet(["a", "a"])
    # from_tokens normalizes both problems away.
    assert Alphabet.from_tokens(["b", "a", "a"]).labels == ("a", "b")


def test_alphabet_unknown_label():
    with pytest.raises(KeyError):
        Alphabet(["a"]).id_of("b")


# ---------------------------------------------------------------------------
# Sequence / Pattern validation


def test_sequence_rejects_bad_itemsets():
    with pytest.raises(ValueError):
        Sequence(1, ((),))
    with pytest.raises(ValueError):
        Sequence(1, ((1, 1),))
    with pytest.raises(ValueError):
        Sequence(1, ((2, 1),))
    with pytest.raises(ValueError, match=r"sequence 1 itemset \(-1,\) has invalid item ids"):
        Sequence(1, ((-1,),))
    with pytest.raises(ValueError, match=r"sequence 1 itemset \(1.0,\) has invalid item ids"):
        Sequence(1, ((0,), (1.0,)))
    with pytest.raises(ValueError, match=r"sequence 1 contains an empty itemset"):
        Sequence(1, ((0, 1), ()))


def test_pattern_rejects_bad_itemsets():
    with pytest.raises(ValueError):
        Pattern(((0,), ()))
    with pytest.raises(ValueError):
        Pattern(((3, 3),))
    with pytest.raises(ValueError, match=r"pattern itemset \(-2,\) has invalid item ids"):
        Pattern(((0,), (-2,)))
    with pytest.raises(ValueError, match=r"pattern itemset \('a',\) has invalid item ids"):
        Pattern((("a",),))
    # bool is an int subclass and has always been accepted.
    assert Pattern(((0,), (True,))).elements == ((0,), (1,))


def test_pattern_helpers():
    p = Pattern(((0,), (1, 2)))
    assert len(p) == 2
    assert list(p.items()) == [0, 1, 2]
    assert [len(e) for e in p.elements] == [1, 2]
    assert Pattern([[2], [0], [1]]).elements == ((2,), (0,), (1,))
    al = Alphabet(["a", "b", "c"])
    assert p.labels(al) == [["a"], ["b", "c"]]


def test_pattern_sort_key_orders_by_length_then_lex():
    ps = [
        Pattern(((1,), (0,))),
        Pattern(((2,),)),
        Pattern(((0,), (1,))),
        Pattern(((0, 1),)),
    ]
    ordered = sorted(ps, key=lambda p: p.sort_key())
    assert [p.elements for p in ordered] == [
        ((0, 1),),
        ((2,),),
        ((0,), (1,)),
        ((1,), (0,)),
    ]
    # Patterns define no < of their own: one comparing elements alone would
    # put <(2)> after <(0)(1)>, against the canonical order.
    with pytest.raises(TypeError):
        ps[1] < ps[2]


def test_result_objects_keep_slots_not_dicts(d7):
    # Every value class that ``seqmine mine`` imports, one instance each, with
    # its fields in order and a change for ``replace``.
    p = pat(d7, "a", "bc")
    seq, ab = d7.sequence(2), pat(d7, "a", "b")  # <d a b c>, <a b>
    stats = MineStats(5, 4, 3, 2)
    dfa = regex_compile("a b*", d7.alphabet)
    cs = ConstraintSet(must_have={0}, maxgap=2)
    cs_fields = (
        "must_have", "cannot_have", "super_patterns", "super_pattern_all", "aggregate", "regex",
        "mingap", "maxgap", "minspan", "maxspan",
    )
    cases = [
        (seq, ("sid", "elements"), {"elements": [[1]]}),
        (p, ("elements",), {"elements": [[0]]}),
        (Pattern._trusted(p.elements), ("elements",), {"elements": [[1]]}),
        (d7, ("alphabet", "sequences"), {"sequences": list(d7.sequences[:1])}),
        (ResultEntry.from_ids(p, (2,)), ("pattern", "sid_bits"), {"sid_bits": 0b11}),
        (mine(d7, MiningParams(fmin=6, maxlen=2)), ("entries",), {"entries": ()}),
        (MiningParams(0.5, 3), ("fmin", "maxlen", "minlen", "mode"), {"mode": "closed"}),
        (stats, ("nodes_expanded", "candidate_tests", "gated", "bounded"), {"gated": 7}),
        (AggregateSpec({0: 1}, "avg", "le", 3), ("costs", "op", "cmp", "threshold"), {"op": "sum"}),
        (cs, cs_fields, {"cannot_have": [1]}),
        (dfa, ("start", "transitions", "accepting", "live", "expr"), {"expr": "b"}),
        (constrained_embeddings(seq, ab, maxgap=1), ("pattern_len", "seq_len", "triples"), {"seq_len": 9}),
        (skip_gaps_embedding(seq, ab), ("pattern_len", "seq_len", "pairs"), {"seq_len": 9}),
        (fill_gaps_frontier(seq, ab), ("pattern_len", "seq_len", "firsts"), {"seq_len": 9}),
        (insertable_regions(seq, ab), ("bounds", "items"), {"bounds": ()}),
    ]
    for obj, names, change in cases:
        cls = type(obj)

        def fields_of(x):
            return tuple(getattr(x, name) for name in names)

        values = fields_of(obj)
        twin = cls(*values)
        changed = obj.replace(**change)
        # Slots, no __dict__, except where cached properties keep their values.
        assert hasattr(obj, "__dict__") == (cls is SequenceDatabase), cls
        # No assignment or deletion, of a field or of any other name (the
        # search's counters excepted, below).
        for name in (*names, "extra", "__dict__") if cls is not MineStats else ():
            with pytest.raises(FrozenError):
                setattr(obj, name, 1)
            with pytest.raises(FrozenError):
                delattr(obj, name)
        # == over the fields, only with the same class, and no order; hash
        # over them where every field hashes (not the dict of costs).
        if cls is not RegexDfa:
            assert twin == obj != changed and obj != values and not obj != twin, cls
        with pytest.raises(TypeError):
            obj < twin
        if cls not in (MineStats, AggregateSpec, RegexDfa):
            assert hash(twin) == hash(obj) == hash(values), cls
        # Pickling and copying build the object again from its fields.
        for again in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert type(again) is cls and fields_of(again) == values, cls
        # replace goes through __init__, so its conversions run; repr names the fields.
        assert fields_of(changed) == fields_of(cls(**{**dict(zip(names, values)), **change})) != values, cls
        assert fields_of(obj.replace()) == values, cls
        assert repr(obj) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
        with pytest.raises(TypeError):
            obj.replace(extra=1)
    # The exceptions: the search adds to MineStats, which therefore does not hash.
    stats.gated += 1
    del stats.bounded
    stats.bounded = 9
    assert stats == MineStats(5, 4, 4, 9)
    with pytest.raises(TypeError):
        hash(stats)
    # An automaton is equal only to itself, and hashes by identity.
    again = RegexDfa(*(getattr(dfa, n) for n in ("start", "transitions", "accepting", "live", "expr")))
    assert dfa == dfa != again and len({dfa, again}) == 2
    # ``_judges`` is derived from the fields, so it is neither compared,
    # hashed nor shown, and a rebuilt set derives it again.
    twin = cs.replace()
    object.__setattr__(twin, "_judges", False)
    assert cs._judges and twin == cs and hash(twin) == hash(cs) and "_judges" not in repr(cs)
    assert pickle.loads(pickle.dumps(cs))._judges and not ConstraintSet()._judges
    with pytest.raises(TypeError):
        cs.replace(_judges=False)
    assert pickle.loads(pickle.dumps(cases[4][0])).support_ids == (2,)


def test_result_entry_holds_its_sids_as_one_int(d7):
    e = ResultEntry.from_ids(pat(d7, "a"), (1, 2, 4, 5, 6, 7))
    assert e.sid_bits == 0b1111011 and e.support == 6
    assert e.support_ids == (1, 2, 4, 5, 6, 7)
    assert ResultEntry.from_ids(pat(d7, "a"), ()).support_ids == ()
    assert ResultEntry.from_ids(pat(d7, "a"), iter([9, 64, 65])).support_ids == (9, 64, 65)


def test_result_entry_support_is_its_supporters_count(d7):
    # An entry stores its supporters once, so its support cannot disagree
    # with them: a repeated sid counts once, and the record written for it
    # reads back.
    assert ResultEntry._fields == ("pattern", "sid_bits")
    e = ResultEntry.from_ids(pat(d7, "a"), (3, 3, 5))
    assert e.support == 2 and e.support_ids == (3, 5) and e.sid_bits == 0b10100
    result = MiningResult.build([e])
    assert read_results(write_results(result, d7), d7) == result


def test_empty_pattern_is_constructible():
    assert len(Pattern(())) == 0


# ---------------------------------------------------------------------------
# SequenceDatabase


def test_database_checks_sids_and_item_range():
    al = Alphabet(["a"])
    with pytest.raises(ValueError):
        SequenceDatabase(al, (Sequence(2, (((0,),))),))
    with pytest.raises(ValueError):
        SequenceDatabase(al, (Sequence(1, ((1,),)),))


def test_from_label_sequences_mixed_forms():
    db = SequenceDatabase.from_label_sequences([["a", ("c", "b")], [], ["b"]])
    assert db.alphabet.labels == ("a", "b", "c")
    assert db.sequence(1).elements == ((0,), (1, 2))
    assert db.sequence(2).elements == ()
    assert db.sequence(3).elements == ((1,),)
    assert not db.simple_mode


def test_d7_fixture_shape(d7):
    assert len(d7) == 7
    assert len(d7.alphabet) == 4
    assert d7.alphabet.labels == ("a", "b", "c", "d")
    assert sum(sum(len(e) for e in s.elements) for s in d7) == 20
    assert d7.simple_mode


# ---------------------------------------------------------------------------
# SPMF text


def test_read_spmf_terse_and_explicit_agree():
    terse = read_spmf("1 2 -1 3 -2\n")
    explicit = read_spmf("1 2 -1 3 -1 -2\n")
    assert terse == explicit
    assert terse.sequence(1).elements == ((0, 1), (2,))
    assert terse.alphabet.labels == ("1", "2", "3")


def test_read_spmf_blank_lines_and_empty_sequence():
    db = read_spmf("\n1 -1 -2\n\n-2\n")
    assert len(db) == 2
    assert db.sequence(2).elements == ()


def test_read_spmf_errors():
    for bad in [
        "1 x -1 -2\n",  # non-integer token
        "1 -3 -1 -2\n",  # negative item token
        "1 1 -1 -2\n",  # duplicate item in an itemset
        "1 -1 -1 -2\n",  # empty itemset
        "1 -1\n",  # missing -2
        "1 -1 -2 2\n",  # trailing token after the terminator
    ]:
        with pytest.raises(FormatError):
            read_spmf(bad)


def test_write_spmf_is_explicit_form():
    db = read_spmf("1 2 -2\n-2\n")
    assert write_spmf(db) == "1 2 -1 -2\n-2\n"


def test_load_database_d7(d7_path):
    db = load_database(str(d7_path))
    assert len(db) == 7
    assert db.alphabet.labels == ("1", "2", "3", "4")
    # Same structure as the in-memory fixture, only the labels differ.
    letters = make_d7()
    assert [s.elements for s in db] == [s.elements for s in letters]
    with pytest.raises(ValueError):
        load_database(str(d7_path), fmt="nope")


@st.composite
def int_label_dbs(draw):
    rows = draw(
        st.lists(
            st.lists(
                st.sets(st.integers(min_value=0, max_value=9), min_size=1, max_size=3),
                max_size=5,
            ),
            max_size=6,
        )
    )
    label_rows = [[tuple(str(i) for i in elem) for elem in row] for row in rows]
    return SequenceDatabase.from_label_sequences(label_rows)


@settings(max_examples=100, deadline=None)
@given(int_label_dbs())
def test_spmf_roundtrip(db):
    text = write_spmf(db)
    again = read_spmf(text)
    assert [s.elements for s in again] == [s.elements for s in db]
    assert [again.alphabet.label(i) for i in again.alphabet] == sorted(
        db.alphabet.labels
    ) or len(db.alphabet) == 0
    assert write_spmf(again) == text


# ---------------------------------------------------------------------------
# ASP facts


def test_write_asp_facts_simple():
    db = SequenceDatabase.from_label_sequences([["a", "c"]])
    assert write_asp_facts(db) == "seq(1,1,a).\nseq(1,2,c).\n"


def test_write_asp_facts_quotes_nonbare_labels():
    db = SequenceDatabase.from_label_sequences([["A-B", "ok"]])
    assert write_asp_facts(db) == 'seq(1,1,"A-B").\nseq(1,2,ok).\n'


def test_asp_facts_roundtrip_quoted_and_spaced():
    db = SequenceDatabase.from_label_sequences([["1", ("a", "b")], ["x y"]])
    text = write_asp_facts(db)
    again = read_asp_facts(text)
    assert [s.elements for s in again] == [s.elements for s in db]
    assert again.alphabet == db.alphabet
    # The reader tolerates facts jammed onto one line and % comments.
    one_line = "% header\n" + " ".join(text.split("\n"))
    assert read_asp_facts(one_line) == again


def test_read_asp_facts_renumbers_and_compacts():
    db = read_asp_facts("seq(9,4,b). seq(9,2,a). seq(3,1,a).")
    assert len(db) == 2
    assert db.sequence(1).elements == ((0,),)
    assert db.sequence(2).elements == ((0,), (1,))


def test_read_asp_facts_errors():
    with pytest.raises(FormatError):
        read_asp_facts("seq(1,1,a). garbage")
    with pytest.raises(FormatError):
        read_asp_facts("seq(1,1,a). seq(1,1,a).")
    # More digits than ``int`` converts once raised a bare ValueError.
    with pytest.raises(FormatError, match="number too long"):
        read_asp_facts("seq(" + "1" * 5_000 + ",1,a).")


def test_undecodable_input_is_a_format_error(d7, tmp_path):
    # Bytes that are not UTF-8 once escaped every reader as UnicodeDecodeError.
    cases = [
        (read_spmf, b"\xff -1 -2\n"),
        (read_asp_facts, b"seq(1,1,\xff)."),
        (lambda source: read_results(source, d7), b"\xff\n"),
        (load_cost_text, b"a\t\xff"),
    ]
    for read, data in cases:
        with pytest.raises(FormatError, match=f"not UTF-8: .* at byte {data.index(0xFF)}$"):
            read(data)
    # A file reports the offset in its bytes, a CRLF line end two of them.
    for fmt, data in (("spmf", b"1 -1 -2\r\n\xff -1 -2\n"), ("aspfacts", b"seq(1,1,\xff).")):
        path = tmp_path / f"bad.{fmt}"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=f"at byte {data.index(0xFF)}$"):
            load_database(str(path), fmt)


# ---------------------------------------------------------------------------
# Result records


def test_write_results_exact_line(d7):
    entry = ResultEntry.from_ids(pat(d7, "a", "c"), (1, 2, 4, 6, 7))
    text = write_results(MiningResult.build([entry]), d7)
    assert text == '{"pattern":[["a"],["c"]],"support":5,"support_ids":[1,2,4,6,7]}\n'


def test_results_roundtrip(d7):
    entries = [
        ResultEntry.from_ids(pat(d7, "a"), (1, 2, 4, 5, 6, 7)),
        ResultEntry.from_ids(pat(d7, "a", "bc"), (2,)),
    ]
    result = MiningResult.build(entries)
    again = read_results(write_results(result, d7), d7)
    assert again == result


def reference_write_results(result, db):
    """The record writer as one ``json.dumps`` per entry, the definition the
    table-driven ``write_results`` must match byte for byte."""
    lines = []
    for e in result.entries:
        record = {
            "pattern": e.pattern.labels(db.alphabet),
            "support": e.support,
            "support_ids": list(e.support_ids),
        }
        lines.append(json.dumps(record, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")


# Labels JSON must escape: quotes, backslashes, control characters, DEL,
# non-ASCII text in and beyond the BMP, and a lone surrogate.
TRICKY_LABELS = ['"', "\\", "a\"b", "\x00", "\n", "\x1f", "\x7f", "é", "日本", "\U0001f600", "\ud800"]


@st.composite
def results_over_labels(draw):
    labels = draw(
        st.lists(st.sampled_from(TRICKY_LABELS) | st.text(max_size=4), min_size=1, max_size=8, unique=True)
    )
    alphabet = Alphabet(sorted(labels))
    n_seqs = draw(st.integers(min_value=0, max_value=3))
    db = SequenceDatabase(alphabet, tuple(Sequence(sid, ((0,),)) for sid in range(1, n_seqs + 1)))
    itemset = st.sets(st.integers(min_value=0, max_value=len(alphabet) - 1), min_size=1, max_size=3)
    pattern = st.lists(itemset, min_size=1, max_size=4).map(
        lambda elements: Pattern(tuple(tuple(sorted(e)) for e in elements))
    )
    # The writer does not check support ids against the database, so most
    # sid ints drawn here set bits past len(db), some past 64 bits; the rest
    # are a result the database can have.
    sids = st.sets(st.integers(min_value=1, max_value=max(1, n_seqs)), max_size=n_seqs).map(sorted)
    valid = st.builds(ResultEntry.from_ids, pattern, sids)
    arbitrary = st.builds(ResultEntry, pattern, st.integers(min_value=0, max_value=2**80))
    entries = draw(st.lists(valid | arbitrary, max_size=8, unique_by=lambda e: e.pattern))
    return MiningResult.build(entries), db


def _fits(entry, db):
    return entry.sid_bits < 1 << len(db)


@settings(max_examples=300, deadline=None)
@given(results_over_labels())
def test_write_results_matches_per_record_json_dumps(case):
    result, db = case
    text = write_results(result, db)
    assert text == reference_write_results(result, db)
    assert text.isascii()
    if all(_fits(e, db) for e in result):
        assert read_results(text, db) == result
    else:
        with pytest.raises(FormatError):
            read_results(text, db)


@settings(max_examples=200, deadline=None)
@given(results_over_labels(), st.lists(st.integers(min_value=0, max_value=8), max_size=4))
def test_write_results_joins_over_any_split(case, cuts):
    result, db = case
    entries = result.entries
    bounds = [0, *sorted(cuts), len(entries)]
    blocks = [entries[a:b] for a, b in zip(bounds, bounds[1:])]
    whole = write_results(result, db)
    assert "".join(write_results(block, db) for block in blocks) == whole
    assert write_results(iter(entries), db) == whole == reference_write_results(result, db)


@st.composite
def sid_results(draw):
    """A result over a database of 0-70 one-element sequences, so every
    N mod 8 occurs, with sids drawn so that 1 and N appear often."""
    n = draw(st.integers(min_value=0, max_value=70))
    db = SequenceDatabase(Alphabet(["a", "b"]), tuple(Sequence(sid, ((0,),)) for sid in range(1, n + 1)))
    sid = st.sampled_from([1, n]) | st.integers(min_value=1, max_value=n) if n else st.nothing()
    ids = st.sets(sid, max_size=n)
    patterns = st.lists(st.lists(st.sampled_from([(0,), (1,), (0, 1)]), min_size=1, max_size=3), max_size=6)
    elements = draw(patterns.map(lambda ps: sorted({tuple(p) for p in ps})))
    entries = [ResultEntry.from_ids(Pattern(e), draw(ids)) for e in elements]
    return MiningResult.build(entries), db


@settings(max_examples=300, deadline=None)
@given(sid_results(), sid_results(), st.integers(min_value=0, max_value=6))
def test_sid_ints_round_trip(case, other, cut):
    result, db = case
    for e in result:
        assert list(e.support_ids) == sorted(set(e.support_ids))
        assert set(e.support_ids) <= set(range(1, len(db) + 1))
        assert e.support == len(e.support_ids) == e.sid_bits.bit_count()
        assert ResultEntry.from_ids(e.pattern, e.support_ids) == e
    text = write_results(result, db)
    assert text == reference_write_results(result, db)
    assert read_results(text, db) == result
    # Two databases of different sizes written in turn, a block at a time:
    # each keeps its own pieces, and its blocks join to its whole text.
    other_result, other_db = other
    other_text = write_results(other_result, other_db)
    for res, base, whole in ((result, db, text), (other_result, other_db, other_text)):
        entries = res.entries
        assert write_results(entries[:cut], base) + write_results(entries[cut:], base) == whole
        assert whole == reference_write_results(res, base)
        assert read_results(whole, base) == res


def test_write_results_empty_result_is_empty_text(d7):
    assert write_results(MiningResult.build([]), d7) == ""


def test_read_results_rejects_bad_records(d7):
    with pytest.raises(FormatError):
        read_results('{"support":1}\n', d7)
    with pytest.raises(FormatError):
        read_results('{"pattern":[["a"]],"support":"x","support_ids":[]}\n', d7)
    # Support ids must be distinct, ascending sids of the database, as many
    # as the support.
    for ids, support in (([0, 1], 2), ([-1], 1), ([1, 8], 2), ([2, 1], 2), ([1, 1], 2), ([1, 2], 3)):
        record = json.dumps({"pattern": [["a"]], "support": support, "support_ids": ids})
        with pytest.raises(FormatError, match="line 2"):
            read_results("\n" + record + "\n", d7)
    # Counts are JSON integers: no float, boolean or string stands in for one.
    for support, ids in (
        (1.9, [1]), (True, [1]), ("1", [1]), (1.0, [1]), (1, [1.5]), (1, [True]), (1, ["1"]), (1, [1.0]),
    ):
        record = json.dumps({"pattern": [["a"]], "support": support, "support_ids": ids})
        with pytest.raises(FormatError, match="integers"):
            read_results(record + "\n", d7)
    with pytest.raises(FormatError):
        read_results('{"pattern":[["a"]],"support":1,"support_ids":1}\n', d7)
    # A pattern is a non-empty list of non-empty lists of labels: no string
    # stands in for a list, and the miner never emits the empty pattern.
    for pattern in ("ab", ["ab"], [], [[]], [["a"], []], [["a", 1]], [[0]], {"a": 1}, None):
        record = json.dumps({"pattern": pattern, "support": 1, "support_ids": [1]})
        with pytest.raises(FormatError, match="line 1"):
            read_results(record + "\n", d7)
    # A pattern appears once; the duplicate is reported on its own line.
    record = '{"pattern":[["a"]],"support":2,"support_ids":[1,7]}\n'
    with pytest.raises(FormatError, match="line 3: duplicate of the pattern on line 1"):
        read_results(record + "\n" + record, d7)
    assert read_results('{"pattern":[["a"]],"support":2,"support_ids":[1,7]}\n', d7).entries[0].support_ids == (1, 7)


def test_mining_result_build_sorts_and_deduplicates(d7):
    a = ResultEntry.from_ids(pat(d7, "a"), (1, 2, 4, 5, 6, 7))
    ab = ResultEntry.from_ids(pat(d7, "a", "b"), (2, 4, 5, 6, 7))
    result = MiningResult.build([ab, a])
    assert [e.pattern for e in result.entries] == [a.pattern, ab.pattern]
    with pytest.raises(ValueError):
        MiningResult.build([a, a])


@settings(max_examples=300, deadline=None)
@given(sid_results(), st.data())
def test_mining_result_build_sorts_any_order_and_rejects_any_duplicate(case, data):
    # build keeps input that is already in canonical order (mine()'s) and
    # sorts any other; a pattern given twice raises whether or not the two
    # sit next to each other, in order or not, with equal sids or not.
    result, _ = case
    entries = list(result.entries)
    keys = [e.pattern.sort_key() for e in entries]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    shuffled = data.draw(st.permutations(entries))
    assert MiningResult.build(shuffled) == result == MiningResult.build(iter(entries))
    if not entries:
        return
    twin = data.draw(st.sampled_from(entries))
    twin = data.draw(st.sampled_from([twin, ResultEntry(twin.pattern, twin.sid_bits ^ 1)]))
    for base in (entries, shuffled):
        at = data.draw(st.integers(0, len(base)))
        with pytest.raises(ValueError, match="duplicate pattern"):
            MiningResult.build(base[:at] + [twin] + base[at:])


def test_loader_shares_one_tuple_per_one_item_element():
    db = read_spmf("1 -1 2 -1 1 2 -1 -2\n2 -1 1 -1 -2\n")
    (a, b, ab), (b2, a2) = (s.elements for s in db.sequences)
    assert (a, b, ab) == ((0,), (1,), (0, 1))
    assert a is a2 and b is b2
    rows = SequenceDatabase.from_label_sequences([["x", "y"], ["y", ["x"]]]).sequences
    assert rows[0].elements[0] is rows[1].elements[1] and rows[0].elements[1] is rows[1].elements[0]


def test_write_results_encodes_each_label_once_per_database(monkeypatch):
    # Blocks written one call at a time reuse the labels and element texts
    # kept with the database: json.dumps runs once per label written, and
    # never for a label no record holds.
    labels = ["a\"b", "back\\slash", "é", "日本", "unused"]
    db = SequenceDatabase.from_label_sequences([[labels[:2], labels[2]], [labels[3], labels[4]]])
    ids = [db.alphabet.id_of(label) for label in labels]
    elements = [(ids[0], ids[1]), (ids[2],), (ids[3],), (ids[0],)]
    result = MiningResult.build(
        ResultEntry.from_ids(Pattern((x, y)), (1,)) for x in elements for y in elements
    )
    expected = reference_write_results(result, db)
    calls = []
    real = json.dumps

    def counting(obj, *args, **kwargs):
        calls.append(obj)
        return real(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", counting)
    entries = result.entries
    text = "".join(write_results(entries[i : i + 3], db) for i in range(0, len(entries), 3))
    monkeypatch.undo()
    assert text == expected
    assert sorted(calls) == sorted(labels[:4])
