"""Acceptance checks, one test per criterion.

``pytest -v tests/test_acceptance.py`` gives one pass/fail line per
criterion; each test additionally prints ``criterion N: PASS`` (or FAIL)
so logs can be scraped.  Budgets asserted inside the tests: criterion 1
under 1 second, criterion 3 under 5 minutes, criterion 8 under 60 seconds
and 1 GB peak RSS.
"""

from __future__ import annotations

import random
import resource
import time
from contextlib import contextmanager

from seqmine import (
    AggregateSpec,
    ConstraintSet,
    MiningParams,
    Pattern,
    SequenceDatabase,
    fill_gaps_frontier,
    generate,
    insertable_regions,
    is_subsequence,
    mine,
    oracle_condensed,
    oracle_constrained,
    oracle_embeddings,
    oracle_frequent,
    regex_compile,
    skip_gaps_embedding,
    support,
)
from seqmine.datagen import GenParams
from seqmine.oracle import naive_contains

from helpers import (
    db_maxlen,
    entry_labels,
    pat,
    pattern_set,
    random_itemset_db,
    result_key,
)


@contextmanager
def verdict(n: int):
    try:
        yield
    except BaseException:
        print(f"criterion {n}: FAIL")
        raise
    print(f"criterion {n}: PASS")


def filtered_key(result, fmin: int) -> list[tuple]:
    return [
        (e.pattern.elements, e.support, e.support_ids)
        for e in result
        if e.support >= fmin
    ]


# ---------------------------------------------------------------------------


def test_criterion_1(d7):
    """Exact frequent output on the seven-sequence fixture, quickly."""
    with verdict(1):
        start = time.monotonic()
        expected = {
            ("a", 6),
            ("b", 6),
            ("c", 5),
            ("ab", 5),
            ("ac", 5),
            ("bc", 4),
            ("abc", 4),
        }
        result = mine(d7, MiningParams(fmin=3, maxlen=4))
        assert set(entry_labels(d7, result)) == expected
        assert time.monotonic() - start < 1.0


def test_criterion_2(d7):
    """Condensed variants on the fixture, including the backward kinds."""
    with verdict(2):
        expected = {
            "closed": {"a", "b", "ab", "ac", "abc"},
            "maximal": {"abc"},
            "backward-maximal": {"c", "bc", "ac", "abc"},
        }
        reference = oracle_condensed(oracle_frequent(d7, 3, 4), "backward-closed")
        for kind, labels in expected.items():
            got = mine(d7, MiningParams(fmin=3, maxlen=4, mode=kind))
            assert {l for l, _ in entry_labels(d7, got)} == labels, kind
        got = mine(d7, MiningParams(fmin=3, maxlen=4, mode="backward-closed"))
        assert result_key(got) == result_key(reference)


def test_criterion_3():
    """Differential sweep: engine equals the brute-force reference on 200
    random databases at every threshold, plus an itemset-mode batch."""
    with verdict(3):
        start = time.monotonic()
        rng = random.Random(1001)
        for case in range(200):
            n_seqs = rng.randint(1, 40)
            n_items = rng.randint(1, 8)
            cap = min(12, max(3, 44 // max(4, n_seqs)))
            if n_items <= 2:
                cap = min(cap, 9)
            labels = [chr(ord("a") + i) for i in range(n_items)]
            rows = [
                [rng.choice(labels) for _ in range(rng.randint(0, cap))]
                for _ in range(n_seqs)
            ]
            db = SequenceDatabase.from_label_sequences(rows)
            maxlen = db_maxlen(db)
            base = oracle_frequent(db, 1, maxlen)
            for fmin in range(1, n_seqs + 1):
                want = filtered_key(base, fmin)
                got = mine(db, MiningParams(fmin=fmin, maxlen=maxlen))
                assert result_key(got) == want, (case, fmin)
        for case in range(40):
            db = random_itemset_db(rng)
            maxlen = db_maxlen(db, cap=4)
            base = oracle_frequent(db, 1, maxlen, itemset_mode=True)
            for fmin in (1, 2, 3):
                want = filtered_key(base, fmin)
                got = mine(db, MiningParams(fmin=fmin, maxlen=maxlen))
                assert result_key(got) == want, ("itemset", case, fmin)
        assert time.monotonic() - start < 300.0


def _random_regex(rng, labels) -> str:
    def piece() -> str:
        p = rng.choice(labels)
        if rng.random() < 0.5:
            p = "(" + p + "|" + rng.choice(labels) + ")"
        if rng.random() < 0.5:
            p += rng.choice("*+?")
        return p

    return " ".join(piece() for _ in range(rng.randint(1, 3)))


def _random_constraint_case(rng, db, allow_regex: bool):
    ids = list(range(len(db.alphabet)))
    labels = list(db.alphabet.labels)
    families = ["item", "length", "super", "aggregate", "span", "gap"]
    if allow_regex:
        families.append("regex")
    picks = set(rng.sample(families, rng.randint(1, 3)))
    kw = {}
    if "item" in picks:
        if rng.random() < 0.8:
            kw["must_have"] = frozenset(rng.sample(ids, rng.randint(1, min(2, len(ids)))))
        if rng.random() < 0.6:
            kw["cannot_have"] = frozenset(rng.sample(ids, 1)) - kw.get(
                "must_have", frozenset()
            )
    if "super" in picks:
        sp = Pattern(tuple((rng.choice(ids),) for _ in range(rng.randint(1, 2))))
        kw["super_patterns"] = (sp,)
        kw["super_pattern_all"] = rng.random() < 0.5
    if "aggregate" in picks:
        kw["aggregate"] = AggregateSpec(
            costs={i: rng.randint(0, 5) for i in ids},
            op=rng.choice(["sum", "min", "max", "avg"]),
            cmp=rng.choice(["le", "lt", "ge", "gt"]),
            threshold=rng.randint(1, 9),
        )
    if "regex" in picks:
        kw["regex"] = regex_compile(_random_regex(rng, labels), db.alphabet)
    if "span" in picks:
        if rng.random() < 0.5:
            kw["minspan"] = rng.randint(1, 3)
        if rng.random() < 0.7:
            kw["maxspan"] = rng.randint(kw.get("minspan") or 1, 5)
    if "gap" in picks:
        if rng.random() < 0.5:
            kw["mingap"] = rng.randint(0, 2)
        if rng.random() < 0.7:
            kw["maxgap"] = rng.randint(kw.get("mingap") or 0, 3)
    minlen = rng.randint(1, 3) if "length" in picks else 1
    return ConstraintSet(**kw), minlen, picks


def test_criterion_4(d7):
    """Constrained mining equals the enumerate-then-filter reference across
    all seven constraint families, plus three worked fixture cases."""
    with verdict(4):
        result = mine(d7, MiningParams(fmin=3, maxlen=4), ConstraintSet(must_have={2}, cannot_have={1}))
        assert set(entry_labels(d7, result)) == {("c", 5), ("ac", 5)}
        result = mine(d7, MiningParams(fmin=3, maxlen=2, minlen=2))
        assert set(entry_labels(d7, result)) == {("ab", 5), ("ac", 5), ("bc", 4)}
        result = mine(d7, MiningParams(fmin=3, maxlen=4), ConstraintSet(maxgap=0))
        entry = next(e for e in result if e.pattern == pat(d7, "a", "b", "c"))
        assert entry.support == 3 and entry.support_ids == (2, 4, 7)

        rng = random.Random(4004)
        covered: set[str] = set()
        cases = 0
        regex_cases = 0
        while cases < 130 or regex_cases < 30 or len(covered) < 7:
            itemset = rng.random() < 0.35
            max_len = 5 if itemset else 7
            labels = [chr(ord("a") + i) for i in range(rng.randint(1, 4))]
            rows = []
            for _ in range(rng.randint(1, 8)):
                row = []
                for _ in range(rng.randint(0, max_len)):
                    if itemset:
                        row.append(rng.sample(labels, rng.randint(1, min(2, len(labels)))))
                    else:
                        row.append(rng.choice(labels))
                rows.append(row)
            db = SequenceDatabase.from_label_sequences(rows)
            if len(db.alphabet) == 0:
                continue
            force_regex = not itemset and regex_cases < 30 and rng.random() < 0.5
            try:
                cs, minlen, picks = _random_constraint_case(rng, db, allow_regex=not itemset)
                if force_regex and "regex" not in picks:
                    cs = ConstraintSet(regex=regex_compile(_random_regex(rng, list(db.alphabet.labels)), db.alphabet))
                    minlen, picks = 1, {"regex"}
            except ValueError:
                continue
            maxlen = db_maxlen(db)
            if minlen > maxlen:
                continue
            fmin = rng.randint(1, 3)
            want = oracle_constrained(db, fmin, maxlen, cs, minlen=minlen, itemset_mode=itemset)
            got = mine(db, MiningParams(fmin=fmin, maxlen=maxlen, minlen=minlen), cs)
            assert result_key(got) == result_key(want), (cases, picks)
            cases += 1
            covered.update(picks)
            if minlen > 1:
                covered.add("length")
            if "regex" in picks:
                regex_cases += 1
        assert covered == {"item", "length", "super", "aggregate", "regex", "span", "gap"}


def test_criterion_5():
    """Embedding representations exactly characterized by the exhaustive
    reference on ten thousand random sequence/pattern pairs, and insertable
    regions advertise exactly the single-item insertions that keep the
    supporter."""
    with verdict(5):
        rng = random.Random(5005)
        done = 0
        while done < 10_000:
            n = rng.randint(0, 10)
            items = list(range(rng.randint(1, 4)))
            itemset = rng.random() < 0.3

            def elem():
                if itemset:
                    return tuple(sorted(rng.sample(items, rng.randint(1, min(2, len(items))))))
                return (rng.choice(items),)

            s = tuple(elem() for _ in range(n))
            p = tuple(elem() for _ in range(rng.randint(0, 4)))

            expect_pairs = set()
            firsts = []
            for i in range(1, len(p) + 1):
                ends = sorted({m[-1] for m in oracle_embeddings(s, p[:i])})
                expect_pairs.update((i, j) for j in ends)
                if ends and len(firsts) == i - 1:
                    firsts.append(ends[0])
            assert skip_gaps_embedding(s, p).pairs == expect_pairs
            fill = fill_gaps_frontier(s, p)
            assert fill.firsts == tuple(firsts)
            assert fill.pairs() == {
                (i, j) for i, first in enumerate(firsts, start=1) for j in range(first, n + 1)
            }

            if p and naive_contains(p, s):
                regions = insertable_regions(s, p)
                for slot in range(len(p) + 1):
                    for a in items:
                        grown = p[:slot] + ((a,),) + p[slot:]
                        assert (a in regions.items[slot]) == naive_contains(grown, s)
            done += 1


def test_criterion_6():
    """Structural laws on random data: support anti-monotonicity over ten
    thousand pattern pairs, closure recovery, and maximal within closed."""
    with verdict(6):
        rng = random.Random(6006)
        pair_checks = 0
        while pair_checks < 10_000:
            labels = [chr(ord("a") + i) for i in range(rng.randint(1, 4))]
            rows = [
                [rng.choice(labels) for _ in range(rng.randint(0, 7))]
                for _ in range(rng.randint(1, 8))
            ]
            db = SequenceDatabase.from_label_sequences(rows)
            # closure recovery needs maxlen past the longest sequence, else the
            # closing super-pattern may fall outside the mined set
            maxlen = db_maxlen(db, cap=7)
            frequent = mine(db, MiningParams(fmin=1, maxlen=maxlen))
            for e in frequent:
                if len(e.pattern) < 2:
                    continue
                drop = rng.randrange(len(e.pattern))
                sub = Pattern(e.pattern.elements[:drop] + e.pattern.elements[drop + 1 :])
                assert is_subsequence(sub, e.pattern)
                assert support(db, sub)[0] >= e.support
                pair_checks += 1

            closed = mine(db, MiningParams(fmin=2, maxlen=maxlen, mode="closed"))
            maximal = mine(db, MiningParams(fmin=2, maxlen=maxlen, mode="maximal"))
            assert pattern_set(maximal) <= pattern_set(closed)
            for e in frequent:
                if e.support < 2:
                    continue
                assert any(
                    ce.support == e.support and is_subsequence(e.pattern, ce.pattern)
                    for ce in closed
                ), e.pattern


def test_criterion_7():
    """Default generator run: shape and planted coverage promises hold."""
    with verdict(7):
        db, manifest = generate(GenParams())
        assert len(db) == 500
        mean_len = sum(len(s) for s in db.sequences) / len(db)
        assert 18.0 <= mean_len <= 22.0
        assert len(manifest.planted) == 20
        for planted in manifest.planted:
            pattern = Pattern(tuple((db.alphabet.id_of(lab),) for lab in planted.labels))
            count, ids = support(db, pattern)
            assert count >= 50
            assert set(planted.sids) <= set(ids)


def test_criterion_8():
    """The default synthetic dataset at a 10 percent threshold is mined
    within the time and memory budget."""
    with verdict(8):
        db, _ = generate(GenParams())
        start = time.monotonic()
        result = mine(db, MiningParams(fmin=0.10, maxlen=20))
        wall = time.monotonic() - start
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert wall < 60.0, wall
        assert peak_kb < 1024 * 1024, peak_kb
        assert len(result) > 0
