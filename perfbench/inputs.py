"""Seeded inputs for the benchmark workloads.

Every database starts from ``seqmine.datagen.generate`` with the run's seed
and no planted patterns, and every sequence is cut to ``SEQ_LEN`` elements.
Both choices keep the amount of work steady from seed to seed: with the
generator's defaults (planted patterns of random length, sequence lengths
drawn around the mean) the 5% frequent-pattern count ranges from 51k to 89k
over seeds 0-7, because it follows the longest planted patterns and the
longest sequences.  Noise-only sequences of one length keep it within a few
percent.
"""

from __future__ import annotations

import random
import re
from collections import Counter

from seqmine.datagen import GenParams, generate
from seqmine.seqdb import Sequence, SequenceDatabase

SEQ_LEN = 20
ORACLE_SEQ_LEN = 6


def base_db(seed: int, num_sequences: int) -> SequenceDatabase:
    """Noise-only database, every sequence exactly ``SEQ_LEN`` elements long
    (the generator draws lengths around 30, so nearly all reach it)."""
    db, _ = generate(
        GenParams(num_sequences=num_sequences, mean_seq_len=30, num_patterns=0, seed=seed)
    )
    return SequenceDatabase(
        db.alphabet, tuple(Sequence(s.sid, s.elements[:SEQ_LEN]) for s in db.sequences)
    )


def itemset_db(db: SequenceDatabase, seed: int) -> SequenceDatabase:
    """Merge each element into the previous one with probability 0.3 when
    their items differ, which yields multi-item elements."""
    rng = random.Random(f"itemset-{seed}")
    seqs = []
    for s in db.sequences:
        elems: list[tuple[int, ...]] = []
        for e in s.elements:
            if elems and rng.random() < 0.3 and not set(e) & set(elems[-1]):
                elems[-1] = tuple(sorted(elems[-1] + e))
            else:
                elems.append(e)
        seqs.append(Sequence(s.sid, tuple(elems)))
    return SequenceDatabase(db.alphabet, tuple(seqs))


def labels_by_frequency(db: SequenceDatabase) -> list[str]:
    """Item labels, most frequent first (ties by label)."""
    counts = Counter(i for s in db.sequences for i in s.items())
    order = sorted(counts, key=lambda i: (-counts[i], db.alphabet.label(i)))
    return [db.alphabet.label(i) for i in order]


def regex_expr(db: SequenceDatabase) -> str:
    """Patterns over the eight most frequent labels that end in one of the
    three most frequent; prefixes ending elsewhere are searched but not
    emitted, so the regex prunes and filters."""
    top = labels_by_frequency(db)[:8]
    return f"({'|'.join(top)})*({'|'.join(top[:3])})"


def regex_labels(expr: str) -> list[str]:
    """The labels a regex from ``regex_expr`` names."""
    return sorted(set(re.findall(r"[A-Za-z0-9_]+", expr)))


def cost_table(db: SequenceDatabase, seed: int) -> dict[str, int]:
    """Costs by frequency rank: 1 for the two most frequent labels, 2 for the
    next two, and so on up to 5.  The seed swaps the labels of each pair, so
    the table changes with the seed but the aggregate prunes about as much."""
    rng = random.Random(f"costs-{seed}")
    ranked = labels_by_frequency(db)
    for k in range(0, len(ranked) - 1, 2):
        if rng.random() < 0.5:
            ranked[k], ranked[k + 1] = ranked[k + 1], ranked[k]
    return {lab: min(5, 1 + r // 2) for r, lab in enumerate(ranked)}


def cost_text(table: dict[str, int]) -> str:
    return "".join(f"{lab}\t{cost}\n" for lab, cost in sorted(table.items()))


def oracle_subdb(db: SequenceDatabase, seed: int, keep: list[str]) -> SequenceDatabase:
    """A small database inside the oracle's guard rails: 30 sequences drawn
    by the seed, only the labels in ``keep``, at most ``ORACLE_SEQ_LEN``
    elements each."""
    rng = random.Random(f"oracle-{seed}")
    keep_ids = {db.alphabet.id_of(lab) for lab in keep}
    rows = []
    for s in rng.sample(db.sequences, 30):
        elems = [tuple(i for i in e if i in keep_ids) for e in s.elements]
        rows.append([[db.alphabet.label(i) for i in e] for e in elems if e][:ORACLE_SEQ_LEN])
    return SequenceDatabase.from_label_sequences(rows)
