"""Output checks that do not trust the engine.

``check_output`` inspects one job's result records against the database
the job read:

* every record is well formed, and the records are in canonical order with
  no pattern twice;
* a seeded sample is re-counted with ``seqmine.relations.support``
  (``seqmine.constraints.constrained_embeddings`` under a gap bound);
* for unconstrained frequent jobs, every one-item deletion of a sampled
  record is a record held by all of its supporters (downward closure);
* the whole output equals the one an independent miner expects: a
  depth-first search over vertical bitmaps (one Python int per item, one bit
  per sequence position, after SPAM, Ayres et al., KDD 2002), then the
  job's regex (through Python's ``re``), cost bound or condensed filter;
* for seeds listed in ``pinned.json``: record count and SHA-256.

``oracle_check`` runs the same flags over a small seeded sub-database and
compares with ``seqmine.oracle``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from seqmine import cli
from seqmine.constraints import AggregateSpec, ConstraintSet, constrained_embeddings, regex_compile, resolve_costs
from seqmine.oracle import oracle_condensed, oracle_constrained, oracle_frequent, reference_regex_match
from seqmine.relations import support
from seqmine.seqdb import Pattern, SequenceDatabase, write_results, write_spmf

import inputs
from workloads import AGG_THRESHOLD, Inputs, Job

SAMPLE_CHECKS = 25_000  # sequences scanned to re-count the sample
MIN_SAMPLE = 5

Elements = tuple[tuple[int, ...], ...]


class Bitmaps:
    """Vertical bitmaps of a database.

    Sequence ``i`` owns bits ``i*width`` to ``i*width + width - 1``; bit
    ``i*width + p`` stands for its element ``p`` (0-based) and the top bit of
    the segment is a guard that stays clear in item bitmaps.  ``slack`` keeps
    free bits above the longest sequence, so shifts stay inside a segment.
    """

    def __init__(self, db: SequenceDatabase, slack: int = 0):
        self.n = len(db)
        self.width = w = max((len(s) for s in db.sequences), default=0) + slack + 1
        positions: dict[int, list[int]] = {}
        for i, s in enumerate(db.sequences):
            for p, e in enumerate(s.elements):
                for x in e:
                    positions.setdefault(x, []).append(i * w + p)
        self.items = {x: self._build(bits) for x, bits in positions.items()}
        self.guard = self._build(i * w + w - 1 for i in range(self.n))
        self.low = self._build(i * w for i in range(self.n))
        self.mask = ((1 << (self.n * w)) - 1) ^ self.guard

    def _build(self, bits) -> int:
        buf = bytearray((self.n * self.width + 7) // 8)
        for b in bits:
            buf[b >> 3] |= 1 << (b & 7)
        return int.from_bytes(buf, "little")

    def holders(self, b: int) -> int:
        """Guard bits of the sequences with any bit set in ``b``."""
        return (b + self.mask) & self.guard

    def ids_mask(self, sids) -> int:
        return self._build((sid - 1) * self.width + self.width - 1 for sid in sids)

    def after(self, b: int, maxgap: int | None) -> int:
        """Positions a next element may take: any after the first set bit of
        each segment, or within ``maxgap + 1`` of some set bit."""
        if maxgap is None:
            v = b | self.guard
            return ~(v ^ (v - self.low)) & self.mask
        out = 0
        for k in range(1, maxgap + 2):
            out |= b << k
        return out & self.mask


def frequent_bitmaps(bm: Bitmaps, fmin: int, maxlen: int, items: list[int], itemset: bool,
                     maxgap: int | None = None, viable=None) -> dict[Elements, int]:
    """Every pattern over ``items`` held by ``fmin`` sequences, up to ``maxlen``
    elements, mapped to its holders' guard bits.  A pattern's bitmap marks
    where an embedding of it can end; ``viable(elements)`` false prunes a
    pattern and everything that extends it."""
    out: dict[Elements, int] = {}
    stack: list[tuple[Elements, int]] = []

    def consider(elements: Elements, b: int) -> None:
        g = bm.holders(b)
        if g.bit_count() >= fmin and (viable is None or viable(elements)):
            out[elements] = g
            stack.append((elements, b))

    for x in items:
        consider(((x,),), bm.items[x])
    while stack:
        elements, b = stack.pop()
        if len(elements) < maxlen:
            nxt = bm.after(b, maxgap)
            for x in items:
                consider(elements + ((x,),), nxt & bm.items[x])
        if itemset:
            last = elements[-1]
            for x in items:
                if x > last[-1]:
                    consider(elements[:-1] + (last + (x,),), b & bm.items[x])
    return out


def expected_output(job: Job, inp: Inputs) -> tuple[Bitmaps, dict[Elements, int]]:
    """The records the job should print: pattern -> holders' guard bits."""
    db = inp.dbs[job.db]
    fmin = job.fmin(len(db))
    bm = Bitmaps(db, slack=0 if job.maxgap is None else job.maxgap + 1)
    items = sorted(bm.items)
    if job.regex_agg:
        # Accepted patterns and all their prefixes use only the regex's labels,
        # and the cost sum only grows, so both prune without loss.
        named = {db.alphabet.id_of(lab) for lab in inputs.regex_labels(inp.regex)}
        cost = {x: inp.costs[db.alphabet.label(x)] for x in items}
        found = frequent_bitmaps(
            bm, fmin, job.maxlen, [x for x in items if x in named], False,
            viable=lambda el: sum(cost[e[0]] for e in el) <= AGG_THRESHOLD,
        )
        return bm, {p: g for p, g in found.items() if reference_regex_match(inp.regex, db.alphabet, p)}
    if job.mode == "frequent":
        return bm, frequent_bitmaps(bm, fmin, job.maxlen, items, job.itemset, job.maxgap)
    # Condensed modes (simple patterns): judge each pattern by its one-item
    # insertions, which may be one element past maxlen.
    found = frequent_bitmaps(bm, fmin, job.maxlen + 1, items, False)
    closed = job.mode.endswith("closed")
    kept = {}
    for p, g in found.items():
        if len(p) > job.maxlen:
            continue
        slots = [len(p)] if job.mode.startswith("backward") else range(len(p) + 1)
        supp = g.bit_count()
        dominated = any(
            (q := p[:i] + ((x,),) + p[i:]) in found and (not closed or found[q].bit_count() == supp)
            for i in slots for x in items
        )
        if not dominated:
            kept[p] = g
    return bm, kept


def output_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _parse(text: str, db: SequenceDatabase, problems: list[str]) -> list[tuple[Elements, int, tuple[int, ...]]]:
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            rec = json.loads(line)
            elements = tuple(tuple(db.alphabet.id_of(lab) for lab in e) for e in rec["pattern"])
            records.append((elements, int(rec["support"]), tuple(int(s) for s in rec["support_ids"])))
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"line {lineno}: unreadable record ({exc})")
            return []
    return records


def _deletions(elements: Elements):
    """Every pattern obtained by deleting one item (dropping emptied elements)."""
    for i, e in enumerate(elements):
        for item in e:
            rest = tuple(x for x in e if x != item)
            sub = elements[:i] + ((rest,) if rest else ()) + elements[i + 1:]
            if sub:
                yield sub


def check_output(job: Job, inp: Inputs, text: str, seed: int, pins: dict) -> list[str]:
    """Problems found in one job's output; empty when it passes."""
    db = inp.dbs[job.db]
    n = len(db)
    problems: list[str] = []
    records = _parse(text, db, problems)
    if problems:
        return problems

    seed_pins = pins.get(str(seed))
    pinned = None if seed_pins is None else seed_pins.get(job.name)
    if seed_pins is not None and pinned is None:
        problems.append(f"seed {seed} is pinned but job {job.name} has no pin")
    if pinned is not None:
        if len(records) != pinned["records"]:
            problems.append(f"{len(records)} records, pinned {pinned['records']}")
        if output_digest(text) != pinned["sha256"]:
            problems.append("output SHA-256 differs from the pinned one")

    previous = None
    for elements, supp, ids in records:
        key = (len(elements), elements)
        if previous is not None and key <= previous:
            problems.append(f"{elements}: out of canonical order or duplicated")
        previous = key
        if any(not e or list(e) != sorted(set(e)) for e in elements):
            problems.append(f"{elements}: malformed pattern")
        if supp != len(ids) or list(ids) != sorted(set(ids)) or (ids and (ids[0] < 1 or ids[-1] > n)):
            problems.append(f"{elements}: support {supp} inconsistent with its ids")
    if problems:
        return problems[:20]

    rng = random.Random(f"verify-{seed}-{job.name}")
    sample = rng.sample(records, min(len(records), max(MIN_SAMPLE, SAMPLE_CHECKS // n)))
    for elements, _, ids in sample:
        if job.maxgap is None:
            want = support(db, Pattern(elements))[1]
        else:
            want = tuple(
                s.sid for s in db.sequences
                if constrained_embeddings(s, elements, maxgap=job.maxgap).supports
            )
        if want != ids:
            problems.append(f"{elements}: support_ids differ from a re-count")

    by_pattern = {elements: ids for elements, _, ids in records}
    if job.unconstrained_frequent:
        for elements, _, ids in sample:
            for sub in _deletions(elements):
                if sub not in by_pattern or not set(ids) <= set(by_pattern[sub]):
                    problems.append(f"{elements}: sub-pattern {sub} missing or not held by all its supporters")
                    break

    bm, expected = expected_output(job, inp)
    missing = [p for p in expected if p not in by_pattern]
    extra = [p for p in by_pattern if p not in expected]
    wrong = [p for p, g in expected.items() if p in by_pattern and bm.ids_mask(by_pattern[p]) != g]
    for what, patterns in (("missing", missing), ("not expected", extra), ("with wrong support_ids", wrong)):
        if patterns:
            problems.append(f"{len(patterns)} records {what}, e.g. {patterns[0]}")
    return problems


def oracle_check(job: Job, inp: Inputs, seed: int, workdir: Path) -> list[str]:
    """Run the job's flags on a small seeded sub-database, compare with the oracle."""
    db = inp.dbs[job.db]
    # The regex names eight labels; itemset patterns grow with 2**labels.
    keep = inputs.labels_by_frequency(db)[: 8 if job.regex_agg else 4 if job.itemset else 5]
    sub = inputs.oracle_subdb(db, seed, keep)
    sub_path = workdir / f"oracle-{job.name}.spmf"
    out_path = workdir / f"oracle-{job.name}.out"
    sub_path.write_text(write_spmf(sub), encoding="utf-8")
    maxlen = min(job.maxlen, inputs.ORACLE_SEQ_LEN)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(job.argv(inp, sub_path, out_path, maxlen=maxlen))
    if code != 0:
        return [f"oracle sub-database run exited {code}: {err.getvalue().strip()}"]
    fmin = job.fmin(len(sub))
    if job.regex_agg or job.maxgap is not None:
        cs = ConstraintSet(
            maxgap=job.maxgap,
            regex=regex_compile(inp.regex, sub.alphabet) if job.regex_agg else None,
            aggregate=AggregateSpec(resolve_costs(inp.costs, sub.alphabet), "sum", "le", AGG_THRESHOLD)
            if job.regex_agg else None,
        )
        want = oracle_constrained(sub, fmin, maxlen, cs)
    else:
        want = oracle_frequent(sub, fmin, maxlen, itemset_mode=job.itemset)
        if job.mode != "frequent":
            want = oracle_condensed(want, job.mode)
    got = out_path.read_text(encoding="utf-8")
    expected = write_results(want, sub)
    if got != expected:
        return [f"differs from the oracle on the sub-database ({len(got.splitlines())} vs {len(want)} records)"]
    return []


D7_EXPECTED = (
    '{"pattern":[["1"]],"support":6,"support_ids":[1,2,4,5,6,7]}',
    '{"pattern":[["2"]],"support":6,"support_ids":[2,3,4,5,6,7]}',
    '{"pattern":[["1"],["2"],["3"]],"support":4,"support_ids":[2,4,6,7]}',
)


def check_d7(text: str) -> list[str]:
    """The README quick-start records: the first two and the last."""
    lines = text.splitlines()
    if len(lines) < 3 or (lines[0], lines[1], lines[-1]) != D7_EXPECTED:
        return ["d7 output differs from the README quick-start records"]
    return []
