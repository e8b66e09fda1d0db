"""Depth-first pattern enumeration over vertical bitmaps and per-sequence
states.

One search grows patterns one extension at a time, from the empty pattern,
over an explicit stack of frames, and counts an extension's support among
the current pattern's supporters.  The gates live in that one loop: the
regex steps its DFA and stops at dead states, a summed aggregate bound
stops early, ``MiningParams`` bounds the length, ``ConstraintSet.accepts``
judges each pattern before it is emitted, and the deadline is checked at
every node.  Candidate extensions at a node are inherited from the
parent's locally frequent items (anti-monotone, so nothing is lost; a
differential flag can switch this narrowing off for testing).

What the search keeps for a pattern depends on the constraints, and nothing
else:

* no gap or span bound (simple and itemset mode): one big int over the whole
  database with a bit at every position where the pattern's last element
  matches after the leftmost embedding of the rest (SPAM-style vertical
  bitmaps: the fill-gaps frontier of every sequence at once).  Appending a
  new element is the S-step, a few whole-int operations per candidate;
  adding an item to the last element (itemset mode) is the I-step, an AND
  with the item's bitmap;
* gap bounds and no span bound: the same bitmaps, with a bit at every
  position where a gap-admissible embedding ends; the S-step shifts those
  bits across the gap window (cSPADE's gap join on SPAM bitmaps);
* span bounds, with or without gap bounds: per supporting sequence, the
  (last position, first position) pairs of admissible chains, admitted
  step by step.

The paper's two embedding representations, skip-gaps and fill-gaps, give
the same supports; the bitmaps keep the fill-gaps one, and ``relations``
holds both as reference models.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .seqdb import MiningResult, Pattern, ResultEntry, SequenceDatabase
from .constraints import ConstraintError, ConstraintSet

MODES = ("frequent", "closed", "maximal", "backward-closed", "backward-maximal")


class MiningTimeout(Exception):
    """Raised when a deadline passes mid-search."""


class DataError(ValueError):
    """Database/parameter mismatch (e.g. itemset data without itemset_mode)."""


@dataclass(frozen=True)
class MiningParams:
    fmin: int | float
    maxlen: int
    minlen: int = 1
    mode: str = "frequent"
    itemset_mode: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.fmin, bool) or not isinstance(self.fmin, (int, float)):
            raise ValueError(f"fmin must be an int count or float fraction, got {self.fmin!r}")
        if isinstance(self.fmin, int):
            if self.fmin < 1:
                raise ValueError("absolute fmin must be >= 1")
        elif not 0.0 < self.fmin <= 1.0:
            raise ValueError("fractional fmin must be in (0, 1]")
        if self.maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        if not 1 <= self.minlen <= self.maxlen:
            raise ValueError("need 1 <= minlen <= maxlen")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode: {self.mode!r}")

    def resolved_fmin(self, n_sequences: int) -> int:
        if isinstance(self.fmin, int):
            return self.fmin
        # Exact: the float product rounds 0.07 * 100 up to 7.000000000000001.
        resolved = math.ceil(Fraction(repr(self.fmin)) * n_sequences)
        if resolved < 1:
            # A percentage of no sequences: the database, not the value, is at fault.
            raise DataError(f"fractional fmin {self.fmin} resolves to {resolved} on {n_sequences} sequences")
        return resolved


@dataclass
class MineStats:
    """Search counters; ``nodes_expanded`` counts the frames popped from the
    search stack, the empty-pattern root included."""

    nodes_expanded: int = 0


# ---------------------------------------------------------------------------
# Search plumbing


def frequent_items(db: SequenceDatabase, fmin: int) -> frozenset[int]:
    """Items occurring in at least fmin distinct sequences."""
    counts: dict[int, int] = {}
    for seq in db.sequences:
        for item in set(seq.items()):
            counts[item] = counts.get(item, 0) + 1
    return frozenset(i for i, c in counts.items() if c >= fmin)


class _Index:
    """The database's sequences in order: their elements and sids."""

    __slots__ = ("elements", "sids", "n")

    def __init__(self, db: SequenceDatabase):
        self.elements = [s.elements for s in db.sequences]
        self.sids = [s.sid for s in db.sequences]
        self.n = len(db.sequences)


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise MiningTimeout()


# ---------------------------------------------------------------------------
# Search states
#
# The three states answer the same calls, so the search never asks which one
# it has.  ``root_entries()`` gives the empty pattern's entries.
# ``count(entries, candidates)`` maps each candidate to the supporters that
# admit it as a new last element, ``support`` and ``sids`` read such a
# supporter set (or a pattern's entries), and ``child(supporters, c)`` turns
# it into the extended pattern's entries.  ``count_aug``/``child_aug`` do
# the same for adding the candidate to the last element (itemset mode).
# No state judges a constraint: the plain bitmaps exist only without gap
# and span bounds, the gap bitmaps take their window from
# ``ConstraintSet.gap_window`` and the chains, kept for span bounds, take
# theirs from ``ConstraintSet.reach``.


class _Bitmap:
    """No gap or span bound: vertical bitmaps, one big int per item over the
    whole database (SPAM, Ayres et al. 2002).

    Each sequence of length L owns a byte-aligned segment of ceil((L+1)/8)
    bytes.  Its L position bits, position 1 lowest, sit directly below a
    guard bit, the segment's top bit; the bits below position 1 stay clear.
    A position's bit is set in the bitmap of every item of its element.  A
    pattern's entries are one int: the bits where its last element matches
    after the leftmost embedding of the rest, i.e. the fill-gaps frontier of
    every sequence at once.  ``None`` stands for the empty pattern.  Only
    ``items``, the root's candidates, get a bitmap: the search extends by no
    other item.

    The S-step sets every position bit above each segment's lowest entry bit
    (``starts`` holds each segment's lowest bit, and the guard stops the
    borrow of ``v - starts`` at the segment's top); the I-step keeps the
    entry bits whose element holds the new item.  Adding ``mask`` carries
    into a segment's guard exactly when the segment holds an entry bit, so
    support and supporting sids come from the guard bits with no loop over
    sequences.  To read the sids, every byte other than a guard byte is set
    to 0x01 and deleted, which leaves one byte per sequence, 0x80 where it
    supports the pattern.
    """

    narrows = True

    def __init__(self, index: _Index, items: list[int]):
        nbytes = sum(len(elements) // 8 + 1 for elements in index.elements)
        mask, guards, starts = bytearray(nbytes), bytearray(nbytes), bytearray(nbytes)
        fill = bytearray(b"\x01") * nbytes
        rows = {c: bytearray(nbytes) for c in items}
        base = 0
        for elements in index.elements:
            top = base + len(elements) // 8
            starts[base] = 1
            guards[top], fill[top] = 0x80, 0
            for bit, elem in enumerate(elements, start=8 * top + 7 - len(elements)):
                byte, m = bit >> 3, 1 << (bit & 7)
                mask[byte] |= m
                for item in elem:
                    row = rows.get(item)
                    if row is not None:
                        row[byte] |= m
            base = top + 1
        self.nbytes = nbytes
        self.sid_of = index.sids
        self.mask = int.from_bytes(mask, "little")
        self.guards = int.from_bytes(guards, "little")
        self.starts = int.from_bytes(starts, "little")
        self.fill = int.from_bytes(fill, "little")
        self.items = {c: int.from_bytes(row, "little") for c, row in rows.items()}

    def root_entries(self):
        return None

    def support(self, entries: int) -> int:
        return ((entries + self.mask) & self.guards).bit_count()

    def sids(self, entries: int) -> tuple[int, ...]:
        hits = (((entries + self.mask) & self.guards) | self.fill).to_bytes(self.nbytes, "little")
        return tuple(compress(self.sid_of, hits.translate(None, b"\x01")))

    def count(self, entries, candidates):
        if entries is None:
            after = self.mask
        else:
            v = entries | self.guards
            after = ~(v ^ (v - self.starts)) & self.mask
        items = self.items
        return {c: after & items[c] for c in candidates}

    def count_aug(self, entries, candidates):
        items = self.items
        return {c: entries & items[c] for c in candidates}

    def child(self, supporters, c):
        return supporters

    child_aug = child


def _smear(x: int, width: int, shift) -> int:
    """``x | shift(x, 1) | ... | shift(x, width - 1)`` for width >= 1, in
    O(log width) calls.  ``shift`` must compose: shift(shift(x, a), b) ==
    shift(x, a + b).  With ``acc`` the OR of the shifts below m, ``acc |
    shift(acc, m)`` is the OR below 2m and ``acc | shift(x, m)`` the OR
    below m + 1."""
    acc, m = x, 1
    for bit in bin(width)[3:]:
        acc |= shift(acc, m)
        m *= 2
        if bit == "1":
            acc |= shift(x, m)
            m += 1
    return acc


class _GapBitmap(_Bitmap):
    """Gap bounds and no span bound: ``_Bitmap``'s layout, but a pattern's
    entries hold every position where a gap-admissible embedding ends, not
    only the ends after the leftmost one (the gap join of cSPADE, Zaki 2000,
    done on SPAM bitmaps).

    With ``ConstraintSet.gap_window`` (nearest, farthest), the S-step admits
    the positions nearest..farthest after each entry bit: the OR over d in
    nearest..farthest of ``(E & keep[d]) << d``, where ``keep[d]`` holds the
    positions p with p + d <= L, so no bit leaves its segment.  ``_smear``
    builds that OR in O(log(farthest - nearest)) shifts.  With no farthest
    bound, or one no sequence is long enough to reach, one shift by
    nearest - 1 and ``_Bitmap``'s borrow admit every later position.  The
    root, the I-step, ``support`` and ``sids`` are ``_Bitmap``'s.

    Candidates are not narrowed: admission windows move as the pattern
    grows, so an item that is an infrequent extension here can be a
    frequent extension one level deeper.
    """

    narrows = False

    def __init__(self, index: _Index, items: list[int], window: tuple[int, int | None]):
        super().__init__(index, items)
        self.nearest, farthest = window
        longest = max(map(len, index.elements), default=0)
        # No two positions of one sequence lie more than longest - 1 apart, so
        # a farthest distance of longest - 1 or more bounds nothing.
        self.width = None if farthest is None or farthest >= longest - 1 else farthest - self.nearest + 1
        self.keeps = {0: self.mask}

    def _shift(self, x: int, d: int) -> int:
        keep = self.keeps.get(d)
        if keep is None:
            # The bits 1..d below a guard are the positions p with p + d > L.
            keep = self.keeps[d] = self.mask & ~_smear(self.guards >> 1, d, int.__rshift__)
        return (x & keep) << d

    def count(self, entries, candidates):
        if entries is None:
            after = self.mask
        elif self.width is None:
            v = self._shift(entries, self.nearest - 1) | self.guards
            after = ~(v ^ (v - self.starts)) & self.mask
        else:
            after = self._shift(_smear(entries, self.width, self._shift), self.nearest)
        items = self.items
        return {c: after & items[c] for c in candidates}


class _Chain:
    """Span constraints, with or without gap bounds: per supporting
    sequence, the sorted distinct (last, first) pairs of admissible partial
    chains.  A span bound depends on where the chain started, which a
    position bit does not record, so these runs stay off the bitmaps.  The
    constraint set's ``reach`` admits each next position; the root's pairs
    are ``None``.

    Candidates are not narrowed: admission windows move as the pattern
    grows, so an item that is an infrequent extension here can be a frequent
    extension one level deeper.  Only each node's own frequency gate prunes
    (sound, since dropping the last chain step of an admissible chain leaves
    one).
    """

    narrows = False
    support = staticmethod(len)

    def __init__(self, index: _Index, cs: ConstraintSet):
        self.sid_of = index.sids
        self.n = index.n
        self.elements = index.elements
        self.reach = cs.reach

    def root_entries(self):
        return [(si, None) for si in range(self.n)]

    def sids(self, entries) -> tuple[int, ...]:
        sid_of = self.sid_of
        return tuple(sid_of[si] for si, _ in entries)

    def count(self, entries, candidates):
        out = {c: [] for c in candidates}
        step = self.reach
        for si, pairs in entries:
            elems = self.elements[si]
            reach = step(len(elems), pairs)
            present = set()
            for j in reach:
                present.update(elems[j - 1])
            for c in candidates:
                if c in present:
                    out[c].append((si, reach))
        return out

    def child(self, supporters, c):
        out = []
        for si, reach in supporters:
            elems = self.elements[si]
            kept = tuple(pair for j, pairs in reach.items() if c in elems[j - 1] for pair in pairs)
            out.append((si, kept))
        return out

    def count_aug(self, entries, candidates):
        out = {c: [] for c in candidates}
        for ent in entries:
            elems = self.elements[ent[0]]
            present = set()
            for last, _ in ent[1]:
                present.update(elems[last - 1])
            for c in candidates:
                if c in present:
                    out[c].append(ent)
        return out

    def child_aug(self, supporters, c):
        out = []
        for si, pairs in supporters:
            elems = self.elements[si]
            out.append((si, tuple(p for p in pairs if c in elems[p[0] - 1])))
        return out


# ---------------------------------------------------------------------------
# The search


def _search(
    state,
    root_cands: list[int],
    fmin: int,
    params: MiningParams,
    cs: ConstraintSet,
    stats: MineStats,
    deadline: float | None,
    narrow: bool,
) -> list[ResultEntry]:
    """Depth-first pattern growth over an explicit stack of frames
    (elements, entries, support, candidates, dfa_state, running_sum),
    starting from the empty pattern.  Every gate is applied here; ``state``
    only counts supporters and builds child entries."""
    dfa = cs.regex
    agg = cs.aggregate
    agg_prunes = agg is not None and agg.prunes_as_sum()
    accepts = cs.accepts
    support_of = state.support
    sink: list[ResultEntry] = []
    # The root is never emitted (minlen >= 1), so its support is not needed.
    stack = [((), state.root_entries(), None, root_cands, dfa.start if dfa is not None else None, 0)]
    while stack:
        elements, entries, support, candidates, dfa_state, running_sum = stack.pop()
        stats.nodes_expanded += 1
        _check_deadline(deadline)
        depth = len(elements)
        if depth >= params.minlen and (dfa is None or dfa_state in dfa.accepting) and accepts(elements):
            sink.append(ResultEntry(Pattern(elements), support, state.sids(entries)))

        # (child elements, added item, supporters, support, child builder, child candidates)
        extensions = []
        # A leaf is only emitted, which reads no more of its entries than the
        # supporting sequences: give it the supporters and skip building states.
        leaf = depth + 1 == params.maxlen and not params.itemset_mode
        local: list[int] = []
        if depth < params.maxlen:
            out = state.count(entries, candidates)
            supports = {c: support_of(out[c]) for c in candidates}
            local = [c for c in candidates if supports[c] >= fmin]
            inherited = local if narrow else candidates
            for c in local:
                extensions.append((elements + ((c,),), c, out[c], supports[c], state.child, inherited))
        if params.itemset_mode and depth:
            last = elements[-1]
            aug_cands = [c for c in candidates if c > last[-1]]
            out = state.count_aug(entries, aug_cands)
            supports = {c: support_of(out[c]) for c in aug_cands}
            aug_local = [c for c in aug_cands if supports[c] >= fmin]
            # An item that never occurs after the last element's leftmost match
            # cannot appear in a later element, but it can still augment the
            # last one, so augment-children get the union of both lists.
            inherited = sorted(set(local).union(aug_local)) if narrow else candidates
            for c in aug_local:
                extensions.append(
                    (elements[:-1] + (last + (c,),), c, out[c], supports[c], state.child_aug, inherited)
                )

        for child_elements, c, supporters, child_support, build, child_cands in extensions:
            # mine() rejects a regex in itemset mode, so the DFA only sees appends.
            nxt_state = dfa_state
            if dfa is not None:
                nxt_state = dfa.step(dfa_state, c)
                if nxt_state is None or nxt_state not in dfa.live:
                    continue
            new_sum = 0
            if agg_prunes:
                new_sum = running_sum + agg.cost_of(c)
                if not agg.sum_viable(new_sum):
                    continue
            child_entries = supporters if leaf else build(supporters, c)
            stack.append((child_elements, child_entries, child_support, child_cands, nxt_state, new_sum))
    return sink


# ---------------------------------------------------------------------------
# Entry points


def mine(
    db: SequenceDatabase,
    params: MiningParams,
    constraints: ConstraintSet | None = None,
    *,
    timeout: float | None = None,
    stats: MineStats | None = None,
    use_local_pruning: bool = True,
    condensed_within_constraints: bool = False,
) -> MiningResult:
    """Mine the database under the given parameters and optional constraints
    (``None`` is ``ConstraintSet()``).

    Condensed modes run the frequent search first, then filter.  Returns a
    canonically ordered result; raises MiningTimeout past the deadline.
    """
    from . import condensed as _condensed

    cs = ConstraintSet() if constraints is None else constraints
    if cs.regex is not None and params.itemset_mode:
        raise ConstraintError("regex constraints require simple mode")
    if not params.itemset_mode and not db.simple_mode:
        raise DataError("database has multi-item elements; enable itemset_mode")
    fmin = params.resolved_fmin(len(db))
    stats = stats if stats is not None else MineStats()
    deadline = None if timeout is None else time.monotonic() + timeout

    index = _Index(db)
    root_cands = sorted(frequent_items(db, fmin) - cs.cannot_have)
    if cs.minspan is not None or cs.maxspan is not None:
        state = _Chain(index, cs)
    elif cs.mingap is not None or cs.maxgap is not None:
        state = _GapBitmap(index, root_cands, cs.gap_window())
    else:
        state = _Bitmap(index, root_cands)
    narrow = use_local_pruning and state.narrows
    entries = _search(state, root_cands, fmin, params, cs, stats, deadline, narrow)

    result = MiningResult.build(entries, params)
    if params.mode != "frequent":
        result = _condensed.filter_result(
            db,
            result,
            fmin,
            kind=params.mode,
            itemset_mode=params.itemset_mode,
            constraints=cs,
            within_constraints=condensed_within_constraints,
            deadline=deadline,
        )
    return result

