"""Depth-first pattern enumeration over vertical bitmaps.

One search grows patterns one extension at a time, from the empty pattern,
over an explicit stack of frames, and counts an extension's support among
the current pattern's supporters.  The gates live in that one loop: the
regex steps its DFA and stops at dead states, a summed aggregate bound
stops early, ``MiningParams`` bounds the length, ``ConstraintSet.accepts``
judges each pattern before it is emitted, and the deadline is checked at
every node.  Candidate extensions at a node are inherited from the
parent's locally frequent items (anti-monotone, so nothing is lost; a
differential flag can switch this narrowing off for testing).

What the search keeps for a pattern is one big int; its layout depends on
the kind of bound, and nothing else:

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
* span bounds, with or without gap bounds: the gap bitmaps on one segment
  per start position, as long as the span allows, so every chain is cut at
  its start's upper bound; the root admits only each segment's start.
  A bound that bounds nothing runs on one of the layouts above.

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

    __slots__ = ("elements", "sids")

    def __init__(self, db: SequenceDatabase):
        self.elements = [s.elements for s in db.sequences]
        self.sids = [s.sid for s in db.sequences]


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise MiningTimeout()


# ---------------------------------------------------------------------------
# Search states
#
# One layout per kind of bound; the three states answer the same calls, so
# the search never asks which one it has.  ``None`` is the empty pattern's
# entries.  ``count(entries, candidates)`` maps each candidate to the
# entries of the pattern extended by it as a new last element, and
# ``count_aug`` does the same for adding it to the last element (itemset
# mode); ``support`` and ``sids`` read such entries.  No state judges a
# constraint: the plain bitmaps run without gap and span bounds, the gap
# bitmaps take their window from ``ConstraintSet.gap_window``, and the span
# state takes its segments from ``ConstraintSet.span_window`` as well.


class _Bitmap:
    """No gap or span bound: vertical bitmaps, one big int per item over the
    whole database (SPAM, Ayres et al. 2002).

    Each segment of length L owns ceil((L+1)/8) bytes.  Its L position bits,
    position 1 lowest, sit directly below a guard bit, the segment's top bit;
    the bits below position 1 stay clear.  A position's bit is set in the
    bitmap of every item of its element.  ``groups`` holds each sequence's
    segments, laid out one after another; by default a sequence is one
    segment.  A pattern's entries are one int: the bits where its last
    element matches after the leftmost embedding of the rest, i.e. the
    fill-gaps frontier of every sequence at once.  ``None`` stands for the
    empty pattern.  Only ``items``, the root's candidates, get a bitmap: the
    search extends by no other item.

    The S-step sets every position bit above each segment's lowest entry bit
    (``starts`` holds each segment's lowest bit, and the guard stops the
    borrow of ``v - starts`` at the segment's top); the I-step keeps the
    entry bits whose element holds the new item.  ``carry`` sets every bit of
    a sequence's group below the guard of its last segment, its head, so
    adding it carries into the head exactly when the group holds an entry
    bit: support and supporting sids come from the head bits with no loop
    over sequences.  To read the sids, every byte other than a head byte is
    set to 0x01 and deleted, which leaves one byte per sequence, 0x80 where
    it supports the pattern.
    """

    narrows = True

    def __init__(self, index: _Index, items: list[int], groups=None):
        if groups is None:
            groups = [(elements,) for elements in index.elements]
        nbytes = sum(len(elements) // 8 + 1 for group in groups for elements in group)
        mask, guards, starts, bottoms, heads = (bytearray(nbytes) for _ in range(5))
        fill = bytearray(b"\x01") * nbytes
        rows = {c: bytearray(nbytes) for c in items}
        base = longest = 0
        for group in groups:
            bottoms[base] = 1
            for elements in group:
                top = base + len(elements) // 8
                starts[base], guards[top] = 1, 0x80
                longest = max(longest, len(elements))
                for bit, elem in enumerate(elements, start=8 * top + 7 - len(elements)):
                    byte, m = bit >> 3, 1 << (bit & 7)
                    mask[byte] |= m
                    for item in elem:
                        row = rows.get(item)
                        if row is not None:
                            row[byte] |= m
                base = top + 1
            heads[top], fill[top] = 0x80, 0
        self.nbytes = nbytes
        self.longest = longest
        self.sid_of = index.sids
        self.mask = int.from_bytes(mask, "little")
        self.guards = int.from_bytes(guards, "little")
        self.starts = int.from_bytes(starts, "little")
        self.heads = int.from_bytes(heads, "little")
        self.carry = self.heads - int.from_bytes(bottoms, "little")
        self.fill = int.from_bytes(fill, "little")
        self.items = {c: int.from_bytes(row, "little") for c, row in rows.items()}

    def support(self, entries: int) -> int:
        return ((entries + self.carry) & self.heads).bit_count()

    def sids(self, entries: int) -> tuple[int, ...]:
        hits = (((entries + self.carry) & self.heads) | self.fill).to_bytes(self.nbytes, "little")
        return tuple(compress(self.sid_of, hits.translate(None, b"\x01")))

    def after(self, entries):
        """The positions an S-step admits after ``entries``."""
        if entries is None:
            return self.mask
        v = entries | self.guards
        return ~(v ^ (v - self.starts)) & self.mask

    def count(self, entries, candidates):
        after = self.after(entries)
        items = self.items
        return {c: after & items[c] for c in candidates}

    def count_aug(self, entries, candidates):
        items = self.items
        return {c: entries & items[c] for c in candidates}


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
    """Gap bounds and no span bound that bounds something: ``_Bitmap``'s
    layout, but a pattern's entries hold every position where a
    gap-admissible embedding ends, not only the ends after the leftmost one
    (the gap join of cSPADE, Zaki 2000, done on SPAM bitmaps).

    With ``ConstraintSet.gap_window`` (nearest, farthest), the S-step admits
    the positions nearest..farthest after each entry bit: the OR over d in
    nearest..farthest of ``(E & keep[d]) << d``, where ``keep[d]`` holds the
    positions p with p + d <= L, so no bit leaves its segment.  ``_smear``
    builds that OR in O(log(farthest - nearest)) shifts.  With no farthest
    bound, or one no segment is long enough to reach, one shift by
    nearest - 1 and ``_Bitmap``'s borrow admit every later position.  The
    root, the I-step, ``support`` and ``sids`` are ``_Bitmap``'s.

    Candidates are not narrowed: admission windows move as the pattern
    grows, so an item that is an infrequent extension here can be a
    frequent extension one level deeper.
    """

    narrows = False

    def __init__(self, index: _Index, items: list[int], window: tuple[int, int | None], groups=None):
        super().__init__(index, items, groups)
        self.nearest, farthest = window
        # No two positions of one segment lie more than longest - 1 apart, so
        # a farthest distance of longest - 1 or more bounds nothing.
        self.width = None if farthest is None or farthest >= self.longest - 1 else farthest - self.nearest + 1
        self.keeps = {0: self.mask}

    def _shift(self, x: int, d: int) -> int:
        keep = self.keeps.get(d)
        if keep is None:
            # The bits 1..d below a guard are the positions p with p + d > L.
            keep = self.keeps[d] = self.mask & ~_smear(self.guards >> 1, d, int.__rshift__)
        return (x & keep) << d

    def after(self, entries):
        if entries is None:
            return self.mask
        if self.width is None:
            v = self._shift(entries, self.nearest - 1) | self.guards
            return ~(v ^ (v - self.starts)) & self.mask
        return self._shift(_smear(entries, self.width, self._shift), self.nearest)


class _SpanBitmap(_GapBitmap):
    """Span bounds, with or without gap bounds: ``_GapBitmap``'s entries and
    S-step, on one segment per start position instead of one per sequence.

    With ``ConstraintSet.span_window`` (lowest, highest), the segment of
    start f holds positions f..f+highest (or to the sequence's end), so a
    chain that starts at f cannot pass the span's upper bound; after a
    sequence's segments comes one empty segment, the head whose guard stands
    for the sequence in ``support`` and ``sids``.  The root admits only each
    segment's first position (``firsts``), so every chain starts at its
    segment's start.  Every later S-step keeps only the positions at offset
    lowest or more in their segment (``late``); the span's lower bound binds
    the first S-step alone, after which offsets only grow, so the AND is
    exact at every step.
    """

    def __init__(self, index: _Index, items: list[int], gaps: tuple[int, int | None], span: tuple[int, int | None]):
        lowest, highest = span
        groups = []
        for elements in index.elements:
            n = len(elements)
            stop = n if highest is None else highest + 1
            groups.append([elements[f : f + stop] for f in range(n)] + [()])
        super().__init__(index, items, gaps, groups)
        # Position bits run unbroken within a segment, with a clear guard bit
        # between segments.
        self.firsts = self.mask & ~(self.mask << 1)
        self.late = self.mask & ~_smear(self.firsts, max(lowest, 1), self._shift)

    def after(self, entries):
        return self.firsts if entries is None else super().after(entries) & self.late


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
    only counts supporters, which are the extended pattern's entries."""
    dfa = cs.regex
    agg = cs.aggregate
    agg_prunes = agg is not None and agg.prunes_as_sum()
    accepts = cs.accepts
    support_of = state.support
    sink: list[ResultEntry] = []
    # The root is never emitted (minlen >= 1), so its support is not needed.
    stack = [((), None, None, root_cands, dfa.start if dfa is not None else None, 0)]
    while stack:
        elements, entries, support, candidates, dfa_state, running_sum = stack.pop()
        stats.nodes_expanded += 1
        _check_deadline(deadline)
        depth = len(elements)
        if depth >= params.minlen and (dfa is None or dfa_state in dfa.accepting) and accepts(elements):
            sink.append(ResultEntry(Pattern(elements), support, state.sids(entries)))

        # (child elements, added item, entries, support, child candidates)
        extensions = []
        local: list[int] = []
        if depth < params.maxlen:
            out = state.count(entries, candidates)
            supports = {c: support_of(out[c]) for c in candidates}
            local = [c for c in candidates if supports[c] >= fmin]
            inherited = local if narrow else candidates
            for c in local:
                extensions.append((elements + ((c,),), c, out[c], supports[c], inherited))
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
                extensions.append((elements[:-1] + (last + (c,),), c, out[c], supports[c], inherited))

        for child_elements, c, child_entries, child_support, child_cands in extensions:
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
    lowest, highest = cs.span_window()
    longest = max(map(len, index.elements), default=0)
    # Every S-step lands at offset 1 or more from a chain's first position and
    # none at longest or more, so a lowest offset up to 1 and a highest offset
    # of longest - 1 or more bound nothing.
    if lowest > 1 or (highest is not None and highest < longest - 1):
        state = _SpanBitmap(index, root_cands, cs.gap_window(), (lowest, highest))
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

