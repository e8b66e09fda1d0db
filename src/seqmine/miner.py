"""Depth-first pattern enumeration over vertical bitmaps.

One search grows patterns one extension at a time, from the empty pattern,
over an explicit stack of frames, and counts an extension's support among
the current pattern's supporters.  The gates live in that one loop and run
before the count: a candidate is counted only if the regex's DFA steps on
it into a live state and a summed aggregate upper bound still holds with
its cost added.  ``MiningParams`` bounds the length, ``ConstraintSet.accepts``
judges each pattern before it is emitted, and the deadline is checked at
every node.  Candidate extensions at a node are inherited from the
parent's locally frequent items wherever no maxgap bounds anything (then
an extension's admitted positions only shrink as the pattern grows, so
nothing is lost; clearing the index's ``narrows`` switches this narrowing
off for differential tests).

What the search keeps for a pattern is one big int over vertical bitmaps,
one int per item over the whole database (SPAM-style), in one layout
chosen from the constraint set's gap and span windows:

* the int marks every position where the pattern's last element ends an
  embedding that keeps the gap bounds; with no gap bound, where it matches
  after the leftmost embedding of the rest (the fill-gaps frontier of every
  sequence at once);
* appending a new element is the S-step, a few whole-int operations per
  candidate: a borrow that admits every later position, after a shift by
  the mingap, or, when a maxgap bounds something, shifts across the gap
  window (cSPADE's gap join on SPAM bitmaps); adding an item to the last
  element (on data with multi-item elements) is the I-step, an AND with
  the item's bitmap;
* a minspan raises the first S-step's window alone, since positions
  increase along a chain; a sequence is one segment of the bitmaps, or,
  when a maxspan bounds something, one segment per start position, as long
  as the span allows, so every chain is cut at its start's upper bound;
* where a sequence is one segment, each item also keeps its last
  occurrence per sequence, and a window-free S-step, which admits a suffix
  of every sequence, counts a candidate with one AND against those bits;
  every other step reads support from head bits, one per sequence, that a
  carry sets wherever the sequence holds an entry;
* each frequent extension reads its supporters once from its head bits,
  as one int with a bit per sequence (``ResultEntry.sid_bits``), whose
  ``bit_count`` is its support; wherever the search narrows, a candidate
  whose support the node's int ANDed with a sibling's int already keeps
  below fmin is skipped uncounted.

The paper's two embedding representations, skip-gaps and fill-gaps, give
the same supports; the bitmaps keep the fill-gaps one, and ``relations``
holds both as reference models.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections import defaultdict
from itertools import chain, compress

from .seqdb import MiningResult, Pattern, ResultEntry, SequenceDatabase, _Frozen
from .constraints import ConstraintError, ConstraintSet

MODES = ("frequent", "closed", "maximal", "backward-closed", "backward-maximal")


class MiningTimeout(Exception):
    """Raised when a deadline passes mid-search."""


class DataError(ValueError):
    """Database/parameter mismatch (e.g. a fractional fmin on no sequences)."""


class MiningParams(_Frozen):
    __slots__ = _fields = ("fmin", "maxlen", "minlen", "mode")

    def __init__(self, fmin: int | float, maxlen: int, minlen: int = 1, mode: str = "frequent") -> None:
        self._init(fmin, maxlen, minlen, mode)
        if isinstance(self.fmin, bool) or not isinstance(self.fmin, (int, float)):
            raise ValueError(f"fmin must be an int count or float fraction, got {self.fmin!r}")
        if isinstance(self.fmin, int):
            if self.fmin < 1:
                raise ValueError("absolute fmin must be >= 1")
        elif not 0.0 < self.fmin <= 1.0:
            raise ValueError("fractional fmin must be in (0, 1]")
        for name in ("maxlen", "minlen"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        if not 1 <= self.minlen <= self.maxlen:
            raise ValueError("need 1 <= minlen <= maxlen")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode: {self.mode!r}")

    def resolved_fmin(self, n_sequences: int) -> int:
        if isinstance(self.fmin, int):
            return self.fmin
        # Exact, on the digits of the float's shortest repr ("0.07", "1e-05"):
        # the float product rounds 0.07 * 100 up to 7.000000000000001.
        mantissa, _, exponent = repr(self.fmin).partition("e")
        whole, _, fraction = mantissa.partition(".")
        scale = 10 ** (len(fraction) - int(exponent or 0))  # fmin <= 1, so never below 1
        resolved = -(-int(whole + fraction) * n_sequences // scale)
        if resolved < 1:
            # A percentage of no sequences: the database, not the value, is at fault.
            raise DataError(f"fractional fmin {self.fmin} resolves to {resolved} on {n_sequences} sequences")
        return resolved


class MineStats(_Frozen):
    """Search counters.  ``nodes_expanded`` counts the frames popped from the
    search stack, the empty-pattern root included; ``candidate_tests`` the
    support counts made; ``gated`` the candidates a node skipped without a
    count because the regex or a summed aggregate bound rules them out;
    ``bounded`` those it skipped because a sibling's supporters leave too
    few of its own.  The search adds to them, so unlike its base the class
    is mutable, and so unhashable."""

    __slots__ = _fields = ("nodes_expanded", "candidate_tests", "gated", "bounded")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, nodes_expanded: int = 0, candidate_tests: int = 0, gated: int = 0, bounded: int = 0) -> None:
        self._init(nodes_expanded, candidate_tests, gated, bounded)


# ---------------------------------------------------------------------------
# Search plumbing


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise MiningTimeout()


# ---------------------------------------------------------------------------
# Search states
#
# ``None`` is the empty pattern's entries.  The search ANDs
# ``after(entries)`` (a new last element) or the entries themselves (an item
# added to the last element, on itemset data) with an item's bitmap, and reads
# support and sids from the head bits ``(entries + carry) & heads`` (support
# after a window-free S-step from ``lasts`` instead).  The index judges no
# constraint beyond the gap and span windows it is laid out from.


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


# A head byte as a base-2 digit, 0x80 (a supporter) for 1, and back.
_HEAD_DIGITS = bytes.maketrans(b"\x00\x80", b"01")
_DIGIT_HEADS = bytes.maketrans(b"01", b"\x00\x80")


class _Index:
    """The database's vertical bitmaps, one big int per item over every
    sequence (SPAM, Ayres et al. 2002), laid out from
    ``ConstraintSet.gap_window`` (nearest, farthest) and
    ``ConstraintSet.span_window`` (lowest, highest).

    Each segment of length L owns ceil((L+1)/8) bytes: its L position bits,
    position 1 lowest, sit directly below a guard bit, the segment's top
    bit.  A position's bit is set in the bitmap of every item of its
    element that ``cannot_have`` leaves.  A sequence is one segment, or,
    when a maxspan bounds something, one segment per start f holding
    positions f..f+highest (or to the end), then one empty segment, its
    head.  Every position is a root: a chain starting at g in segment f <= g
    ends by f + highest, so segment g finds it too.

    The S-step admits the positions nearest..farthest after each entry bit
    (the gap join of cSPADE, Zaki 2000): the OR over d of ``(E & keep[d])
    << d``, where ``keep[d]`` holds the positions p with p + d <= L, built
    by ``_smear`` in O(log(farthest - nearest)) shifts.  With no farthest a
    segment is long enough to reach (the width is ``None``), one shift by
    nearest - 1 and a borrow set every position bit above each segment's
    lowest entry bit (``starts`` holds each segment's lowest bit, and the
    guard stops the borrow of ``v - starts`` at its top).  The I-step keeps
    the entry bits whose element holds the new item; ``itemsets`` is set
    when some element holds more than one item, and only then does the
    search take it.

    A minspan binds only the first S-step, from a one-element pattern:
    its window starts at max(nearest, lowest), and has width 0 when lowest
    > farthest.  After it last >= first + lowest, so every later position
    passes.  ``windows`` holds (nearest, width) for later steps and for the
    first.  With no width, a child's entries in each segment lie at or
    above its parent's lowest entry plus the parent's nearest, so
    ``after(child)`` lies in the parent's ``after`` and the search may
    narrow (``narrows``); a finite gap window moves as the pattern grows.

    ``carry`` sets every bit of a sequence's group below the guard of its
    last segment, its head, so adding it carries into the head exactly when
    the group holds an entry bit: support and sids come from the head bits
    with no loop over sequences.  ``items`` keeps, in ascending order, the
    bitmaps whose head bits reach ``fmin``, the root's candidates; a
    sequence counts once however many of its segments hold the item.  When
    a sequence is one segment, ``lasts`` holds, per candidate, the bit of
    its last occurrence in each sequence (else it is ``None``): after a
    window-free S-step the admitted positions are a suffix of each
    sequence, which holds the item exactly when it holds the last
    occurrence, so ``_count`` needs no carry there.

    ``sid_bits`` turns head bits into the supporters' int (``head_bits``
    back), bit k-1 for sid k (sids are dense, 1..N, in layout order):
    ``fill`` sets every byte but the head bytes to 0x01, so the head bits
    ORed with it, written big-endian with every 0x01 byte deleted, leave
    one byte per sequence, sid N first, 0x80 for a supporter and 0x00 for
    the rest; one ``translate`` makes them the digits of the int in base 2.
    """

    def __init__(self, db: SequenceDatabase, fmin: int, cs: ConstraintSet):
        nearest, farthest = cs.gap_window()
        lowest, highest = cs.span_window()
        sequences = [s.elements for s in db.sequences]
        longest = max(map(len, sequences), default=0)
        # No two positions of one segment lie more than ``reach`` apart, so
        # a highest offset or farthest distance of ``reach`` or more bounds
        # nothing.
        reach = longest - 1
        per_start = highest is not None and highest < reach
        if per_start:
            reach = highest
            groups = [
                [elements[f : f + reach + 1] for f in range(len(elements))] + [()] for elements in sequences
            ]
        else:
            groups = [(elements,) for elements in sequences]
        nbytes = sum(len(elements) // 8 + 1 for group in groups for elements in group)
        mask, guards, starts, bottoms, heads = (bytearray(nbytes) for _ in range(5))
        fill = bytearray(b"\x01") * nbytes
        head_bytes = []
        # Per item, the bits it sets, and where a sequence is one segment,
        # the bit of its last occurrence in each sequence.
        places = {c: [] for c in range(len(db.alphabet)) if c not in cs.cannot_have}
        last_places = None if per_start else {c: [] for c in places}
        base = 0
        for group in groups:
            bottoms[base] = 1
            for elements in group:
                top = base + len(elements) // 8
                starts[base], guards[top] = 1, 0x80
                ends = {}
                for bit, elem in enumerate(elements, start=8 * top + 7 - len(elements)):
                    mask[bit >> 3] |= 1 << (bit & 7)
                    for item in elem:
                        at = places.get(item)
                        if at is not None:
                            at.append(bit)
                            ends[item] = bit
                if last_places is not None:
                    for item, bit in ends.items():
                        last_places[item].append(bit)
                base = top + 1
            heads[top], fill[top] = 0x80, 0
            head_bytes.append(top)

        def bitmap(bits: list[int]) -> int:
            row = bytearray(nbytes)
            for bit in bits:
                row[bit >> 3] |= 1 << (bit & 7)
            return int.from_bytes(row, "little")

        self.nbytes, self.head_bytes = nbytes, head_bytes
        self.itemsets = not db.simple_mode
        self.mask = int.from_bytes(mask, "little")
        self.guards = int.from_bytes(guards, "little")
        self.starts = int.from_bytes(starts, "little")
        self.heads = int.from_bytes(heads, "little")
        self.carry = self.heads - int.from_bytes(bottoms, "little")
        self.fill = int.from_bytes(fill, "little")
        # An item with fewer than fmin bits cannot reach fmin sequences, so
        # only the others get a bitmap to count.
        self.items = {}
        for c, bits in places.items():
            if len(bits) >= fmin:
                x = bitmap(bits)
                if ((x + self.carry) & self.heads).bit_count() >= fmin:
                    self.items[c] = x
        self.lasts = None if last_places is None else {c: bitmap(last_places[c]) for c in self.items}
        self.keeps: dict[int, int] = {}
        first = max(nearest, lowest)
        if farthest is None or farthest >= reach:
            self.windows = ((nearest, None), (first, None))
        else:
            self.windows = ((nearest, farthest - nearest + 1), (first, max(0, farthest - first + 1)))
        self.narrows = self.windows[0][1] is None

    def sid_bits(self, found: int) -> int:
        """The int with bit k-1 set for each sid k whose head bit ``found`` sets."""
        return int((found | self.fill).to_bytes(self.nbytes, "big").translate(_HEAD_DIGITS, b"\x01"), 2)

    def head_bits(self, sids: int) -> int:
        """The head bits of the sids set in ``sids``: bin()'s digits, reversed
        to put sid 1 first and made 0x00 or 0x80, flag the ``head_bytes``
        (the byte of each sequence's head bit, by sid - 1)."""
        row = bytearray(self.nbytes)
        for i in compress(self.head_bytes, bin(sids)[:1:-1].encode().translate(_DIGIT_HEADS)):
            row[i] = 0x80
        return int.from_bytes(row, "little")

    def _shift(self, x: int, d: int) -> int:
        keep = self.keeps.get(d)
        if keep is None:
            # The bits 1..d below a guard are the positions p with p + d > L.
            keep = self.keeps[d] = self.mask & ~_smear(self.guards >> 1, d, int.__rshift__)
        return (x & keep) << d

    def after(self, entries, first: bool) -> int:
        """The positions an S-step admits after ``entries``; ``first`` for
        the step from a one-element pattern, the one a minspan binds."""
        if entries is None:
            return self.mask
        nearest, width = self.windows[first]
        if width is None:
            if nearest > 1:
                entries = self._shift(entries, nearest - 1)
            v = entries | self.guards
            return ~(v ^ (v - self.starts)) & self.mask
        if not width:
            return 0
        return self._shift(_smear(entries, width, self._shift), nearest)


# ---------------------------------------------------------------------------
# The search


def _count(index: _Index, base: int, tests: list[int], fmin: int, lasts=None) -> list:
    """The frequent extensions among ``tests``: (item, entries, supporters'
    int) for each item whose bits ANDed with ``base`` (the S-step's
    ``after`` or, for the I-step, the entries themselves) leave at least
    ``fmin`` supporters, in the order of ``tests``.

    The general count adds ``carry`` and reads the head bits of every
    candidate.  ``lasts``, each item's last-occurrence bits, may be given
    when a segment is a sequence and ``base`` is a suffix of each segment
    (a window-free S-step): an item lies in the suffix exactly when its last
    occurrence does, so the support is one AND and a ``bit_count``, and
    only a hit computes its entries and head bits."""
    items, carry, heads, sid_bits = index.items, index.carry, index.heads, index.sid_bits
    hits = []
    if lasts is not None:
        for c in tests:
            if (base & lasts[c]).bit_count() >= fmin:
                x = base & items[c]
                hits.append((c, x, sid_bits((x + carry) & heads)))
        return hits
    for c in tests:
        x = base & items[c]
        h = (x + carry) & heads
        if h.bit_count() >= fmin:
            hits.append((c, x, sid_bits(h)))
    return hits


def _bound(tests: list[int], bits: int, siblings: dict[int, int], fmin: int) -> list[int]:
    """The candidates among ``tests`` worth a count: those with no sibling
    in ``siblings`` (item -> the sibling extension's supporters' int), and
    those whose sibling's supporters share at least ``fmin`` of ``bits``."""
    return [c for c in tests if (s := siblings.get(c)) is None or (bits & s).bit_count() >= fmin]


def _search(
    index: _Index,
    fmin: int,
    params: MiningParams,
    cs: ConstraintSet,
    stats: MineStats,
    deadline: float | None,
) -> list[list[ResultEntry]]:
    """Depth-first pattern growth over an explicit stack of frames
    (elements, entries, supporters' int, candidates, dfa_state, running_sum,
    siblings), starting from the empty pattern with the index's items as
    candidates, and narrowing them where ``index.narrows``.  Every
    gate is applied here; ``index`` only supplies the bitmaps and the
    S-step.

    Returns the emitted entries as one list per element count, the counts
    ascending.  A node's children pop from the stack with the S-children
    first, then the I-children, each kind by ascending item: the pre-order
    walk of SPAM's lexicographic tree (Ayres et al. 2002).  It meets the
    patterns of one element count in canonical order, so each list is
    sorted as it is filled: a node comes before its descendants of its own
    element count, which extend its last element; children come by
    ascending item; and any descendant of P·c, which keeps P's last element
    as it is, comes before any of P + d, which extends that element.

    At each node the gates run before any count.  The sum gate drops the
    candidates whose cost would lift a summed upper bound past it; costs are
    non-negative, so no descendant could take them either and they leave the
    candidate list.  The DFA gate leaves uncounted the candidates with no
    transition from the node's state into a live state; they stay in the
    inherited list, since a deeper state may admit them.  An item with no
    cost entry passes the sum gate and raises in ``AggregateSpec.cost_of``
    once it is a frequent extension the DFA admits.

    Each frequent extension reads its supporters' int from its head bits
    once (``index.sid_bits``); its frame and entry keep no count beside it.
    Where the search narrows, deleting the item a node P added from the
    node's extension by c leaves a sibling extension of P, as frequent in
    every sequence that holds the extension: P·d·c and P·(d c) leave P·c,
    and (P + d)·c leaves P·c, but (P + d) + c leaves P + c (``+`` adds an
    item to the last element).  So ``siblings`` holds P's S-hits and, for
    I-candidates, P's S-hits after an S-step and P's I-hits after an
    I-step, by item; ``_bound`` skips a candidate (``stats.bounded``) when
    fewer than fmin of the node's supporters support its sibling.  A
    candidate with no sibling is counted: the root's, one the regex gated
    at P, one P found only as an I-hit.  A maxgap window moves as the
    pattern grows, so a deleted middle element can break the sibling's
    gaps; then ``index.narrows`` is clear and the search keeps no
    siblings."""
    dfa = cs.regex
    agg = cs.aggregate
    costs = agg.costs if agg is not None and agg.prunes_as_sum() else None
    viable = None if costs is None else agg.sum_viable
    # Per DFA state, the items that step into a live state.
    admits = None
    if dfa is not None:
        admits = [frozenset(c for c, t in table.items() if t in dfa.live) for table in dfa.transitions]
    accepts = cs.accepts
    after_of, items, narrow = index.after, index.items, index.narrows
    # Per S-step kind (later, first): the last-occurrence bits where that
    # step admits a suffix of each sequence, else None.
    lasts = tuple(None if width is not None else index.lasts for _, width in index.windows)
    maxlen, minlen, itemsets = params.maxlen, params.minlen, index.itemsets
    trusted = Pattern._trusted
    # One one-item element per item, shared by every pattern that appends it.
    singles = {c: (c,) for c in items}
    # The emitted entries by element count, each list in canonical order.
    sink: defaultdict[int, list[ResultEntry]] = defaultdict(list)
    # Every sequence supports the empty pattern, the root, which is never
    # emitted (minlen >= 1) and has no siblings.
    stack = [((), None, 0, list(items), dfa.start if dfa is not None else None, 0, None)]
    while stack:
        elements, entries, bits, candidates, dfa_state, running_sum, siblings = stack.pop()
        stats.nodes_expanded += 1
        _check_deadline(deadline)
        depth = len(elements)
        emits = depth >= minlen and (dfa is None or dfa_state in dfa.accepting) and accepts(elements)
        if emits:
            sink[depth].append(ResultEntry(trusted(elements), bits))
        grows = depth < maxlen
        augments = itemsets and depth > 0
        if not (grows or augments):
            continue
        offered = len(candidates)
        if costs is not None:
            candidates = [c for c in candidates if (k := costs.get(c)) is None or viable(running_sum + k)]
        tests = candidates
        # mine() rejects a regex on itemset data, so a regex run only appends.
        if admits is not None:
            allowed = admits[dfa_state]
            tests = [c for c in candidates if c in allowed]
        # Candidates are ascending, so the ones above the last item are a tail.
        aug_tests = candidates[bisect_right(candidates, elements[-1][-1]) :] if augments else []
        s_tests, a_tests = (tests if grows else []), aug_tests
        if siblings is not None:
            offered_tests = len(s_tests) + len(a_tests)
            s_tests, a_tests = _bound(s_tests, bits, siblings[0], fmin), _bound(a_tests, bits, siblings[1], fmin)
            stats.bounded += offered_tests - len(s_tests) - len(a_tests)
        s_hits = _count(index, after_of(entries, depth == 1), s_tests, fmin, lasts[depth == 1]) if grows else []
        a_hits = _count(index, entries, a_tests, fmin) if augments else []
        stats.candidate_tests += len(s_tests) + len(a_tests)
        stats.gated += offered - len(tests)
        if not (s_hits or a_hits):
            continue

        local = [hit[0] for hit in s_hits]
        inherited = candidates
        # The siblings of an S-child's and an I-child's (S, I) candidates.
        s_child = a_child = None
        if narrow:
            if tests is candidates:
                inherited = local
            else:
                frequent = set(local)
                inherited = [c for c in candidates if c in frequent or c not in allowed]
            s_bits = {c: b for c, _, b in s_hits}
            s_child = (s_bits, s_bits)
        # The stack pops the S-children in ascending order, then the
        # I-children in ascending order, so they go on in reverse.
        if a_hits:
            # An item that never occurs after the last element's leftmost match
            # cannot appear in a later element, but it can still augment the
            # last one, so augment-children get the union of both lists.
            a_inherited = inherited
            if narrow:
                a_inherited = sorted(set(local).union(hit[0] for hit in a_hits))
                a_child = (s_bits, {c: b for c, _, b in a_hits})
            head, last = elements[:-1], elements[-1]
            for c, x, b in reversed(a_hits):
                new_sum = 0 if costs is None else running_sum + agg.cost_of(c)
                stack.append((head + (last + (c,),), x, b, a_inherited, dfa_state, new_sum, a_child))
        for c, x, b in reversed(s_hits):
            nxt_state = dfa_state if dfa is None else dfa.step(dfa_state, c)
            new_sum = 0 if costs is None else running_sum + agg.cost_of(c)
            stack.append((elements + (singles[c],), x, b, inherited, nxt_state, new_sum, s_child))
    return [sink[depth] for depth in sorted(sink)]


# ---------------------------------------------------------------------------
# Entry points


def mine(
    db: SequenceDatabase,
    params: MiningParams,
    constraints: ConstraintSet | None = None,
    *,
    timeout: float | None = None,
    stats: MineStats | None = None,
    condensed_within_constraints: bool = False,
) -> MiningResult:
    """Mine the database under the given parameters and optional constraints
    (``None`` is ``ConstraintSet()``).

    Condensed modes run the frequent search first, then filter.  Without
    constraints that search emits every frequent pattern up to ``maxlen``,
    so ``mine`` passes ``complete_to=maxlen`` and the filter judges by
    lookup in the result (see ``condensed.filter_result``).  On a
    database with multi-item elements patterns grow by adding an item to an
    element too, and a regex raises ConstraintError.  Returns a canonically
    ordered result, built by ``MiningResult.build`` from the search's lists
    one after the other, which are in that order already, so nothing is
    sorted; raises MiningTimeout past the deadline, and ValueError for a
    ``timeout`` that is not > 0 (NaN would never pass).
    """
    from . import condensed as _condensed

    if timeout is not None and not timeout > 0:
        raise ValueError(f"timeout must be > 0 seconds, got {timeout!r}")
    cs = ConstraintSet() if constraints is None else constraints
    if cs.regex is not None and not db.simple_mode:
        raise ConstraintError("regex constraints require simple mode")
    fmin = params.resolved_fmin(len(db))
    stats = stats if stats is not None else MineStats()
    deadline = None if timeout is None else time.monotonic() + timeout

    by_length = _search(_Index(db, fmin, cs), fmin, params, cs, stats, deadline)
    result = MiningResult.build(chain.from_iterable(by_length))
    if params.mode != "frequent":
        result = _condensed.filter_result(
            db,
            result,
            fmin,
            kind=params.mode,
            complete_to=params.maxlen if cs.is_neutral() else None,
            within_constraints=condensed_within_constraints,
            deadline=deadline,
        )
    return result

