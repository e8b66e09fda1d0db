"""Closed and maximal pattern filtering.

One rule judges every kind: a pattern is dominated when some one-item
extension (an item inserted as a new element, or, where the database has
multi-item elements, added to an element) is contained in ``need`` of its
supporters, fmin for maximal and all of them for closed; backward kinds
extend only after the last element.

When the caller vouches that the result holds every frequent pattern up to
some length (``mine()`` does so for unconstrained runs, up to ``maxlen``),
every extension of a shorter pattern that could disqualify it is itself in
the result: ``filter_result`` then judges such a pattern by looking it up
among the one-item deletions of the result's patterns.  Every other
pattern (at that length, from a constrained run, or from a result no
caller vouches for, e.g. one read back with ``read_results``) counts its
extensions on the database's unconstrained vertical bitmaps
(``miner._Index``), the fill-gaps frontier of every sequence at once.
The index turns an entry's supporters' int (``ResultEntry.sid_bits``)
into head bits and back, so this module reads no byte layout of its own.
"""

from __future__ import annotations

from functools import reduce
from operator import and_

from .seqdb import Elements, MiningResult, Pattern, ResultEntry, Sequence, SequenceDatabase, _Frozen
from .relations import as_elements, fill_gaps_frontier, is_prefix, is_subsequence
from .constraints import ConstraintSet
from .miner import _Index, _check_deadline


class InsertableRegions(_Frozen):
    """Insertion slots of one supporter sequence.

    ``bounds[i-1]`` is the open interval (l_i, u_i) for inserting a new
    element between pattern positions i-1 and i (i ranges over 1..len+1);
    ``items[i-1]`` is the set of items occurring strictly inside it.
    """

    __slots__ = _fields = ("bounds", "items")

    def __init__(self, bounds: tuple[tuple[int, int], ...], items: tuple[frozenset[int], ...]) -> None:
        self._init(bounds, items)


def insertable_regions(seq: Sequence | Elements, pattern: Pattern | Elements) -> InsertableRegions:
    """The per-sequence reference model of the insertion slots: the lower
    ends of slots 2..len+1 are the pattern's leftmost matches over all
    embeddings (the fill-gaps frontier), the upper ends of slots 1..len the
    rightmost (the frontier of the reversed pattern in the reversed sequence)."""
    s = as_elements(seq)
    p = as_elements(pattern)
    frontier = fill_gaps_frontier(s, p)
    if not frontier.supports:
        raise ValueError("pattern does not occur in the sequence")
    mirrored = fill_gaps_frontier(s[::-1], p[::-1]).firsts
    rightmost = tuple([len(s) + 1 - j for j in reversed(mirrored)])
    bounds = tuple(zip((0,) + frontier.firsts, rightmost + (len(s) + 1,)))
    items = tuple([frozenset().union(*s[lo : hi - 1]) for lo, hi in bounds])
    return InsertableRegions(bounds, items)


def _plain_index(db: SequenceDatabase) -> tuple[_Index, dict[int, int]]:
    """The database's unconstrained bitmaps and each item's sid int, the
    sequences that hold it (bit k-1 for sid k, as ``ResultEntry.sid_bits``)."""
    index = _Index(db, 1, ConstraintSet())
    item_sids = {c: index.sid_bits((x + index.carry) & index.heads) for c, x in index.items.items()}
    return index, item_sids


def _reaches(plain, entry: ResultEntry, need: int, append_only: bool) -> bool:
    """Whether some one-item extension of ``entry.pattern`` is contained in
    at least ``need`` of the entry's supporters, on ``_plain_index(db)``.

    The prefixes' leftmost matches come from the S-step ``after`` (an
    unconstrained index has one window).  For each insertion slot (on
    itemset data also each element to augment) and each item that ``need``
    supporters hold, a walk ANDs in the item's bitmap, steps through the
    rest of the pattern and counts the head bits it leaves among the
    supporters' own (``index.head_bits``), stopping once the count falls
    below ``need``."""
    index, item_sids = plain
    after, items, carry = index.after, index.items, index.carry
    supporters = entry.sid_bits
    tests = [c for c, s in item_sids.items() if (s & supporters).bit_count() >= need]
    heads = index.head_bits(supporters)
    p = as_elements(entry.pattern)
    bits = [reduce(and_, [items.get(c, 0) for c in elem]) for elem in p]
    prefixes = [None]  # the entries of p_1..p_i, None for the empty prefix
    for x in bits:
        prefixes.append(after(prefixes[-1], False) & x)

    def walk(entries: int, rest: list[int]) -> bool:
        for x in rest:
            if ((entries + carry) & heads).bit_count() < need:
                return False
            entries = after(entries, False) & x
        return ((entries + carry) & heads).bit_count() >= need

    k = len(p)
    for i in [k] if append_only else range(k + 1):
        base, rest = after(prefixes[i], False), bits[i:]
        if any(walk(base & items[c], rest) for c in tests):
            return True
    if index.itemsets:
        for i in [k - 1] if append_only and k else range(k):
            base, rest = prefixes[i + 1], bits[i + 1 :]
            if any(walk(base & items[c], rest) for c in tests if c not in p[i]):
                return True
    return False


def is_maximal(db: SequenceDatabase, pattern: Pattern, fmin: int, support_ids: tuple[int, ...]) -> bool:
    """No single-item extension is supported by fmin of the given supporters;
    each call builds the database's bitmaps (``filter_result`` builds them once)."""
    return not _reaches(_plain_index(db), ResultEntry.from_ids(pattern, support_ids), fmin, False)


def is_closed(db: SequenceDatabase, pattern: Pattern, support_ids: tuple[int, ...]) -> bool:
    """No single-item extension is supported by all of the given supporters, each
    counted once; each call builds the database's bitmaps (``filter_result`` builds them once)."""
    entry = ResultEntry.from_ids(pattern, support_ids)
    return not _reaches(_plain_index(db), entry, entry.support, False)


def backward_filter(
    db: SequenceDatabase, pattern: Pattern, fmin: int, support_ids: tuple[int, ...], kind: str
) -> bool:
    """Closed/maximal restricted to append-slot extensions (prefix growth);
    each call builds the database's bitmaps (``filter_result`` builds them once)."""
    if kind not in ("closed", "maximal"):
        raise ValueError(f"unknown backward kind: {kind!r}")
    entry = ResultEntry.from_ids(pattern, support_ids)
    return not _reaches(_plain_index(db), entry, fmin if kind == "maximal" else entry.support, True)


# ---------------------------------------------------------------------------
# Result-level filtering


def _pairwise_keep(result: MiningResult, kind: str, deadline: float | None) -> list[ResultEntry]:
    """Strict in-language filtering: compare patterns only against the result set."""
    relation = is_prefix if kind.startswith("backward") else is_subsequence
    need_equal_support = kind.endswith("closed")
    kept = []
    for e in result.entries:
        _check_deadline(deadline)
        dominated, support = False, e.support
        for other in result.entries:
            if other.pattern == e.pattern or len(other.pattern) < len(e.pattern):
                continue
            if relation(e.pattern, other.pattern):
                if not need_equal_support or other.support == support:
                    dominated = True
                    break
        if not dominated:
            kept.append(e)
    return kept


def _best_extension_support(entries: tuple[ResultEntry, ...], append_only: bool) -> dict[Elements, int]:
    """Map every one-item deletion of every entry's pattern to the highest
    support among the patterns it came from.

    Deleting a one-item element undoes an insertion; deleting one item of a
    larger element, which only itemset data holds, undoes an augmentation.
    Backward kinds delete only from the last element.
    """
    best: dict[Elements, int] = {}
    for e in entries:
        p, support = e.pattern.elements, e.support
        for i in [len(p) - 1] if append_only else range(len(p)):
            elem = p[i]
            for k in range(len(elem)):
                rest = elem[:k] + elem[k + 1:]
                sub = p[:i] + ((rest,) if rest else ()) + p[i + 1:]
                if best.get(sub, 0) < support:
                    best[sub] = support
    return best


def filter_result(
    db: SequenceDatabase,
    result: MiningResult,
    fmin: int,
    kind: str,
    *,
    complete_to: int | None = None,
    within_constraints: bool = False,
    deadline: float | None = None,
) -> MiningResult:
    """Reduce a frequent result to its closed/maximal/backward-variant subset.

    Default semantics judge each pattern by single-item extension checks
    against its own supporters (unrestricted by any active constraint set);
    ``within_constraints`` judges it only against the result's patterns.

    ``complete_to`` is the caller's promise that ``result`` holds every
    pattern of length ``minlen``..``complete_to`` with support >= ``fmin``.
    A pattern shorter than ``complete_to`` is then dominated exactly when
    one of its one-item extensions is in the result with equal support
    (closed kinds) or support of at least ``fmin`` (maximal kinds); within
    constraints the same lookup also judges patterns at ``complete_to``,
    whose only super-patterns in the result are augmentations.  Without
    the promise (``None``), ``within_constraints`` compares every pair of
    entries, and otherwise every pattern counts its extensions on bitmaps
    built once (``_reaches``); both are right for any input.
    """
    if kind not in ("closed", "maximal", "backward-closed", "backward-maximal"):
        raise ValueError(f"unknown condensed kind: {kind!r}")
    if within_constraints and complete_to is None:
        return MiningResult.build(_pairwise_keep(result, kind, deadline))
    append_only = kind.startswith("backward")
    closed = kind.endswith("closed")
    best = {} if complete_to is None else _best_extension_support(result.entries, append_only)
    plain = None
    kept = []
    for e in result.entries:
        _check_deadline(deadline)
        if complete_to is not None and (within_constraints or len(e.pattern) < complete_to):
            ok = best.get(e.pattern.elements, 0) < (e.support if closed else fmin)
        else:
            plain = plain or _plain_index(db)
            ok = not _reaches(plain, e, e.support if closed else fmin, append_only)
        if ok:
            kept.append(e)
    return MiningResult.build(kept)
