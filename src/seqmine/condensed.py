"""Closed and maximal pattern filtering.

The core test asks, per supporter sequence: which single items could be
inserted into the pattern while that sequence still contains the result?
For insertion as a new element between pattern positions i-1 and i, the
answer is exactly the items found strictly between

* the leftmost position where any embedding matches element i-1 (0 when
  i = 1), and
* the rightmost position where any embedding matches element i (n+1 past
  the last element),

both from the fill-gaps frontier, read forwards and over the reversed
sequence.  One rule judges every kind: a pattern is dominated when some
one-item extension is admitted by ``need`` of its supporters, fmin for
maximal and all of them for closed; backward kinds extend only after the
last element.  In itemset mode an item may also join an existing element,
checked at the matches of element i strictly between the leftmost match of
element i-1 and the rightmost match of element i+1.

A supporter admits an extension exactly when it contains the one-item
extension pattern, so an extension's supporter count is that pattern's
support.  When the frequent result is complete (no constraints, a
threshold no higher than the caller's), every extension of a pattern
shorter than ``maxlen`` that could disqualify it is itself in the result:
``filter_result`` then judges such a pattern by looking it up among the
one-item deletions of the result's patterns, and rescans supporters only
for patterns at ``maxlen`` (whose insertions are longer than the result
holds) and for constrained runs (whose output is not the frequent set).
"""

from __future__ import annotations

from dataclasses import dataclass

from .seqdb import Elements, MiningResult, Pattern, ResultEntry, Sequence, SequenceDatabase
from .relations import as_elements, fill_gaps_frontier, is_prefix, is_subitemset, is_subsequence
from .miner import _check_deadline


@dataclass(frozen=True)
class OccurrenceBounds:
    """Per pattern position: leftmost and rightmost match over all embeddings."""

    leftmost: tuple[int, ...]
    rightmost: tuple[int, ...]


def occurrence_bounds(seq: Sequence | Elements, pattern: Pattern | Elements) -> OccurrenceBounds | None:
    """Bounds of the pattern's embeddings in one sequence; None if unsupported.

    The leftmost matches are the fill-gaps frontier; the rightmost are the
    frontier of the reversed pattern in the reversed sequence, mirrored.
    """
    s = as_elements(seq)
    p = as_elements(pattern)
    frontier = fill_gaps_frontier(s, p)
    if not frontier.supports:
        return None
    mirrored = fill_gaps_frontier(s[::-1], p[::-1]).firsts
    return OccurrenceBounds(frontier.firsts, tuple([len(s) + 1 - j for j in reversed(mirrored)]))


@dataclass(frozen=True)
class InsertableRegions:
    """Insertion slots of one supporter sequence.

    ``bounds[i-1]`` is the open interval (l_i, u_i) for inserting a new
    element between pattern positions i-1 and i (i ranges over 1..len+1);
    ``items[i-1]`` is the set of items occurring strictly inside it.
    """

    bounds: tuple[tuple[int, int], ...]
    items: tuple[frozenset[int], ...]


def insertable_regions(seq: Sequence | Elements, pattern: Pattern | Elements) -> InsertableRegions:
    s = as_elements(seq)
    p = as_elements(pattern)
    ob = occurrence_bounds(s, p)
    if ob is None:
        raise ValueError("pattern does not occur in the sequence")
    bounds = tuple(zip((0,) + ob.leftmost, ob.rightmost + (len(s) + 1,)))
    items = tuple([frozenset().union(*s[lo : hi - 1]) for lo, hi in bounds])
    return InsertableRegions(bounds, items)


def _extension_candidates(
    seq: Sequence | Elements, pattern: Pattern | Elements, *, itemset_mode: bool, append_only: bool
) -> set[tuple]:
    """All single-item extension keys this supporter admits.

    Keys are ("ins", position, item) for new-element insertion and
    ("aug", position, item) for element augmentation (itemset mode).  Some
    embedding matches element i at j exactly when p_i is a sub-itemset of
    s_j and j lies between the lower end of slot i and the upper end of slot
    i+1, so augmentations read the same regions as insertions.
    """
    s = as_elements(seq)
    p = as_elements(pattern)
    regions = insertable_regions(s, p)
    positions = [len(p) + 1] if append_only else range(1, len(p) + 2)
    keys = {("ins", i, a) for i in positions for a in regions.items[i - 1]}
    if itemset_mode:
        for i in [len(p)] if append_only else range(1, len(p) + 1):
            lo, hi = regions.bounds[i - 1][0], regions.bounds[i][1]
            pool = set().union(*(x for x in s[lo : hi - 1] if is_subitemset(p[i - 1], x)))
            keys.update(("aug", i, a) for a in pool.difference(p[i - 1]))
    return keys


def _reaches(db, pattern, need, support_ids, itemset_mode, append_only) -> bool:
    """Whether some one-item extension is admitted by ``need`` supporters.

    Once fewer than ``need`` supporters are left, only counted keys can
    reach ``need``, so later supporters count only those; keys whose count
    plus the supporters left falls short are dropped, and the scan stops
    when none is left.  For closed checks that is the running intersection.
    """
    counts: dict[tuple, int] = {}
    left = len(support_ids)
    for sid in support_ids:
        keys = _extension_candidates(
            db.sequence(sid), pattern, itemset_mode=itemset_mode, append_only=append_only
        )
        if left < need:
            keys &= counts.keys()
        left -= 1
        for key in keys:
            count = counts[key] = counts.get(key, 0) + 1
            if count >= need:
                return True
        if left + 1 < need:  # only then can a count (at least 1) fall short
            counts = {key: count for key, count in counts.items() if count + left >= need}
            if not counts:
                return False
    return False


def is_maximal(
    db: SequenceDatabase,
    pattern: Pattern,
    fmin: int,
    support_ids: tuple[int, ...],
    *,
    itemset_mode: bool = False,
) -> bool:
    """No single-item extension is supported by fmin of the given supporters."""
    return not _reaches(db, pattern, fmin, support_ids, itemset_mode, False)


def is_closed(
    db: SequenceDatabase,
    pattern: Pattern,
    fmin: int,
    support_ids: tuple[int, ...],
    *,
    itemset_mode: bool = False,
) -> bool:
    """No single-item extension is supported by all of the given supporters."""
    return not _reaches(db, pattern, len(support_ids), support_ids, itemset_mode, False)


def backward_filter(
    db: SequenceDatabase,
    pattern: Pattern,
    fmin: int,
    support_ids: tuple[int, ...],
    kind: str,
    *,
    itemset_mode: bool = False,
) -> bool:
    """Closed/maximal restricted to append-slot extensions (prefix growth)."""
    if kind not in ("closed", "maximal"):
        raise ValueError(f"unknown backward kind: {kind!r}")
    need = fmin if kind == "maximal" else len(support_ids)
    return not _reaches(db, pattern, need, support_ids, itemset_mode, True)


# ---------------------------------------------------------------------------
# Result-level filtering


def _pairwise_keep(result: MiningResult, kind: str, deadline: float | None) -> list[ResultEntry]:
    """Strict in-language filtering: compare patterns only against the result set."""
    relation = is_prefix if kind.startswith("backward") else is_subsequence
    need_equal_support = kind.endswith("closed")
    kept = []
    for e in result.entries:
        _check_deadline(deadline)
        dominated = False
        for other in result.entries:
            if other.pattern == e.pattern or len(other.pattern) < len(e.pattern):
                continue
            if relation(e.pattern, other.pattern):
                if not need_equal_support or other.support == e.support:
                    dominated = True
                    break
        if not dominated:
            kept.append(e)
    return kept


def _best_extension_support(
    entries: tuple[ResultEntry, ...], itemset_mode: bool, append_only: bool
) -> dict[Elements, int]:
    """Map every one-item deletion of every entry's pattern to the highest
    support among the patterns it came from.

    Deleting a one-item element undoes an insertion; deleting one item of a
    larger element undoes an augmentation (itemset mode only).  Backward
    kinds delete only from the last element.
    """
    best: dict[Elements, int] = {}
    for e in entries:
        p = e.pattern.elements
        for i in [len(p) - 1] if append_only else range(len(p)):
            elem = p[i]
            if len(elem) > 1 and not itemset_mode:
                continue
            for k in range(len(elem)):
                rest = elem[:k] + elem[k + 1:]
                sub = p[:i] + ((rest,) if rest else ()) + p[i + 1:]
                if best.get(sub, 0) < e.support:
                    best[sub] = e.support
    return best


def filter_result(
    db: SequenceDatabase,
    result: MiningResult,
    fmin: int,
    kind: str,
    *,
    itemset_mode: bool = False,
    constraints=None,
    within_constraints: bool = False,
    deadline: float | None = None,
) -> MiningResult:
    """Reduce a frequent result to its closed/maximal/backward-variant subset.

    Default semantics judge each pattern by single-item extension checks
    against its own supporters (unrestricted by any active constraint set);
    ``within_constraints`` switches to pairwise comparison inside the result.

    The extension checks read the result itself when it is known to hold
    every frequent pattern of length ``minlen``..``maxlen``: no constraints
    (``None`` or neutral), and ``result.params`` records a ``maxlen``, the
    mode ``frequent`` or ``kind``, and a threshold that resolves on ``db``
    to at most ``fmin``.  A pattern shorter than ``maxlen`` is then
    dominated exactly when one of its one-item extensions is in the result
    with equal support (closed kinds) or support of at least ``fmin``
    (maximal kinds).  Patterns at ``maxlen``, constrained runs and results
    without such params (e.g. from ``read_results``) rescan supporters.
    """
    if kind not in ("closed", "maximal", "backward-closed", "backward-maximal"):
        raise ValueError(f"unknown condensed kind: {kind!r}")
    if within_constraints:
        return MiningResult.build(_pairwise_keep(result, kind, deadline), result.params)
    params = result.params
    maxlen = getattr(params, "maxlen", None)
    complete = (
        (constraints is None or constraints.is_neutral())
        and maxlen is not None
        and params.mode in ("frequent", kind)
        and params.resolved_fmin(len(db)) <= fmin
    )
    append_only = kind.startswith("backward")
    best = _best_extension_support(result.entries, itemset_mode, append_only) if complete else {}
    kept = []
    for e in result.entries:
        _check_deadline(deadline)
        if complete and len(e.pattern) < maxlen:
            ok = best.get(e.pattern.elements, 0) < (e.support if kind.endswith("closed") else fmin)
        elif kind == "closed":
            ok = is_closed(db, e.pattern, fmin, e.support_ids, itemset_mode=itemset_mode)
        elif kind == "maximal":
            ok = is_maximal(db, e.pattern, fmin, e.support_ids, itemset_mode=itemset_mode)
        else:
            ok = backward_filter(
                db, e.pattern, fmin, e.support_ids,
                kind.removeprefix("backward-"), itemset_mode=itemset_mode,
            )
        if ok:
            kept.append(e)
    return MiningResult.build(kept, result.params)
