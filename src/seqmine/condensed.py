"""Closed and maximal pattern filtering.

The core test asks, per supporter sequence: which single items could be
inserted into the pattern while that sequence still contains the result?
For insertion as a new element between pattern positions i-1 and i, the
answer is exactly the items found strictly between

* the leftmost position where any embedding matches element i-1 (0 when
  i = 1), and
* the rightmost position where any embedding matches element i (n+1 past
  the last element).

A pattern is maximal when no insertion candidate is shared by fmin
supporters, closed when none is shared by *all* supporters, and the
backward variants restrict insertions to the append slot after the last
element.  In itemset mode a second extension kind exists (adding an item to
an existing element); it is checked at the matches of that element lying
strictly between the leftmost match of element i-1 and the rightmost match
of element i+1, the positions some embedding uses for it.

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

    The leftmost matches are the fill-gaps frontier; the rightmost come from
    one greedy sweep backwards from the sequence's end.
    """
    s = as_elements(seq)
    p = as_elements(pattern)
    if not p:
        return OccurrenceBounds((), ())
    frontier = fill_gaps_frontier(s, p)
    if not frontier.supports:
        return None
    rightmost = [0] * len(p)
    j = len(s)
    for i in range(len(p) - 1, -1, -1):
        while not is_subitemset(p[i], s[j - 1]):
            j -= 1
        rightmost[i] = j
        j -= 1
    return OccurrenceBounds(frontier.firsts, tuple(rightmost))


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
    n = len(s)
    bounds = []
    items = []
    for i in range(1, len(p) + 2):
        lo = ob.leftmost[i - 2] if i >= 2 else 0
        hi = ob.rightmost[i - 1] if i <= len(p) else n + 1
        bounds.append((lo, hi))
        inside: set[int] = set()
        for j in range(lo + 1, hi):
            inside.update(s[j - 1])
        items.append(frozenset(inside))
    return InsertableRegions(tuple(bounds), tuple(items))


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
    keys: set[tuple] = set()
    regions = insertable_regions(s, p)
    positions = [len(p) + 1] if append_only else range(1, len(p) + 2)
    for i in positions:
        for a in regions.items[i - 1]:
            keys.add(("ins", i, a))
    if itemset_mode:
        for i in [len(p)] if append_only else range(1, len(p) + 1):
            elem = p[i - 1]
            pool: set[int] = set()
            for j in range(regions.bounds[i - 1][0] + 1, regions.bounds[i][1]):
                if is_subitemset(elem, s[j - 1]):
                    pool.update(s[j - 1])
            pool.difference_update(elem)
            for a in pool:
                keys.add(("aug", i, a))
    return keys


def _supporter_keys(db, pattern, support_ids, itemset_mode, append_only):
    for sid in support_ids:
        yield _extension_candidates(
            db.sequence(sid), pattern, itemset_mode=itemset_mode, append_only=append_only
        )


def _no_frequent_extension(db, pattern, fmin, support_ids, itemset_mode, append_only) -> bool:
    counts: dict[tuple, int] = {}
    for keys in _supporter_keys(db, pattern, support_ids, itemset_mode, append_only):
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
            if counts[key] >= fmin:
                return False
    return True


def _no_common_extension(db, pattern, support_ids, itemset_mode, append_only) -> bool:
    common: set[tuple] | None = None
    for keys in _supporter_keys(db, pattern, support_ids, itemset_mode, append_only):
        common = set(keys) if common is None else (common & keys)
        if not common:
            return True
    return not common


def is_maximal(
    db: SequenceDatabase,
    pattern: Pattern,
    fmin: int,
    support_ids: tuple[int, ...],
    *,
    itemset_mode: bool = False,
) -> bool:
    """No single-item extension is supported by fmin of the given supporters."""
    return _no_frequent_extension(db, pattern, fmin, support_ids, itemset_mode, False)


def is_closed(
    db: SequenceDatabase,
    pattern: Pattern,
    fmin: int,
    support_ids: tuple[int, ...],
    *,
    itemset_mode: bool = False,
) -> bool:
    """No single-item extension is supported by all of the given supporters."""
    return _no_common_extension(db, pattern, support_ids, itemset_mode, False)


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
    if kind == "maximal":
        return _no_frequent_extension(db, pattern, fmin, support_ids, itemset_mode, True)
    if kind == "closed":
        return _no_common_extension(db, pattern, support_ids, itemset_mode, True)
    raise ValueError(f"unknown backward kind: {kind!r}")


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
            if kind.endswith("closed"):
                ok = best.get(e.pattern.elements) != e.support
            else:
                ok = best.get(e.pattern.elements, 0) < fmin
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
