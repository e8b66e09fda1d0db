"""Containment relations and per-sequence embedding representations.

All positions are 1-based.  An embedding of pattern P (elements p_1..p_m) in
sequence S (elements s_1..s_n) is a strictly increasing position mapping
e_1 < ... < e_m with p_i a sub-itemset of s_{e_i}.

Two redundant representations of "where P sits inside S" are provided:

* skip-gaps: the set of pairs (i, j) such that s_j matches p_i and some
  embedding of the length-i prefix ends at j.  Built level by level; level
  i+1 admits any match strictly after the minimum of level i.
* fill-gaps frontier: for each prefix length i, the least j such that the
  length-i prefix embeds within the first j elements.  The induced pair set
  {(i, j) : first_i <= j <= n} is monotone in j and a superset of skip-gaps.

Both answer the support question identically; they differ in memory shape.
They are the paper's two encodings of embeddings, kept here as reference
models: the search and the condensed filter keep the fill-gaps frontier of
every sequence at once (``miner._Index``); ``condensed.insertable_regions``
reads it forwards and over the reversed sequence.
"""

from __future__ import annotations

from .seqdb import Elements, Itemset, Pattern, Sequence, SequenceDatabase, _Frozen


def as_elements(x: Pattern | Sequence | Elements) -> Elements:
    """Accept a Pattern, a Sequence, or raw element tuples interchangeably."""
    return x.elements if hasattr(x, "elements") else x  # type: ignore[union-attr]


def is_subitemset(a: Itemset, b: Itemset) -> bool:
    """True when every item of a occurs in b (both strictly increasing)."""
    if len(a) == 1:
        return a[0] in b
    return len(a) <= len(b) and set(a).issubset(b)


def is_subsequence(pattern: Pattern | Elements, target: Pattern | Sequence | Elements) -> bool:
    """Greedy leftmost test for pattern containment (vacuous truth when empty).

    ``target`` may be a sequence or another pattern, so the same predicate
    serves embedding checks and pattern-over-pattern containment.
    """
    pat = as_elements(pattern)
    tgt = as_elements(target)
    j = 0
    for pelem in pat:
        while j < len(tgt) and not is_subitemset(pelem, tgt[j]):
            j += 1
        if j == len(tgt):
            return False
        j += 1
    return True


def is_prefix(pattern: Pattern | Elements, target: Pattern | Sequence | Elements) -> bool:
    """Prefix containment: all but the last element equal, last a sub-itemset.

    The empty pattern is a prefix of everything.
    """
    pat = as_elements(pattern)
    tgt = as_elements(target)
    if not pat:
        return True
    if len(pat) > len(tgt):
        return False
    for i in range(len(pat) - 1):
        if pat[i] != tgt[i]:
            return False
    return is_subitemset(pat[-1], tgt[len(pat) - 1])


def support(db: SequenceDatabase, pattern: Pattern) -> tuple[int, tuple[int, ...]]:
    """Count and list the sids of sequences containing the pattern."""
    if len(pattern) == 0:
        raise ValueError("support of the empty pattern is undefined")
    ids = tuple(s.sid for s in db.sequences if is_subsequence(pattern, s))
    return len(ids), ids


# ---------------------------------------------------------------------------
# Skip-gaps


class SkipGapsEmbedding(_Frozen):
    """All (pattern_pos, seq_pos) pairs reachable by prefix embeddings."""

    __slots__ = _fields = ("pattern_len", "seq_len", "pairs")

    def __init__(self, pattern_len: int, seq_len: int, pairs: frozenset[tuple[int, int]]) -> None:
        self._init(pattern_len, seq_len, pairs)

    @property
    def supports(self) -> bool:
        if self.pattern_len == 0:
            return True
        return any(k == self.pattern_len for (k, _) in self.pairs)


def _match_positions(seq_elems: Elements, pelem: Itemset) -> list[int]:
    return [j for j, selem in enumerate(seq_elems, start=1) if is_subitemset(pelem, selem)]


def skip_gaps_levels(seq: Sequence | Elements, pattern: Pattern | Elements) -> list[list[int]]:
    """Per pattern position, the sorted matched positions (skip-gaps levels)."""
    s = as_elements(seq)
    levels: list[list[int]] = []
    floor = 0
    for pelem in as_elements(pattern):
        level = [j for j in _match_positions(s, pelem) if j > floor]
        levels.append(level)
        if not level:
            # no deeper level can match; remaining levels are empty
            levels.extend([] for _ in range(len(as_elements(pattern)) - len(levels)))
            break
        floor = level[0]
    return levels


def skip_gaps_embedding(seq: Sequence | Elements, pattern: Pattern | Elements) -> SkipGapsEmbedding:
    s = as_elements(seq)
    p = as_elements(pattern)
    pairs = frozenset(
        (i, j) for i, level in enumerate(skip_gaps_levels(s, p), start=1) for j in level
    )
    return SkipGapsEmbedding(len(p), len(s), pairs)


# ---------------------------------------------------------------------------
# Fill-gaps


class FillGapsFrontier(_Frozen):
    """Leftmost-embedding frontier.

    ``firsts`` holds, for each matched prefix length i (1-based, as many as
    matched), the least position j with prefix i embedded in s_1..s_j.  The
    full pair set is implied: (i, j) holds for every j from firsts[i-1] to n.
    """

    __slots__ = _fields = ("pattern_len", "seq_len", "firsts")

    def __init__(self, pattern_len: int, seq_len: int, firsts: tuple[int, ...]) -> None:
        self._init(pattern_len, seq_len, firsts)

    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (i, j)
            for i, first in enumerate(self.firsts, start=1)
            for j in range(first, self.seq_len + 1)
        )

    @property
    def supports(self) -> bool:
        return len(self.firsts) == self.pattern_len


def fill_gaps_frontier(seq: Sequence | Elements, pattern: Pattern | Elements) -> FillGapsFrontier:
    s = as_elements(seq)
    p = as_elements(pattern)
    firsts: list[int] = []
    positions = enumerate(s, start=1)
    for pelem in p:
        for j, selem in positions:
            if is_subitemset(pelem, selem):
                firsts.append(j)
                break
        else:
            break
    return FillGapsFrontier(len(p), len(s), tuple(firsts))
