"""Brute-force reference implementations.

Everything here works straight from definitions: containment is an explicit
search over increasing position mappings, enumeration appends one element at
a time over the whole element universe, condensed variants are pairwise
comparisons, and regex acceptance goes through Python's ``re`` on a
translated expression.  Guards refuse inputs large enough to make the
exhaustive approach explode.
"""

from __future__ import annotations

import itertools
import operator as _op
import re as _re
import statistics
# ``seqmine mine`` never imports this module, so dataclasses cost its start-up
# nothing here; the classes it does import use ``seqdb._Frozen`` instead.
from dataclasses import dataclass

from .seqdb import Alphabet, Elements, MiningResult, Pattern, ResultEntry, SequenceDatabase


class GuardError(RuntimeError):
    """Input too large for exhaustive verification."""


@dataclass(frozen=True)
class OracleConfig:
    max_pattern_len: int = 8
    max_alphabet: int = 12
    max_db_size: int = 90
    max_seq_len: int = 40


DEFAULT_CONFIG = OracleConfig()


def _elems(x) -> Elements:
    return x.elements if hasattr(x, "elements") else x


def _contains_itemset(small: tuple[int, ...], big: tuple[int, ...]) -> bool:
    return all(i in big for i in small)


def naive_contains(pattern, target) -> bool:
    """Existence of a strictly increasing matching position mapping.

    The search stays exhaustive but remembers failures: ``walk(pi, lo)``
    tries a subset of the mappings ``walk(pi, lo')`` tries for any
    ``lo' < lo``, so once it fails, every later start for pattern index
    ``pi`` fails too.  A miss then costs O(k·n) rather than O(n^k).
    """
    p = _elems(pattern)
    s = _elems(target)
    failed_from = [len(s) + 1] * len(p)

    def walk(pi: int, lo: int) -> bool:
        if pi == len(p):
            return True
        if lo >= failed_from[pi]:
            return False
        for j in range(lo, len(s)):
            if _contains_itemset(p[pi], s[j]) and walk(pi + 1, j + 1):
                return True
        failed_from[pi] = lo
        return False

    return walk(0, 0)


def naive_support(db: SequenceDatabase, pattern) -> tuple[int, tuple[int, ...]]:
    ids = tuple(s.sid for s in db.sequences if naive_contains(pattern, s))
    return len(ids), ids


def naive_is_prefix(pattern, target) -> bool:
    p = _elems(pattern)
    t = _elems(target)
    if len(p) > len(t):
        return False
    return all(p[i] == t[i] for i in range(len(p) - 1)) and (
        not p or _contains_itemset(p[-1], t[len(p) - 1])
    )


def oracle_embeddings(seq, pattern, config: OracleConfig = DEFAULT_CONFIG) -> tuple[tuple[int, ...], ...]:
    """Every embedding as a tuple of 1-based positions, lexicographic order."""
    p = _elems(pattern)
    s = _elems(seq)
    if len(p) > config.max_pattern_len:
        raise GuardError(f"pattern length {len(p)} exceeds guard {config.max_pattern_len}")
    if len(s) > config.max_seq_len:
        raise GuardError(f"sequence length {len(s)} exceeds guard {config.max_seq_len}")
    found: list[tuple[int, ...]] = []

    def walk(pi: int, lo: int, acc: tuple[int, ...]) -> None:
        if pi == len(p):
            found.append(acc)
            return
        for j in range(lo, len(s)):
            if _contains_itemset(p[pi], s[j]):
                walk(pi + 1, j + 1, acc + (j + 1,))

    walk(0, 0, ())
    return tuple(found)


def _check_guards(db: SequenceDatabase, maxlen: int, config: OracleConfig) -> None:
    if len(db) > config.max_db_size:
        raise GuardError(f"database size {len(db)} exceeds guard {config.max_db_size}")
    if len(db.alphabet) > config.max_alphabet:
        raise GuardError(f"alphabet size {len(db.alphabet)} exceeds guard {config.max_alphabet}")
    if maxlen > config.max_pattern_len:
        raise GuardError(f"maxlen {maxlen} exceeds guard {config.max_pattern_len}")
    for s in db.sequences:
        if len(s) > config.max_seq_len:
            raise GuardError(f"sequence {s.sid} length {len(s)} exceeds guard {config.max_seq_len}")


def _element_universe(db: SequenceDatabase, itemset_mode: bool) -> list[tuple[int, ...]]:
    items = sorted({i for s in db.sequences for i in s.items()})
    if not itemset_mode:
        return [(i,) for i in items]
    universe: list[tuple[int, ...]] = []
    for size in range(1, len(items) + 1):
        universe.extend(itertools.combinations(items, size))
    return universe


def oracle_frequent(
    db: SequenceDatabase,
    fmin: int,
    maxlen: int,
    itemset_mode: bool = False,
    config: OracleConfig = DEFAULT_CONFIG,
) -> MiningResult:
    """All patterns with naive support >= fmin, up to maxlen elements.

    Extends candidates element by element; a branch stops once support drops
    below fmin, which by containment transitivity loses nothing.
    """
    _check_guards(db, maxlen, config)
    universe = _element_universe(db, itemset_mode)
    out: list[ResultEntry] = []

    def extend(prefix: Elements) -> None:
        for elem in universe:
            candidate = prefix + (elem,)
            count, ids = naive_support(db, candidate)
            if count < fmin:
                continue
            out.append(ResultEntry.from_ids(Pattern(candidate), ids))
            if len(candidate) < maxlen:
                extend(candidate)

    extend(())
    return MiningResult.build(out)


def oracle_condensed(result: MiningResult, kind: str) -> MiningResult:
    """Pairwise filter of a frequent set by proper super-pattern comparison."""
    if kind not in ("closed", "maximal", "backward-closed", "backward-maximal"):
        raise ValueError(f"unknown condensed kind: {kind!r}")
    relation = naive_is_prefix if kind.startswith("backward") else naive_contains
    equal_support = kind.endswith("closed")
    kept = []
    for e in result.entries:
        dominated = False
        for other in result.entries:
            if other.pattern == e.pattern:
                continue
            if relation(e.pattern, other.pattern):
                if not equal_support or other.support == e.support:
                    dominated = True
                    break
        if not dominated:
            kept.append(e)
    return MiningResult.build(kept)


# ---------------------------------------------------------------------------
# Constrained reference


def _admissible(mapping: tuple[int, ...], mingap, maxgap, minspan, maxspan) -> bool:
    first = mapping[0]
    for prev, cur in zip(mapping, mapping[1:]):
        gap = cur - prev - 1
        if mingap is not None and gap < mingap:
            return False
        if maxgap is not None and gap > maxgap:
            return False
        span = cur - first + 1
        if minspan is not None and span < minspan:
            return False
        if maxspan is not None and span > maxspan:
            return False
    return True


def reference_regex_match(expr: str, alphabet: Alphabet, pattern) -> bool:
    """Regex acceptance via Python's re over a label-to-character translation.

    Each alphabet label becomes one private-use character, so multi-letter
    labels behave as single regex atoms and postfix operators bind the same
    way as in the engine's grammar.  A label token is the engine's: a maximal
    run of characters that are ``str.isalnum()`` or ``_``.
    """
    p = _elems(pattern)
    if any(len(e) != 1 for e in p):
        raise ValueError("regex reference requires simple patterns")
    translated = []
    for label, op, bad in _re.findall(r"(\w+)|([|*+?()])|(\S)", expr):
        if bad:
            raise ValueError(f"bad regex token {bad!r}")
        translated.append(chr(0xE000 + alphabet.id_of(label)) if label else op)
    # Python reads a** as an error and a*+ as possessive: a run of postfix
    # operators becomes the one it amounts to (a++ is a+, a?? a?, the rest a*).
    pattern = _re.sub(r"[*+?]{2,}", lambda m: m[0][0] if len(set(m[0])) == 1 else "*", "".join(translated))
    subject = "".join(chr(0xE000 + e[0]) for e in p)
    return _re.fullmatch(pattern, subject) is not None


def oracle_constrained(
    db: SequenceDatabase,
    fmin: int,
    maxlen: int,
    constraints,
    minlen: int = 1,
    itemset_mode: bool = False,
    config: OracleConfig = DEFAULT_CONFIG,
) -> MiningResult:
    """Enumerate-then-filter: unconstrained enumeration, then every
    constraint applied as a definitional check.

    Embedding constraints recount support over exhaustively enumerated
    embeddings; pattern constraints use set logic, pairwise containment,
    ``statistics`` aggregates, and the ``re``-based regex reference.
    """
    _check_guards(db, maxlen, config)
    cs = constraints
    base = oracle_frequent(db, fmin, maxlen, itemset_mode, config)
    # Any gap or span bound, even a neutral one, recounts the support.
    want_embedding = any(v is not None for v in (cs.mingap, cs.maxgap, cs.minspan, cs.maxspan))
    out = []
    for e in base.entries:
        ids = e.support_ids
        if want_embedding:
            ids = [
                sid for sid in ids
                if any(
                    _admissible(m, cs.mingap, cs.maxgap, cs.minspan, cs.maxspan)
                    for m in oracle_embeddings(db.sequence(sid), e.pattern, config)
                )
            ]
            if len(ids) < fmin:
                continue
        if not minlen <= len(e.pattern) <= maxlen:
            continue
        items = list(e.pattern.items())
        if cs.must_have and not set(cs.must_have).issubset(items):
            continue
        if cs.cannot_have and set(cs.cannot_have) & set(items):
            continue
        if cs.super_patterns:
            hits = [naive_contains(sp, e.pattern) for sp in cs.super_patterns]
            if not (all(hits) if cs.super_pattern_all else any(hits)):
                continue
        if cs.aggregate is not None:
            agg = cs.aggregate
            values = [agg.cost_of(i) for i in items]
            value = {
                "sum": sum(values),
                "min": min(values),
                "max": max(values),
                "avg": statistics.mean(values),
            }[agg.op]
            cmp = {"le": _op.le, "ge": _op.ge, "lt": _op.lt, "gt": _op.gt, "eq": _op.eq}[agg.cmp]
            if not cmp(value, agg.threshold):
                continue
        if cs.regex is not None:
            if not reference_regex_match(cs.regex.expr, db.alphabet, e.pattern):
                continue
        out.append(ResultEntry.from_ids(e.pattern, ids))
    return MiningResult.build(out)
