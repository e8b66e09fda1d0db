"""Pattern constraints and the regex automaton.

Constraint families:

* item: required (all must appear) and forbidden items;
* length: bounds on the number of pattern elements;
* super-pattern: the mined pattern must contain one (default) or all of the
  given sub-patterns;
* aggregate: sum/min/max/avg of per-item integer costs, counted with
  multiplicity, compared against a threshold;
* regex: the pattern's item sequence must match an expression over item
  labels (simple mode only);
* gap/span: bounds on embedding shape, enforced per extension step.

Each rule is written once.  ``ConstraintSet.accepts`` is the emission check
(item, super-pattern and aggregate); ``ConstraintSet.gap_window`` is the gap
rule and ``ConstraintSet.span_window`` the span rule, both read by the bitmap
search and by the chain step of ``constrained_embeddings``, the reference
model, which admits positions under the gap/span bounds; the regex is
stepped through its DFA, whose live states cut dead prefixes; length bounds
live in ``MiningParams``.

The regex sublanguage supports label tokens, implicit concatenation, ``|``
alternation, ``*`` ``+`` ``?`` postfix repetition, and ``( )`` grouping.  A
label token is a maximal run of characters that are ``str.isalnum()`` or
``_``, so a label with any other character cannot be named in a regex.
Expressions compile through Glushkov's position automaton, which has no
empty moves, into a DFA over item ids with a precomputed live-state set, so
the search can discard prefixes that cannot reach acceptance.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from typing import Iterable, Mapping, TextIO

from .seqdb import Alphabet, Elements, FormatError, Pattern, Sequence, _as_text, _Frozen
from .relations import as_elements, is_subitemset, is_subsequence


class ConstraintError(ValueError):
    """Invalid constraint configuration or constraint/data mismatch."""


class RegexError(ConstraintError):
    """Regex syntax error or label outside the alphabet."""


AGG_CMPS = {
    "le": operator.le,
    "ge": operator.ge,
    "lt": operator.lt,
    "gt": operator.gt,
    "eq": operator.eq,
}

AGG_OPS = ("sum", "min", "max", "avg")


class AggregateSpec(_Frozen):
    """Aggregate of per-item costs over the pattern's items (with multiplicity)."""

    __slots__ = _fields = ("costs", "op", "cmp", "threshold")

    def __init__(self, costs: Mapping[int, int], op: str, cmp: str, threshold: float) -> None:
        self._init(dict(costs), op, cmp, threshold)
        if self.op not in AGG_OPS:
            raise ConstraintError(f"unknown aggregate op: {self.op!r}")
        if self.cmp not in AGG_CMPS:
            raise ConstraintError(f"unknown comparator: {self.cmp!r}")
        # Every comparison with NaN is false, so it would reject every pattern.
        if math.isnan(self.threshold):
            raise ConstraintError("aggregate threshold must not be NaN")
        # ``avg`` divides in floats, which a larger cost would overflow.
        for item, cost in self.costs.items():
            if abs(cost) > sys.float_info.max:
                raise ConstraintError(f"cost of item id {item} is outside the float range")

    def cost_of(self, item: int) -> int:
        try:
            return self.costs[item]
        except KeyError:
            raise ConstraintError(f"no cost entry for item id {item}") from None

    def value(self, items: Iterable[int]) -> float:
        values = [self.cost_of(i) for i in items]
        if not values:
            raise ConstraintError("aggregate over an empty pattern")
        if self.op == "sum":
            return sum(values)
        if self.op == "min":
            return min(values)
        if self.op == "max":
            return max(values)
        return sum(values) / len(values)

    def accepts(self, items: Iterable[int]) -> bool:
        return AGG_CMPS[self.cmp](self.value(items), self.threshold)

    def prunes_as_sum(self) -> bool:
        """Sum with an upper bound over non-negative costs shrinks monotonically."""
        return (
            self.op == "sum"
            and self.cmp in ("le", "lt")
            and all(v >= 0 for v in self.costs.values())
        )

    def sum_viable(self, running_sum: float) -> bool:
        if self.cmp == "le":
            return running_sum <= self.threshold
        return running_sum < self.threshold


class ConstraintSet(_Frozen):
    """Every constraint of a mining run; ``ConstraintSet()`` is no constraint.

    The search asks ``accepts`` before it emits a pattern, reads
    ``gap_window`` and ``span_window`` for the layout and S-step of its
    bitmaps, and steps ``regex`` itself; ``constrained_embeddings`` reads
    the two windows too.
    """

    _fields = (
        "must_have", "cannot_have", "super_patterns", "super_pattern_all", "aggregate", "regex",
        "mingap", "maxgap", "minspan", "maxspan",
    )
    # ``_judges``: whether ``accepts`` has a rule to check; derived, so not a field.
    __slots__ = _fields + ("_judges",)

    def __init__(
        self, must_have: Iterable[int] = frozenset(), cannot_have: Iterable[int] = frozenset(),
        super_patterns: Iterable[Pattern] = (), super_pattern_all: bool = False,
        aggregate: AggregateSpec | None = None, regex: RegexDfa | None = None,
        mingap: int | None = None, maxgap: int | None = None,
        minspan: int | None = None, maxspan: int | None = None,
    ) -> None:
        self._init(
            frozenset(must_have), frozenset(cannot_have), tuple(super_patterns), super_pattern_all,
            aggregate, regex, mingap, maxgap, minspan, maxspan,
        )
        overlap = self.must_have & self.cannot_have
        if overlap:
            raise ConstraintError(f"items both required and forbidden: {sorted(overlap)}")
        for name in ("mingap", "maxgap"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ConstraintError(f"{name} must be >= 0")
        for name in ("minspan", "maxspan"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ConstraintError(f"{name} must be >= 1")
        if self.mingap is not None and self.maxgap is not None and self.mingap > self.maxgap:
            raise ConstraintError("mingap > maxgap")
        if self.minspan is not None and self.maxspan is not None and self.minspan > self.maxspan:
            raise ConstraintError("minspan > maxspan")
        judges = bool(self.must_have or self.cannot_have or self.super_patterns) or self.aggregate is not None
        object.__setattr__(self, "_judges", judges)

    def is_neutral(self) -> bool:
        return self == ConstraintSet()

    def accepts(self, elements: Elements) -> bool:
        """The emission check: must-have, cannot-have, super-pattern (any or
        all) and aggregate, on a complete pattern.  Regex, length and
        gap/span bounds are enforced during the search, so a pattern that
        reaches this check already satisfies them."""
        if not self._judges:
            return True
        items = tuple(i for e in elements for i in e)
        if not self.cannot_have.isdisjoint(items) or not self.must_have.issubset(items):
            return False
        if self.super_patterns:
            hits = (is_subsequence(sp.elements, elements) for sp in self.super_patterns)
            if not (all(hits) if self.super_pattern_all else any(hits)):
                return False
        return self.aggregate is None or self.aggregate.accepts(items)

    def gap_window(self) -> tuple[int, int | None]:
        """The gap rule: the distances ``j - last`` by which a next position j
        may follow the previous match ``last``, so that mingap <= j-last-1 <=
        maxgap.  Returns (lowest, highest), highest ``None`` with no maxgap.
        ``constrained_embeddings`` and the bitmap search's S-step under gap
        bounds both read it."""
        return (self.mingap or 0) + 1, None if self.maxgap is None else self.maxgap + 1

    def span_window(self) -> tuple[int, int | None]:
        """The span rule: the offsets ``j - first`` at which a chain that
        started at ``first`` may take a next position j, so that minspan <=
        j-first+1 <= maxspan.  Returns (lowest, highest), highest ``None``
        with no maxspan.  ``constrained_embeddings`` reads it, and so does
        the bitmap search: highest for its segments, lowest for its first
        S-step's window.  The first position itself takes no check: a
        one-element chain is admitted wherever it matches."""
        return (self.minspan or 1) - 1, None if self.maxspan is None else self.maxspan - 1


# ---------------------------------------------------------------------------
# Regex compilation: lexer -> recursive descent to Glushkov positions -> DFA

# A label, an operator, or any other visible character (an error); the
# characters ``findall`` skips are exactly the ``str.isspace`` ones.
_TOKEN = re.compile(r"(\w+|[|*+?()])|(\S)")
# Each group is four parser frames deep; the bound keeps a deeply nested
# regex a ``RegexError`` rather than a ``RecursionError``.
_MAX_GROUP_DEPTH = 100


def _lex(expr: str) -> list[str]:
    tokens = []
    for tok, bad in _TOKEN.findall(expr):
        if bad:
            raise RegexError(f"unexpected character {bad!r} in regex")
        tokens.append(tok)
    return tokens


class _Parser:
    """Recursive descent to Glushkov's position automaton (Glushkov 1961;
    Berry & Sethi 1986).  Each label occurrence is a position; ``items[p]`` is
    its item id and ``follow[p]`` the positions that may match right after
    it.  A subexpression parses to (nullable, first, last): whether it
    matches the empty word, and the positions that start and end its
    matches."""

    def __init__(self, tokens: list[str], alphabet: Alphabet):
        self.tokens = tokens
        self.pos = 0
        self.alphabet = alphabet
        self.depth = 0  # groups open at ``pos``
        self.items: list[int] = []
        self.follow: list[set[int]] = []

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def parse(self) -> tuple[bool, frozenset[int], frozenset[int]]:
        frag = self.alternation()
        if self.peek() is not None:
            raise RegexError(f"unexpected token {self.peek()!r}")
        return frag

    def alternation(self) -> tuple[bool, frozenset[int], frozenset[int]]:
        nullable, first, last = self.concatenation()
        while self.peek() == "|":
            self.pos += 1
            n, f, l = self.concatenation()
            nullable, first, last = nullable or n, first | f, last | l
        return nullable, first, last

    def concatenation(self) -> tuple[bool, frozenset[int], frozenset[int]]:
        parts = []
        while self.peek() not in (None, "|", ")"):
            parts.append(self.postfix())
        if not parts:
            raise RegexError("empty expression")
        nullable, first, last = parts[0]
        for n, f, l in parts[1:]:
            for p in last:
                self.follow[p] |= f
            first = first | f if nullable else first
            last = last | l if n else l
            nullable = nullable and n
        return nullable, first, last

    def postfix(self) -> tuple[bool, frozenset[int], frozenset[int]]:
        nullable, first, last = self.atom()
        while self.peek() in ("*", "+", "?"):
            if self.peek() != "?":
                for p in last:
                    self.follow[p] |= first
            nullable = nullable or self.peek() != "+"
            self.pos += 1
        return nullable, first, last

    def atom(self) -> tuple[bool, frozenset[int], frozenset[int]]:
        tok = self.peek()
        if tok is None:
            raise RegexError("unexpected end of expression")
        if tok == "(":
            if self.depth == _MAX_GROUP_DEPTH:
                raise RegexError(f"regex nests more than {_MAX_GROUP_DEPTH} groups deep")
            self.pos += 1
            self.depth += 1
            frag = self.alternation()
            if self.peek() != ")":
                raise RegexError("unbalanced parenthesis")
            self.pos += 1
            self.depth -= 1
            return frag
        if tok in ("|", "*", "+", "?", ")"):
            raise RegexError(f"unexpected token {tok!r}")
        self.pos += 1
        if tok not in self.alphabet:
            raise RegexError(f"regex label {tok!r} not in alphabet")
        self.items.append(self.alphabet.id_of(tok))
        self.follow.append(set())
        here = frozenset([len(self.items) - 1])
        return False, here, here


class RegexDfa(_Frozen):
    """Deterministic automaton over item ids with live-state viability info.

    A state is live when some accepting state is reachable from it; a prefix
    whose state is dead (or that has no transition) can never be extended
    into an accepted pattern.  Two automata are equal only if they are the
    same object.
    """

    __slots__ = _fields = ("start", "transitions", "accepting", "live", "expr")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self, start: int, transitions: tuple[dict[int, int], ...], accepting: frozenset[int],
        live: frozenset[int], expr: str = "",
    ) -> None:
        self._init(start, transitions, accepting, live, expr)

    def step(self, state: int, item: int) -> int | None:
        return self.transitions[state].get(item)

    def run(self, items: Iterable[int]) -> int | None:
        state: int | None = self.start
        for item in items:
            state = self.transitions[state].get(item)
            if state is None:
                return None
        return state


def regex_compile(expr: str, alphabet: Alphabet) -> RegexDfa:
    """Determinise the position automaton of ``expr`` over item ids.  A state
    is the set of positions just matched; the start state, 0, matched none
    and moves to ``first``.  On an item a state moves to the positions that
    follow one of its own and carry that item.  ``live`` is the least set
    that holds ``accepting`` and every state with a transition into it."""
    parser = _Parser(_lex(expr), alphabet)
    nullable, first, last = parser.parse()
    order = [frozenset()]
    index = {order[0]: 0}
    transitions: list[dict[int, int]] = []
    for state in order:  # grows as new states are found
        outgoing: dict[int, set[int]] = {}
        for q in set().union(*(parser.follow[p] for p in state)) if state else first:
            outgoing.setdefault(parser.items[q], set()).add(q)
        table = {}
        for item in sorted(outgoing):
            target = frozenset(outgoing[item])
            if target not in index:
                index[target] = len(order)
                order.append(target)
            table[item] = index[target]
        transitions.append(table)
    accepting = frozenset(i for i, state in enumerate(order) if state & last or not state and nullable)
    live = set(accepting)
    size = 0
    while size != len(live):
        size = len(live)
        # Backwards: breadth-first ids mostly grow along transitions, so one
        # pass settles a state soon after its targets.
        live.update(i for i in reversed(range(len(order))) if not live.isdisjoint(transitions[i].values()))
    return RegexDfa(0, tuple(transitions), accepting, frozenset(live), expr)


# ---------------------------------------------------------------------------
# Gap/span-admissible embeddings


class ChainEmbedding(_Frozen):
    """Admissible chain triples (pattern_pos, seq_pos, first_pos), 1-based.

    A triple records that some chain matches the length-``pattern_pos``
    prefix, ends at ``seq_pos``, started at ``first_pos``, and satisfies the
    per-step gap and span bounds throughout.
    """

    __slots__ = _fields = ("pattern_len", "seq_len", "triples")

    def __init__(self, pattern_len: int, seq_len: int, triples: frozenset[tuple[int, int, int]]) -> None:
        self._init(pattern_len, seq_len, triples)

    @property
    def supports(self) -> bool:
        if self.pattern_len == 0:
            return True
        return any(p == self.pattern_len for (p, _, _) in self.triples)


def constrained_embeddings(
    seq: Sequence | Elements,
    pattern: Pattern | Elements,
    mingap: int | None = None,
    maxgap: int | None = None,
    minspan: int | None = None,
    maxspan: int | None = None,
) -> ChainEmbedding:
    """Level-by-level chain construction, one chain step per pattern
    element.  Every position starts a chain (first = last); after a chain
    on (last, first), a next position j is admitted when mingap <=
    j-last-1 <= maxgap and minspan <= j-first+1 <= maxspan
    (``ConstraintSet.gap_window`` and ``span_window``).  A level keeps the
    admitted (j, first) whose element holds the pattern's.  Invalid bounds
    raise ``ConstraintError``."""
    cs = ConstraintSet(mingap=mingap, maxgap=maxgap, minspan=minspan, maxspan=maxspan)
    nearest, farthest = cs.gap_window()
    lowest, highest = cs.span_window()
    s = as_elements(seq)
    p = as_elements(pattern)
    n = len(s)
    triples: set[tuple[int, int, int]] = set()
    pairs = None
    for i, elem in enumerate(p, start=1):
        if pairs is None:
            found = {(j, j) for j in range(1, n + 1)}
        else:
            found = set()
            for last, first in pairs:
                lo = max(last + nearest, first + lowest)
                hi = n if farthest is None else min(n, last + farthest)
                if highest is not None:
                    hi = min(hi, first + highest)
                found.update((j, first) for j in range(lo, hi + 1))
        # One containment test per position, however many chains reach it.
        fits = {j for j in {j for j, _ in found} if is_subitemset(elem, s[j - 1])}
        pairs = [pair for pair in found if pair[0] in fits]
        triples.update((i, j, f) for j, f in pairs)
        if not pairs:
            break
    return ChainEmbedding(len(p), n, frozenset(triples))


# ---------------------------------------------------------------------------
# Cost tables


def load_cost_text(source: str | bytes | TextIO) -> dict[str, int]:
    """Parse ``label<TAB>integer`` lines into a label-keyed cost table.
    ``source`` is read as the database readers read theirs.  A malformed
    line, a cost past the float range that ``avg`` divides in, or bytes that
    are not UTF-8 raise ``FormatError``."""
    try:
        text = _as_text(source)
    except FormatError as exc:  # so the message says which file is at fault
        raise FormatError(f"cost file: {exc}") from None
    table: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"cost file line {lineno}: expected label<TAB>integer")
        label, raw = parts[0].strip(), parts[1].strip()
        if not label or label in table:
            raise FormatError(f"cost file line {lineno}: bad or duplicate label {label!r}")
        try:
            table[label] = int(raw)
        except ValueError:
            raise FormatError(f"cost file line {lineno}: non-integer cost {raw!r}") from None
        if abs(table[label]) > sys.float_info.max:
            raise FormatError(f"cost file line {lineno}: cost outside the float range")
    return table


def resolve_costs(table: Mapping[str, int], alphabet: Alphabet) -> dict[int, int]:
    """Map a label-keyed table onto item ids, dropping labels not in the alphabet."""
    return {alphabet.id_of(lab): cost for lab, cost in table.items() if lab in alphabet}
