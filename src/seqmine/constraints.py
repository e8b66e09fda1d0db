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
search and by ``ConstraintSet.reach``, the chain step that admits positions
under the gap/span bounds, which serves ``constrained_embeddings``, the
reference model; the regex is stepped through its DFA, whose live states cut
dead prefixes; length bounds live in ``MiningParams``.

The regex sublanguage supports label tokens (runs of ``[A-Za-z0-9_]``),
implicit concatenation, ``|`` alternation, ``*`` ``+`` ``?`` postfix
repetition, and ``( )`` grouping.  Expressions compile through a Thompson
NFA and subset construction into a DFA over item ids with a precomputed
live-state set, so the search can discard prefixes that cannot reach
acceptance.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .seqdb import Alphabet, Elements, FormatError, Pattern, Sequence
from .relations import as_elements, is_subitemset, is_subsequence


class ConstraintError(ValueError):
    """Invalid constraint configuration or constraint/data mismatch."""


class RegexError(ConstraintError):
    """Regex syntax error or label outside the alphabet."""


_CMP = {
    "le": operator.le,
    "ge": operator.ge,
    "lt": operator.lt,
    "gt": operator.gt,
    "eq": operator.eq,
}

AGG_OPS = ("sum", "min", "max", "avg")


@dataclass(frozen=True)
class AggregateSpec:
    """Aggregate of per-item costs over the pattern's items (with multiplicity)."""

    costs: Mapping[int, int]
    op: str
    cmp: str
    threshold: float

    def __post_init__(self) -> None:
        if self.op not in AGG_OPS:
            raise ConstraintError(f"unknown aggregate op: {self.op!r}")
        if self.cmp not in _CMP:
            raise ConstraintError(f"unknown comparator: {self.cmp!r}")
        # Every comparison with NaN is false, so it would reject every pattern.
        if math.isnan(self.threshold):
            raise ConstraintError("aggregate threshold must not be NaN")
        object.__setattr__(self, "costs", dict(self.costs))

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
        return _CMP[self.cmp](self.value(items), self.threshold)

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


@dataclass(frozen=True)
class ConstraintSet:
    """Every constraint of a mining run; ``ConstraintSet()`` is no constraint.

    The search asks ``accepts`` before it emits a pattern, reads
    ``gap_window`` and ``span_window`` for the layout and S-step of its
    bitmaps, and steps ``regex`` itself; ``reach`` is the chain step of
    ``constrained_embeddings``.
    """

    must_have: frozenset[int] = frozenset()
    cannot_have: frozenset[int] = frozenset()
    super_patterns: tuple[Pattern, ...] = ()
    super_pattern_all: bool = False
    aggregate: AggregateSpec | None = None
    regex: "RegexDfa | None" = None
    mingap: int | None = None
    maxgap: int | None = None
    minspan: int | None = None
    maxspan: int | None = None
    # Whether ``accepts`` has a rule to check; derived, so not compared.
    _judges: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "must_have", frozenset(self.must_have))
        object.__setattr__(self, "cannot_have", frozenset(self.cannot_have))
        object.__setattr__(self, "super_patterns", tuple(self.super_patterns))
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
        ``reach`` and the bitmap search's S-step under gap bounds both read
        it."""
        return (self.mingap or 0) + 1, None if self.maxgap is None else self.maxgap + 1

    def span_window(self) -> tuple[int, int | None]:
        """The span rule: the offsets ``j - first`` at which a chain that
        started at ``first`` may take a next position j, so that minspan <=
        j-first+1 <= maxspan.  Returns (lowest, highest), highest ``None``
        with no maxspan.  ``reach`` reads it, and so does the bitmap search:
        highest for its segments, lowest for its first S-step's window.  The
        first position itself takes no check: a one-element
        chain is admitted wherever it matches."""
        return (self.minspan or 1) - 1, None if self.maxspan is None else self.maxspan - 1

    def reach(self, n: int, pairs) -> dict[int, list[tuple[int, int]]]:
        """The chain step on a sequence of ``n`` elements.

        ``pairs`` are the (last, first) positions, 1-based, of admissible
        partial chains.  A next position j is admitted after (last, first)
        when mingap <= j-last-1 <= maxgap and minspan <= j-first+1 <=
        maxspan.  Returns next position -> the (j, first) pairs admitted
        there, keys ascending and each list sorted.  ``pairs=None`` is the
        root, where every position starts a chain (first = last).  Only
        ``constrained_embeddings``, the reference the search is tested
        against, steps chains with it.
        """
        if pairs is None:
            return {j: [(j, j)] for j in range(1, n + 1)}
        nearest, farthest = self.gap_window()
        lowest, highest = self.span_window()
        found: set[tuple[int, int]] = set()
        for last, first in pairs:
            lo = max(last + nearest, first + lowest)
            hi = n if farthest is None else min(n, last + farthest)
            if highest is not None:
                hi = min(hi, first + highest)
            found.update((j, first) for j in range(lo, hi + 1))
        reach: dict[int, list[tuple[int, int]]] = {}
        for pair in sorted(found):
            reach.setdefault(pair[0], []).append(pair)
        return reach


# ---------------------------------------------------------------------------
# Regex compilation: lexer -> recursive descent -> Thompson NFA -> DFA


def _lex(expr: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    i = 0
    while i < len(expr):
        ch = expr[i]
        if ch.isspace():
            i += 1
        elif ch in "|*+?()":
            tokens.append(("op", ch))
            i += 1
        elif ch.isalnum() or ch == "_":
            j = i
            while j < len(expr) and (expr[j].isalnum() or expr[j] == "_"):
                j += 1
            tokens.append(("label", expr[i:j]))
            i = j
        else:
            raise RegexError(f"unexpected character {ch!r} in regex")
    return tokens


class _Nfa:
    """Thompson construction scratchpad: eps edges plus labelled edges."""

    def __init__(self) -> None:
        self.eps: list[list[int]] = []
        self.sym: list[list[tuple[int, int]]] = []

    def state(self) -> int:
        self.eps.append([])
        self.sym.append([])
        return len(self.eps) - 1

    def symbol(self, item: int) -> tuple[int, int]:
        s, t = self.state(), self.state()
        self.sym[s].append((item, t))
        return s, t

    def concat(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        self.eps[a[1]].append(b[0])
        return a[0], b[1]

    def alt(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        s, t = self.state(), self.state()
        self.eps[s].extend((a[0], b[0]))
        self.eps[a[1]].append(t)
        self.eps[b[1]].append(t)
        return s, t

    def repeat(self, a: tuple[int, int], op: str) -> tuple[int, int]:
        s, t = self.state(), self.state()
        self.eps[s].append(a[0])
        self.eps[a[1]].append(t)
        if op in "*?":
            self.eps[s].append(t)
        if op in "*+":
            self.eps[a[1]].append(a[0])
        return s, t


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], alphabet: Alphabet, nfa: _Nfa):
        self.tokens = tokens
        self.pos = 0
        self.alphabet = alphabet
        self.nfa = nfa

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def parse(self) -> tuple[int, int]:
        frag = self.alternation()
        if self.peek() is not None:
            raise RegexError(f"unexpected token {self.peek()[1]!r}")
        return frag

    def alternation(self) -> tuple[int, int]:
        frag = self.concatenation()
        while self.peek() == ("op", "|"):
            self.pos += 1
            frag = self.nfa.alt(frag, self.concatenation())
        return frag

    def concatenation(self) -> tuple[int, int]:
        parts = []
        while True:
            tok = self.peek()
            if tok is None or tok in (("op", "|"), ("op", ")")):
                break
            parts.append(self.postfix())
        if not parts:
            raise RegexError("empty expression")
        frag = parts[0]
        for part in parts[1:]:
            frag = self.nfa.concat(frag, part)
        return frag

    def postfix(self) -> tuple[int, int]:
        frag = self.atom()
        while self.peek() in (("op", "*"), ("op", "+"), ("op", "?")):
            frag = self.nfa.repeat(frag, self.peek()[1])
            self.pos += 1
        return frag

    def atom(self) -> tuple[int, int]:
        tok = self.peek()
        if tok is None:
            raise RegexError("unexpected end of expression")
        kind, text = tok
        if kind == "label":
            self.pos += 1
            if text not in self.alphabet:
                raise RegexError(f"regex label {text!r} not in alphabet")
            return self.nfa.symbol(self.alphabet.id_of(text))
        if tok == ("op", "("):
            self.pos += 1
            frag = self.alternation()
            if self.peek() != ("op", ")"):
                raise RegexError("unbalanced parenthesis")
            self.pos += 1
            return frag
        raise RegexError(f"unexpected token {text!r}")


@dataclass(eq=False)
class RegexDfa:
    """Deterministic automaton over item ids with live-state viability info.

    A state is live when some accepting state is reachable from it; a prefix
    whose state is dead (or that has no transition) can never be extended
    into an accepted pattern.
    """

    start: int
    transitions: tuple[dict[int, int], ...]
    accepting: frozenset[int]
    live: frozenset[int]
    expr: str = ""

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
    nfa = _Nfa()
    start, accept = _Parser(_lex(expr), alphabet, nfa).parse()

    def closure(states: frozenset[int]) -> frozenset[int]:
        seen = set(states)
        stack = list(states)
        while stack:
            for nxt in nfa.eps[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)

    d0 = closure(frozenset([start]))
    index = {d0: 0}
    order = [d0]
    transitions: list[dict[int, int]] = [{}]
    i = 0
    while i < len(order):
        current = order[i]
        outgoing: dict[int, set[int]] = {}
        for st in current:
            for item, target in nfa.sym[st]:
                outgoing.setdefault(item, set()).add(target)
        for item in sorted(outgoing):
            nxt = closure(frozenset(outgoing[item]))
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
                transitions.append({})
            transitions[i][item] = index[nxt]
        i += 1

    accepting = frozenset(i for i, states in enumerate(order) if accept in states)
    reverse: dict[int, set[int]] = {}
    for src, table in enumerate(transitions):
        for target in table.values():
            reverse.setdefault(target, set()).add(src)
    live = set(accepting)
    stack = list(accepting)
    while stack:
        for prev in reverse.get(stack.pop(), ()):
            if prev not in live:
                live.add(prev)
                stack.append(prev)
    return RegexDfa(0, tuple(transitions), accepting, frozenset(live), expr)


# ---------------------------------------------------------------------------
# Gap/span-admissible embeddings


@dataclass(frozen=True)
class ChainEmbedding:
    """Admissible chain triples (pattern_pos, seq_pos, first_pos), 1-based.

    A triple records that some chain matches the length-``pattern_pos``
    prefix, ends at ``seq_pos``, started at ``first_pos``, and satisfies the
    per-step gap and span bounds throughout.
    """

    pattern_len: int
    seq_len: int
    triples: frozenset[tuple[int, int, int]]

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
    """Level-by-level chain construction, one ``ConstraintSet.reach`` step
    per pattern element.  Invalid bounds raise ``ConstraintError``."""
    step = ConstraintSet(mingap=mingap, maxgap=maxgap, minspan=minspan, maxspan=maxspan).reach
    s = as_elements(seq)
    p = as_elements(pattern)
    n = len(s)
    triples: set[tuple[int, int, int]] = set()
    pairs = None
    for i, elem in enumerate(p, start=1):
        pairs = [pair for j, found in step(n, pairs).items() if is_subitemset(elem, s[j - 1]) for pair in found]
        triples.update((i, j, f) for j, f in pairs)
        if not pairs:
            break
    return ChainEmbedding(len(p), n, frozenset(triples))


# ---------------------------------------------------------------------------
# Cost tables


def load_cost_text(text: str) -> dict[str, int]:
    """Parse ``label<TAB>integer`` lines into a label-keyed cost table."""
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
    return table


def resolve_costs(table: Mapping[str, int], alphabet: Alphabet) -> dict[int, int]:
    """Map a label-keyed table onto item ids, dropping labels not in the alphabet."""
    return {alphabet.id_of(lab): cost for lab, cost in table.items() if lab in alphabet}
