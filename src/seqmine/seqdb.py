"""Sequence database model and external formats.

A database is an ordered collection of sequences over a shared alphabet.
Each sequence is a tuple of itemsets; an itemset is a strictly increasing
tuple of item ids.  Item ids are dense (0..len(alphabet)-1) and ordered by
label, so id order and label order agree everywhere.

Three external formats are supported:

* SPMF text: one sequence per line, integer tokens, ``-1`` ends an itemset,
  ``-2`` ends the sequence.  The reader also accepts the terse form where
  ``-2`` closes a still-open itemset; the writer always emits the explicit
  ``... -1 -2`` form.
* ASP facts: one fact ``seq(T,P,I).`` per (sequence, position, item).
* Result records: one JSON object per line with keys ``pattern``,
  ``support``, ``support_ids``.
"""

from __future__ import annotations

import io
import json
import re
from functools import cached_property
from itertools import compress, count, islice
from operator import getitem
from typing import Iterable, Iterator, TextIO


class FormatError(ValueError):
    """Raised on malformed external input (SPMF, ASP facts, result records,
    cost tables), bytes that are not UTF-8 included."""


class FrozenError(AttributeError):
    """Raised on assigning or deleting an attribute of a frozen value."""


class _Frozen:
    """Base of the frozen value classes: a subclass names its fields in
    ``_fields``, sets them once in its own ``__init__`` (through ``_init``),
    and gets equality and hash over them (equal only to the same class, with
    no order), ``repr``, pickling and copying (which call ``__init__``
    again), and ``replace``.  No attribute can be assigned or deleted.  Only
    this base, not ``dataclasses``, is imported on the way to ``seqmine
    mine``, which keeps the command's start-up short."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise FrozenError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def replace(self, **changes):
        """A copy with the fields ``changes`` names set to its values, made
        through ``__init__``, so its checks and conversions run."""
        values = dict(zip(self._fields, self._values()))
        values.update(changes)
        return self.__class__(**values)


Itemset = tuple[int, ...]
Elements = tuple[Itemset, ...]


class Alphabet:
    """Dense item table.

    ``labels`` is sorted; an item's id is its index, so ``id_of`` and
    ``label`` are inverse bijections and id order equals label order.
    """

    __slots__ = ("labels", "_index")

    def __init__(self, labels: Iterable[str]):
        self.labels: tuple[str, ...] = tuple(labels)
        if sorted(set(self.labels)) != list(self.labels):
            raise ValueError("alphabet labels must be unique and sorted")
        self._index: dict[str, int] = {lab: i for i, lab in enumerate(self.labels)}

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "Alphabet":
        return cls(sorted(set(tokens)))

    def id_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown item label: {label!r}") from None

    def label(self, item: int) -> str:
        return self.labels[item]

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self.labels)))

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"Alphabet({list(self.labels)!r})"


def _check_elements(elements: Elements, what: str) -> None:
    # Fast path for simple data: every itemset one non-negative int.  Any
    # other input goes through the loop, which finds and names the fault.
    try:
        items = [i for (i,) in elements]
    except ValueError:  # an itemset that is not a singleton
        pass
    else:
        if set(map(type, items)) <= {int} and (not items or min(items) >= 0):
            return
    for itemset in elements:
        if not itemset:
            raise ValueError(f"{what} contains an empty itemset")
        if any(not isinstance(i, int) or i < 0 for i in itemset):
            raise ValueError(f"{what} itemset {itemset!r} has invalid item ids")
        if any(a >= b for a, b in zip(itemset, itemset[1:])):
            raise ValueError(f"{what} itemset {itemset!r} is not strictly increasing")


class Sequence(_Frozen):
    """One database sequence: a sid plus its elements (itemsets)."""

    __slots__ = _fields = ("sid", "elements")

    def __init__(self, sid: int, elements: Elements) -> None:
        # One per database sequence: set directly, as _init's loop costs more.
        object.__setattr__(self, "sid", sid)
        object.__setattr__(self, "elements", tuple(tuple(e) for e in elements))
        _check_elements(self.elements, f"sequence {self.sid}")

    def __len__(self) -> int:
        return len(self.elements)

    def items(self) -> Iterator[int]:
        for itemset in self.elements:
            yield from itemset


class Pattern(_Frozen):
    """A candidate/mined pattern: a tuple of itemsets, same shape as a sequence.

    The empty pattern is constructible (relation predicates treat it as
    vacuously contained) but the miner never emits it.
    """

    __slots__ = _fields = ("elements",)

    def __init__(self, elements: Elements) -> None:
        self._init(tuple(tuple(e) for e in elements))
        _check_elements(self.elements, "pattern")

    # Compared and hashed in bulk (``condensed._pairwise_keep`` compares every
    # pair of a result), so the one field is read directly, not via _values.
    def __eq__(self, other):
        return self.elements == other.elements if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.elements,))

    @classmethod
    def _trusted(cls, elements: Elements) -> "Pattern":
        """A pattern over elements already in canonical form (a tuple of
        tuples of strictly increasing, non-negative item ids), without the
        copy and the check.  The miner builds its patterns that way, from
        the item ids of a validated database."""
        pattern = object.__new__(cls)
        object.__setattr__(pattern, "elements", elements)
        return pattern

    def __len__(self) -> int:
        return len(self.elements)

    def items(self) -> Iterator[int]:
        for itemset in self.elements:
            yield from itemset

    def labels(self, alphabet: Alphabet) -> list[list[str]]:
        return [[alphabet.label(i) for i in e] for e in self.elements]

    def sort_key(self) -> tuple[int, Elements]:
        """Canonical order: by element count, then lexicographic on elements."""
        return (len(self.elements), self.elements)


class SequenceDatabase(_Frozen):
    # No slots: the cached properties below keep their values in __dict__.
    _fields = ("alphabet", "sequences")

    def __init__(self, alphabet: Alphabet, sequences: Iterable[Sequence]) -> None:
        self._init(alphabet, tuple(sequences))
        n_items = len(self.alphabet)
        for pos, seq in enumerate(self.sequences, start=1):
            if seq.sid != pos:
                raise ValueError(f"sids must be dense 1..N; found {seq.sid} at row {pos}")
            for item in seq.items():
                if item >= n_items:
                    raise ValueError(f"sequence {seq.sid} uses item id {item} outside alphabet")

    def __len__(self) -> int:
        return len(self.sequences)

    def __iter__(self) -> Iterator[Sequence]:
        return iter(self.sequences)

    @cached_property
    def simple_mode(self) -> bool:
        """True when every element of every sequence is a singleton; the
        sequences are immutable, so one scan answers every later read."""
        return all(len(e) == 1 for s in self.sequences for e in s.elements)

    def sequence(self, sid: int) -> Sequence:
        return self.sequences[sid - 1]

    @cached_property
    def _sid_pieces(self) -> list[list[str]]:
        """Text pieces for ``write_results``, kept as long as the database:
        row j holds, for each value of byte j of a sid int, its sids joined
        by commas (3 at j = 1 is "9,10").  ``write_results`` adds the rows
        as far as the widest int it writes."""
        return []

    @cached_property
    def _element_texts(self) -> "_Memo":
        """Text pieces for ``write_results``, kept as long as the database:
        an itemset's JSON list of labels, made when a record first holds
        it, from labels each encoded once with ``json.dumps`` (so non-ASCII
        and control characters are escaped the same way)."""
        names = self.alphabet.labels
        labels = _Memo(lambda item: json.dumps(names[item])).__getitem__
        return _Memo(lambda itemset: "[" + ",".join(map(labels, itemset)) + "]")

    @classmethod
    def from_label_sequences(
        cls, label_seqs: Iterable[Iterable[Iterable[str] | str]]
    ) -> "SequenceDatabase":
        """Build a database from nested labels.

        Each sequence is an iterable of elements; an element is either a
        string label (singleton itemset) or an iterable of labels.
        """
        return _build_from_raw(
            [[(e,) if isinstance(e, str) else tuple(e) for e in seq] for seq in label_seqs]
        )


# ---------------------------------------------------------------------------
# Mining results


# Maps the digits of bin() to flags that ``compress`` reads: "0" is false.
_DIGIT_FLAGS = bytes.maketrans(b"0", b"\x00")


class ResultEntry(_Frozen):
    """A pattern and its supporters.  ``sid_bits`` holds the supporters as
    one int with bit k-1 set for sid k; ``support`` counts them and
    ``support_ids`` reads them back as an ascending tuple, so neither can
    disagree with ``sid_bits``.  ``from_ids`` builds an entry from sids."""

    __slots__ = _fields = ("pattern", "sid_bits")

    def __init__(self, pattern: Pattern, sid_bits: int) -> None:
        # One per mined pattern: set directly, as _init's loop costs more.
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "sid_bits", sid_bits)

    @classmethod
    def from_ids(cls, pattern: Pattern, support_ids: Iterable[int]) -> "ResultEntry":
        """The entry of ``pattern`` supported by the sids ``support_ids``; a
        repeated sid counts once."""
        bits = 0
        for sid in support_ids:
            bits |= 1 << (sid - 1)
        return cls(pattern, bits)

    @property
    def support(self) -> int:
        return self.sid_bits.bit_count()

    @property
    def support_ids(self) -> tuple[int, ...]:
        # One flag per sid from sid 1 up; bin() lists the bits highest first.
        return tuple(compress(count(1), bin(self.sid_bits)[:1:-1].encode().translate(_DIGIT_FLAGS)))


def _precedes(a: ResultEntry, b: ResultEntry) -> bool:
    """Whether ``a``'s pattern sorts strictly before ``b``'s in canonical order."""
    x, y = a.pattern.elements, b.pattern.elements
    return len(x) < len(y) or (len(x) == len(y) and x < y)


class MiningResult(_Frozen):
    """Canonically ordered set of result entries.

    Entries are sorted by (pattern length, elements) and pattern-unique;
    ``build`` enforces both.
    """

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[ResultEntry, ...]) -> None:
        self._init(entries)

    @classmethod
    def build(cls, entries: Iterable[ResultEntry]) -> "MiningResult":
        """The result of ``entries``.  Entries already in strictly ascending
        canonical order, as ``mine()`` emits them, pass one check of each
        consecutive pair and are kept as given, with no sort key built.  Any
        other input (``read_results``, the oracles) is sorted, and a pattern
        that appears twice raises ValueError."""
        ordered = tuple(entries)
        if all(map(_precedes, ordered, islice(ordered, 1, None))):
            return cls(ordered)
        ordered = sorted(ordered, key=lambda e: e.pattern.sort_key())
        for a, b in zip(ordered, ordered[1:]):
            if a.pattern == b.pattern:
                raise ValueError(f"duplicate pattern in result: {a.pattern}")
        return cls(tuple(ordered))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ResultEntry]:
        return iter(self.entries)


# ---------------------------------------------------------------------------
# SPMF text format


def _as_text(source: str | bytes | TextIO) -> str:
    """``source`` as text: bytes decoded as UTF-8, a stream read to its end.
    Undecodable bytes raise ``FormatError`` naming the first one's offset."""
    try:
        if isinstance(source, bytes):
            return source.decode("utf-8")
        return source if isinstance(source, str) else source.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8: {exc.reason} at byte {exc.start}") from None


def read_spmf(source: str | bytes | TextIO) -> SequenceDatabase:
    """Parse SPMF text into a database.

    Tokens must be integers.  Errors: non-integer token, duplicate item in an
    itemset, empty itemset before ``-1``, missing ``-2`` at end of line, and
    tokens after ``-2``.  Blank lines are skipped.  A line holding only
    ``-2`` is an empty sequence.
    """
    raw_seqs: list[list[tuple[str, ...]]] = []
    for lineno, line in enumerate(_as_text(source).splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        elems: list[tuple[str, ...]] = []
        pending: list[str] = []
        closed = False
        for tok in tokens:
            if closed:
                raise FormatError(f"line {lineno}: token {tok!r} after sequence terminator")
            if tok == "-1":
                if not pending:
                    raise FormatError(f"line {lineno}: empty itemset before -1")
                elems.append(tuple(pending))
                pending = []
            elif tok == "-2":
                if pending:
                    elems.append(tuple(pending))
                    pending = []
                closed = True
            else:
                try:
                    value = int(tok)
                except ValueError:
                    raise FormatError(f"line {lineno}: non-integer token {tok!r}") from None
                if value < 0:
                    raise FormatError(f"line {lineno}: invalid token {tok!r}")
                if tok in pending:
                    raise FormatError(f"line {lineno}: duplicate item {tok!r} in itemset")
                pending.append(tok)
        if not closed:
            raise FormatError(f"line {lineno}: missing -2 at end of line")
        raw_seqs.append(elems)
    return _build_from_raw(raw_seqs)


def _build_from_raw(raw_seqs: list[list[tuple[str, ...]]]) -> SequenceDatabase:
    """The database of label elements, its alphabet drawn from their labels.
    Every one-item element of an item is one shared tuple."""
    alphabet = Alphabet.from_tokens(lab for s in raw_seqs for e in s for lab in e)
    index = alphabet._index
    singles = {lab: (i,) for lab, i in index.items()}
    sequences = [
        Sequence(sid, tuple(
            singles[elem[0]] if len(elem) == 1 else tuple(sorted(map(index.__getitem__, elem)))
            for elem in elems
        ))
        for sid, elems in enumerate(raw_seqs, start=1)
    ]
    return SequenceDatabase(alphabet, tuple(sequences))


def write_spmf(db: SequenceDatabase) -> str:
    """Serialize in canonical SPMF form (explicit ``-1`` before ``-2``)."""
    lines = []
    for seq in db.sequences:
        tokens: list[str] = []
        for elem in seq.elements:
            tokens.extend(db.alphabet.label(i) for i in elem)
            tokens.append("-1")
        tokens.append("-2")
        lines.append(" ".join(tokens))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# ASP facts format

_BARE_LABEL = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")
_FACT = re.compile(
    r"seq\(\s*(\d+)\s*,\s*(\d+)\s*,\s*([a-z][a-zA-Z0-9_]*|\"(?:[^\"\\]|\\.)*\")\s*\)\s*\."
)


def _atom(label: str) -> str:
    if _BARE_LABEL.match(label):
        return label
    escaped = label.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def write_asp_facts(db: SequenceDatabase) -> str:
    """One fact ``seq(T,P,I).`` per item occurrence, ordered by (T, P, item id).

    Labels matching ``[a-z][a-zA-Z0-9_]*`` are written bare, anything else is
    double-quoted.
    """
    lines = []
    for seq in db.sequences:
        for pos, elem in enumerate(seq.elements, start=1):
            for item in elem:
                lines.append(f"seq({seq.sid},{pos},{_atom(db.alphabet.label(item))}).")
    return "\n".join(lines) + ("\n" if lines else "")


def read_asp_facts(source: str | bytes | TextIO) -> SequenceDatabase:
    """Parse ``seq(T,P,I).`` facts back into a database.

    Sequence ids are renumbered densely in ascending order of T; positions are
    compacted but must be strictly increasing per sequence after grouping.
    ``%`` comments are skipped; anything else unparseable is an error.
    """
    text = _as_text(source)
    by_t: dict[int, dict[int, list[str]]] = {}
    pos_in_text = 0
    while pos_in_text < len(text):
        rest = text[pos_in_text:]
        stripped = rest.lstrip()
        if not stripped:
            break
        pos_in_text += len(rest) - len(stripped)
        if stripped.startswith("%"):
            nl = text.find("\n", pos_in_text)
            pos_in_text = len(text) if nl < 0 else nl + 1
            continue
        m = _FACT.match(text, pos_in_text)
        if not m:
            snippet = stripped.splitlines()[0][:40]
            raise FormatError(f"unparseable ASP facts input at: {snippet!r}")
        try:
            t, p, atom = int(m.group(1)), int(m.group(2)), m.group(3)
        except ValueError:  # more digits than ``int`` converts
            raise FormatError(f"number too long in ASP fact at: {stripped[:40]!r}") from None
        if atom.startswith('"'):
            label = atom[1:-1].replace('\\"', '"').replace("\\\\", "\\")
        else:
            label = atom
        slot = by_t.setdefault(t, {}).setdefault(p, [])
        if label in slot:
            raise FormatError(f"duplicate item {label!r} at seq({t},{p},...)")
        slot.append(label)
        pos_in_text = m.end()
    raw_seqs = []
    for t in sorted(by_t):
        elems = [tuple(by_t[t][p]) for p in sorted(by_t[t])]
        raw_seqs.append(elems)
    return _build_from_raw(raw_seqs)


def load_database(path: str, fmt: str = "spmf") -> SequenceDatabase:
    with io.open(path, "r", encoding="utf-8") as fh:
        if fmt == "spmf":
            return read_spmf(fh)
        if fmt == "aspfacts":
            return read_asp_facts(fh)
        raise ValueError(f"unknown database format: {fmt!r}")


# ---------------------------------------------------------------------------
# Result records (JSON lines)


class _Memo(dict):
    """A dict that fills a missing key with ``make(key)``."""

    __slots__ = ("make",)

    def __init__(self, make) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _sid_row(j: int) -> list[str]:
    """Row j of ``SequenceDatabase._sid_pieces``: the piece of byte value
    16h + l joins the pieces of nibble l (sids 8j+1..8j+4) and nibble h
    (sids 8j+5..8j+8), so a row formats 64 numbers, not 1,024."""
    lo, hi = (
        [",".join([str(8 * j + k + 1) for k in range(shift, shift + 4) if v << shift >> k & 1]) for v in range(16)]
        for shift in (0, 4)
    )
    return [f"{a},{b}" if a and b else a or b for b in hi for a in lo]


def write_results(result: Iterable[ResultEntry], db: SequenceDatabase) -> str:
    """One compact JSON object per entry, in the order ``result`` yields them.

    ``result`` is any iterable of entries: a ``MiningResult`` (its canonical
    order) or a slice of its ``entries``, so records can be written a block
    at a time and the texts of consecutive slices join to the whole.  Each
    line is ``json.dumps(record, separators=(",", ":"))`` of
    ``{"pattern": label lists, "support": n, "support_ids": [...]}``, joined
    from pieces kept with the database, so a block costs no more than its
    records: each element's ``[...]`` text (``db._element_texts``), and
    the sids written straight from ``sid_bits``, one piece per non-zero
    byte (``db._sid_pieces``), so no tuple of sids is built; ``compress``
    skips the zero bytes.
    """
    element = db._element_texts.__getitem__
    rows = db._sid_pieces

    def sids(bits: int) -> str:
        data = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
        if len(data) > len(rows):
            rows.extend(map(_sid_row, range(len(rows), len(data))))
        return ",".join(map(getitem, compress(rows, data), compress(data, data)))

    return "".join([
        f'{{"pattern":[{",".join(map(element, e.pattern.elements))}],"support":{e.support},'
        f'"support_ids":[{sids(e.sid_bits)}]}}\n'
        for e in result
    ])


def read_results(source: str | bytes | TextIO, db: SequenceDatabase) -> MiningResult:
    """Parse JSON-lines result records against the database they were mined
    from.  A pattern must be a non-empty list of non-empty lists of labels
    of ``db``, and appear once; support ids must be distinct, ascending sids
    of ``db`` and as many as the support.  Any other record raises
    ``FormatError`` naming its line."""
    entries = []
    first_line: dict[Pattern, int] = {}
    for lineno, line in enumerate(_as_text(source).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            labels = record["pattern"]
            # A string iterates as labels too: "12" would read as <1 2>.
            if not (type(labels) is list and labels and all(
                type(elem) is list and elem and all(type(lab) is str for lab in elem) for elem in labels
            )):
                raise ValueError("pattern must be a non-empty list of non-empty lists of labels")
            elements = tuple(tuple(sorted(db.alphabet.id_of(lab) for lab in elem)) for elem in labels)
            sids = tuple(record["support_ids"])
            support = record["support"]
            # JSON true and 1.0 are not counts; type() rules out bool too.
            if not all(type(v) is int for v in (support,) + sids):
                raise ValueError("support and support_ids must be integers")
            # 0 < first < ... < last < len(db) + 1
            if not all(a < b for a, b in zip((0,) + sids, sids + (len(db) + 1,))):
                raise ValueError(f"support_ids must be distinct, ascending ids in 1..{len(db)}")
            if support != len(sids):
                raise ValueError(f"support {support} but {len(sids)} support_ids")
            pattern = Pattern(elements)
            if pattern in first_line:
                raise ValueError(f"duplicate of the pattern on line {first_line[pattern]}")
            first_line[pattern] = lineno
            entries.append(ResultEntry.from_ids(pattern, sids))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad result record on line {lineno}: {exc}") from None
    return MiningResult.build(entries)
