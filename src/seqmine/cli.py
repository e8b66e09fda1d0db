"""Command line interface.

Subcommands: ``mine`` (pattern mining), ``gen`` (synthetic data),
``bench`` (grid sweeps).  A hidden ``oracle`` subcommand runs the
brute-force reference miner on small inputs.

Exit codes: 0 success, 1 usage error (bad flags or parameter values,
including constraint parameters that do not fit the dataset's alphabet,
``--regex`` with ``--itemset-mode``, a ``--regex`` that nests more than 100
groups deep, a NaN ``--agg-threshold`` and a ``--timeout`` that is not a
positive, finite number), 2 timeout, 3 data error (unreadable or malformed
input files, a file that is not UTF-8, an output file that cannot be
written, a database with multi-item elements without ``--itemset-mode``, an
item with no ``--cost-file`` entry, or a percentage ``--min-support`` on a
database with no sequences).  ``main`` maps each failure to its code; the
commands only turn the errors their flags cause into usage errors.

A reader that closes standard output early (``seqmine mine ... | head``)
stops the output, not the run: the rest goes to ``os.devnull`` and the
exit code is what it would have been.  A failed write to an ``--output``
file is still a data error.

``mine`` and ``oracle`` write their result records ``BLOCK`` at a time, so
the output text of a large result is never held whole: at most one block's
record texts, their join and its encoded copy are.  The label and sid texts
the writer joins are kept with the database, so a small block costs no more
per record than a large one.

``mine`` imports only the modules a mining run needs; ``gen``, ``bench``
and ``oracle`` import theirs when they run.  Every run is a new process,
so start-up counts: none of those modules imports ``dataclasses`` (which
loads ``inspect``, ``ast`` and ``dis``) or ``fractions`` (which loads
``decimal``), and their value classes share ``seqdb._Frozen`` instead.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import math
import os
import sys
from typing import Iterable

from .seqdb import (
    FormatError,
    MiningResult,
    Pattern,
    SequenceDatabase,
    load_database,
    write_asp_facts,
    write_results,
    write_spmf,
)
from .miner import (
    MODES,
    DataError,
    MiningParams,
    MiningTimeout,
    MineStats,
    mine,
)
from .constraints import (
    AGG_CMPS,
    AGG_OPS,
    AggregateSpec,
    ConstraintError,
    ConstraintSet,
    load_cost_text,
    regex_compile,
    resolve_costs,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TIMEOUT = 2
EXIT_DATA = 3

BLOCK = 256  # result records formatted and written per chunk


class _UsageError(Exception):
    """A bad flag or parameter value.  The subcommands raise it with a bare
    message; ``main`` hands that to the subcommand parser's ``error``, which
    adds the usage line and the ``prog: error:`` prefix."""


class _Parser(argparse.ArgumentParser):
    commands: dict[str, "_Parser"]  # the subcommand parsers, set by build_parser

    def error(self, message: str):  # type: ignore[override]
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


def _parse_support(text: str) -> int | float:
    t = text.strip()
    if t.endswith("%"):
        try:
            pct = float(t[:-1])
        except ValueError:
            raise _UsageError(f"bad --min-support value: {text!r}") from None
        if not 0.0 < pct <= 100.0:
            raise _UsageError(f"--min-support percentage out of range: {text!r}")
        return pct / 100.0
    try:
        value = int(t)
    except ValueError:
        raise _UsageError(f"bad --min-support value: {text!r} (use an integer or 'N%')") from None
    if value < 1:
        raise _UsageError("--min-support must be >= 1")
    return value


def _parse_timeout(text: str) -> float:
    """A positive, finite number of seconds: NaN would disable the deadline,
    and zero or less would pass it before the search starts."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive, finite number of seconds, got {text!r}")
    return value


def _parse_labels(text: str) -> list[str]:
    return [tok for tok in (t.strip() for t in text.split(",")) if tok]


def _parse_pattern_expr(text: str, db: SequenceDatabase) -> Pattern:
    """Pattern syntax: elements separated by spaces, items inside an
    element joined by '+': "a c" is a two-element pattern, "a+b c" starts
    with the itemset {a,b}."""
    elements = []
    for chunk in text.split():
        labels = chunk.split("+")
        try:
            ids = tuple(sorted(db.alphabet.id_of(lab) for lab in labels))
        except KeyError as exc:
            raise _UsageError(f"--super-pattern: {exc.args[0]}") from None
        elements.append(ids)
    if not elements:
        raise _UsageError("--super-pattern is empty")
    return Pattern(tuple(elements))


def _resolve_items(labels: list[str], db: SequenceDatabase, flag: str) -> frozenset[int]:
    ids = set()
    for lab in labels:
        try:
            ids.add(db.alphabet.id_of(lab))
        except KeyError:
            raise _UsageError(f"{flag}: label {lab!r} not in the dataset alphabet") from None
    return frozenset(ids)


def build_parser() -> _Parser:
    parser = _Parser(prog="seqmine", description="Sequential pattern mining toolkit")
    sub = parser.add_subparsers(dest="command", metavar="{mine,gen,bench}")
    parser.commands = sub.choices

    p_mine = sub.add_parser("mine", help="mine patterns from a sequence database")
    p_mine.add_argument("--input", required=True, help="database file")
    p_mine.add_argument("--format", choices=("spmf", "aspfacts"), default="spmf")
    p_mine.add_argument("--min-support", required=True, metavar="N|N%",
                        help="absolute count or percentage of sequences")
    p_mine.add_argument("--maxlen", required=True, type=int)
    p_mine.add_argument("--minlen", type=int, default=1)
    p_mine.add_argument("--mode", choices=MODES, default="frequent")
    p_mine.add_argument("--max-gap", type=int, default=None)
    p_mine.add_argument("--min-gap", type=int, default=None)
    p_mine.add_argument("--max-span", type=int, default=None)
    p_mine.add_argument("--min-span", type=int, default=None)
    p_mine.add_argument("--must-have", default="", metavar="LABELS",
                        help="comma separated labels that must all appear")
    p_mine.add_argument("--cannot-have", default="", metavar="LABELS")
    p_mine.add_argument("--super-pattern", action="append", default=[], metavar="PATTERN",
                        help="pattern expression; repeatable ('a c', 'a+b c')")
    p_mine.add_argument("--super-pattern-all", action="store_true",
                        help="require all --super-pattern values, not just one")
    p_mine.add_argument("--regex", default=None,
                        help="label regex with | * + ? ( ) and implicit concatenation")
    p_mine.add_argument("--cost-file", default=None, help="label<TAB>integer lines")
    p_mine.add_argument("--agg", choices=AGG_OPS, default=None)
    p_mine.add_argument("--agg-cmp", choices=tuple(AGG_CMPS), default="le")
    p_mine.add_argument("--agg-threshold", type=float, default=None)
    p_mine.add_argument("--itemset-mode", action="store_true")
    p_mine.add_argument("--condensed-within-constraints", action="store_true",
                        help="judge condensed modes only against the patterns of the "
                        "constrained output (without constraints, the frequent set)")
    p_mine.add_argument("--timeout", type=_parse_timeout, default=None, metavar="SECONDS")
    p_mine.add_argument("--output", default=None, help="result records file (default stdout)")
    p_mine.add_argument("--emit-asp-facts", default=None, metavar="PATH",
                        help="also write the loaded database as ASP facts")

    p_gen = sub.add_parser("gen", help="generate a synthetic database")
    p_gen.add_argument("--num-sequences", type=int, default=500)
    p_gen.add_argument("--mean-seq-length", type=int, default=20)
    p_gen.add_argument("--num-patterns", type=int, default=20)
    p_gen.add_argument("--mean-pattern-length", type=int, default=5)
    p_gen.add_argument("--min-coverage", default="10%",
                       help="fraction of sequences hosting each pattern (e.g. 0.1 or 10%%)")
    p_gen.add_argument("--alphabet-size", type=int, default=50)
    p_gen.add_argument("--item-mu", type=float, default=0.5)
    p_gen.add_argument("--item-sigma", type=float, default=0.05)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", default=None, help="SPMF output file (default stdout)")
    p_gen.add_argument("--manifest", default=None,
                       help="planted-pattern manifest path (default: OUTPUT.manifest.json)")

    p_bench = sub.add_parser("bench", help="sweep a grid of mining runs")
    p_bench.add_argument("--input", action="append", required=True, help="repeatable")
    p_bench.add_argument("--format", choices=("spmf", "aspfacts"), default="spmf")
    p_bench.add_argument("--min-support", required=True,
                         help="comma separated list of N or N%% values")
    p_bench.add_argument("--mode", default="frequent", help="comma separated modes")
    p_bench.add_argument("--maxlen", required=True, type=int)
    p_bench.add_argument("--minlen", type=int, default=1)
    p_bench.add_argument("--itemset-mode", action="store_true")
    p_bench.add_argument("--timeout", type=_parse_timeout, default=None,
                         help="per-cell timeout in seconds")
    p_bench.add_argument("--output", default=None, help="write JSONL records here")

    p_oracle = sub.add_parser("oracle")
    p_oracle.add_argument("--input", required=True)
    p_oracle.add_argument("--format", choices=("spmf", "aspfacts"), default="spmf")
    p_oracle.add_argument("--min-support", required=True)
    p_oracle.add_argument("--maxlen", required=True, type=int)
    p_oracle.add_argument("--itemset-mode", action="store_true")
    p_oracle.add_argument("--output", default=None)

    return parser


def _data_error(exc: Exception) -> int:
    print(f"seqmine: data error: {exc}", file=sys.stderr)
    return EXIT_DATA


def _write_text(path: str | None, text: str | Iterable[str]) -> None:
    """Write ``text``, one string or an iterable of string chunks, to the
    file ``path`` or, for ``None``, to standard output.  A reader that closes
    standard output ends the write quietly: standard output is pointed at
    ``os.devnull``, so nothing fails when the interpreter flushes it at exit."""
    chunks = (text,) if isinstance(text, str) else text
    if path is not None:
        with io.open(path, "w", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
        return
    try:
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _write_records(path: str | None, result: MiningResult, db: SequenceDatabase) -> None:
    """Write the result records ``BLOCK`` entries at a time."""
    entries = result.entries
    _write_text(path, (write_results(entries[i : i + BLOCK], db) for i in range(0, len(entries), BLOCK)))


def _check_writable(path: str | None) -> None:
    """Raise the ``OSError`` that writing ``path`` would raise for a missing
    directory, a directory in its place or a denied write.  Creates and
    truncates nothing; the write itself still reports anything else."""
    if path is None:
        return
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.access(path if os.path.exists(path) else directory, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _check_itemsets(db: SequenceDatabase, itemset_mode: bool) -> None:
    """Refuse a database with multi-item elements unless ``--itemset-mode``
    names them.  The library mines such data as it finds it; the flag is the
    command line's guard against mining itemsets by accident."""
    if not itemset_mode and not db.simple_mode:
        raise DataError("database has multi-item elements; enable itemset_mode")


def _build_constraints(args, db: SequenceDatabase) -> ConstraintSet:
    agg_flags = (args.agg, args.agg_threshold, args.cost_file)
    if any(f is not None for f in agg_flags) and None in agg_flags:
        raise _UsageError("--agg, --agg-threshold and --cost-file must be given together")
    aggregate = None
    if args.agg is not None:
        with io.open(args.cost_file, "r", encoding="utf-8") as fh:
            table = load_cost_text(fh)
        aggregate = AggregateSpec(
            resolve_costs(table, db.alphabet), args.agg, args.agg_cmp, args.agg_threshold
        )
    regex = None if args.regex is None else regex_compile(args.regex, db.alphabet)
    return ConstraintSet(
        must_have=_resolve_items(_parse_labels(args.must_have), db, "--must-have"),
        cannot_have=_resolve_items(_parse_labels(args.cannot_have), db, "--cannot-have"),
        super_patterns=tuple(_parse_pattern_expr(expr, db) for expr in args.super_pattern),
        super_pattern_all=args.super_pattern_all,
        aggregate=aggregate,
        regex=regex,
        mingap=args.min_gap,
        maxgap=args.max_gap,
        minspan=args.min_span,
        maxspan=args.max_span,
    )


def _cmd_mine(args) -> int:
    fmin = _parse_support(args.min_support)
    try:
        params = MiningParams(fmin=fmin, maxlen=args.maxlen, minlen=args.minlen, mode=args.mode)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if args.regex is not None and args.itemset_mode:
        raise _UsageError("--regex requires simple mode, not --itemset-mode")
    # An unwritable output would otherwise surface only after the search.
    _check_writable(args.output)
    db = load_database(args.input, args.format)
    try:
        constraints = _build_constraints(args, db)
    except ConstraintError as exc:
        raise _UsageError(str(exc)) from None
    if args.emit_asp_facts is not None:
        _write_text(args.emit_asp_facts, write_asp_facts(db))
    _check_itemsets(db, args.itemset_mode)
    stats = MineStats()
    result = mine(
        db, params, constraints,
        timeout=args.timeout, stats=stats,
        condensed_within_constraints=args.condensed_within_constraints,
    )
    _write_records(args.output, result, db)
    print(
        f"seqmine: {len(result)} patterns, {stats.nodes_expanded} nodes expanded",
        file=sys.stderr,
    )
    return EXIT_OK


def _parse_coverage(text: str) -> float:
    t = text.strip()
    try:
        if t.endswith("%"):
            return float(t[:-1]) / 100.0
        return float(t)
    except ValueError:
        raise _UsageError(f"bad --min-coverage value: {text!r}") from None


def _cmd_gen(args) -> int:
    from . import datagen

    try:
        gp = datagen.GenParams(
            num_sequences=args.num_sequences,
            mean_seq_len=args.mean_seq_length,
            num_patterns=args.num_patterns,
            mean_pattern_len=args.mean_pattern_length,
            min_coverage=_parse_coverage(args.min_coverage),
            alphabet_size=args.alphabet_size,
            item_mu=args.item_mu,
            item_sigma=args.item_sigma,
            seed=args.seed,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    db, manifest = datagen.generate(gp)
    _write_text(args.output, write_spmf(db))
    manifest_path = args.manifest
    if manifest_path is None and args.output is not None:
        manifest_path = args.output + ".manifest.json"
    if manifest_path is not None:
        _write_text(manifest_path, manifest.to_json())
    return EXIT_OK


def _cmd_bench(args) -> int:
    from . import bench as bench_mod

    # Repeats run once; 1 and 100% (1.0) compare equal but are different cells.
    parsed = [_parse_support(tok) for tok in _parse_labels(args.min_support)]
    thresholds = [t for _, t in dict.fromkeys((type(t), t) for t in parsed)]
    if not thresholds:
        raise _UsageError("--min-support list is empty")
    modes = list(dict.fromkeys(_parse_labels(args.mode)))
    if not modes:
        raise _UsageError("--mode list is empty")
    for m in modes:
        if m not in MODES:
            raise _UsageError(f"unknown mode: {m!r}")
    datasets = [(os.path.basename(p), load_database(p, args.format)) for p in dict.fromkeys(args.input)]
    try:
        cells = bench_mod.run_suite(
            datasets, thresholds, modes,
            maxlen=args.maxlen, minlen=args.minlen, timeout=args.timeout,
        )
    except DataError:  # a threshold that does not resolve on a dataset
        raise
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    for _, db in datasets:
        _check_itemsets(db, args.itemset_mode)
    records = []
    out = contextlib.nullcontext() if args.output is None else io.open(args.output, "w", encoding="utf-8")
    with out as sink:
        for record in cells:
            records.append(record)
            if sink is not None:
                sink.write(record.to_json() + "\n")
                sink.flush()
    _write_text(None, bench_mod.summarize(records) + "\n")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    from .oracle import GuardError, oracle_frequent

    try:
        params = MiningParams(fmin=_parse_support(args.min_support), maxlen=args.maxlen)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    db = load_database(args.input, args.format)
    resolved = params.resolved_fmin(len(db))
    _check_itemsets(db, args.itemset_mode)
    try:
        result = oracle_frequent(db, resolved, args.maxlen, itemset_mode=args.itemset_mode)
    except GuardError as exc:  # ``main`` cannot name it without importing the oracle
        return _data_error(exc)
    _write_records(args.output, result, db)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    commands = {"mine": _cmd_mine, "gen": _cmd_gen, "bench": _cmd_bench, "oracle": _cmd_oracle}
    try:
        args, extra = parser.parse_known_args(argv)
        # Errors, unknown arguments included, are reported by the subcommand's
        # parser, so they read "seqmine mine: error: ...".
        scope = parser if args.command is None else parser.commands[args.command]
        if extra:
            scope.error(f"unrecognized arguments: {' '.join(extra)}")
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        # The one map from a failure to its exit code.  A ConstraintError
        # here comes from mining (an item with no cost entry); the commands
        # turn the ones their flags cause into usage errors.
        try:
            return commands[args.command](args)
        except _UsageError as exc:
            scope.error(str(exc))
        except MiningTimeout:
            print("seqmine: timed out", file=sys.stderr)
            return EXIT_TIMEOUT
        except (OSError, FormatError, DataError, ConstraintError) as exc:
            return _data_error(exc)
    except _UsageError as exc:
        print(str(exc) if str(exc) else "seqmine: usage error", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
