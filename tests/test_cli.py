"""Command line interface: subcommands, formats, and exit codes."""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import importlib
import io
import json
import os
import random
import re
import select
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqmine import (
    MiningParams, SequenceDatabase, load_database, mine, write_asp_facts, write_results, write_spmf,
)
from seqmine import cli
from seqmine.cli import build_parser, main
from seqmine.miner import MODES

D7 = None  # path fixture supplies the file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_lines(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# mine


def test_mine_basic_stdout(d7_path, capsys):
    code, out, err = run(
        capsys, "mine", "--input", str(d7_path), "--min-support", "3", "--maxlen", "4"
    )
    assert code == 0
    records = out_lines(out)
    assert len(records) == 7
    assert {tuple(tuple(e) for e in r["pattern"]) for r in records} >= {
        (("1",), ("2",), ("3",)),
        (("1",),),
    }
    assert "7 patterns" in err


def test_mine_output_file(d7_path, tmp_path, capsys):
    out_path = tmp_path / "result.jsonl"
    code, out, _ = run(
        capsys, "mine", "--input", str(d7_path), "--min-support", "3",
        "--maxlen", "4", "--output", str(out_path),
    )
    assert code == 0
    assert out == ""
    assert len(out_lines(out_path.read_text(encoding="utf-8"))) == 7


def test_mine_maximal_mode(d7_path, capsys):
    code, out, _ = run(
        capsys, "mine", "--input", str(d7_path), "--min-support", "3",
        "--maxlen", "4", "--mode", "maximal",
    )
    assert code == 0
    records = out_lines(out)
    assert len(records) == 1
    assert records[0]["pattern"] == [["1"], ["2"], ["3"]]


def test_mine_percentage_support(d7_path, capsys):
    code, out, _ = run(
        capsys, "mine", "--input", str(d7_path), "--min-support", "72%", "--maxlen", "4"
    )
    assert code == 0
    records = out_lines(out)  # ceil(0.72 * 7) = 6
    assert {(r["pattern"][0][0], r["support"]) for r in records} == {("1", 6), ("2", 6)}


def test_mine_contiguity_flag(d7_path, capsys):
    code, out, _ = run(
        capsys, "mine", "--input", str(d7_path), "--min-support", "3",
        "--maxlen", "4", "--max-gap", "0",
    )
    assert code == 0
    by_pattern = {json.dumps(r["pattern"]): r for r in out_lines(out)}
    target = by_pattern[json.dumps([["1"], ["2"], ["3"]])]
    assert target["support"] == 3
    assert target["support_ids"] == [2, 4, 7]


def test_mine_regex_flag(d7_path, capsys):
    code, out, _ = run(
        capsys, "mine", "--input", str(d7_path), "--min-support", "3",
        "--maxlen", "4", "--regex", "1(2|3)*3",
    )
    assert code == 0
    patterns = {json.dumps(r["pattern"]) for r in out_lines(out)}
    assert patterns == {
        json.dumps([["1"], ["3"]]),
        json.dumps([["1"], ["2"], ["3"]]),
    }


def test_mine_super_pattern_flags(d7_path, capsys):
    code, out, _ = run(
        capsys, "mine", "--input", str(d7_path), "--min-support", "3", "--maxlen", "4",
        "--super-pattern", "1 3", "--super-pattern", "2 3", "--super-pattern-all",
    )
    assert code == 0
    records = out_lines(out)
    assert [r["pattern"] for r in records] == [[["1"], ["2"], ["3"]]]


def test_mine_aggregate_flags(d7_path, tmp_path, capsys):
    cost = tmp_path / "costs.tsv"
    cost.write_text("1\t1\n2\t2\n3\t3\n4\t10\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "mine", "--input", str(d7_path), "--min-support", "3", "--maxlen", "4",
        "--cost-file", str(cost), "--agg", "sum", "--agg-cmp", "le", "--agg-threshold", "3",
    )
    assert code == 0
    patterns = {json.dumps(r["pattern"]) for r in out_lines(out)}
    assert patterns == {
        json.dumps([["1"]]),
        json.dumps([["2"]]),
        json.dumps([["3"]]),
        json.dumps([["1"], ["2"]]),
    }


def test_mine_asp_facts_roundtrip(d7_path, tmp_path, capsys):
    facts = tmp_path / "d7.lp"
    code, first, _ = run(
        capsys, "mine", "--input", str(d7_path), "--min-support", "3",
        "--maxlen", "4", "--emit-asp-facts", str(facts),
    )
    assert code == 0
    assert facts.read_text(encoding="utf-8").startswith("seq(1,1,")
    code, second, _ = run(
        capsys, "mine", "--input", str(facts), "--format", "aspfacts",
        "--min-support", "3", "--maxlen", "4",
    )
    assert code == 0
    assert out_lines(first) == out_lines(second)


def test_mine_usage_errors(d7_path, tmp_path, capsys):
    cases = [
        ["mine", "--input", str(d7_path), "--min-support", "0", "--maxlen", "4"],
        ["mine", "--input", str(d7_path), "--min-support", "150%", "--maxlen", "4"],
        ["mine", "--input", str(d7_path), "--min-support", "x", "--maxlen", "4"],
        ["mine", "--input", str(d7_path), "--min-support", "3", "--maxlen", "0"],
        ["mine", "--input", str(d7_path), "--min-support", "3", "--maxlen", "4",
         "--mode", "open"],
        ["mine", "--input", str(d7_path), "--min-support", "3", "--maxlen", "4",
         "--must-have", "zz"],
        ["mine", "--input", str(d7_path), "--min-support", "3", "--maxlen", "4",
         "--agg", "sum"],
        ["mine", "--input", str(d7_path), "--min-support", "3", "--maxlen", "4",
         "--min-gap", "2", "--max-gap", "1"],
        ["mine", "--input", str(d7_path), "--min-support", "3", "--maxlen", "4",
         "--regex", "1("],
        # The reference miner checks its parameters as mine does.
        ["oracle", "--input", str(d7_path), "--min-support", "3", "--maxlen", "0"],
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        # Errors found after parsing read like argparse's own.
        assert err.splitlines()[-1].startswith(f"seqmine {argv[0]}: error: "), (argv, err)


def test_deeply_nested_regex_is_a_usage_error(d7_path, capsys):
    # 10,000 groups once raised RecursionError out of main.
    for depth in (101, 10_000):
        code, out, err = run(
            capsys, "mine", "--input", str(d7_path), "--min-support", "3", "--maxlen", "4",
            "--regex", "(" * depth + "1" + ")" * depth,
        )
        assert code == 1 and not out and "Traceback" not in err
        assert err.splitlines()[-1] == "seqmine mine: error: regex nests more than 100 groups deep"


def test_mine_regex_in_itemset_mode_is_usage_error(d7_path, tmp_path, capsys):
    # A flag conflict, reported before the input is read: a missing input
    # gives the same usage error.
    for path in (d7_path, tmp_path / "missing.spmf"):
        code, out, err = run(
            capsys, "mine", "--input", str(path), "--min-support", "3", "--maxlen", "4",
            "--regex", "1 3", "--itemset-mode",
        )
        assert code == 1 and not out, path
        assert err.splitlines()[-1] == "seqmine mine: error: --regex requires simple mode, not --itemset-mode"


def test_mine_nan_aggregate_threshold_is_usage_error(d7_path, tmp_path, capsys):
    # Every comparison with NaN is false: the run used to print no pattern
    # and exit 0.
    cost = tmp_path / "costs.tsv"
    cost.write_text("1\t1\n2\t2\n3\t3\n4\t10\n", encoding="utf-8")
    for agg in ("sum", "min", "max", "avg"):
        code, out, err = run(
            capsys, "mine", "--input", str(d7_path), "--min-support", "3", "--maxlen", "4",
            "--cost-file", str(cost), "--agg", agg, "--agg-cmp", "ge", "--agg-threshold", "nan",
        )
        assert code == 1 and not out, agg
        assert err.splitlines()[-1] == "seqmine mine: error: aggregate threshold must not be NaN", err


@pytest.mark.parametrize("command", ["mine", "bench"])
@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf", "soon"])
def test_timeout_must_be_positive_and_finite(command, value, d7_path, capsys):
    code, out, err = run(
        capsys, command, "--input", str(d7_path), "--min-support", "3", "--maxlen", "4",
        "--timeout", value,
    )
    assert code == 1 and not out
    assert err.splitlines()[-1].startswith(f"seqmine {command}: error: argument --timeout: "), err


def test_mine_data_errors(d7_path, tmp_path, capsys):
    code, _, err = run(
        capsys, "mine", "--input", str(tmp_path / "missing.spmf"),
        "--min-support", "3", "--maxlen", "4",
    )
    assert code == 3 and "data error" in err

    bad = tmp_path / "bad.spmf"
    bad.write_text("1 x -2\n", encoding="utf-8")
    code, _, err = run(capsys, "mine", "--input", str(bad), "--min-support", "1", "--maxlen", "2")
    assert code == 3 and "data error" in err

    itemsets = tmp_path / "sets.spmf"
    itemsets.write_text("1 2 -1 3 -2\n", encoding="utf-8")
    code, _, err = run(
        capsys, "mine", "--input", str(itemsets), "--min-support", "1", "--maxlen", "2"
    )
    assert code == 3 and "itemset_mode" in err
    code, out, err = run(
        capsys, "bench", "--input", str(itemsets), "--min-support", "1", "--maxlen", "2"
    )
    assert code == 3 and "itemset_mode" in err and not out
    # The reference miner once answered with the one-item-element patterns alone.
    code, out, err = run(
        capsys, "oracle", "--input", str(itemsets), "--min-support", "1", "--maxlen", "2"
    )
    assert code == 3 and "itemset_mode" in err and not out
    for command in ("mine", "oracle"):
        code, out, _ = run(
            capsys, command, "--input", str(itemsets), "--min-support", "1",
            "--maxlen", "2", "--itemset-mode",
        )
        assert code == 0 and len(out_lines(out)) == 7, command

    # A percentage of no sequences is no threshold: the database is at fault.
    empty = tmp_path / "empty.spmf"
    empty.write_text("", encoding="utf-8")
    for command in ("mine", "bench", "oracle"):
        code, out, err = run(
            capsys, command, "--input", str(empty), "--min-support", "10%", "--maxlen", "2"
        )
        assert code == 3 and "data error" in err and not out, command


def test_undecodable_files_are_data_errors(d7_path, tmp_path, capsys):
    # Bytes that are not UTF-8 once escaped main as UnicodeDecodeError.
    bad = tmp_path / "bad.db"
    bad.write_bytes(b"1 -1 -2\nseq(1,1,\xff).\n")
    costs = tmp_path / "costs.tsv"
    costs.write_bytes(b"1\t1\n2\t\xff\n")
    cases = [
        ([command, "--input", str(bad), "--format", fmt, "--min-support", "1", "--maxlen", "2"], "", 16)
        for command in ("mine", "bench", "oracle") for fmt in ("spmf", "aspfacts")
    ]
    # The cost file's message names it, as its bad lines' messages do.
    cases.append(([
        "mine", "--input", str(d7_path), "--min-support", "3", "--maxlen", "2",
        "--cost-file", str(costs), "--agg", "sum", "--agg-threshold", "4",
    ], "cost file: ", 6))
    for argv, which, offset in cases:
        code, out, err = run(capsys, *argv)
        assert code == 3 and not out, argv
        assert err.splitlines() == [f"seqmine: data error: {which}not UTF-8: invalid start byte at byte {offset}"], argv


def test_mine_itemset_flag_changes_nothing_on_one_item_data(d7_path, tmp_path, capsys):
    # The database decides how items are handled: on one-item elements the
    # flag is only the guard, so every mode writes the same records.
    for mode in cli.MODES:
        outputs = []
        for flag in ([], ["--itemset-mode"]):
            path = tmp_path / f"{mode}{len(flag)}.jsonl"
            code, _, _ = run(
                capsys, "mine", "--input", str(d7_path), "--min-support", "3", "--maxlen", "4",
                "--mode", mode, "--output", str(path), *flag,
            )
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] != b"", mode


def test_bench_itemset_flag_changes_nothing_on_one_item_data(d7_path, tmp_path, capsys):
    # Apart from time and memory, the records match: counters included.
    records = []
    for flag in ([], ["--itemset-mode"]):
        path = tmp_path / f"bench{len(flag)}.jsonl"
        code, _, _ = run(
            capsys, "bench", "--input", str(d7_path), "--min-support", "2,3", "--maxlen", "4",
            "--mode", ",".join(cli.MODES), "--output", str(path), *flag,
        )
        assert code == 0
        records.append([
            {k: v for k, v in r.items() if k not in ("wall_seconds", "peak_rss_kb")}
            for r in out_lines(path.read_text(encoding="utf-8"))
        ])
    assert len(records[0]) == 10 and records[0] == records[1]


def test_mine_timeout_exit_code(tmp_path, capsys):
    big = tmp_path / "big.spmf"
    code, _, _ = run(
        capsys, "gen", "--num-sequences", "150", "--seed", "5", "--output", str(big)
    )
    assert code == 0
    code, _, err = run(
        capsys, "mine", "--input", str(big), "--min-support", "2",
        "--maxlen", "8", "--timeout", "0.00001",
    )
    assert code == 2 and "timed out" in err


def test_mine_within_constraints_timeout_exit_code(tmp_path, capsys):
    # The search ends well before the deadline; the pairwise filter of
    # --condensed-within-constraints would run for seconds past it.  The
    # vacuous --max-gap makes the run constrained, so the filter cannot
    # judge by lookup in the frequent set and compares every pair.
    db = tmp_path / "db.spmf"
    code, _, _ = run(capsys, "gen", "--num-sequences", "40", "--seed", "5", "--output", str(db))
    assert code == 0
    code, out, err = run(
        capsys, "mine", "--input", str(db), "--min-support", "20%", "--maxlen", "8",
        "--mode", "maximal", "--condensed-within-constraints", "--max-gap", "100",
        "--timeout", "0.5",
    )
    assert code == 2 and "timed out" in err and not out


@pytest.mark.parametrize(
    "bounds, deepest",
    # A chain over all 1,200 positions spans 1,200.
    [([], 1200), (["--max-gap", "0"], 1200), (["--max-span", "1199"], 1199)],
    ids=["none", "gap", "span"],
)
def test_mine_deep_pattern(bounds, deepest, tmp_path, capsys):
    deep = tmp_path / "deep.spmf"
    deep.write_text("1 -1 " * 1200 + "-2\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    code, _, err = run(
        capsys, "mine", "--input", str(deep), "--min-support", "1",
        "--maxlen", "1200", "--output", str(out), *bounds,
    )
    assert code == 0, err
    assert len(out_lines(out.read_text(encoding="utf-8"))) == deepest


@pytest.mark.parametrize(
    "argv",
    [
        ["mine", "--input", "{d7}", "--min-support", "3", "--maxlen", "4", "--output", "{out}"],
        ["mine", "--input", "{d7}", "--min-support", "3", "--maxlen", "4",
         "--emit-asp-facts", "{out}"],
        ["gen", "--num-sequences", "5", "--output", "{out}"],
        ["bench", "--input", "{d7}", "--min-support", "3", "--maxlen", "4", "--output", "{out}"],
        ["oracle", "--input", "{d7}", "--min-support", "3", "--maxlen", "3", "--output", "{out}"],
    ],
    ids=["mine", "mine-emit-asp-facts", "gen", "bench", "oracle"],
)
def test_unwritable_output_is_data_error(argv, d7_path, tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "out"
    code, _, err = run(capsys, *(arg.format(d7=d7_path, out=out) for arg in argv))
    assert code == 3, err
    assert err.splitlines()[-1].startswith("seqmine: data error: ") and str(out) in err


def test_unwritable_output_fails_before_the_search(d7_path, tmp_path, capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("mined before checking the output")

    monkeypatch.setattr(cli, "mine", no_search)
    for out in (tmp_path / "no-such-dir" / "out.jsonl", tmp_path):
        code, _, err = run(
            capsys, "mine", "--input", str(d7_path), "--min-support", "3", "--maxlen", "4", "--output", str(out),
        )
        assert code == 3, err
        assert err.splitlines()[-1].startswith("seqmine: data error: ") and str(out) in err
    assert not (tmp_path / "no-such-dir").exists()


def test_no_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 1


@pytest.mark.parametrize("command", ["mine", "bench"])
def test_unknown_flag_is_reported_by_the_subcommand(command, d7_path, capsys):
    code, out, err = run(
        capsys, command, "--input", str(d7_path), "--min-support", "3", "--maxlen", "4", "--bogus",
    )
    assert code == 1 and not out
    assert err.splitlines()[0].startswith(f"usage: seqmine {command} ")
    assert err.splitlines()[-1] == f"seqmine {command}: error: unrecognized arguments: --bogus"


def test_readme_lists_every_mine_flag():
    """README's ``seqmine mine`` flag block names exactly the parser's flags."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("`seqmine mine` mines one database.", 1)[1].split("```")[1]
    documented = set(re.findall(r"--[a-z][a-z-]*", block))
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        flag
        for action in sub.choices["mine"]._actions
        for flag in action.option_strings
        if flag.startswith("--")
    }
    assert documented == flags - {"--help"}


def test_readme_supporting_modules_exist():
    """Every backticked name in README's "Supporting modules" list resolves
    as an attribute (a dotted one for class members) of the module its
    bullet names."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("Supporting modules:", 1)[1].split("\n## ", 1)[0]
    bullets = re.split(r"\n\* ", "\n" + block.strip())[1:]
    assert bullets
    checked = 0
    for bullet in bullets:
        module_name, rest = re.fullmatch(r"`(seqmine\.\w+)`:(.*)", bullet, re.S).groups()
        module = importlib.import_module(module_name)
        for name in re.findall(r"`([A-Za-z_][\w.]*)`", rest):
            try:
                functools.reduce(getattr, name.split("."), module)
            except AttributeError:
                pytest.fail(f"README documents {module_name}.{name}, which does not exist")
            checked += 1
    assert checked >= 10


# ---------------------------------------------------------------------------
# result records, written in blocks

SRC = Path(__file__).resolve().parent.parent / "src"


def _one_sequence_db(path, n_items):
    """One sequence of ``n_items`` distinct items: at support 1 and maxlen 1
    exactly ``n_items`` patterns."""
    path.write_text("".join(f"{i} -1 " for i in range(1, n_items + 1)) + "-2\n", encoding="utf-8")
    return path


def _expected_records(path, fmin, maxlen):
    db = load_database(str(path))
    return write_results(mine(db, MiningParams(fmin=fmin, maxlen=maxlen)), db)


@pytest.mark.parametrize(
    "n_items, fmin",
    [(2 * cli.BLOCK + 1, 1), (2 * cli.BLOCK, 1), (cli.BLOCK - 1, 1), (5, 2)],
    ids=["several-blocks", "exact-multiple", "one-block", "empty"],
)
def test_mine_records_equal_write_results_across_blocks(n_items, fmin, tmp_path, capsys):
    path = _one_sequence_db(tmp_path / "db.spmf", n_items)
    expected = _expected_records(path, fmin, 1)
    assert expected.count("\n") == (n_items if fmin == 1 else 0)
    argv = ["mine", "--input", str(path), "--min-support", str(fmin), "--maxlen", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out == expected
    out_path = tmp_path / "out.jsonl"
    code, out, err = run(capsys, *argv, "--output", str(out_path))
    assert code == 0 and out == "", err
    # An empty result still creates an empty file.
    assert out_path.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("command", ["mine", "oracle"])
@pytest.mark.parametrize("block", [1, 2, 7])
def test_small_blocks_write_the_same_records(command, block, d7_path, tmp_path, capsys, monkeypatch):
    # d7 has 7 patterns at support 3 and maxlen 3: blocks of 1 and 7 divide
    # them, blocks of 2 leave a partial last one.
    expected = _expected_records(d7_path, 3, 3)
    assert expected.count("\n") == 7
    monkeypatch.setattr(cli, "BLOCK", block)
    argv = [command, "--input", str(d7_path), "--min-support", "3", "--maxlen", "3"]
    code, out, err = run(capsys, *argv)
    assert code == 0 and out == expected, err
    out_path = tmp_path / "out.jsonl"
    code, _, err = run(capsys, *argv, "--output", str(out_path))
    assert code == 0 and out_path.read_text(encoding="utf-8") == expected, err


def _record_block_sizes(monkeypatch):
    """Replace ``cli.write_results`` with a recorder of its entry counts."""
    sizes = []
    real = cli.write_results

    def recorder(entries, db):
        entries = list(entries)
        sizes.append(len(entries))
        return real(entries, db)

    monkeypatch.setattr(cli, "write_results", recorder)
    return sizes


def test_no_write_gets_more_than_a_block(tmp_path, capsys, monkeypatch):
    total = 2 * cli.BLOCK + 1
    path = _one_sequence_db(tmp_path / "db.spmf", total)
    sizes = _record_block_sizes(monkeypatch)
    code, out, err = run(capsys, "mine", "--input", str(path), "--min-support", "1", "--maxlen", "1")
    assert code == 0, err
    assert sizes == [cli.BLOCK, cli.BLOCK, 1] and out.count("\n") == total


def test_oracle_writes_records_in_blocks(d7_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "BLOCK", 2)
    sizes = _record_block_sizes(monkeypatch)
    code, out, err = run(capsys, "oracle", "--input", str(d7_path), "--min-support", "3", "--maxlen", "3")
    assert code == 0, err
    assert sizes == [2, 2, 2, 1] and out.count("\n") == 7


# Labels JSON must escape, in multi-item elements.  SPMF holds only integer
# labels; the ASP facts format holds any.
ESCAPED_LABELS = ['a"b', "back\\slash", "tab\there", "\x01", "é", "日本", "\U0001f600"]


def _escaped_itemset_db(path):
    rng = random.Random(3)
    rows = [[rng.sample(ESCAPED_LABELS, rng.randint(1, 3)) for _ in range(rng.randint(3, 7))] for _ in range(12)]
    db = SequenceDatabase.from_label_sequences(rows)
    path.write_text(write_asp_facts(db), encoding="utf-8")
    assert load_database(str(path), "aspfacts") == db
    return db


def test_any_block_size_writes_the_same_bytes(tmp_path, capsys, monkeypatch):
    db = _escaped_itemset_db(tmp_path / "db.lp")
    result = mine(db, MiningParams(fmin=2, maxlen=3))
    expected = write_results(result, db)
    assert len(result) > 2 * cli.BLOCK and '\\"' in expected and "\\u00e9" in expected
    argv = ["mine", "--input", str(tmp_path / "db.lp"), "--format", "aspfacts", "--itemset-mode",
            "--min-support", "2", "--maxlen", "3"]
    out_path = tmp_path / "out.jsonl"
    for block in (1, 2, 7, cli.BLOCK, len(result)):
        monkeypatch.setattr(cli, "BLOCK", block)
        code, out, err = run(capsys, *argv)
        assert code == 0 and out == expected, (block, err)
        code, out, err = run(capsys, *argv, "--output", str(out_path))
        assert code == 0 and out_path.read_bytes() == expected.encode("utf-8"), (block, err)


def test_a_run_encodes_each_label_once(tmp_path, capsys, monkeypatch):
    # 10,000 labels, one pattern each, written in many blocks: the labels
    # and element texts are kept with the database, so no block encodes a
    # label again.
    path = _one_sequence_db(tmp_path / "db.spmf", 10_000)
    calls = collections.Counter()
    real = json.dumps

    def counting(obj, *args, **kwargs):
        calls[obj] += 1
        return real(obj, *args, **kwargs)

    sizes = _record_block_sizes(monkeypatch)
    monkeypatch.setattr(json, "dumps", counting)
    code, out, err = run(capsys, "mine", "--input", str(path), "--min-support", "1", "--maxlen", "1")
    monkeypatch.undo()
    assert code == 0, err
    assert len(sizes) > 1 and out.count("\n") == 10_000
    labels = {str(i) for i in range(1, 10_001)}
    assert {obj for obj in calls if obj in labels} == labels
    assert max(calls[label] for label in labels) == 1


# ---------------------------------------------------------------------------
# Fuzzed flags: every combination ends in a documented exit code


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    itemsets = root / "sets.spmf"
    itemsets.write_text("1 2 -1 3 -1 -2\n1 -1 2 3 -1 -2\n2 -1 1 2 -1 3 -1 -2\n", encoding="utf-8")
    costs = root / "costs.tsv"
    costs.write_text("1\t1\n2\t2\n3\t3\n4\t10\n", encoding="utf-8")
    return itemsets, costs


@st.composite
def _value(draw, valid, odd):
    """Mostly one of ``valid``, one time in five one of ``odd``."""
    return draw(st.sampled_from(odd if odd and draw(st.integers(0, 4)) == 0 else valid))


@st.composite
def _option(draw, flag, valid, odd=()):
    """``[flag, value]`` one time in three, else nothing."""
    return [flag, draw(_value(valid, odd))] if draw(st.integers(0, 2)) == 0 else []


@st.composite
def mine_argvs(draw, itemsets, costs):
    """A ``seqmine mine`` command line, each flag mostly valid and sometimes
    an odd value: supports of 0%, 150%, -1, NaN or nothing, lengths of 0 or
    less, negative bounds, timeouts that are 0, NaN, infinite or too short,
    empty or unknown labels, malformed regexes, NaN thresholds, and
    ``--itemset-mode`` with or without multi-item data."""
    argv = ["mine", "--input", str(draw(st.sampled_from([SRC.parent / "data" / "d7.spmf", itemsets])))]
    argv += ["--min-support", draw(_value(["1", "2", "3", "50%", "100%"], ["0%", "150%", "-1", "nan", "", "0"]))]
    argv += ["--maxlen", draw(_value(["1", "3", "100"], ["-3", "0"]))]
    argv += draw(_option("--minlen", ["1", "2"], ["-1", "0", "4"]))
    argv += draw(_option("--mode", list(MODES)))
    for flag in ("--min-gap", "--max-gap", "--min-span", "--max-span"):
        argv += draw(_option(flag, ["0", "1", "2", "5"], ["-1", "0"]))
    argv += draw(_option("--timeout", ["30", "1e-9"], ["0", "nan", "inf", "-1"]))
    argv += draw(_option("--must-have", ["1", "1,3", "", ","], ["zz", " , "]))
    argv += draw(_option("--cannot-have", ["2", ""], ["zz"]))
    argv += draw(_option("--regex", ["1 2* 3", "(1|2)*"], ["1(", "(", ")", "*", "1|", "zz", ""]))
    argv += draw(_option("--super-pattern", ["1 3", "1+2 3"], ["", "zz"]))
    if draw(st.integers(0, 2)) == 0:
        argv += ["--cost-file", str(costs), "--agg", draw(st.sampled_from(["sum", "min", "max", "avg"]))]
        argv += ["--agg-cmp", draw(st.sampled_from(["le", "lt", "ge", "gt", "eq"]))]
        argv += ["--agg-threshold", draw(_value(["0", "4"], ["nan", "-inf", "inf"]))]
    for flag in ("--itemset-mode", "--condensed-within-constraints"):
        if draw(st.booleans()):
            argv.append(flag)
    return argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_mine_flags_end_in_a_documented_exit_code(data, fuzz_files):
    argv = data.draw(mine_argvs(*fuzz_files))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code == 0:
        records = out_lines(out.getvalue())
        assert all(r["support"] == len(r["support_ids"]) for r in records)
    else:
        assert not out.getvalue() and err.getvalue()


def _drawn_bytes(pieces):
    """File contents: a join of ``pieces`` (the reader's tokens), whitespace,
    NUL and a BOM, so that some draws parse, with one piece in ten bytes that
    are not UTF-8 or drawn bytes."""
    text = st.sampled_from([*pieces, b" ", b"\n", b"\r\n", b"\r", b"\t", b"\x00", b"\xef\xbb\xbf"])
    odd = st.sampled_from([b"\xff", b"\x80", b"\xc3"]) | st.binary(max_size=4)
    return st.lists(st.one_of(*[text] * 9, odd), max_size=30).map(b"".join)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_file_contents_end_in_a_documented_exit_code(data, fuzz_files):
    root = fuzz_files[0].parent
    spmf, facts, costs = root / "drawn.spmf", root / "drawn.lp", root / "drawn.tsv"
    spmf.write_bytes(data.draw(_drawn_bytes([b"1 -1 ", b"2 3 -1 ", b"4 ", b"-1 ", b"-2\n", b"3 -1 -2\n"]), "spmf"))
    facts.write_bytes(data.draw(_drawn_bytes([b"seq(1,1,a). ", b"seq(1,2,b).\n", b'seq(2,1,"1").', b"% c\n"]), "facts"))
    costs.write_bytes(data.draw(_drawn_bytes([b"1\t1\n", b"2\t3\n", b"3\t-2\n", b"4\t9\n", b"a\t", b"5"]), "costs"))
    command = data.draw(st.sampled_from(["mine", "bench", "oracle"]), "command")
    source = data.draw(st.sampled_from(["spmf", "aspfacts"] + ["d7"] * (command == "mine")), "source")
    path = {"spmf": spmf, "aspfacts": facts, "d7": SRC.parent / "data" / "d7.spmf"}[source]
    argv = [command, "--input", str(path), "--format", "aspfacts" if source == "aspfacts" else "spmf"]
    argv += ["--min-support", data.draw(st.sampled_from(["1", "2", "50%"]), "support"), "--maxlen", "3"]
    if command == "mine" and data.draw(st.booleans(), "costed"):
        argv += ["--cost-file", str(costs), "--agg", data.draw(st.sampled_from(["sum", "min", "max", "avg"]))]
        argv += ["--agg-threshold", "2"]
    if data.draw(st.booleans(), "itemsets"):
        argv.append("--itemset-mode")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code != 0:
        assert not out.getvalue() and err.getvalue()


def _cli_process(*argv, **kwargs):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.Popen([sys.executable, "-m", "seqmine", *argv], env=env, **kwargs)


def test_reader_closing_stdout_is_not_an_error(tmp_path):
    from seqmine.datagen import GenParams, generate

    path = tmp_path / "gen.spmf"
    path.write_text(write_spmf(generate(GenParams())[0]), encoding="utf-8")
    err_path = tmp_path / "err.txt"
    with open(err_path, "wb") as err_fh:
        proc = _cli_process(
            "mine", "--input", str(path), "--min-support", "10%", "--maxlen", "20",
            stdout=subprocess.PIPE, stderr=err_fh,
        )
        head = proc.stdout.read(10)
        proc.stdout.close()
        code = proc.wait(timeout=120)
    err = err_path.read_text(encoding="utf-8")
    assert head == b'{"pattern"'
    assert code == 0, err
    assert "Traceback" not in err and "Exception ignored" not in err
    # Each record is longer than 40 bytes, so the output overran the pipe's
    # 64 KiB buffer long after the reader left.
    assert int(re.search(r"(\d+) patterns", err).group(1)) * 40 > 64 * 1024


def test_reader_closing_stdout_before_the_bench_summary(d7_path):
    proc = _cli_process(
        "bench", "--input", str(d7_path), "--min-support", "3", "--maxlen", "3",
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    # Closed before the interpreter starts up, so the summary meets no reader.
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert b"Traceback" not in err and b"Exception ignored" not in err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_reader_closing_an_output_pipe_is_a_data_error(tmp_path):
    # Over 4,000 records of more than 40 bytes: more than a 64 KiB pipe
    # holds, so the child is still writing when the reader closes, however
    # few records a block holds.
    path = _one_sequence_db(tmp_path / "db.spmf", max(4_001, 2 * cli.BLOCK + 1))
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    # Opened without blocking, so a child that never writes fails the wait
    # below instead of hanging the test.
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    err_path = tmp_path / "err.txt"
    try:
        with open(err_path, "wb") as err_fh:
            proc = _cli_process(
                "mine", "--input", str(path), "--min-support", "1", "--maxlen", "1",
                "--output", str(fifo), stdout=subprocess.DEVNULL, stderr=err_fh,
            )
            ready, _, _ = select.select([fd], [], [], 60)
            assert ready, "the child never wrote"
            assert os.read(fd, 10)
            os.close(fd)
            fd = None
            code = proc.wait(timeout=120)
    finally:
        if fd is not None:
            os.close(fd)
    err = err_path.read_text(encoding="utf-8")
    assert code == 3, err
    assert err.splitlines()[-1].startswith("seqmine: data error: ") and "Traceback" not in err


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_db_and_manifest(tmp_path, capsys):
    out = tmp_path / "synth.spmf"
    code, _, _ = run(
        capsys, "gen", "--num-sequences", "30", "--mean-seq-length", "8",
        "--num-patterns", "3", "--mean-pattern-length", "2", "--min-coverage", "20%",
        "--alphabet-size", "12", "--seed", "1", "--output", str(out),
    )
    assert code == 0
    manifest_path = tmp_path / "synth.spmf.manifest.json"
    assert manifest_path.exists()
    payload = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert payload["params"]["min_coverage"] == pytest.approx(0.2)
    assert len(payload["planted"]) == 3
    assert all(len(p["sids"]) == 6 for p in payload["planted"])  # ceil(0.2 * 30)

    from seqmine import load_database

    db = load_database(str(out))
    assert len(db) == 30


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.spmf", tmp_path / "b.spmf"
    for path in (a, b):
        code, _, _ = run(
            capsys, "gen", "--num-sequences", "25", "--mean-seq-length", "6",
            "--num-patterns", "2", "--mean-pattern-length", "2", "--seed", "9",
            "--output", str(path), "--manifest", str(path) + ".json",
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    manifests = [(tmp_path / name).read_text(encoding="utf-8") for name in ("a.spmf.json", "b.spmf.json")]
    assert manifests[0] == manifests[1]


def test_gen_usage_errors(capsys, tmp_path):
    for coverage in ["1.5", "abc"]:
        code, _, _ = run(
            capsys, "gen", "--min-coverage", coverage, "--output", str(tmp_path / "x.spmf")
        )
        assert code == 1
    # A popularity law whose draws never land in (0, 1) is refused, not run.
    for flags in (["--item-mu", "5", "--item-sigma", "0"], ["--item-mu", "nan"], ["--item-sigma", "nan"]):
        code, out, err = run(capsys, "gen", *flags, "--output", str(tmp_path / "x.spmf"))
        assert code == 1 and not out, flags
        assert err.splitlines()[-1].startswith("seqmine gen: error: item_"), (flags, err)
    assert not (tmp_path / "x.spmf").exists()


# ---------------------------------------------------------------------------
# bench


def test_bench_grid_and_jsonl(d7_path, tmp_path, capsys):
    records_path = tmp_path / "records.jsonl"
    code, out, _ = run(
        capsys, "bench", "--input", str(d7_path), "--min-support", "3,5",
        "--mode", "frequent,maximal", "--maxlen", "4", "--output", str(records_path),
    )
    assert code == 0
    assert "dataset" in out and "d7.spmf" in out
    records = out_lines(records_path.read_text(encoding="utf-8"))
    assert len(records) == 4
    counts = {(r["resolved_fmin"], r["mode"]): r["pattern_count"] for r in records}
    assert counts == {(3, "frequent"): 7, (3, "maximal"): 1, (5, "frequent"): 5, (5, "maximal"): 2}


def test_bench_runs_a_repeated_value_once(d7_path, tmp_path, capsys):
    records_path = tmp_path / "records.jsonl"
    code, out, _ = run(
        capsys, "bench", "--input", str(d7_path), "--input", str(d7_path),
        "--min-support", "3,3", "--mode", "frequent,frequent", "--maxlen", "4",
        "--output", str(records_path),
    )
    assert code == 0
    assert len(out.splitlines()) == 3  # header, rule, one row
    [record] = out_lines(records_path.read_text(encoding="utf-8"))
    assert (record["fmin"], record["mode"], record["pattern_count"]) == (3, "frequent", 7)


def test_bench_keeps_a_count_and_a_fraction_that_compare_equal(d7_path, tmp_path, capsys):
    # 1 and 100% parse to 1 and 1.0, which compare equal in Python, but a
    # count of one sequence and all of them are different cells.
    records_path = tmp_path / "records.jsonl"
    code, out, _ = run(
        capsys, "bench", "--input", str(d7_path), "--min-support", "1,100%,1",
        "--maxlen", "4", "--output", str(records_path),
    )
    assert code == 0
    assert len(out.splitlines()) == 4
    records = out_lines(records_path.read_text(encoding="utf-8"))
    assert [(repr(r["fmin"]), r["resolved_fmin"], r["pattern_count"]) for r in records] == [
        ("1", 1, 23), ("1.0", 7, 0),
    ]


def test_bench_usage_errors(d7_path, capsys):
    cases = [
        ["bench", "--input", str(d7_path), "--min-support", ",", "--maxlen", "4"],
        ["bench", "--input", str(d7_path), "--min-support", "3", "--mode", ",", "--maxlen", "4"],
        ["bench", "--input", str(d7_path), "--min-support", "3", "--mode", "", "--maxlen", "4"],
        ["bench", "--input", str(d7_path), "--min-support", "3",
         "--mode", "open", "--maxlen", "4"],
        ["bench", "--input", str(d7_path), "--min-support", "3", "--maxlen", "0"],
        ["bench", "--input", str(d7_path), "--min-support", "3", "--minlen", "5", "--maxlen", "4"],
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert not out, argv
        assert err.splitlines()[-1].startswith("seqmine bench: error: "), (argv, err)


def test_bench_mixed_sweep_stops_before_its_first_cell(d7_path, tmp_path, capsys):
    # Every input is checked before any cell runs, so no record file is made.
    itemsets = tmp_path / "sets.spmf"
    itemsets.write_text("1 2 -1 3 -2\n", encoding="utf-8")
    records = tmp_path / "records.jsonl"
    code, out, err = run(
        capsys, "bench", "--input", str(d7_path), "--input", str(itemsets),
        "--min-support", "1", "--maxlen", "2", "--output", str(records),
    )
    assert code == 3 and "itemset_mode" in err and not out and not records.exists()


def test_bench_missing_input_is_data_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "bench", "--input", str(tmp_path / "none.spmf"),
        "--min-support", "3", "--maxlen", "4",
    )
    assert code == 3 and "data error" in err


# ---------------------------------------------------------------------------
# oracle


def test_oracle_subcommand_matches_mine(d7_path, capsys):
    code, oracle_out, _ = run(
        capsys, "oracle", "--input", str(d7_path), "--min-support", "3", "--maxlen", "3"
    )
    assert code == 0
    code, mine_out, _ = run(
        capsys, "mine", "--input", str(d7_path), "--min-support", "3", "--maxlen", "3"
    )
    assert code == 0
    assert out_lines(oracle_out) == out_lines(mine_out)


def test_oracle_guard_violation_is_data_error(d7_path, capsys):
    code, _, err = run(
        capsys, "oracle", "--input", str(d7_path), "--min-support", "3", "--maxlen", "9"
    )
    assert code == 3 and "guard" in err


# ---------------------------------------------------------------------------
# installed entry point


def test_console_script(d7_path):
    exe = shutil.which("seqmine")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run(
        [exe, "mine", "--input", str(d7_path), "--min-support", "3", "--maxlen", "4"],
        capture_output=True,
        encoding="utf-8",
    )
    assert proc.returncode == 0
    assert len([l for l in proc.stdout.splitlines() if l.strip()]) == 7


@pytest.mark.parametrize("module", ["seqmine", "seqmine.cli"])
def test_python_dash_m_runs_the_cli(module, d7_path, capsys):
    argv = ["mine", "--input", str(d7_path), "--min-support", "3", "--maxlen", "4"]
    code, expected, _ = run(capsys, *argv)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    for extra, want in (([], code), (["--bogus"], 1)):
        proc = subprocess.run(
            [sys.executable, "-m", module, *argv, *extra], env=env, capture_output=True, encoding="utf-8"
        )
        assert proc.returncode == want, proc.stderr
        assert proc.stdout == (expected if want == 0 else "")
