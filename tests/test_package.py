"""The package namespace: public names load their modules on first use."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqmine

SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC_NAMES = {
    "seqdb": {
        "Alphabet", "FormatError", "MiningResult", "Pattern", "ResultEntry", "Sequence",
        "SequenceDatabase", "load_database", "read_asp_facts", "read_results", "read_spmf",
        "write_asp_facts", "write_results", "write_spmf",
    },
    "relations": {
        "FillGapsFrontier", "SkipGapsEmbedding", "fill_gaps_frontier", "is_prefix",
        "is_subitemset", "is_subsequence", "skip_gaps_embedding", "support",
    },
    "miner": {"DataError", "MineStats", "MiningParams", "MiningTimeout", "mine"},
    "constraints": {
        "AggregateSpec", "ChainEmbedding", "ConstraintError", "ConstraintSet", "RegexDfa",
        "RegexError", "constrained_embeddings", "load_cost_text", "regex_compile", "resolve_costs",
    },
    "condensed": {
        "InsertableRegions", "backward_filter", "insertable_regions", "is_closed", "is_maximal",
    },
    "oracle": {
        "GuardError", "OracleConfig", "oracle_condensed", "oracle_constrained",
        "oracle_embeddings", "oracle_frequent",
    },
    "datagen": {"GenManifest", "GenParams", "generate", "item_popularity_law"},
    "bench": {"BenchRecord", "run_suite"},
}


def fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports seqmine from the source tree."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, encoding="utf-8")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_imports_only_the_mining_modules():
    loaded = json.loads(fresh(
        "import json, sys, seqmine.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'seqmine')))"
    ))
    assert set(loaded) == {
        "seqmine", "seqmine.cli", "seqmine.seqdb", "seqmine.relations",
        "seqmine.constraints", "seqmine.miner",
    }


def test_mine_path_imports_neither_dataclasses_nor_fractions():
    # Each costs every ``seqmine mine`` process start-up time: dataclasses
    # loads inspect, ast and dis, fractions loads decimal.  Only the modules
    # that this import loads count, not those the interpreter loaded before.
    added = json.loads(fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import seqmine.cli, seqmine.condensed\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    ))
    assert "seqmine.condensed" in added
    assert not {"dataclasses", "fractions"} & set(added), added


def test_submodules_import_from_the_package():
    assert fresh(
        "import seqmine\n"
        "assert seqmine.oracle.oracle_frequent and 'seqmine.oracle' in __import__('sys').modules\n"
        "from seqmine import cli, condensed, constraints, miner, seqdb\n"
        "assert seqmine.condensed is condensed and condensed.filter_result\n"
        "assert cli.write_results is seqdb.write_results\n"
        "print('ok')"
    ) == "ok\n"


def test_public_names_resolve_to_their_modules():
    assert set(seqmine.__all__) == set().union(*PUBLIC_NAMES.values())
    for module_name, names in PUBLIC_NAMES.items():
        module = importlib.import_module(f"seqmine.{module_name}")
        for name in names:
            assert getattr(seqmine, name) is getattr(module, name), name
    assert set(seqmine.__all__) <= set(dir(seqmine))
    namespace: dict = {}
    exec("from seqmine import *", namespace)
    assert namespace["mine"] is seqmine.miner.mine


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        seqmine.no_such_name
    assert not hasattr(seqmine, "mine_frequent")


def test_readme_library_example_runs():
    # The README's "## Library" code block, run as written from the
    # repository root, prints every entry with its ascending support ids.
    root = SRC.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], cwd=root, env=env, capture_output=True, encoding="utf-8"
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 7
    assert lines[0] == "[['1']] 6 (1, 2, 4, 5, 6, 7)"
    assert "[['1'], ['2'], ['3']] 4 (2, 4, 6, 7)" in lines
