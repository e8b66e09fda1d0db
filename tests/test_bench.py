"""Benchmark harness: grid sweeps, records, and the summary table."""

from __future__ import annotations

import json

import pytest

from seqmine import ConstraintSet, DataError, SequenceDatabase, generate, run_suite
from seqmine.bench import summarize
from seqmine.datagen import GenParams


def test_grid_shape_and_counts(d7):
    records = list(run_suite([("d7", d7)], [3, 4, 5, 6, 7], ["frequent", "maximal"], maxlen=4))
    assert len(records) == 10
    assert all(r.completed for r in records)
    counts = {(r.fmin, r.mode): r.pattern_count for r in records}
    assert {f: c for (f, m), c in counts.items() if m == "frequent"} == {3: 7, 4: 7, 5: 5, 6: 2, 7: 0}
    assert counts[(3, "maximal")] == 1


def test_record_fields_and_json(d7):
    (record,) = run_suite([("d7", d7)], [3], ["maximal"], maxlen=4)
    assert record.dataset == "d7"
    assert record.resolved_fmin == 3
    assert record.mode == "maximal"
    assert record.completed
    assert record.pattern_count == 1
    assert record.wall_seconds >= 0.0
    assert record.peak_rss_kb > 0
    assert record.nodes_expanded > 0
    assert record.candidate_tests > 0
    assert record.gated == 0
    payload = json.loads(record.to_json())
    assert set(payload) == {
        "dataset", "fmin", "resolved_fmin", "mode", "constraints", "wall_seconds",
        "peak_rss_kb", "nodes_expanded", "candidate_tests", "gated", "bounded", "completed", "pattern_count",
    }
    assert (payload["candidate_tests"], payload["gated"]) == (record.candidate_tests, 0)
    assert payload["bounded"] == record.bounded
    assert payload["dataset"] == "d7"
    assert payload["constraints"] == "none"
    assert payload["pattern_count"] == 1


def test_bad_cells_are_rejected_before_any_cell_runs(d7):
    with pytest.raises(ValueError):
        run_suite([("d7", d7)], [3], ["frequent"], maxlen=4, minlen=5)
    empty = SequenceDatabase.from_label_sequences([])
    with pytest.raises(DataError):
        run_suite([("d7", d7), ("empty", empty)], [0.5], ["frequent"], maxlen=4)


def test_itemset_data_is_mined_with_itemsets():
    # The dataset decides: (a b) and <(a b) c> are counted without a switch.
    db = SequenceDatabase.from_label_sequences([[("a", "b"), "c"], [("a", "b"), ("a", "c")]])
    (record,) = run_suite([("sets", db)], [2], ["frequent"], maxlen=3)
    assert record.pattern_count == 7


def test_fractional_threshold_resolution(d7):
    (record,) = run_suite([("d7", d7)], [3 / 7], ["frequent"], maxlen=4)
    assert record.fmin == 3 / 7
    assert record.resolved_fmin == 3
    assert record.pattern_count == 7


def test_timeout_cell_is_marked_incomplete():
    db, _ = generate(GenParams(num_sequences=150, seed=5))
    (record,) = run_suite([("big", db)], [2], ["frequent"], maxlen=8, timeout=1e-5)
    assert not record.completed
    assert record.pattern_count is None
    assert "pattern_count" not in json.loads(record.to_json())


def test_run_suite_rejects_a_timeout_that_is_not_positive(d7):
    # mine() checks the timeout, so the first cell raises before it runs.
    for bad in (float("nan"), 0, -1.0):
        with pytest.raises(ValueError, match="timeout"):
            list(run_suite([("d7", d7)], [3], ["frequent"], maxlen=4, timeout=bad))


def test_constraint_summary_string(d7):
    cs = ConstraintSet(must_have={2}, maxgap=0)
    (record,) = run_suite(
        [("d7", d7)], [3], ["frequent"], maxlen=4, constraints=cs
    )
    assert record.constraint_summary == "maxgap=0,must=1"


def test_summarize_table(d7):
    records = list(run_suite([("d7", d7)], [3, 5], ["frequent"], maxlen=4))
    table = summarize(records)
    lines = table.splitlines()
    assert len(lines) == 2 + len(records)
    assert "dataset" in lines[0] and "patterns" in lines[0]
    assert any(" 7" in line for line in lines[2:])


def test_summarize_marks_timeouts():
    db, _ = generate(GenParams(num_sequences=150, seed=5))
    records = list(
        run_suite([("big", db)], [2], ["frequent"], maxlen=8, timeout=1e-5)
    )
    assert "timeout" in summarize(records)
