"""Benchmark harness: run a grid of mining cells and record what happened.

A cell is one (dataset, threshold, mode) combination.  Each cell records
wall time, peak RSS, the search's counters (nodes expanded, support counts
made, candidates the regex or a summed aggregate bound gated, candidates
a sibling's supporters bounded), and the
pattern count; cells that hit their timeout are marked incomplete and the sweep
moves on.  Every cell's parameters are checked, and every threshold
resolved on its dataset, before the first cell runs.
"""

from __future__ import annotations

import json
import resource
import time
# ``seqmine mine`` never imports this module, so dataclasses cost its start-up
# nothing here; the classes it does import use ``seqdb._Frozen`` instead.
from dataclasses import dataclass
from typing import Iterable, Iterator

from .seqdb import SequenceDatabase
from .miner import MineStats, MiningParams, MiningTimeout, mine


@dataclass
class BenchRecord:
    dataset: str
    fmin: int | float
    resolved_fmin: int
    mode: str
    constraint_summary: str
    wall_seconds: float
    peak_rss_kb: int
    nodes_expanded: int
    candidate_tests: int
    gated: int
    bounded: int
    completed: bool
    pattern_count: int | None = None

    def to_json(self) -> str:
        payload = {
            "dataset": self.dataset,
            "fmin": self.fmin,
            "resolved_fmin": self.resolved_fmin,
            "mode": self.mode,
            "constraints": self.constraint_summary,
            "wall_seconds": round(self.wall_seconds, 6),
            "peak_rss_kb": self.peak_rss_kb,
            "nodes_expanded": self.nodes_expanded,
            "candidate_tests": self.candidate_tests,
            "gated": self.gated,
            "bounded": self.bounded,
            "completed": self.completed,
        }
        if self.completed:
            payload["pattern_count"] = self.pattern_count
        return json.dumps(payload, separators=(",", ":"))


def _summarize_constraints(constraints) -> str:
    if constraints is None:
        return "none"
    parts = []
    for name in ("mingap", "maxgap", "minspan", "maxspan"):
        v = getattr(constraints, name)
        if v is not None:
            parts.append(f"{name}={v}")
    if constraints.must_have:
        parts.append(f"must={len(constraints.must_have)}")
    if constraints.cannot_have:
        parts.append(f"cannot={len(constraints.cannot_have)}")
    if constraints.super_patterns:
        parts.append(f"super={len(constraints.super_patterns)}")
    if constraints.aggregate is not None:
        agg = constraints.aggregate
        parts.append(f"{agg.op}-{agg.cmp}-{agg.threshold}")
    if constraints.regex is not None:
        parts.append("regex")
    return ",".join(parts) or "none"


def run_suite(
    datasets: Iterable[tuple[str, SequenceDatabase]],
    thresholds: Iterable[int | float],
    modes: Iterable[str],
    maxlen: int,
    minlen: int = 1,
    constraints=None,
    timeout: float | None = None,
) -> Iterator[BenchRecord]:
    """Yield one record per cell of the (dataset x threshold x mode) grid;
    a dataset with multi-item elements is mined with itemsets, as ``mine``
    mines it.

    Raises ``ValueError`` for bad parameters and ``DataError`` for a
    threshold that does not resolve on a dataset, before any cell runs; a
    ``timeout`` that is not > 0 raises ``ValueError`` from ``mine`` when the
    first cell starts.
    """
    cells = []
    for name, db in datasets:
        for fmin in thresholds:
            for mode in modes:
                params = MiningParams(fmin=fmin, maxlen=maxlen, minlen=minlen, mode=mode)
                cells.append((name, db, params, params.resolved_fmin(len(db))))
    return _run_cells(cells, constraints, timeout)


def _run_cells(cells, constraints, timeout) -> Iterator[BenchRecord]:
    for name, db, params, fmin in cells:
        stats = MineStats()
        start = time.monotonic()
        completed = True
        count: int | None = None
        try:
            result = mine(db, params, constraints, timeout=timeout, stats=stats)
            count = len(result)
        except MiningTimeout:
            completed = False
        wall = time.monotonic() - start
        yield BenchRecord(
            dataset=name,
            fmin=params.fmin,
            resolved_fmin=fmin,
            mode=params.mode,
            constraint_summary=_summarize_constraints(constraints),
            wall_seconds=wall,
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            nodes_expanded=stats.nodes_expanded,
            candidate_tests=stats.candidate_tests,
            gated=stats.gated,
            bounded=stats.bounded,
            completed=completed,
            pattern_count=count,
        )


def summarize(records: Iterable[BenchRecord]) -> str:
    """Fixed-width table for terminal display."""
    rows = list(records)
    header = f"{'dataset':<18} {'fmin':>6} {'mode':<17} {'time(s)':>9} {'nodes':>9} {'patterns':>9}"
    lines = [header, "-" * len(header)]
    for r in rows:
        patterns = str(r.pattern_count) if r.completed else "timeout"
        lines.append(
            f"{r.dataset:<18} {r.resolved_fmin:>6} {r.mode:<17} "
            f"{r.wall_seconds:>9.3f} {r.nodes_expanded:>9} {patterns:>9}"
        )
    return "\n".join(lines)
