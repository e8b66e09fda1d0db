"""Spans around the calls into each seqmine module, for traced job runs.

``Tracer.install`` replaces public module attributes with wrappers that
record a span per call: name, start, end and the index of the enclosing
span.  Spans stay in memory until the run ends.  A layer's self time is the
sum over its spans of the span's duration minus that of its child spans, so
the self times of all spans under one ``cli.job`` span add up to that span.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

from seqmine import cli, condensed, constraints, miner, seqdb

# (owner, attribute, span name).  ``cli`` imported its names, so the
# wrappers go where the calls look them up.
WRAPPED = (
    (cli, "load_database", "seqdb.load"),
    (cli, "mine", "miner.mine"),
    (cli, "write_results", "seqdb.write"),
    (cli, "_write_text", "seqdb.write_file"),
    (cli, "_build_constraints", "constraints.build"),
    (miner, "_Index", "miner.index"),
    (seqdb.MiningResult, "build", "seqdb.result_build"),
    (condensed, "filter_result", "condensed.filter"),
    (condensed, "is_closed", "condensed.check"),
    (condensed, "is_maximal", "condensed.check"),
    (condensed, "backward_filter", "condensed.check"),
    (condensed, "insertable_regions", "condensed.scan"),
    (constraints.RegexDfa, "step", "constraints.dfa_step"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == "miner.mine":
                counts["miner.nodes"] += kwargs["stats"].nodes_expanded
            elif name == "seqdb.result_build" and parent >= 0 and spans[parent][0] == "miner.mine":
                counts["miner.patterns"] += len(result)
            elif name == "condensed.filter":
                counts["condensed.in"] += len(args[1])
                counts["condensed.kept"] += len(result)
            elif name == "seqdb.write":
                counts["seqdb.out_bytes"] += len(result)  # json.dumps writes ASCII
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name in WRAPPED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                inner = self.wrap(name, original.__func__)
                setattr(owner, attr, classmethod(inner))
            else:
                setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return totals

    def calls(self) -> Counter[str]:
        """Spans per name."""
        return Counter(span[0] for span in self.spans)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
