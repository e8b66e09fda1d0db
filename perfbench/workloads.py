"""Workload definitions and their seeded set-up.

A workload is a list of ``seqmine mine`` jobs over inputs made from the
run's seed.  ``setup`` writes those inputs into a work directory; the
program sees only the files.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from seqmine.seqdb import SequenceDatabase, read_spmf, write_spmf

import inputs

AGG_THRESHOLD = 10


@dataclass(frozen=True)
class Job:
    """One ``seqmine mine`` command line, described by what verification needs."""

    name: str
    db: str  # key into Inputs.dbs
    support_pct: int
    maxlen: int
    mode: str = "frequent"
    itemset: bool = False
    maxgap: int | None = None
    regex_agg: bool = False

    def argv(self, inp: "Inputs", db_path: Path, out_path: Path, maxlen: int | None = None) -> list[str]:
        """The job's flags.  ``--strategy`` and ``--threads`` keep the CLI
        defaults, so the workloads outlive either option."""
        argv = [
            "mine", "--input", str(db_path), "--output", str(out_path),
            "--mode", self.mode, "--min-support", f"{self.support_pct}%",
            "--maxlen", str(self.maxlen if maxlen is None else maxlen),
        ]
        if self.itemset:
            argv.append("--itemset-mode")
        if self.maxgap is not None:
            argv += ["--max-gap", str(self.maxgap)]
        if self.regex_agg:
            argv += [
                "--regex", inp.regex, "--cost-file", str(inp.cost_path),
                "--agg", "sum", "--agg-cmp", "le", "--agg-threshold", str(AGG_THRESHOLD),
            ]
        return argv

    def fmin(self, n_sequences: int) -> int:
        return math.ceil(self.support_pct * n_sequences / 100)

    @property
    def unconstrained_frequent(self) -> bool:
        return self.mode == "frequent" and self.maxgap is None and not self.regex_agg


WORKLOADS: dict[str, list[Job]] = {
    "frequent-deep": [Job("frequent-5", "base", 5, 20)],
    "condensed-constrained": [
        Job("closed-20", "base", 20, 20, mode="closed"),
        Job("maximal-50", "base", 50, 20, mode="maximal"),
        Job("backward-maximal-50", "base", 50, 20, mode="backward-maximal"),
        Job("itemset-15", "itemset", 15, 20, itemset=True),
        Job("maxgap3-15", "base", 15, 20, maxgap=3),
        Job("regex-agg-8", "base", 8, 20, regex_agg=True),
    ],
}
# Sequences in each workload's databases.  The condensed-constrained jobs
# read half as many as frequent-deep's, at higher thresholds, so that each of
# them takes well under a second and a run holds about ten passes: a job's
# fastest pass is steady only over that many.
NUM_SEQUENCES = {"frequent-deep": 500, "condensed-constrained": 250}


@dataclass
class Inputs:
    """The files one workload's jobs read, and the databases as the program
    will parse them."""

    dbs: dict[str, SequenceDatabase] = field(default_factory=dict)
    paths: dict[str, Path] = field(default_factory=dict)
    regex: str = ""
    costs: dict[str, int] = field(default_factory=dict)
    cost_path: Path | None = None


def setup(workload: str, seed: int, workdir: Path) -> tuple[Inputs, float]:
    """Generate and write the workload's inputs.

    Returns the inputs and the seconds spent in ``seqmine.datagen.generate``.
    """
    jobs = WORKLOADS[workload]
    needed = {job.db for job in jobs}
    inp = Inputs()
    t0 = time.perf_counter()
    base = inputs.base_db(seed, NUM_SEQUENCES[workload])
    gen_s = time.perf_counter() - t0
    texts = {"base": write_spmf(base)}
    if "itemset" in needed:
        texts["itemset"] = write_spmf(inputs.itemset_db(base, seed))
    if any(job.regex_agg for job in jobs):
        inp.regex = inputs.regex_expr(base)
        inp.costs = inputs.cost_table(base, seed)
        inp.cost_path = workdir / "costs.tsv"
        inp.cost_path.write_text(inputs.cost_text(inp.costs), encoding="utf-8")
    for key in needed:
        inp.paths[key] = workdir / f"{key}.spmf"
        inp.paths[key].write_text(texts[key], encoding="utf-8")
    return inp, gen_s


def load_inputs(inp: Inputs) -> None:
    """Parse the written files the way the program does, for verification."""
    for key, path in inp.paths.items():
        inp.dbs[key] = read_spmf(path.read_text(encoding="utf-8"))
