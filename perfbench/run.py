"""seqmine benchmark: timed ``seqmine mine`` jobs over seeded inputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --workload NAME --seed N --seconds S --steady RUNS
    python3 perfbench/run.py --corruption-check --seed N

One run sets the workload's inputs up, then runs its jobs one at a time,
each in a fresh process and each followed by another set-up, in passes until
``--seconds`` have gone by (a closed loop with one client), then verifies
every distinct output.  Each job and set-up is timed between two timings of
a fixed reference loop, which scale it to a host of fixed speed (``Clock``).
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` untraced and traced passes in
turn give the per-layer metrics instead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / "work"
REF_S = 0.1  # reference-loop seconds that scaled timings assume, see Clock
STARTUP_REPS = 5
JOB_TIMEOUT = 25.0  # seconds; the slowest job takes under 8

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


try:
    import seqmine
except ImportError as exc:
    _fail(f"cannot import seqmine from {ROOT / 'src'}: {exc}")
if not Path(seqmine.__file__).resolve().is_relative_to(ROOT / "src"):
    _fail(f"seqmine imported from {seqmine.__file__}, not from {ROOT / 'src'}")

import verify  # noqa: E402
from workloads import WORKLOADS, Inputs, Job, load_inputs, setup  # noqa: E402

D7 = ROOT / "data" / "d7.spmf"
END_TO_END = ("wall_s", "peak_rss_mb", "setup_s")


def job_env() -> dict[str, str]:
    """The environment of every job: no thread override, fixed hashing."""
    env = {k: v for k, v in os.environ.items() if k != "SEQMINE_THREADS"}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def reference_s() -> float:
    """One timing of a fixed pure-Python loop of dict, tuple and sort work,
    the kind the miner does, run in this process."""
    t0 = time.perf_counter()
    counts: dict[tuple[int, int], int] = {}
    rows = []
    for i in range(120_000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        rows.append((i, key))
    rows.sort(key=lambda row: row[1])
    return time.perf_counter() - t0


class Clock:
    """Scales timings to a host of fixed speed.

    The host's speed drifts by up to 2x in phases of seconds to minutes, and
    a whole run can fall in a slow one.  The reference loop is timed before
    and after the work to be timed; ``factor``, called right after that
    work, times it again and returns ``REF_S`` over the mean of the two
    timings.  Seconds times the factor are the seconds the same work would
    take on a host where the reference loop takes ``REF_S``.  A change to
    seqmine moves a scaled time as it moves the raw one; a change of host
    speed mostly cancels out.
    """

    def __init__(self) -> None:
        self.refs = [reference_s()]

    def factor(self) -> float:
        self.refs.append(reference_s())
        return REF_S * 2 / (self.refs[-2] + self.refs[-1])


class JobRun:
    """One job executed in its own process."""

    def __init__(self, job_name: str, argv: list[str], workdir: Path, traced: bool = False):
        report = workdir / f"{job_name}.report.json"
        report.unlink(missing_ok=True)
        self.error = ""
        self.timed_out = False
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "job.py"), *(["--trace"] if traced else []), str(report), *argv],
                cwd=ROOT, env=job_env(), stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=JOB_TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            self.wall_s = time.perf_counter() - t0
            self.error = f"timed out after {JOB_TIMEOUT} s"
            self.timed_out = True
            self.report = None
            return
        self.wall_s = time.perf_counter() - t0
        self.report = json.loads(report.read_text()) if report.exists() else None
        if proc.returncode != 0 or self.report is None:
            self.error = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.jobs: list[Job] = WORKLOADS[workload]
        self.workdir = WORKDIR / workload
        self.workdir.mkdir(parents=True, exist_ok=True)
        for stale in self.workdir.iterdir():
            stale.unlink()
        self.spare = WORKDIR / f"{workload}.setup"
        self.spare.mkdir(exist_ok=True)
        self.clock = Clock()
        self.setup_s: list[float] = []  # scaled
        self.raw_setup_s: list[float] = []
        self.generate_s: list[float] = []
        self.pins = json.loads((HERE / "pinned.json").read_text())
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._texts: dict[tuple[str, str], str] = {}
        self._executions: list[tuple[Job, tuple[str, str] | None, str]] = []

    # -- set-up -----------------------------------------------------------
    def setup_once(self, workdir: Path) -> Inputs:
        t0 = time.perf_counter()
        inp, gen_s = setup(self.workload, self.seed, workdir)
        self.raw_setup_s.append(time.perf_counter() - t0)
        self.generate_s.append(gen_s)
        return inp

    def setup(self) -> None:
        """Write the inputs the jobs read; ``process_pass`` times more set-ups."""
        inp = self.setup_once(self.workdir)
        self.setup_s.append(self.raw_setup_s[-1] * self.clock.factor())
        load_inputs(inp)
        self.inputs: Inputs = inp
        self.oracle_problems = {
            job.name: verify.oracle_check(job, inp, self.seed, self.workdir) for job in self.jobs
        }

    def startup(self, reps: int) -> list[float]:
        """Run the README quick-start job; the first run also warms the
        bytecode cache.  Returns the process wall times."""
        walls = []
        out = self.workdir / "d7.out"
        for _ in range(reps):
            run = JobRun("d7", ["mine", "--input", str(D7), "--min-support", "3",
                                "--maxlen", "4", "--output", str(out)], self.workdir)
            problems = [run.error] if run.error else verify.check_d7(out.read_text())
            if problems:
                self.problems += problems
            walls.append(run.wall_s)
        return walls

    # -- jobs ---------------------------------------------------------------
    def _argv(self, job: Job, out: Path) -> list[str]:
        return job.argv(self.inputs, self.inputs.paths[job.db], out)

    def _record(self, job: Job, out: Path, error: str) -> None:
        """Note one execution; its output is verified later, once per digest."""
        self.attempted += 1
        key = None
        if not error:
            text = out.read_text(encoding="utf-8") if out.exists() else ""
            key = (job.name, verify.output_digest(text))
            self._texts.setdefault(key, text)
        self._executions.append((job, key, error))

    def judge(self) -> None:
        """Verify every distinct output and count the failed executions."""
        by_name = {job.name: job for job in self.jobs}
        verdicts = {}
        for key, text in self._texts.items():
            job = by_name[key[0]]
            verdicts[key] = verify.check_output(job, self.inputs, text, self.seed, self.pins)
            print(f"job {job.name} records={text.count(chr(10))} sha256={key[1]}", file=sys.stderr)
        for job, key, error in self._executions:
            problems = [error] if error else verdicts[key] + self.oracle_problems[job.name]
            if problems:
                self.failed += 1
                self.problems += [f"{job.name}: {p}" for p in problems[:5]]
        self._texts.clear()
        self._executions.clear()

    def process_pass(self, traced: bool = False) -> list[JobRun]:
        """Run every job once, and after each job set the inputs up again,
        into ``self.spare`` so that the files the jobs read stay as verified.
        The job and the set-up are scaled by the reference timings around
        the two; ``setup_s``, like ``wall_s``, is the median of scaled
        timings spread over the whole run."""
        runs = []
        for job in self.jobs:
            out = self.workdir / f"{job.name}.out"
            out.unlink(missing_ok=True)
            run = JobRun(job.name, self._argv(job, out), self.workdir, traced)
            self.setup_once(self.spare)
            factor = self.clock.factor()
            run.scaled_s = run.wall_s * factor
            self.setup_s.append(self.raw_setup_s[-1] * factor)
            self._record(job, out, run.error)
            runs.append(run)
        return runs

    def timed(self, seconds: float) -> dict[str, dict]:
        passes: list[list[JobRun]] = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(self.process_pass())
            if any(run.timed_out for run in passes[-1]):
                break
        peaks = [run.report["peak_kb"] for p in passes for run in p if run.report]
        job_walls = [[run.wall_s for run in p] for p in passes]
        scaled = [[run.scaled_s for run in p] for p in passes]
        refs = self.clock.refs
        print("perfbench: unscaled job walls by pass " + json.dumps(job_walls), file=sys.stderr)
        print("perfbench: unscaled set-ups " + json.dumps(self.raw_setup_s), file=sys.stderr)
        print("perfbench: reference loop " + json.dumps(refs), file=sys.stderr)
        print(f"perfbench: unscaled wall_s {sum(map(statistics.median, zip(*job_walls))):.4f}, "
              f"setup_s {statistics.median(self.raw_setup_s):.4f}; reference loop "
              f"{statistics.median(refs) * 1000:.2f} ms median of {len(refs)}", file=sys.stderr)
        return {
            "wall_s": {"value": sum(map(statistics.median, zip(*scaled))), "unit": "s"},
            "peak_rss_mb": {"value": max(peaks, default=0) / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(self.setup_s), "unit": "s"},
        }

    def traced(self, seconds: float) -> dict[str, dict]:
        """Untraced and traced passes in turn, each job in a fresh process,
        until ``seconds`` have gone by; per-layer values are pass means."""
        startup = self.startup(STARTUP_REPS)
        untraced, traced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            untraced.append(self.process_pass())
            traced.append(self.process_pass(traced=True))
            if any(run.timed_out for run in untraced[-1] + traced[-1]):
                break
        return layer_metrics(traced, untraced, startup, self.generate_s)


def layer_metrics(traced: list[list[JobRun]], untraced: list[list[JobRun]],
                  startup: list[float], generate_s: list[float]) -> dict[str, dict]:
    """Per-layer values summed over the workload's jobs, averaged over passes."""
    own: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    counts: Counter[str] = Counter()
    job_s = untraced_s = cpu_s = wall_s = 0.0
    for run in (run for runs in traced for run in runs if run.report):
        own.update(run.report["self_s"])
        calls.update(run.report["calls"])
        counts.update(run.report["counts"])
        job_s += run.report["main_s"]
    for run in (run for runs in untraced for run in runs):
        wall_s += run.wall_s
        if run.report:
            untraced_s += run.report["main_s"]
            cpu_s += run.report["cpu_s"]
    passes = len(traced)
    for table in (own, calls, counts):
        for key in table:
            table[key] /= passes
    nodes = counts["miner.nodes"]
    patterns = counts["miner.patterns"]
    search_s = own["miner.mine"]
    checks = calls["condensed.check"]
    scans = calls["condensed.scan"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values = {
        "datagen.generate_s": (min(generate_s), "s"),
        "cli.startup_s": (statistics.median(startup), "s"),
        "cli.cpu_per_wall": (ratio(cpu_s, wall_s), "ratio"),
        "cli.self_s": (own["cli.job"], "s"),
        "seqdb.load_s": (own["seqdb.load"], "s"),
        "seqdb.result_build_s": (own["seqdb.result_build"], "s"),
        "seqdb.write_s": (own["seqdb.write"] + own["seqdb.write_file"], "s"),
        "seqdb.out_bytes": (counts["seqdb.out_bytes"], "bytes"),
        "miner.index_s": (own["miner.index"], "s"),
        "miner.search_s": (search_s, "s"),
        "miner.nodes": (nodes, "count"),
        "miner.patterns": (patterns, "count"),
        "miner.patterns_per_node": (ratio(patterns, nodes), "ratio"),
        "miner.nodes_per_s": (ratio(nodes, search_s), "1/s"),
        "condensed.filter_s": (
            own["condensed.filter"] + own["condensed.check"] + own["condensed.scan"], "s"),
        "condensed.checks": (checks, "count"),
        "condensed.supporter_scans": (scans, "count"),
        "condensed.scans_per_check": (ratio(scans, checks), "ratio"),
        "condensed.kept_ratio": (ratio(counts["condensed.kept"], counts["condensed.in"]), "ratio"),
        "constraints.build_s": (own["constraints.build"], "s"),
        "constraints.dfa_s": (own["constraints.dfa_step"], "s"),
        "constraints.dfa_steps": (calls["constraints.dfa_step"], "count"),
        "trace.job_s": (job_s / passes, "s"),
        "trace.untraced_job_s": (untraced_s / passes, "s"),
        "trace.overhead_frac": (ratio(job_s, untraced_s) - 1, "ratio"),
        "trace.layer_frac": (ratio((sum(own.values()) - own["cli.job"]) * passes, job_s), "ratio"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(workload, seed)
    print(f"# workload={workload} seed={seed} python={platform.python_version()} "
          f"nproc={len(os.sched_getaffinity(0))} trace={int(trace)}", flush=True)
    t0 = time.perf_counter()
    bench.setup()
    t1 = time.perf_counter()
    if trace:
        metrics = bench.traced(seconds)
    else:
        bench.startup(1)
        metrics = bench.timed(seconds)
    t2 = time.perf_counter()
    bench.judge()
    print(f"perfbench: set-up and oracle {t1 - t0:.1f} s, jobs {t2 - t1:.1f} s, "
          f"verification {time.perf_counter() - t2:.1f} s", file=sys.stderr)
    for problem in bench.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    return {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def steady(workload: str, first_seed: int, runs: int, seconds: float) -> int:
    """Run one workload ``runs`` times on consecutive seeds, each in a fresh
    process, and print each end-to-end metric's median and spread."""
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.exists():
        bounds = {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}
    values: dict[str, list[float]] = {m: [] for m in END_TO_END}
    bad = 0
    for seed in range(first_seed, first_seed + runs):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            bad += 1
            continue
        result = json.loads(lines[-1])
        bad += not result["correct"]
        for m in END_TO_END:
            values[m].append(result["metrics"][m]["value"])
        print(f"seed {seed}: " + " ".join(f"{m}={values[m][-1]:.4f}" for m in END_TO_END), flush=True)
    for m, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(m)
        verdict = "" if bound is None else f" bound {bound} ({'below' if spread < bound / 3 else 'NOT below'} a third)"
        print(f"{workload} {m}: median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} "
              f"spread {spread:.4f}{verdict}")
    print(f"{workload}: {bad} of {runs} runs failed or incorrect")
    return 1 if bad else 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, with every metric by name."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_one(workload, seed, seconds, trace)
            ok &= result["correct"]
            frac = result["failed"] / result["attempted"]
            print(f"{workload} failed_frac {frac:.4f} ({result['failed']}/{result['attempted']} jobs)")
            for name, m in result["metrics"].items():
                print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


def corruption_check(seed: int) -> int:
    """Corrupt a verified frequent-deep output two ways; both must fail."""
    bench = Bench("frequent-deep", seed)
    bench.setup()
    job = bench.jobs[0]
    out = bench.workdir / f"{job.name}.out"
    run = JobRun(job.name, bench._argv(job, out), bench.workdir)
    if run.error:
        _fail(run.error)
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    rng = random.Random(f"corrupt-{seed}")
    victim = rng.randrange(len(lines))
    record = json.loads(lines[victim])
    n = len(bench.inputs.dbs[job.db])
    outsider = next(s for s in range(1, n + 1) if s not in record["support_ids"])
    record["support_ids"][rng.randrange(len(record["support_ids"]))] = outsider
    record["support_ids"].sort()
    variants = {
        "clean": "".join(lines),
        "dropped record": "".join(lines[:victim] + lines[victim + 1:]),
        "wrong support_ids entry": "".join(
            lines[:victim] + [json.dumps(record, separators=(",", ":")) + "\n"] + lines[victim + 1:]),
    }
    ok = True
    for pins in (bench.pins, {}):
        for name, text in variants.items():
            problems = verify.check_output(job, bench.inputs, text, seed, pins)
            caught = bool(problems)
            ok &= caught == (name != "clean")
            label = "with pins" if pins else "without pins"
            print(f"{name} ({label}): {'caught: ' + problems[0] if caught else 'passes'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="RUNS", default=0,
                    help="run the workload on RUNS consecutive seeds and print medians and spreads")
    ap.add_argument("--corruption-check", action="store_true",
                    help="show that corrupted outputs fail verification")
    args = ap.parse_args(argv)
    if not D7.exists():
        _fail(f"missing {D7}")
    if args.corruption_check:
        return corruption_check(args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.steady:
        return steady(args.workload, args.seed, args.steady, args.seconds)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
