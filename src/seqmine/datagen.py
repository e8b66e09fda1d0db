"""Synthetic sequence database generator.

Databases are built backwards from the answer: a set of random patterns is
drawn first, each pattern is planted into a uniformly chosen share of the
sequences (in order, at random positions), and the remaining slots are
filled with noise items.  Items, for patterns and noise alike, follow a
truncated-normal popularity law: x ~ Normal(mu, sigma) resampled until
0 < x < 1, then item = floor(x * alphabet_size).

With the default parameters every planted pattern is guaranteed a support
of at least ceil(min_coverage * num_sequences), since a sequence hosting a
pattern contains it by construction.
"""

from __future__ import annotations

import json
import math
import random
# ``seqmine mine`` never imports this module, so dataclasses cost its start-up
# nothing here; the classes it does import use ``seqdb._Frozen`` instead.
from dataclasses import asdict, dataclass

from .seqdb import SequenceDatabase


@dataclass(frozen=True)
class GenParams:
    num_sequences: int = 500
    mean_seq_len: int = 20
    num_patterns: int = 20
    mean_pattern_len: int = 5
    min_coverage: float = 0.10
    alphabet_size: int = 50
    item_mu: float = 0.5
    item_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_sequences < 0 or self.num_patterns < 0:
            raise ValueError("counts must be non-negative")
        if self.mean_seq_len < 1 or self.mean_pattern_len < 1:
            raise ValueError("mean lengths must be >= 1")
        if self.mean_pattern_len > self.mean_seq_len:
            raise ValueError("mean_pattern_len must not exceed mean_seq_len")
        if not 0.0 <= self.min_coverage <= 1.0:
            raise ValueError("min_coverage must be in [0, 1]")
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be >= 1")
        # Inside these bounds a Normal(mu, sigma) draw lands in (0, 1) with
        # probability above 1/3, so the popularity law's resampling ends.
        if not 0.0 < self.item_mu < 1.0:
            raise ValueError("item_mu must be in (0, 1)")
        if not 0.0 <= self.item_sigma <= 1.0:
            raise ValueError("item_sigma must be in [0, 1]")


@dataclass(frozen=True)
class PlantedPattern:
    labels: tuple[str, ...]
    sids: tuple[int, ...]


@dataclass(frozen=True)
class GenManifest:
    """Record of what was planted where, for post-hoc verification."""

    params: GenParams
    planted: tuple[PlantedPattern, ...]

    def to_json(self) -> str:
        payload = {
            "params": asdict(self.params),
            "planted": [{"labels": list(p.labels), "sids": list(p.sids)} for p in self.planted],
        }
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "GenManifest":
        payload = json.loads(text)
        return cls(
            GenParams(**payload["params"]),
            tuple(
                PlantedPattern(tuple(p["labels"]), tuple(p["sids"]))
                for p in payload["planted"]
            ),
        )


def item_popularity_law(k: int, mu: float, sigma: float, rng: random.Random) -> int:
    """One draw: x ~ Normal(mu, sigma) truncated to (0,1), then floor(x*k)."""
    while True:
        x = rng.gauss(mu, sigma)
        if 0.0 < x < 1.0:
            return min(k - 1, int(x * k))


def _length(rng: random.Random, mean: int, lo: int) -> int:
    return max(lo, round(rng.gauss(mean, mean / 5)))


def _label(index: int, width: int) -> str:
    return str(index).zfill(width)


def generate(gp: GenParams) -> tuple[SequenceDatabase, GenManifest]:
    """Deterministic for a given GenParams (single seeded RNG stream)."""
    rng = random.Random(gp.seed)
    k, mu, sigma = gp.alphabet_size, gp.item_mu, gp.item_sigma
    width = len(str(gp.alphabet_size - 1))

    patterns: list[list[int]] = []
    for _ in range(gp.num_patterns):
        plen = min(_length(rng, gp.mean_pattern_len, 1), gp.mean_seq_len)
        patterns.append([item_popularity_law(k, mu, sigma, rng) for _ in range(plen)])

    assigned: list[list[int]] = [[] for _ in range(gp.num_sequences)]
    planted_sids: list[tuple[int, ...]] = []
    occurrences = math.ceil(gp.min_coverage * gp.num_sequences)
    for pid in range(gp.num_patterns):
        if gp.num_sequences == 0:
            planted_sids.append(())
            continue
        rows = sorted(rng.sample(range(gp.num_sequences), occurrences))
        planted_sids.append(tuple(r + 1 for r in rows))
        for r in rows:
            assigned[r].append(pid)

    label_seqs: list[list[str]] = []
    for row in range(gp.num_sequences):
        need = sum(len(patterns[pid]) for pid in assigned[row])
        length = max(_length(rng, gp.mean_seq_len, 1), need)
        slots: list[int | None] = [None] * length
        free = list(range(length))
        for pid in assigned[row]:
            chosen = sorted(rng.sample(free, len(patterns[pid])))
            for pos, item in zip(chosen, patterns[pid]):
                slots[pos] = item
            free = [f for f in free if slots[f] is None]
        for pos in free:
            slots[pos] = item_popularity_law(k, mu, sigma, rng)
        label_seqs.append([_label(i, width) for i in slots])  # type: ignore[arg-type]

    db = SequenceDatabase.from_label_sequences(label_seqs)
    manifest = GenManifest(
        gp,
        tuple(
            PlantedPattern(tuple(_label(i, width) for i in patterns[pid]), planted_sids[pid])
            for pid in range(gp.num_patterns)
        ),
    )
    return db, manifest
