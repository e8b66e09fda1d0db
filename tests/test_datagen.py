"""Synthetic generator: determinism, planted coverage, popularity law."""

from __future__ import annotations

import collections
import random

import pytest

from seqmine import (
    GenManifest,
    GenParams,
    MiningParams,
    Pattern,
    generate,
    is_subsequence,
    item_popularity_law,
    mine,
    write_spmf,
)


# ---------------------------------------------------------------------------
# Parameter validation


def test_gen_params_validation():
    for bad in [
        dict(num_sequences=-1),
        dict(num_patterns=-1),
        dict(mean_seq_len=0),
        dict(mean_pattern_len=0),
        dict(mean_seq_len=4, mean_pattern_len=5),
        dict(min_coverage=-0.1),
        dict(min_coverage=1.1),
        dict(alphabet_size=0),
        dict(item_sigma=-0.5),
        # The popularity law resamples until a draw lands in (0, 1); these
        # never or hardly ever do, and the generator looped forever.
        dict(item_mu=5, item_sigma=0),
        dict(item_mu=1.5, item_sigma=0.01),
        dict(item_mu=0.0),
        dict(item_mu=1.0),
        dict(item_mu=float("nan")),
        dict(item_sigma=float("nan")),
        dict(item_sigma=float("inf")),
        dict(item_sigma=1.5),
    ]:
        with pytest.raises(ValueError):
            GenParams(**bad)
    GenParams(min_coverage=0.0)
    GenParams(min_coverage=1.0)
    GenParams(item_mu=0.01, item_sigma=1.0)
    GenParams(item_sigma=0.0)


# ---------------------------------------------------------------------------
# Popularity law


def test_popularity_law_degenerate_alphabet():
    rng = random.Random(1)
    assert all(item_popularity_law(1, 0.5, 0.3, rng) == 0 for _ in range(50))


def test_popularity_law_range_and_concentration():
    rng = random.Random(0)
    draws = [item_popularity_law(50, 0.5, 0.05, rng) for _ in range(100_000)]
    assert all(0 <= d <= 49 for d in draws)
    counts = collections.Counter(draws)
    # the law peaks at the scaled mean; 3 sigma on either side covers ~99.7%
    assert counts.most_common(1)[0][0] in (24, 25)
    inside = sum(c for d, c in counts.items() if 17 <= d <= 33)
    assert inside / len(draws) > 0.99


def test_popularity_law_is_deterministic_per_seed():
    a = [item_popularity_law(50, 0.5, 0.05, random.Random(9)) for _ in range(10)]
    b = [item_popularity_law(50, 0.5, 0.05, random.Random(9)) for _ in range(10)]
    assert a == b


# ---------------------------------------------------------------------------
# Generation


def test_generate_is_deterministic():
    gp = GenParams(num_sequences=30, mean_seq_len=8, num_patterns=4, mean_pattern_len=3, seed=7)
    db1, man1 = generate(gp)
    db2, man2 = generate(gp)
    assert write_spmf(db1) == write_spmf(db2)
    assert man1 == man2
    db3, _ = generate(GenParams(num_sequences=30, mean_seq_len=8, num_patterns=4, mean_pattern_len=3, seed=8))
    assert write_spmf(db3) != write_spmf(db1)


def test_generate_empty_database():
    db, manifest = generate(GenParams(num_sequences=0, num_patterns=3))
    assert len(db) == 0
    assert len(manifest.planted) == 3
    assert all(p.sids == () for p in manifest.planted)


def test_generate_labels_are_fixed_width():
    db, _ = generate(GenParams(num_sequences=20, mean_seq_len=6, num_patterns=2,
                               mean_pattern_len=2, alphabet_size=50, seed=1))
    assert all(len(lab) == 2 for lab in db.alphabet.labels)
    values = [int(lab) for lab in db.alphabet.labels]
    assert values == sorted(values)


COVERAGE_GP = GenParams(
    num_sequences=40,
    mean_seq_len=10,
    num_patterns=5,
    mean_pattern_len=3,
    min_coverage=0.25,
    alphabet_size=12,
    item_sigma=0.2,
    seed=3,
)


def test_planted_patterns_are_contained_where_promised():
    db, manifest = generate(COVERAGE_GP)
    assert len(manifest.planted) == 5
    for planted in manifest.planted:
        assert len(planted.sids) == 10  # ceil(0.25 * 40)
        p = tuple((db.alphabet.id_of(lab),) for lab in planted.labels)
        for sid in planted.sids:
            assert is_subsequence(p, db.sequence(sid))


def test_planted_patterns_are_minable_at_the_coverage_threshold():
    db, manifest = generate(COVERAGE_GP)
    maxlen = max(len(p.labels) for p in manifest.planted)
    support = {e.pattern: e.support for e in mine(db, MiningParams(fmin=10, maxlen=maxlen))}
    for planted in manifest.planted:
        p = Pattern(tuple((db.alphabet.id_of(lab),) for lab in planted.labels))
        assert support.get(p, 0) >= 10


def test_sequence_lengths_track_the_mean():
    db, _ = generate(GenParams(num_sequences=300, mean_seq_len=12, num_patterns=0,
                               mean_pattern_len=1, seed=2))
    mean = sum(len(s) for s in db.sequences) / len(db)
    assert 10.0 < mean < 14.0


# ---------------------------------------------------------------------------
# Manifest serialization


def test_manifest_json_roundtrip():
    _, manifest = generate(GenParams(num_sequences=10, mean_seq_len=5, num_patterns=2,
                                     mean_pattern_len=2, seed=4))
    again = GenManifest.from_json(manifest.to_json())
    assert again == manifest
