"""seqmine: sequential pattern mining over sequence databases.

Frequent, constrained, and condensed (closed/maximal and backward
variants) pattern mining, the paper's two embedding representations
(skip-gaps and fill-gaps) as reference models, brute-force reference
implementations, a synthetic data generator, and a benchmarking harness.

Every name in ``__all__``, and every submodule, loads on first use
(PEP 562), so ``import seqmine.cli`` pays only for the modules a mining
run needs.
"""

import importlib

# Submodule -> the public names it defines.
_EXPORTS = {
    "seqdb": (
        "Alphabet", "FormatError", "MiningResult", "Pattern", "ResultEntry", "Sequence",
        "SequenceDatabase", "load_database", "read_asp_facts", "read_results", "read_spmf",
        "write_asp_facts", "write_results", "write_spmf",
    ),
    "relations": (
        "FillGapsFrontier", "SkipGapsEmbedding", "fill_gaps_frontier", "is_prefix",
        "is_subitemset", "is_subsequence", "skip_gaps_embedding", "support",
    ),
    "miner": ("DataError", "MineStats", "MiningParams", "MiningTimeout", "mine"),
    "constraints": (
        "AggregateSpec", "ChainEmbedding", "ConstraintError", "ConstraintSet", "RegexDfa",
        "RegexError", "constrained_embeddings", "load_cost_text", "regex_compile",
        "resolve_costs",
    ),
    "condensed": (
        "InsertableRegions", "backward_filter", "insertable_regions", "is_closed", "is_maximal",
    ),
    "oracle": (
        "GuardError", "OracleConfig", "oracle_condensed", "oracle_constrained",
        "oracle_embeddings", "oracle_frequent",
    ),
    "datagen": ("GenManifest", "GenParams", "generate", "item_popularity_law"),
    "bench": ("BenchRecord", "run_suite"),
}
_MODULES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULES)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # ``seqmine.condensed`` and the like load on first use too
        return importlib.import_module(f".{name}", __name__)
    try:
        module = _MODULES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
