"""seqmine: sequential pattern mining over sequence databases.

Frequent, constrained, and condensed (closed/maximal and backward
variants) pattern mining, the paper's two embedding representations
(skip-gaps and fill-gaps) as reference models, brute-force reference
implementations, a synthetic data generator, and a benchmarking harness.
"""

from .seqdb import (
    Alphabet,
    FormatError,
    MiningResult,
    Pattern,
    ResultEntry,
    Sequence,
    SequenceDatabase,
    load_database,
    read_asp_facts,
    read_results,
    read_spmf,
    write_asp_facts,
    write_results,
    write_spmf,
)
from .relations import (
    FillGapsFrontier,
    SkipGapsEmbedding,
    fill_gaps_frontier,
    is_prefix,
    is_subitemset,
    is_subsequence,
    skip_gaps_embedding,
    support,
)
from .miner import (
    DataError,
    MineStats,
    MiningParams,
    MiningTimeout,
    frequent_items,
    mine,
)
from .constraints import (
    AggregateSpec,
    ChainEmbedding,
    ConstraintError,
    ConstraintSet,
    RegexDfa,
    RegexError,
    constrained_embeddings,
    load_cost_text,
    regex_compile,
    resolve_costs,
)
from .condensed import (
    InsertableRegions,
    OccurrenceBounds,
    backward_filter,
    insertable_regions,
    is_closed,
    is_maximal,
    occurrence_bounds,
)
from .oracle import (
    GuardError,
    OracleConfig,
    oracle_condensed,
    oracle_constrained,
    oracle_embeddings,
    oracle_frequent,
)
from .datagen import GenManifest, GenParams, generate, item_popularity_law
from .bench import BenchRecord, run_suite

__version__ = "0.1.0"
