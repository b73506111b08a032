"""Query-hardness-aware ranking toolkit.

Trains a base ranker on all queries and a specialized ranker on
contextually enriched hard queries, estimates per-query hardness with a
trainable QPP model, and combines the two rankers by balanced score fusion,
hardness routing, or hardness-weighted interpolation, with full evaluation
and significance reporting.
"""

from .corpus_io import (
    Document,
    DuplicateEntryError,
    ParseError,
    Qrels,
    Query,
    RunList,
    RunRecord,
    rank_records,
)
from .enrichment import (
    EnrichedQuery,
    EnrichmentError,
    HardnessRule,
    HttpGenerator,
    StubGenerator,
    build_prompt,
    classify_hardness,
    enrich,
)
from .evaluation import (
    MetricReport,
    PairedTestResult,
    build_report,
    ndcg_at_k,
    paired_test,
    reciprocal_rank,
    relative_improvement,
)
from .fusion import (
    FusionConfig,
    RoutingDecision,
    bsf,
    normalize_scores,
    route_qpp,
    train_median_threshold,
    w_qpps,
)
from .lexical_retrieval import (
    Bm25Params,
    InvertedIndex,
    bm25_search,
    build_index,
    select_passage,
)
from .linear_model import LogisticScorer
from .pointwise_ranker import (
    FEATURE_NAMES,
    ModelRanker,
    ScoreFileRanker,
    TrainingInstance,
    extract_features,
    rerank,
    score,
    train,
)
from .qpp import (
    FileQppProvider,
    ModelQppProvider,
    QppEstimate,
    estimate,
    qpp_features,
    train_qpp,
)

__version__ = "0.1.0"

__all__ = [
    "Bm25Params",
    "Document",
    "DuplicateEntryError",
    "EnrichedQuery",
    "EnrichmentError",
    "FEATURE_NAMES",
    "FileQppProvider",
    "FusionConfig",
    "HardnessRule",
    "HttpGenerator",
    "InvertedIndex",
    "LogisticScorer",
    "MetricReport",
    "ModelQppProvider",
    "ModelRanker",
    "PairedTestResult",
    "ParseError",
    "Qrels",
    "QppEstimate",
    "Query",
    "RoutingDecision",
    "RunList",
    "RunRecord",
    "ScoreFileRanker",
    "StubGenerator",
    "TrainingInstance",
    "bm25_search",
    "bsf",
    "build_index",
    "build_prompt",
    "build_report",
    "classify_hardness",
    "enrich",
    "estimate",
    "extract_features",
    "ndcg_at_k",
    "normalize_scores",
    "paired_test",
    "qpp_features",
    "rank_records",
    "reciprocal_rank",
    "relative_improvement",
    "rerank",
    "route_qpp",
    "score",
    "select_passage",
    "train",
    "train_median_threshold",
    "train_qpp",
    "w_qpps",
]
