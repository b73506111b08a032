"""Per-query hardness estimation from post-retrieval evidence.

A logistic model over statistics of the query's top-k first-stage results
is trained against nDCG labels (at the pipeline's `metrics.ndcg_k`) with a
soft-target binary cross-entropy. Because the training target measures how
WELL retrieval did (higher = easier), the prediction is inverted so that
the emitted estimate psi is a hardness score: psi = 1 - predicted
effectiveness. The model is a "qpp" `LogisticScorer` whose metadata holds
the top-k depth and the orientation, which is always "hardness".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus_io import Query, Ranking
from .lexical_retrieval import InvertedIndex
from .linear_model import LogisticScorer, fit_scorer
from .text import tokenize

QPP_FEATURE_NAMES = (
    "mean_topk_score",
    "stdev_topk_score",
    "max_topk_score",
    "score_gap",
    "query_length",
    "mean_term_idf",
)


@dataclass(frozen=True)
class QppEstimate:
    query_id: str
    psi: float

    def __post_init__(self):
        if not 0.0 <= self.psi <= 1.0:
            raise ValueError(f"psi must be in [0, 1], got {self.psi}")


def qpp_features(query: Query, topk: Ranking, index: InvertedIndex) -> np.ndarray:
    """Feature vector over the query and its top-k retrieval scores.

    Order (see QPP_FEATURE_NAMES): mean, population stdev and max of the
    top-k scores; gap between the first and last score; query token count;
    mean idf of the distinct query terms (terms absent from the index take
    the df=0 idf, i.e. maximally rare).
    """
    if not topk:
        raise ValueError("topk must be non-empty")
    scores = topk.scores
    tokens = tokenize(query.text)
    terms = sorted(set(tokens))
    mean_idf = float(np.mean([index.idf(term) for term in terms])) if terms else 0.0
    return np.array(
        [
            float(scores.mean()),
            float(scores.std()),
            float(scores.max()),
            float(scores[0] - scores[-1]),
            float(len(tokens)),
            mean_idf,
        ]
    )


def train_qpp(
    labeled: Sequence[tuple[Query, Ranking, float]],
    index: InvertedIndex,
    epochs: int = 500,
    learning_rate: float = 0.05,
    k: int = 10,
    orientation: str = "hardness",
) -> LogisticScorer:
    """Fit the estimator on (query, ranked list, nDCG label) triples.

    The features read each list's top `k`, as `estimate_batch` does.
    Soft-target BCE over the effectiveness labels; the model predicts
    effectiveness, and its estimates are always inverted into hardness
    scores. `orientation` is recorded in the metadata and must be
    "hardness". A bad `k` or `orientation` raises ValueError.
    """
    if type(k) is not int or k < 1:
        raise ValueError(f"the top-k depth must be an integer k >= 1, got {k!r}")
    if len(labeled) < 2:
        raise ValueError("need at least 2 labeled queries")
    labels = np.array([label for _, _, label in labeled], dtype=float)
    if np.any((labels < 0.0) | (labels > 1.0)):
        bad = labels[(labels < 0.0) | (labels > 1.0)][0]
        raise ValueError(f"labels must lie in [0, 1], got {bad}")
    features = np.array([qpp_features(query, ranked[:k], index) for query, ranked, _ in labeled])
    metadata = {"k": k, "orientation": orientation, "n_queries": len(labeled)}
    return fit_scorer(features, labels, epochs, learning_rate, "qpp", metadata)


def estimate(
    model: LogisticScorer, query: Query, topk: Ranking, index: InvertedIndex
) -> QppEstimate:
    """Hardness estimate of one query from its top-k: the one-query case of `estimate_batch`."""
    psi = estimate_batch(model, index, [query], {query.query_id: topk})
    return QppEstimate(query.query_id, psi[query.query_id])


def estimate_batch(model: LogisticScorer, index: InvertedIndex, queries: Sequence[Query],
                   candidates: Mapping[str, Ranking]) -> dict[str, float]:
    """psi = 1 - predicted effectiveness of each query that has candidates,
    keyed by query id.

    Each query's `qpp_features` read the top `k` of its candidates; the
    model scores the stacked rows once, and each row's score is the one it
    gets alone.
    """
    k = model.metadata["k"]
    scored = [query for query in queries if query.query_id in candidates]
    rows = [qpp_features(query, candidates[query.query_id][:k], index) for query in scored]
    features = np.array(rows).reshape(len(scored), len(QPP_FEATURE_NAMES))
    effectiveness = model.score_rows(features).tolist()
    return {query.query_id: 1.0 - e for query, e in zip(scored, effectiveness)}


@dataclass
class ModelQppProvider:
    model: LogisticScorer
    index: InvertedIndex

    def estimate_query(
        self, query: Query, topk: Ranking | None = None
    ) -> QppEstimate:
        if not topk:
            raise ValueError(f"query {query.query_id}: topk must be non-empty")
        return estimate(self.model, query, topk, self.index)


@dataclass
class FileQppProvider:
    """Precomputed per-query scores; lookup of an unknown query is an error."""

    scores: dict[str, float]

    def estimate_query(
        self, query: Query, topk: Ranking | None = None
    ) -> QppEstimate:
        if query.query_id not in self.scores:
            raise ValueError(f"no QPP score for query {query.query_id!r}")
        return QppEstimate(query.query_id, self.scores[query.query_id])
