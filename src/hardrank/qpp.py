"""Per-query hardness estimation from post-retrieval evidence.

A logistic model over statistics of the query's top-k first-stage results
is trained against nDCG@10 labels with a soft-target binary cross-entropy.
Because the training target measures how WELL retrieval did (higher =
easier), the default orientation inverts the prediction so that the emitted
estimate psi is a hardness score: psi = 1 - predicted effectiveness. The
model is a "qpp" `LogisticScorer` whose metadata holds the top-k depth and
the orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus_io import Query, RunRecord
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


def qpp_features(query: Query, topk: Sequence[RunRecord], index: InvertedIndex) -> np.ndarray:
    """Feature vector over the query and its top-k retrieval scores.

    Order (see QPP_FEATURE_NAMES): mean, population stdev and max of the
    top-k scores; gap between the first and last score; query token count;
    mean idf of the distinct query terms (terms absent from the index take
    the df=0 idf, i.e. maximally rare).
    """
    if not topk:
        raise ValueError("topk must be non-empty")
    scores = np.array([rec.score for rec in topk], dtype=float)
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
    labeled: Sequence[tuple[Query, Sequence[RunRecord], float]],
    index: InvertedIndex,
    epochs: int = 500,
    learning_rate: float = 0.05,
    k: int = 10,
    orientation: str = "hardness",
) -> LogisticScorer:
    """Fit the estimator on (query, ranked list, nDCG@10 label) triples.

    The features read each list's top `k`, as `estimate` does. Soft-target
    BCE over the effectiveness labels; the model itself always predicts
    effectiveness, and `orientation` controls whether estimates are
    inverted into hardness scores at inference time. A bad `k` or
    `orientation` raises ValueError.
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
    model: LogisticScorer, query: Query, topk: Sequence[RunRecord], index: InvertedIndex
) -> QppEstimate:
    """Hardness estimate for one query given its top-k retrieval."""
    feats = qpp_features(query, topk[: model.metadata["k"]], index)
    effectiveness = float(model.score_rows(feats[np.newaxis])[0])
    if model.metadata["orientation"] == "hardness":
        return QppEstimate(query.query_id, 1.0 - effectiveness)
    return QppEstimate(query.query_id, effectiveness)


@dataclass
class ModelQppProvider:
    model: LogisticScorer
    index: InvertedIndex

    def estimate_query(
        self, query: Query, topk: Sequence[RunRecord] | None = None
    ) -> QppEstimate:
        if not topk:
            raise ValueError(f"query {query.query_id}: topk must be non-empty")
        return estimate(self.model, query, topk, self.index)


@dataclass
class FileQppProvider:
    """Precomputed per-query scores; lookup of an unknown query is an error."""

    scores: dict[str, float]

    def estimate_query(
        self, query: Query, topk: Sequence[RunRecord] | None = None
    ) -> QppEstimate:
        if query.query_id not in self.scores:
            raise ValueError(f"no QPP score for query {query.query_id!r}")
        return QppEstimate(query.query_id, self.scores[query.query_id])
