"""Trainable pointwise re-ranker over query-document feature vectors.

The same code path is instantiated twice: a base ranker trained on all
original queries and a specialized ranker trained only on enriched hard
queries. The two differ in nothing but their training data.
"""

from __future__ import annotations

import logging
import math
import random
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus_io import Document, Qrels, Query, RunRecord, rank_records
from .lexical_retrieval import Bm25Params, InvertedIndex, bm25_search, bm25_sum
from .linear_model import LogisticScorer, fit_scorer
from .text import tokenize

log = logging.getLogger(__name__)

FEATURE_NAMES = (
    "bm25",
    "term_overlap",
    "tf_cosine",
    "query_length",
    "log_doc_length",
    "early_coverage",
)


@dataclass(frozen=True)
class TrainingInstance:
    query_id: str
    doc_id: str
    features: tuple[float, ...]
    label: int

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")


def _query_text(query) -> str:
    return query.text if isinstance(query, Query) else str(query)


def feature_matrix(query, doc_ids: Sequence[str], index: InvertedIndex,
                   params: Bm25Params = Bm25Params()) -> np.ndarray:
    """One query's (n, 6) feature matrix, one row per document id in order.

    The query's tokens, counts, sorted distinct terms, idfs and norm are
    computed once. Each document must be indexed (the first that is not
    raises ValueError), and everything about it is read from the index:
    its tf per query term is a gather from the postings columns
    (`InvertedIndex.tf_matrix`), and its length, log length,
    term-frequency norm and early-window terms are per-document index
    entries. The numpy calls per query do not grow with the list.
    Each value equals the one derived from the text of the document that
    was indexed.
    """
    return _feature_rows(_query_text(query), index.internal_id_array(doc_ids), index, params)


def _feature_rows(text: str, candidates: np.ndarray, index: InvertedIndex,
                  params: Bm25Params) -> np.ndarray:
    """`feature_matrix` of the documents with these internal ids."""
    q_tokens = tokenize(text)
    q_counts = Counter(q_tokens)
    terms = sorted(q_counts)
    term_set = frozenset(terms)
    q_norm = math.sqrt(sum(c * c for c in q_counts.values()))
    n = len(candidates)
    tfs = index.tf_matrix(terms, candidates)
    bm25 = bm25_sum(tfs, [index.idf(t) for t in terms], index.doc_lengths[candidates],
                    index.avg_doc_length, params)
    if terms:
        overlap = np.count_nonzero(tfs, axis=0) / len(terms)
        lead_terms = index.lead_terms
        early = np.array(
            [len(term_set.intersection(lead_terms[i])) for i in candidates.tolist()],
            dtype=np.int64,
        ) / len(terms)
    else:
        overlap = early = np.zeros(n)
    # integer products and sums: exact in any order
    dot = np.array([q_counts[t] for t in terms], dtype=np.int64) @ tfs
    cosine = np.divide(dot, q_norm * index.doc_norms[candidates], out=np.zeros(n), where=dot > 0)
    return np.column_stack([
        bm25, overlap, cosine, np.full(n, float(len(q_tokens))),
        index.log_lengths[candidates], early,
    ])


def extract_features(query, doc: Document, index: InvertedIndex,
                     params: Bm25Params = Bm25Params()) -> np.ndarray:
    """Deterministic 6-feature vector for a (query, document) pair.

    Order (see FEATURE_NAMES):
      bm25            BM25 score of the pair under the index statistics
      term_overlap    |distinct query terms in doc| / |distinct query terms|
      tf_cosine       cosine between query and doc term-frequency vectors
      query_length    query token count
      log_doc_length  ln(1 + doc token count)
      early_coverage  fraction of distinct query terms in the doc's first
                      20 tokens

    The one-row case of `feature_matrix`: the document must be indexed,
    and only its id is read; every value comes from the index. They equal
    the values derived from `doc.text` whenever the document is the one
    that was indexed.
    """
    return feature_matrix(query, [doc.doc_id], index, params)[0]


def train(
    instances: Sequence[TrainingInstance],
    epochs: int = 500,
    learning_rate: float = 0.1,
    seed: int = 0,
    model_id: str = "pointwise-logistic-v1",
) -> LogisticScorer:
    """Fit the logistic scorer by full-batch gradient descent on the BCE.

    Weights start at zero; normalization statistics are computed from the
    training set and frozen into the model. The run is deterministic; the
    seed is recorded for forward compatibility with stochastic variants but
    full-batch descent does not consume it.
    """
    if not instances:
        raise ValueError("training set is empty")
    labels = np.array([inst.label for inst in instances], dtype=float)
    if len(set(labels.tolist())) < 2:
        raise ValueError("training set must contain both labels")
    features = np.array([inst.features for inst in instances], dtype=float)
    metadata = {"model_id": model_id, "seed": seed, "n_instances": len(instances)}
    return fit_scorer(features, labels, epochs, learning_rate, "ranker", metadata)


def rerank(
    model: LogisticScorer,
    query,
    candidates: Sequence[RunRecord],
    corpus: Mapping[str, Document],
    index: InvertedIndex,
    params: Bm25Params = Bm25Params(),
) -> list[RunRecord]:
    """Re-score the candidate documents with the model.

    Keeps exactly the input doc set, ordered by model score descending
    with doc_id tie-breaks: one `np.lexsort` over the scores and the
    documents' `index.doc_order`, as in `bm25_search`, with the records
    built from the ordered arrays. The features come from one
    `feature_matrix` pass over the list, read from the index alone (equal
    to the text-derived values whenever `corpus` is the corpus that was
    indexed); `corpus` only vouches that each candidate exists. Reranking
    the same list for the same query text again reuses that pass (see
    `_candidate_features`): serving scores each list with BR and then SR.
    `hardrank run` ranks with one model per command, so it never does.
    """
    if not candidates:
        raise ValueError("candidate list is empty")
    ids, features = _candidate_features(_query_text(query), candidates, corpus, index, params)
    scores = model.score_rows(features)
    order = np.lexsort((index.doc_order[ids], -scores))
    doc_ids = index.doc_ids
    return [
        RunRecord(doc_ids[i], score)
        for i, score in zip(ids[order].tolist(), scores[order].tolist())
    ]


# The last matrix `_candidate_features` built and what it was built from:
# (weakref to the index, (params, query text, candidate doc ids), read-only
# internal ids, read-only matrix). The weak reference keeps no index alive,
# and the entry is replaced in one assignment, so a concurrent reader sees
# either the old entry or the new one, never a mix.
_last_features: tuple | None = None


def _candidate_features(text: str, candidates: Sequence[RunRecord],
                        corpus: Mapping[str, Document], index: InvertedIndex,
                        params: Bm25Params) -> tuple[np.ndarray, np.ndarray]:
    """The candidates' internal ids and their documents' feature matrix,
    both read-only.

    Returns the previous call's pair when the index, the params, the
    query text and the candidate ids are the same, so a caller that ranks
    one list with both models in turn, as serving does, pays one feature
    pass; `hardrank run` ranks with one model. A candidate missing from the
    corpus or the index raises ValueError, and the first faulty candidate
    in list order is the one named. The corpus check is one pass over the
    ids on every call; a hit looks nothing up in the index, and a miss
    looks each candidate up once.
    """
    global _last_features
    doc_ids = tuple([rec.doc_id for rec in candidates])
    if not all(map(corpus.__contains__, doc_ids)):
        missing = next(doc_id for doc_id in doc_ids if doc_id not in corpus)
        # a candidate before it that is not indexed is the first faulty one
        index.internal_id_array(doc_ids[:doc_ids.index(missing)])
        raise ValueError(f"doc_id {missing!r} not in corpus")
    key = (params, text, doc_ids)
    memo = _last_features
    if memo is not None and memo[0]() is index and memo[1] == key:
        return memo[2:]
    # every candidate is in the corpus, so the first one not indexed is the
    # first faulty one
    ids = index.internal_id_array(doc_ids)
    matrix = _feature_rows(text, ids, index, params)
    ids.flags.writeable = matrix.flags.writeable = False
    _last_features = (weakref.ref(index), key, ids, matrix)
    return ids, matrix


@dataclass
class ModelRanker:
    """Adapter binding a trained model to a corpus and index."""

    model: LogisticScorer
    corpus: Mapping[str, Document]
    index: InvertedIndex
    params: Bm25Params = Bm25Params()

    def rerank_query(self, query: Query, candidates: Sequence[RunRecord]) -> list[RunRecord]:
        return rerank(self.model, query.text, candidates, self.corpus, self.index, self.params)


@dataclass
class ScoreFileRanker:
    """Ranker backed by preloaded scores: query_id -> {doc_id: score}."""

    scores: Mapping[str, Mapping[str, float]]

    @classmethod
    def from_run(cls, run) -> "ScoreFileRanker":
        return cls({
            qid: {rec.doc_id: rec.score for rec in records} for qid, records in run.entries.items()
        })

    def rerank_query(self, query: Query, candidates: Sequence[RunRecord]) -> list[RunRecord]:
        if not candidates:
            raise ValueError("candidate list is empty")
        scores = self.scores.get(query.query_id, {})
        pairs = []
        for rec in candidates:
            if rec.doc_id not in scores:
                raise ValueError(f"no stored score for {(query.query_id, rec.doc_id)}")
            pairs.append((rec.doc_id, scores[rec.doc_id]))
        return rank_records(pairs)


def build_training_set(
    query_texts: Sequence[tuple[str, str]],
    qrels: Qrels,
    index: InvertedIndex,
    corpus: Mapping[str, Document],
    params: Bm25Params = Bm25Params(),
    depth: int = 100,
    negatives_per_positive: int = 4,
    label_threshold: int = 1,
    seed: int = 13,
) -> list[TrainingInstance]:
    """Assemble labeled instances for a set of (query_id, query_text) pairs.

    Positives are the judged documents with grade >= label_threshold.
    Negatives are sampled (without replacement, seeded) from the BM25
    top-`depth` documents that are unjudged or judged below the threshold,
    capped at negatives_per_positive per positive. Positives not in the
    corpus are skipped, with one warning per call.
    """
    rng = random.Random(seed)
    instances: list[TrainingInstance] = []
    missing: list[str] = []
    for qid, text in query_texts:
        judged = qrels.for_query(qid)
        graded = [d for d, g in sorted(judged.items()) if g >= label_threshold]
        positives = [d for d in graded if d in corpus]
        missing += [d for d in graded if d not in corpus]
        if not positives:
            continue
        candidates = bm25_search(index, Query(qid, text), depth, params)
        pool = sorted(
            rec.doc_id
            for rec in candidates
            if judged.get(rec.doc_id, 0) < label_threshold
        )
        n_negatives = min(len(pool), negatives_per_positive * len(positives))
        negatives = rng.sample(pool, n_negatives) if n_negatives else []
        labeled = [(d, 1) for d in positives] + [(d, 0) for d in negatives]
        features = feature_matrix(text, [d for d, _ in labeled], index, params)
        for (doc_id, label), row in zip(labeled, features):
            instances.append(TrainingInstance(qid, doc_id, tuple(row), label))
    if missing:
        log.warning("positive judgments of documents not in the corpus: %d skipped, first %s",
                    len(missing), missing[:5])
    return instances
