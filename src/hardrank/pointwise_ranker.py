"""Trainable pointwise re-ranker over query-document feature vectors.

The same code path is instantiated twice: a base ranker trained on all
original queries and a specialized ranker trained only on enriched hard
queries. The two differ in nothing but their training data.
"""

from __future__ import annotations

import logging
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Container, Mapping, Sequence

import numpy as np

from .corpus_io import Document, Qrels, Query, Ranking, rank_records
from .lexical_retrieval import Bm25Params, InvertedIndex, bm25_scores, bm25_search
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


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """Labeled rows: row i is the (query id, doc id) pair `pairs[i]`, its
    feature vector `features[i]` and its label `labels[i]` (1.0 or 0.0)."""

    pairs: list[tuple[str, str]]
    features: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.pairs)


def _feature_rows(lists: Sequence[tuple[str, np.ndarray]], index: InvertedIndex,
                  params: Bm25Params) -> np.ndarray:
    """The feature matrices of many (query text, candidate internal ids)
    lists, stacked in order: one row per candidate.

    Each query's tokens, counts and norm are computed once. The (term,
    candidate) pairs of every list are gathered from the index in one call,
    grouped by the batch's distinct terms in sorted order
    (`InvertedIndex.gather`, one `searchsorted` per term), and each
    feature is then one numpy pass over the found postings, whatever the
    number of lists. Within a row the pairs follow its query's terms in
    sorted order, so `bm25_scores` adds them as `bm25_search` does. A row
    does not depend on the other lists of the batch.
    """
    sizes = [len(ids) for _, ids in lists]
    n_rows = sum(sizes)
    by_term: dict[str, list[tuple[int, int]]] = {}  # term -> [(list, count in its query)]
    lengths, n_terms, norms = [], [], []
    for at, (text, _) in enumerate(lists):
        q_counts = Counter(tokenize(text))
        lengths.append(q_counts.total())
        n_terms.append(max(len(q_counts), 1))  # a query with no term matches none: 0 / 1
        norms.append(math.sqrt(sum(c * c for c in q_counts.values())))
        for term, count in q_counts.items():
            by_term.setdefault(term, []).append((at, count))
    # A slot is one (list, term) pair and holds a cell per candidate of the
    # list; slots go in sorted term order, and a term's in list order.
    terms = sorted(by_term)
    slot_list, slot_count, term_sizes = [], [], []
    for term in terms:
        size = 0
        for at, count in by_term[term]:
            slot_list.append(at)
            slot_count.append(count)
            size += sizes[at]
        term_sizes.append(size)
    sizes = np.array(sizes, dtype=np.int64)
    slot_sizes = sizes[slot_list]
    slot_ends = slot_sizes.cumsum()
    # a cell's row is its list's first row plus its place within the slot
    cell_rows = (sizes.cumsum()[slot_list] - slot_ends).repeat(slot_sizes)
    cell_rows += np.arange(len(cell_rows))
    ids = np.concatenate([candidates for _, candidates in lists] or [np.empty(0, np.int64)])
    pairs, tfs, leads, impacts = index.gather(terms, term_sizes, ids[cell_rows], params)
    rows = cell_rows[pairs]
    counts = np.array(slot_count, dtype=np.int64)[slot_ends.searchsorted(pairs, side="right")]
    # small integers are exact as floats, so each quotient is the integer one
    lengths, n_terms, norms = np.array([lengths, n_terms, norms], dtype=float).repeat(sizes, 1)
    features = np.zeros((n_rows, len(FEATURE_NAMES)))
    features[:, 0] = bm25_scores(rows, impacts, n_rows)
    features[:, 1] = np.bincount(rows, minlength=n_rows) / n_terms
    # sums of integer products below 2**53: exact in any order
    dot = np.bincount(rows, weights=counts * tfs, minlength=n_rows)
    np.divide(dot, norms * index.doc_norms[ids], out=features[:, 2], where=dot > 0)
    features[:, 3] = lengths
    features[:, 4] = index.log_lengths[ids]
    features[:, 5] = np.bincount(rows[leads], minlength=n_rows) / n_terms
    return features


def extract_features(text: str, doc: Document, index: InvertedIndex,
                     params: Bm25Params = Bm25Params()) -> np.ndarray:
    """Deterministic 6-feature vector for a (query text, document) pair.

    Order (see FEATURE_NAMES):
      bm25            BM25 score of the pair under the index statistics
      term_overlap    |distinct query terms in doc| / |distinct query terms|
      tf_cosine       cosine between query and doc term-frequency vectors
      query_length    query token count
      log_doc_length  ln(1 + doc token count)
      early_coverage  fraction of distinct query terms in the doc's first
                      20 tokens

    The one-row case of `_feature_rows`: the document must be indexed,
    and only its id is read; every value comes from the index. They equal
    the values derived from `doc.text` whenever the document is the one
    that was indexed.
    """
    return _feature_rows([(text, index.internal_id_array([doc.doc_id]))], index, params)[0]


def train(
    training_set: TrainingSet,
    epochs: int = 500,
    learning_rate: float = 0.1,
    seed: int = 13,
    model_id: str = "pointwise-logistic-v1",
) -> LogisticScorer:
    """Fit the logistic scorer by full-batch gradient descent on the BCE of
    the set's feature matrix and labels, as they are.

    Weights start at zero; normalization statistics are computed from the
    training set and frozen into the model. A set without both labels, an
    empty one included, raises ValueError. The run is deterministic; the
    seed is recorded for forward compatibility with stochastic variants but
    full-batch descent does not consume it.
    """
    labels = training_set.labels
    if labels.all() or not labels.any():
        raise ValueError("training set must contain both labels")
    metadata = {"model_id": model_id, "seed": seed, "n_instances": len(training_set)}
    return fit_scorer(training_set.features, labels, epochs, learning_rate, "ranker", metadata)


def rerank(model: LogisticScorer, text: str, candidates: Ranking, index: InvertedIndex,
           params: Bm25Params = Bm25Params()) -> Ranking:
    """Re-score the candidate documents with the model.

    Keeps exactly the input doc set, ordered by `InvertedIndex.ranked`:
    model score descending with doc_id tie-breaks, as in `bm25_search`.
    The features come from one `_feature_rows` pass over the list, read
    from the index alone, which is also the set of documents that exist:
    the first candidate it does not hold raises ValueError. Reranking the
    same list for the same query text and params on the same index again
    reuses that pass (`InvertedIndex.last_features`), as serving does when
    it scores each list with BR and then SR. `pipeline.rank` reranks all
    its lists with `rerank_batch` instead.
    """
    if not candidates:
        raise ValueError("candidate list is empty")
    key = (params, text, candidates.doc_ids)
    memo = index.last_features
    if memo is None or memo[0] != key:
        ids = index.internal_id_array(candidates.doc_ids)
        matrix = _feature_rows([(text, ids)], index, params)
        ids.flags.writeable = matrix.flags.writeable = False
        memo = index.last_features = (key, ids, matrix)
    return index.ranked(memo[1], model.score_rows(memo[2]))


def rerank_batch(models: Sequence[LogisticScorer], lists: Sequence[tuple[str, Ranking]],
                 index: InvertedIndex, params: Bm25Params = Bm25Params()) -> list[list[Ranking]]:
    """`rerank` of every (query text, candidates) list by each model: per
    model, the reranked lists in order.

    One feature pass builds the rows of every list (`_feature_rows`), and
    each model scores the stacked matrix once; its rows, and so the
    rankings, are those `rerank` gives list by list. An empty list, or a
    candidate the index does not hold, raises ValueError.
    """
    if not all(candidates for _, candidates in lists):
        raise ValueError("candidate list is empty")
    ids = [index.internal_id_array(candidates.doc_ids) for _, candidates in lists]
    features = _feature_rows([(text, at) for (text, _), at in zip(lists, ids)], index, params)
    bounds = np.cumsum([len(at) for at in ids])[:-1]
    return [list(map(index.ranked, ids, np.split(model.score_rows(features), bounds)))
            for model in models]


@dataclass
class ModelRanker:
    """Adapter binding a trained model to an index."""

    model: LogisticScorer
    corpus: Mapping[str, Document]  # read by nothing; ROADMAP item 20 deletes this adapter
    index: InvertedIndex
    params: Bm25Params = Bm25Params()

    def rerank_query(self, query: Query, candidates: Ranking) -> Ranking:
        return rerank(self.model, query.text, candidates, self.index, self.params)


@dataclass
class ScoreFileRanker:
    """Ranker backed by preloaded scores: query_id -> {doc_id: score}."""

    scores: Mapping[str, Mapping[str, float]]

    @classmethod
    def from_run(cls, run) -> "ScoreFileRanker":
        return cls({
            qid: dict(zip(entry.doc_ids, entry.scores.tolist()))
            for qid, entry in run.entries.items()
        })

    def rerank_query(self, query: Query, candidates: Ranking) -> Ranking:
        if not candidates:
            raise ValueError("candidate list is empty")
        scores = self.scores.get(query.query_id, {})
        pairs = []
        for doc_id in candidates.doc_ids:
            if doc_id not in scores:
                raise ValueError(f"no stored score for {(query.query_id, doc_id)}")
            pairs.append((doc_id, scores[doc_id]))
        return rank_records(pairs)


def build_training_set(
    query_texts: Sequence[tuple[str, str]],
    qrels: Qrels,
    index: InvertedIndex,
    corpus: Container[str],
    params: Bm25Params = Bm25Params(),
    depth: int = 100,
    negatives_per_positive: int = 4,
    label_threshold: int = 1,
    seed: int = 13,
) -> TrainingSet:
    """Assemble the labeled rows of a set of (query_id, query_text) pairs.

    Positives are the judged documents with grade >= label_threshold.
    Negatives are sampled (without replacement, seeded) from the BM25
    top-`depth` documents that are unjudged or judged below the threshold,
    capped at negatives_per_positive per positive. `corpus` holds the doc
    ids a positive may have (`pipeline.fit_ranker` passes the index's);
    the others are skipped, with one warning per call. The negatives are
    drawn query by query from one seeded stream, and then every labeled
    pair is featurized in one pass (`_feature_rows`), whose matrix is the
    set's: a query's positives, then its negatives, query after query.
    """
    rng = random.Random(seed)
    pairs: list[tuple[str, str]] = []
    labels: list[float] = []
    lists: list[tuple[str, np.ndarray]] = []
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
            doc_id for doc_id in candidates.doc_ids if judged.get(doc_id, 0) < label_threshold
        )
        n_negatives = min(len(pool), negatives_per_positive * len(positives))
        negatives = rng.sample(pool, n_negatives) if n_negatives else []
        lists.append((text, index.internal_id_array(positives + negatives)))
        pairs += [(qid, d) for d in positives + negatives]
        labels += [1.0] * len(positives) + [0.0] * len(negatives)
    if missing:
        log.warning("positive judgments of documents not in the corpus: %d skipped, first %s",
                    len(missing), missing[:5])
    return TrainingSet(pairs, _feature_rows(lists, index, params), np.array(labels))
