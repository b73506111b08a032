"""Reference code that only the tests read.

`score` is the per-row logistic score that `LogisticScorer.score_rows`
must equal bit for bit. `sort_records`, `normalize_scores` and `combine`
are fusion as it was written over lists of records, with Python floats
and a Python sort: the reference that `fusion.bsf` and `fusion.w_qpps`
equal bit for bit. `select_passage` is passage selection as it was
written, a loop that slides the window until it reaches the end: the
reference that `lexical_retrieval.select_passage` equals.
`bm25_search` and `bm25_sum` are BM25 as it was computed before the
index kept an impacts column: each term's contributions evaluated per
call from its tfs, a per-call idf and the document lengths, the reference
that `lexical_retrieval.bm25_search`, `score_pair` and the `bm25` feature
equal bit for bit. `tf_matrix` and `feature_rows` are the feature kernel
as it was written per list: a dense (terms, candidates) gather and one
numpy pass per query, the reference whose rows the batched
`pointwise_ranker._feature_rows` equals bit for bit, and
`build_training_set` is the training set assembled and featurized query
by query with it.
`toy_ranker_instances` and `toy_qpp_set` are the small
fixture training sets of the training invariants (loss curves,
separability).
"""

import math
import random
from collections import Counter
from operator import itemgetter

import numpy as np

from hardrank.benchmark import _SYLLABLES
from hardrank.corpus_io import Document, Query, Ranking, RunRecord, rank_records
from hardrank.linear_model import LogisticScorer, apply_zscore, open_unit_sigmoids
from hardrank.pointwise_ranker import FEATURE_NAMES, TrainingSet
from hardrank.text import tokenize, tokenize_with_spans


def score(model: LogisticScorer, features: np.ndarray) -> float:
    """Relevance score in (0, 1) of one feature vector; the per-row
    reference that `LogisticScorer.score_rows` equals bit for bit."""
    z = apply_zscore(features, model.feature_means, model.feature_stds)
    return float(open_unit_sigmoids(float(np.dot(model.weights, z)) + model.bias))


def bm25_idf(index, term: str) -> float:
    """Robertson idf with 0.5 smoothing, floored at 0, from the term's df."""
    df = index.document_frequency(term)
    return max(0.0, math.log((index.n_docs - df + 0.5) / (df + 0.5)))


def bm25_term_score(tf, idf, doc_length, avg_doc_length, params):
    """One term's contribution to a document's BM25 score, elementwise."""
    norm = params.k1 * (1.0 - params.b + params.b * doc_length / avg_doc_length)
    return idf * tf * (params.k1 + 1.0) / (tf + norm)


def bm25_search(index, query: Query, k: int, params) -> Ranking:
    """Top-k documents: each distinct query term with an idf above 0, in
    sorted order, adds its contributions, computed for this call, into one
    dense score array; zero scores are left out."""
    scores = np.zeros(index.n_docs)
    for term in sorted(set(tokenize(query.text))):
        start, end = index.spans.get(term, (0, 0))
        idf = bm25_idf(index, term)
        if start == end or idf == 0.0:
            continue
        ids = index.ids[start:end]
        scores[ids] += bm25_term_score(
            index.tfs[start:end], idf, index.doc_lengths[ids], index.avg_doc_length, params
        )
    hits = np.flatnonzero(scores > 0.0)
    return index.ranked(hits, scores[hits], k)


def bm25_sum(tfs: np.ndarray, idfs, doc_lengths: np.ndarray, avg_doc_length: float,
             params) -> np.ndarray:
    """BM25 score of each column of a (sorted distinct terms, documents) tf
    matrix: 0.0 plus each row's contribution, added row by row; a zero tf
    adds nothing."""
    contributions = np.zeros((len(tfs) + 1, tfs.shape[1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = bm25_term_score(
            tfs, np.asarray(idfs, dtype=float)[:, None], doc_lengths, avg_doc_length, params
        )
    np.copyto(contributions[1:], scores, where=tfs > 0)
    return np.add.accumulate(contributions, axis=0)[-1]


def tf_matrix(index, terms, internal_ids: np.ndarray, params):
    """(len(terms), len(internal_ids)) int64 tfs, bool lead flags and
    float64 impacts under `params`; 0, False and 0.0 where a document lacks
    a term or the term is not indexed. One `searchsorted` per term into its
    postings, then one gather for all of them."""
    positions = np.empty((len(terms), len(internal_ids)), dtype=np.int64)
    bounds = [index.spans.get(term, (0, 0)) for term in terms]
    for row, (start, end) in enumerate(bounds):
        positions[row] = index.ids[start:end].searchsorted(internal_ids)
    limits = np.array(bounds, dtype=np.int64).reshape(len(terms), 2)
    positions += limits[:, :1]
    rows, cols = np.nonzero(positions < limits[:, 1:])
    at = positions[rows, cols]
    found = index.ids[at] == internal_ids[cols]
    cells, at = (rows[found], cols[found]), at[found]
    tfs = np.zeros(positions.shape, dtype=np.int64)
    tfs[cells] = index.tfs[at]
    leads = np.zeros(positions.shape, dtype=bool)
    leads[cells] = index.leads[at]
    impacts = np.zeros(positions.shape)
    impacts[cells] = index.impacts(params)[at]
    return tfs, leads, impacts


def feature_rows(text: str, candidates: np.ndarray, index, params) -> np.ndarray:
    """One query's (n, 6) feature matrix over the documents with these
    internal ids: each feature one numpy pass over the query's dense
    (terms, candidates) matrices, BM25 added row by row from 0.0."""
    q_tokens = tokenize(text)
    q_counts = Counter(q_tokens)
    terms = sorted(q_counts)
    q_norm = math.sqrt(sum(c * c for c in q_counts.values()))
    n = len(candidates)
    tfs, leads, impacts = tf_matrix(index, terms, candidates, params)
    rows = np.zeros((len(impacts) + 1, n))
    rows[1:] = impacts
    bm25 = np.add.accumulate(rows, axis=0)[-1]
    if terms:
        overlap = np.count_nonzero(tfs, axis=0) / len(terms)
        early = np.count_nonzero(leads, axis=0) / len(terms)
    else:
        overlap = early = np.zeros(n)
    # integer products and sums: exact in any order
    dot = np.array([q_counts[t] for t in terms], dtype=np.int64) @ tfs
    cosine = np.divide(dot, q_norm * index.doc_norms[candidates], out=np.zeros(n), where=dot > 0)
    return np.column_stack([
        bm25, overlap, cosine, np.full(n, float(len(q_tokens))),
        index.log_lengths[candidates], early,
    ])


def build_training_set(query_texts, qrels, index, corpus, params, depth=100,
                       negatives_per_positive=4, label_threshold=1, seed=13):
    """The labeled rows, one query at a time: its judged positives, then
    negatives sampled from its unjudged BM25 top `depth` by one seeded
    stream, featurized by `feature_rows` before the next query."""
    rng = random.Random(seed)
    pairs, rows, labels = [], [np.empty((0, len(FEATURE_NAMES)))], []
    for qid, text in query_texts:
        judged = qrels.for_query(qid)
        graded = [d for d, g in sorted(judged.items()) if g >= label_threshold]
        positives = [d for d in graded if d in corpus]
        if not positives:
            continue
        candidates = bm25_search(index, Query(qid, text), depth, params)
        pool = sorted(d for d in candidates.doc_ids if judged.get(d, 0) < label_threshold)
        n_negatives = min(len(pool), negatives_per_positive * len(positives))
        negatives = rng.sample(pool, n_negatives) if n_negatives else []
        labeled = [(d, 1) for d in positives] + [(d, 0) for d in negatives]
        rows.append(feature_rows(text, index.internal_id_array([d for d, _ in labeled]), index,
                                 params))
        pairs += [(qid, d) for d, _ in labeled]
        labels += [float(label) for _, label in labeled]
    return TrainingSet(pairs, np.vstack(rows), np.array(labels))


def sort_records(scored) -> list[RunRecord]:
    """(doc_id, score) pairs as records, by score descending and then
    doc_id ascending: two stable Python sorts, which keep a -0.0 / 0.0 tie
    in doc_id order."""
    ordered = sorted(scored, key=itemgetter(0))
    ordered.sort(key=itemgetter(1), reverse=True)
    return [RunRecord(doc_id, score) for doc_id, score in ordered]


def normalize_scores(records) -> dict[str, float]:
    """One query's scores by doc_id, min-max normalized into [0, 1], in list
    order; all-equal scores (a single document included) map to 0.5."""
    scores = [rec.score for rec in records]
    lo, hi = min(scores), max(scores)
    if hi == lo:
        return dict.fromkeys([rec.doc_id for rec in records], 0.5)
    span = hi - lo
    return {rec.doc_id: (rec.score - lo) / span for rec in records}


def combine(br_entry, sr_entry, w_br: float, w_sr: float, normalize: str) -> list[RunRecord]:
    """One query's weighted CombSUM, w_sr * s_sr + w_br * s_br per document,
    over the records of two entries that hold the same documents."""
    records = (list(br_entry), list(sr_entry))
    if normalize == "per_query_min_max":
        br_scores, sr_scores = map(normalize_scores, records)
    else:
        br_scores, sr_scores = ({rec.doc_id: rec.score for rec in side} for side in records)
    return sort_records(
        (doc_id, w_sr * sr_scores[doc_id] + w_br * br_score)
        for doc_id, br_score in br_scores.items()
    )


def select_passage(doc: Document, query: Query, window: int = 120) -> tuple[str, int]:
    """The best window of `window` tokens, sliding by half a window: the most
    distinct query terms, then the highest saturated tf mass, then the
    earliest. A document of at most `window` tokens is its own passage."""
    spans = tokenize_with_spans(doc.text)
    query_terms = set(tokenize(query.text))
    if not spans:
        return "", 0

    def window_key(tokens: list[str]) -> tuple[int, float]:
        counts = Counter(tokens)
        matched = query_terms & counts.keys()
        tf_mass = math.fsum(counts[t] / (counts[t] + 0.9) for t in matched)
        return len(matched), tf_mass

    if len(spans) <= window:
        distinct, _ = window_key([t for t, _, _ in spans])
        return doc.text, distinct

    stride = max(1, window // 2)
    best_start = 0
    best_key = (-1, -1.0)
    best_end = 0
    start = 0
    while start < len(spans):
        end = min(start + window, len(spans))
        key = window_key([t for t, _, _ in spans[start:end]])
        if key > best_key:
            best_key = key
            best_start, best_end = start, end
        if end == len(spans):
            break
        start += stride
    passage = doc.text[spans[best_start][1] : spans[best_end - 1][2]]
    return passage, best_key[0]


def toy_qpp_set(n: int = 24, seed: int = 5):
    """Deterministic (query, top-k, effectiveness label) fixture triples.

    Half the queries look well-served (tight high scores, high label), half
    poorly served (low flat scores, low label).
    """
    rng = random.Random(seed)
    labeled = []
    for i in range(n):
        good = i % 2 == 0
        base = rng.uniform(6.0, 9.0) if good else rng.uniform(0.2, 1.5)
        spread = rng.uniform(0.5, 1.5) if good else rng.uniform(0.05, 0.2)
        scores = sorted(
            (base - rng.uniform(0.0, spread) for _ in range(10)), reverse=True
        )
        topk = rank_records([(f"d{j}", s) for j, s in enumerate(scores)])
        n_terms = rng.randint(4, 8) if good else rng.randint(1, 2)
        text = " ".join(rng.choice(_SYLLABLES) + rng.choice(_SYLLABLES) for _ in range(n_terms))
        label = rng.uniform(0.75, 0.95) if good else rng.uniform(0.05, 0.3)
        labeled.append((Query(f"t{i:02d}", text), topk, label))
    return labeled


def toy_ranker_instances(n: int = 80, seed: int = 3):
    """Linearly separable training fixture: label = overlap ratio > 0.5."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        overlap = rng.uniform(0.7, 1.0) if i % 2 else rng.uniform(0.0, 0.3)
        rows.append((
            rng.uniform(0.0, 10.0),
            overlap,
            rng.uniform(0.0, 1.0),
            float(rng.randint(1, 10)),
            rng.uniform(1.0, 6.0),
            rng.uniform(0.0, 1.0),
        ))
    return TrainingSet([(f"q{i}", f"d{i}") for i in range(n)], np.array(rows),
                       np.arange(n) % 2.0)
