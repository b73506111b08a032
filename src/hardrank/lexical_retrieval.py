"""First-stage BM25 retrieval and lexical passage selection.

Scoring uses the Robertson idf with 0.5 smoothing, floored at zero:

    idf(t) = max(0, ln((N - df + 0.5) / (df + 0.5)))

and the standard saturated term frequency with length normalization:

    score(q, d) = sum over distinct query terms t of
        idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(d) / avg_len))

Documents scoring exactly zero are excluded from results. Ties break by
doc_id ascending. The index is immutable once built; searches over it are
safe to run concurrently. Besides the postings, it keeps what reranking
reads of each document, so reranking never reads document text.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .corpus_io import Document, Query, RunRecord, rank_records, write_artifact
from .text import tokenize, tokenize_with_spans

INDEX_FORMAT = "hardrank-index"
INDEX_VERSION = 3

EARLY_WINDOW = 20  # leading tokens treated as the document's title/lead


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self):
        if self.k1 <= 0:
            raise ValueError(f"k1 must be > 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


@dataclass
class InvertedIndex:
    """Term postings plus the per-document statistics BM25 and reranking need.

    Each postings list is strictly ascending by internal id, so one
    document's tf is a binary search away (`posting_tf`). The average
    document length and the doc_id -> internal id map are derived from
    `doc_lengths` and `doc_ids` at construction.
    """

    postings: dict[str, list[tuple[int, int]]]  # term -> [(internal_id, tf)], id-sorted
    doc_lengths: list[int]  # internal_id -> token count
    doc_ids: list[str]  # internal_id -> external doc_id
    # internal_id -> distinct terms among the first EARLY_WINDOW tokens, each
    # interned so that documents share one string object per term
    lead_terms: list[tuple[str, ...]]
    avg_doc_length: float = field(init=False)
    internal_ids: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.avg_doc_length = sum(self.doc_lengths) / len(self.doc_lengths)
        self.internal_ids = {d: i for i, d in enumerate(self.doc_ids)}

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    def document_frequency(self, term: str) -> int:
        return len(self.postings.get(term, ()))

    def idf(self, term: str) -> float:
        """Robertson idf with 0.5 smoothing, floored at 0."""
        df = self.document_frequency(term)
        return max(0.0, math.log((self.n_docs - df + 0.5) / (df + 0.5)))

    def internal_id(self, doc_id: str) -> int:
        if doc_id not in self.internal_ids:
            raise ValueError(f"doc_id {doc_id!r} not in index")
        return self.internal_ids[doc_id]

    @cached_property
    def doc_norms(self) -> list[float]:
        """internal_id -> Euclidean norm of the document's term-frequency vector."""
        squares = [0] * self.n_docs
        for plist in self.postings.values():
            for internal_id, tf in plist:
                squares[internal_id] += tf * tf
        return [math.sqrt(s) for s in squares]


def posting_tf(plist: Sequence[tuple[int, int]], internal_id: int) -> int:
    """tf of one document in an id-sorted postings list; 0 if it is not there."""
    pos = bisect_left(plist, (internal_id,))
    if pos < len(plist) and plist[pos][0] == internal_id:
        return plist[pos][1]
    return 0


def build_index(corpus: Sequence[Document]) -> InvertedIndex:
    """Build an inverted index over the corpus.

    Raises ValueError on an empty corpus or a duplicated doc_id.
    """
    if not corpus:
        raise ValueError("cannot index an empty corpus")
    postings: dict[str, list[tuple[int, int]]] = {}
    doc_lengths: list[int] = []
    doc_ids: list[str] = []
    lead_terms: list[tuple[str, ...]] = []
    seen: set[str] = set()
    for internal_id, doc in enumerate(corpus):
        if doc.doc_id in seen:
            raise ValueError(f"duplicate doc_id {doc.doc_id!r}")
        seen.add(doc.doc_id)
        tokens = tokenize(doc.text)
        doc_ids.append(doc.doc_id)
        doc_lengths.append(len(tokens))
        lead_terms.append(tuple(map(sys.intern, dict.fromkeys(tokens[:EARLY_WINDOW]))))
        for term, tf in sorted(Counter(tokens).items()):
            postings.setdefault(term, []).append((internal_id, tf))
    return InvertedIndex(
        postings=postings,
        doc_lengths=doc_lengths,
        doc_ids=doc_ids,
        lead_terms=lead_terms,
    )


def bm25_term_score(
    tf: int, idf: float, doc_length: int, avg_doc_length: float, params: Bm25Params
) -> float:
    """One term's contribution to a document's BM25 score."""
    norm = params.k1 * (1.0 - params.b + params.b * doc_length / avg_doc_length)
    return idf * tf * (params.k1 + 1.0) / (tf + norm)


def bm25_sum(
    tf_idfs: Iterable[tuple[int, float]],
    doc_length: int,
    avg_doc_length: float,
    params: Bm25Params,
) -> float:
    """One document's BM25 score from its (tf, idf) per distinct query term.

    Terms must come in sorted order: the float sum runs in that order, so
    every caller reproduces the same last bits. Terms with a zero idf or a
    zero tf add nothing.
    """
    total = 0.0
    for tf, idf in tf_idfs:
        if tf and idf != 0.0:
            total += bm25_term_score(tf, idf, doc_length, avg_doc_length, params)
    return total


def bm25_scores(
    index: InvertedIndex,
    query_terms: Iterable[str],
    params: Bm25Params = Bm25Params(),
) -> dict[int, float]:
    """BM25 scores by internal doc id for every document matching any term.

    Iterates distinct query terms; repeated terms in a query contribute once.
    """
    scores: dict[int, float] = {}
    for term in sorted(set(query_terms)):
        idf = index.idf(term)
        if idf == 0.0:
            continue
        for internal_id, tf in index.postings.get(term, ()):
            scores[internal_id] = scores.get(internal_id, 0.0) + bm25_term_score(
                tf, idf, index.doc_lengths[internal_id], index.avg_doc_length, params
            )
    return scores


def bm25_search(
    index: InvertedIndex,
    query: Query,
    k: int,
    params: Bm25Params = Bm25Params(),
) -> list[RunRecord]:
    """Top-k documents for the query; zero-scoring documents are excluded."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = bm25_scores(index, tokenize(query.text), params)
    pairs = [
        (index.doc_ids[internal_id], score)
        for internal_id, score in scores.items()
        if score > 0.0
    ]
    return rank_records(pairs)[:k]


def score_pair(
    index: InvertedIndex,
    query_text: str,
    doc_id: str,
    params: Bm25Params = Bm25Params(),
) -> float:
    """BM25 score of one (query, document) pair; the document must be indexed."""
    internal_id = index.internal_id(doc_id)
    return bm25_sum(
        (
            (posting_tf(index.postings.get(term, ()), internal_id), index.idf(term))
            for term in sorted(set(tokenize(query_text)))
        ),
        index.doc_lengths[internal_id],
        index.avg_doc_length,
        params,
    )


def select_passage(
    doc: Document,
    query: Query,
    window: int = 120,
) -> tuple[str, int]:
    """Pick the document window that best covers the query's terms.

    Windows of `window` tokens slide with 50% overlap. The winner maximizes
    the number of distinct query terms present; ties prefer a higher
    saturated term-frequency mass (sum of tf/(tf + 0.9) over matched
    terms), then the earliest window. Returns the original-text span of the
    winning window and its distinct-match count.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    spans = tokenize_with_spans(doc.text)
    query_terms = set(tokenize(query.text))
    if not spans:
        return doc.text, 0

    def window_key(tokens: list[str]) -> tuple[int, float]:
        counts = Counter(tokens)
        matched = query_terms & counts.keys()
        tf_mass = sum(counts[t] / (counts[t] + 0.9) for t in matched)
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


def save_index(index: InvertedIndex, path) -> None:
    """Persist the index as a single versioned JSON file.

    The postings are four flat columns: `terms` (sorted), `df` (each term's
    postings count), and `ids` and `tfs` (every posting, term by term), so
    the file parses into a few long lists of ints rather than one small
    list per posting. Each document's lead terms are one space-joined
    string: tokens never hold a space. The average document length is not
    stored; the loaded index derives it from `doc_lengths`.
    """
    terms = sorted(index.postings)
    plists = [index.postings[term] for term in terms]
    payload = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "doc_ids": index.doc_ids,
        "doc_lengths": index.doc_lengths,
        "lead_terms": [" ".join(lead) for lead in index.lead_terms],
        "terms": terms,
        "df": [len(plist) for plist in plists],
        "ids": [internal_id for plist in plists for internal_id, _ in plist],
        "tfs": [tf for plist in plists for _, tf in plist],
    }
    write_artifact(path, json.dumps(payload))


_COLUMNS = ("doc_ids", "doc_lengths", "lead_terms", "terms", "df", "ids", "tfs")


def load_index(path) -> InvertedIndex:
    """Read an index written by `save_index`.

    Raises ValueError naming the path (and the term, for a postings fault)
    when the file is not valid JSON, not an index of this version (an older
    one must be rebuilt) or malformed: a column missing, not a list, or
    holding a value of the wrong type (a bool or float is not an int) or
    the wrong length; doc_ids empty or not distinct; terms not strictly
    ascending; a negative length or a df or tf below 1; or a term's
    postings not strictly ascending by internal id or holding an id out of
    range. Lookups by binary search rely on the last two.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"index file {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != INDEX_FORMAT:
        raise ValueError(f"not an index file: {path}")
    if payload.get("version") != INDEX_VERSION:
        raise ValueError(
            f"index file {path} has version {payload.get('version')!r}, not "
            f"{INDEX_VERSION}; rebuild it with `hardrank index --force`"
        )

    def fault(message: str) -> ValueError:
        return ValueError(f"index file {path}: {message}")

    for name in _COLUMNS:
        if not isinstance(payload.get(name), list):
            raise fault(f"{name} is not a list")
    # type() rather than isinstance(): bool is a subclass of int
    for kind, noun, names in (
        (str, "a string", ("doc_ids", "terms")),
        (int, "an int", ("doc_lengths", "df", "ids", "tfs")),
    ):
        for name in names:
            if not set(map(type, payload[name])) <= {kind}:
                raise fault(f"{name} holds a value that is not {noun}")
    doc_ids, doc_lengths, joined_lead_terms, terms, dfs, ids, tfs = map(payload.get, _COLUMNS)
    if not doc_ids:
        raise fault("doc_ids is empty")
    if len(set(doc_ids)) != len(doc_ids):
        raise fault("doc_ids are not distinct")
    if min(doc_lengths, default=0) < 0:
        raise fault("doc_lengths holds a negative length")
    if min(dfs, default=1) < 1:
        raise fault("df holds a count below 1")
    if not all(map(operator.lt, terms, terms[1:])):
        raise fault("terms are not strictly ascending")
    for name, values in (("doc_lengths", doc_lengths), ("lead_terms", joined_lead_terms)):
        if len(values) != len(doc_ids):
            raise fault(f"{len(doc_ids)} doc_ids but {len(values)} {name}")
    if len(dfs) != len(terms):
        raise fault(f"{len(terms)} terms but {len(dfs)} df")
    n_postings = sum(dfs)
    for name, values in (("ids", ids), ("tfs", tfs)):
        if len(values) != n_postings:
            raise fault(f"df counts {n_postings} postings but {name} holds {len(values)}")

    lead_terms = []
    for doc_id, joined in zip(doc_ids, joined_lead_terms):
        if not isinstance(joined, str):
            raise fault(f"lead_terms of doc {doc_id!r} are not a string")
        lead_terms.append(tuple(map(sys.intern, joined.split())))

    n_docs = len(doc_ids)
    postings = {}
    start = 0
    for term, df in zip(terms, dfs):
        end = start + df
        term_ids = ids[start:end]
        term_tfs = tfs[start:end]
        if not all(map(operator.lt, term_ids, term_ids[1:])):
            raise fault(f"postings of term {term!r} are not strictly ascending by id")
        if term_ids[0] < 0 or term_ids[-1] >= n_docs:
            raise fault(f"postings of term {term!r} hold an id outside [0, {n_docs})")
        if min(term_tfs) < 1:
            raise fault(f"postings of term {term!r} hold a tf below 1")
        postings[term] = list(zip(term_ids, term_tfs))
        start = end
    return InvertedIndex(
        postings=postings,
        doc_lengths=doc_lengths,
        doc_ids=doc_ids,
        lead_terms=lead_terms,
    )
