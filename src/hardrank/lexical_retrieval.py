"""First-stage BM25 retrieval and lexical passage selection.

Scoring uses the Robertson idf with 0.5 smoothing, floored at zero:

    idf(t) = max(0, ln((N - df + 0.5) / (df + 0.5)))

and the standard saturated term frequency with length normalization:

    score(q, d) = sum over distinct query terms t of
        idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(d) / avg_len))

Every term's idf is computed once per index. A posting's contribution
(its impact) depends only on the posting and the BM25 parameters, so
`InvertedIndex.impacts(params)` computes them all once, through
`bm25_term_score`, into a float64 column aligned with the postings, kept
on the index and never saved. A search adds each term's slice of that
column into a dense score array, term by term in sorted order, one float
add at a time, and reranking gathers and adds the same impacts in the
same order, so every path gives the same bits. Documents scoring exactly
zero are excluded from results. Internal ids follow doc_id order, so
every list the index ranks (`InvertedIndex.ranked`) breaks ties by
doc_id ascending with no lookup, and the index does not depend on the
corpus's order. The postings are numpy columns in compressed sparse row
layout. The index is immutable once built, and searches over it are safe
to run concurrently: an impacts column, and the last rerank's features
(`last_features`), are each stored by one assignment of a finished
read-only value. The postings are its only store of
per-(term, document) facts: beside each tf, a lead flag says whether the
term is among the document's first EARLY_WINDOW tokens, and a document's
length is the sum of its tfs. So reranking never reads document text.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus_io import Document, Query, Ranking, read_binary_file, write_artifact
from .text import tokenize, tokenize_with_spans

INDEX_FORMAT = "hardrank-index"
INDEX_VERSION = 7

EARLY_WINDOW = 20  # leading tokens treated as the document's title/lead
_IMPACT_CHUNK = 1 << 14  # postings per step of an impacts column's build


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self):
        # NaN fails every comparison, so it must fail this one: a NaN k1
        # scores nothing and never equals itself as an impacts memo key
        if not (math.isfinite(self.k1) and self.k1 > 0):
            raise ValueError(f"k1 must be a finite number > 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


@dataclass
class InvertedIndex:
    """Term postings as CSR columns, the one store of per-(term, document)
    facts, plus the statistics derived from them.

    A term's postings are `ids[start:end]`, `tfs[start:end]` and
    `leads[start:end]` for `(start, end) = spans[term]`; `spans` lists the
    terms in sorted order and their spans tile the columns. Each term's ids
    are strictly ascending, so the tfs, lead flags and impacts of a set of
    documents are one `searchsorted` gather away (`gather`). `doc_ids`
    is strictly ascending, so an internal id is its document's position in
    doc_id order. Every array is int64, float64 or bool and read-only. Each
    document's length (the sum of its tfs), `math.log1p(length)` and
    tf-vector norm, the average length, each term's idf and the doc_id ->
    internal id map are derived at construction; each BM25 parameter set's
    impacts column on first use (`impacts`); the one other value stored
    later is `last_features`, `pointwise_ranker.rerank`'s memo.
    """

    spans: dict[str, tuple[int, int]]  # term -> [start, end) in ids, tfs and leads
    ids: np.ndarray  # every posting's internal id, term by term
    tfs: np.ndarray  # every posting's term frequency, aligned with ids
    leads: np.ndarray  # is the posting's term among its document's first EARLY_WINDOW tokens
    doc_ids: list[str]  # internal_id -> external doc_id, strictly ascending
    doc_lengths: np.ndarray = field(init=False)  # internal_id -> token count
    avg_doc_length: float = field(init=False)
    internal_ids: dict[str, int] = field(init=False)
    log_lengths: np.ndarray = field(init=False)  # internal_id -> math.log1p(length)
    doc_norms: np.ndarray = field(init=False)  # internal_id -> Euclidean norm of its tfs
    idf_by_df: dict[int, float] = field(init=False)  # df -> idf, for 0 and each term's df
    # Bm25Params -> read-only impacts column; filled by `impacts`
    _impacts: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    # the last `rerank` miss: ((params, text, doc ids), read-only ids, read-only matrix)
    last_features: tuple | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        n = len(self.doc_ids)
        # integer-valued float sums below 2**53 are exact, as is the root
        self.doc_lengths = np.bincount(self.ids, weights=self.tfs, minlength=n).astype(np.int64)
        lengths = self.doc_lengths.tolist()
        self.avg_doc_length = sum(lengths) / n
        self.internal_ids = {d: i for i, d in enumerate(self.doc_ids)}
        # math.log1p, not np.log1p: the two may differ in the last bit. It
        # and the idf's math.log run once per distinct length and df, which
        # are far fewer than the documents and terms.
        distinct, inverse = np.unique(self.doc_lengths, return_inverse=True)
        self.log_lengths = np.array([math.log1p(length) for length in distinct.tolist()])[inverse]
        squares = np.bincount(self.ids, weights=np.square(self.tfs, dtype=float), minlength=n)
        self.doc_norms = np.sqrt(squares)
        dfs = {end - start for start, end in self.spans.values()}
        self.idf_by_df = {df: max(0.0, math.log((n - df + 0.5) / (df + 0.5))) for df in {0, *dfs}}
        for array in (self.ids, self.tfs, self.leads, self.doc_lengths, self.log_lengths,
                      self.doc_norms):
            array.flags.writeable = False

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def postings(self) -> dict[str, list[tuple[int, int]]]:
        """term -> [(internal_id, tf)], id-sorted: a copy built from the columns."""
        ids, tfs = self.ids.tolist(), self.tfs.tolist()
        return {term: list(zip(ids[s:e], tfs[s:e])) for term, (s, e) in self.spans.items()}

    def document_frequency(self, term: str) -> int:
        start, end = self.spans.get(term, (0, 0))
        return end - start

    def idf(self, term: str) -> float:
        """Robertson idf with 0.5 smoothing, floored at 0, looked up by the
        term's df; a term that is not indexed has df 0."""
        return self.idf_by_df[self.document_frequency(term)]

    def impacts(self, params: Bm25Params) -> np.ndarray:
        """Each posting's BM25 contribution under `params`, aligned with
        `ids` and `tfs`: `bm25_term_score(tf, idf, doc_length,
        avg_doc_length, params)`, as a read-only float64 column.

        Built on the first call for each parameter set and kept on the
        index (8 bytes a posting). The column is computed in place, a chunk
        of postings at a time, so no other array of its length is made.
        """
        column = self._impacts.get(params)
        if column is None:
            dfs = [end - start for start, end in self.spans.values()]
            # each posting's idf, overwritten chunk by chunk with its impact
            idfs = np.fromiter(map(self.idf_by_df.__getitem__, dfs), float, len(dfs))
            column = np.repeat(idfs, dfs)
            for start in range(0, len(column), _IMPACT_CHUNK):
                chunk = slice(start, start + _IMPACT_CHUNK)
                column[chunk] = bm25_term_score(
                    self.tfs[chunk], column[chunk], self.doc_lengths[self.ids[chunk]],
                    self.avg_doc_length, params,
                )
            column.flags.writeable = False
            # one store of a finished column; a thread that built one at
            # the same time gets the column stored first
            column = self._impacts.setdefault(params, column)
        return column

    def internal_id_array(self, doc_ids: Sequence[str]) -> np.ndarray:
        """int64 internal ids of `doc_ids`, in order, in one pass; the first
        document that is not indexed raises ValueError naming it."""
        try:
            return np.fromiter(map(self.internal_ids.__getitem__, doc_ids), np.int64, len(doc_ids))
        except KeyError as exc:
            raise ValueError(f"doc_id {exc.args[0]!r} not in index") from None

    def ranked(self, ids: np.ndarray, scores: np.ndarray, k: int | None = None) -> Ranking:
        """The documents with these internal ids, by score descending and
        then doc_id ascending (internal ids follow doc_id order); only the
        top `k` when `k` is given."""
        order = np.lexsort((ids, -scores))[:k]
        return Ranking(tuple(map(self.doc_ids.__getitem__, ids[order].tolist())), scores[order])

    def gather(self, terms: Sequence[str], sizes: Sequence[int], internal_ids: np.ndarray,
               params: Bm25Params = Bm25Params()) -> tuple[np.ndarray, ...]:
        """The postings of (term, document) pairs that come grouped by term:
        the first `sizes[0]` internal ids pair with `terms[0]`, the next
        `sizes[1]` with `terms[1]`, and so on.

        Returns the positions in `internal_ids` of the pairs whose document
        holds the term (none for a term that is not indexed), ascending, and
        those postings' int64 tfs, bool lead flags and float64 impacts under
        `params`. One `searchsorted` per term into its postings, then one
        gather for all of them, so the numpy calls do not grow with the
        documents.
        """
        spans = [self.spans.get(term, (0, 0)) for term in terms]
        positions = np.empty(len(internal_ids), dtype=np.int64)
        lo = 0
        for (start, end), size in zip(spans, sizes):
            positions[lo:lo + size] = self.ids[start:end].searchsorted(internal_ids[lo:lo + size])
            lo += size
        # each pair's term's [start, end) in the postings
        bounds = np.array(spans, dtype=np.int64).reshape(-1, 2).repeat(sizes, axis=0)
        positions += bounds[:, 0]
        pairs = (positions < bounds[:, 1]).nonzero()[0]
        at = positions[pairs]
        found = self.ids[at] == internal_ids[pairs]
        pairs, at = pairs[found], at[found]
        return pairs, self.tfs[at], self.leads[at], self.impacts(params)[at]


def _spans(terms: Sequence[str], dfs: Sequence[int]) -> dict[str, tuple[int, int]]:
    """term -> [start, end) for postings laid out term by term."""
    ends = list(itertools.accumulate(dfs))
    return dict(zip(terms, zip([0, *ends[:-1]], ends)))


def build_index(corpus: Sequence[Document]) -> InvertedIndex:
    """Build an inverted index over the corpus.

    Documents get internal ids in doc_id order, whatever the corpus's
    order. Raises ValueError on an empty corpus or a duplicated doc_id.
    """
    if not corpus:
        raise ValueError("cannot index an empty corpus")
    docs = sorted(corpus, key=operator.attrgetter("doc_id"))
    doc_ids = [doc.doc_id for doc in docs]
    for doc_id, successor in zip(doc_ids, doc_ids[1:]):
        if doc_id == successor:
            raise ValueError(f"duplicate doc_id {doc_id!r}")
    term_ids: dict[str, list[int]] = {}  # term -> internal ids, ascending
    term_tfs: dict[str, list[int]] = {}  # term -> tfs, aligned with term_ids
    term_leads: dict[str, list[bool]] = {}  # term -> lead flags, aligned with term_ids
    for internal_id, doc in enumerate(docs):
        tokens = tokenize(doc.text)
        lead = set(tokens[:EARLY_WINDOW])
        for term, tf in Counter(tokens).items():
            term_ids.setdefault(term, []).append(internal_id)
            term_tfs.setdefault(term, []).append(tf)
            term_leads.setdefault(term, []).append(term in lead)
    terms = sorted(term_ids)

    def column(by_term: dict[str, list], dtype) -> np.ndarray:
        return np.fromiter(itertools.chain.from_iterable(map(by_term.get, terms)), dtype)

    return InvertedIndex(
        spans=_spans(terms, [len(term_ids[term]) for term in terms]),
        ids=column(term_ids, np.int64),
        tfs=column(term_tfs, np.int64),
        leads=column(term_leads, bool),
        doc_ids=doc_ids,
    )


def bm25_term_score(tf, idf, doc_length, avg_doc_length: float, params: Bm25Params):
    """One term's contribution to a document's BM25 score.

    Plain arithmetic, so it runs elementwise on arrays with the bits the
    scalar expression gives. `InvertedIndex.impacts` is its one caller.
    """
    norm = params.k1 * (1.0 - params.b + params.b * doc_length / avg_doc_length)
    return idf * tf * (params.k1 + 1.0) / (tf + norm)


def bm25_scores(rows: np.ndarray, impacts: np.ndarray, n: int) -> np.ndarray:
    """BM25 score of each of `n` rows from (row, impact) pairs
    (`InvertedIndex.gather`).

    Within a row the pairs must follow its distinct query terms in sorted
    order: each score is 0.0 plus the row's impacts added one at a time in
    pair order, as `bm25_search` adds them, so every caller reproduces the
    same last bits. A term a document lacks would add 0.0, which changes no
    score, so only the postings found are passed.
    """
    scores = np.zeros(n)
    # `add.at` adds one pair at a time, in order: never a pairwise or BLAS sum
    np.add.at(scores, rows, impacts)
    return scores


def bm25_search(
    index: InvertedIndex,
    query: Query,
    k: int,
    params: Bm25Params = Bm25Params(),
) -> Ranking:
    """Top-k documents for the query; zero-scoring documents are excluded.

    Each distinct query term with an idf above 0, in sorted order, adds its
    slice of the impacts column to its postings' entries of one dense score
    array; repeated terms in a query contribute once. Only the top k are
    kept (`InvertedIndex.ranked`).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    impacts = index.impacts(params)
    scores = np.zeros(index.n_docs)
    for term in sorted(set(tokenize(query.text))):
        start, end = index.spans.get(term, (0, 0))
        if start == end or index.idf(term) == 0.0:
            continue
        # a term's ids are distinct, so the fancy += adds once each
        scores[index.ids[start:end]] += impacts[start:end]
    hits = np.flatnonzero(scores > 0.0)
    return index.ranked(hits, scores[hits], k)


def score_pair(
    index: InvertedIndex,
    query_text: str,
    doc_id: str,
    params: Bm25Params = Bm25Params(),
) -> float:
    """BM25 score of one (query, document) pair; the document must be indexed."""
    terms = sorted(set(tokenize(query_text)))
    ids = index.internal_id_array([doc_id]).repeat(len(terms))
    pairs, _, _, impacts = index.gather(terms, [1] * len(terms), ids, params)
    return float(bm25_scores(np.zeros_like(pairs), impacts, 1)[0])


def select_passage(
    doc: Document,
    query: Query,
    window: int = 120,
) -> tuple[str, int]:
    """Pick the document window that best covers the query's terms.

    Windows of `window` tokens slide with 50% overlap. The winner maximizes
    the number of distinct query terms present; ties prefer a higher
    saturated term-frequency mass (sum of tf/(tf + 0.9) over matched
    terms, exactly rounded by `math.fsum`, so it does not depend on the
    set's iteration order and windows whose matched terms hold the same
    counts tie), then the earliest window. Returns the original-text span
    of the winning window and its distinct-match count; a document with no
    tokens has no passage, so it gives ("", 0).
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
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

    # the last start is the first whose window reaches the end; the best
    # key wins, and on a tie the earliest start
    stride = max(1, window // 2)
    (distinct, _), neg_start = max(
        (window_key([t for t, _, _ in spans[start:start + window]]), -start)
        for start in range(0, len(spans) - window + stride, stride)
    )
    start, end = -neg_start, min(window - neg_start, len(spans))
    return doc.text[spans[start][1] : spans[end - 1][2]], distinct


# dtypes fixed here, never read from a file
_SECTIONS = (("df", np.dtype("<i8")), ("ids", np.dtype("<i8")), ("tfs", np.dtype("<i8")),
             ("leads", np.dtype("u1")))


def save_index(index: InvertedIndex, path) -> None:
    """Persist the index as one versioned file: a JSON header line, then
    the postings columns as raw little-endian bytes.

    The header holds `format`, `version`, `doc_ids` and `terms` (sorted).
    Four sections follow, with no gap and nothing after them: `df` (each
    term's postings count), `ids` and `tfs` (every posting's internal id
    and term frequency, term by term) as '<i8', and `leads` (every
    posting's lead flag, 0 or 1) as 'u1'. So `df` holds one value per term
    and each other section sum(df) values. Document lengths are not
    stored; the loaded index derives them from the tfs, as building does.
    Equal indexes give equal bytes.
    """
    dfs = np.array([end - start for start, end in index.spans.values()], dtype=np.int64)
    columns = {"df": dfs, "ids": index.ids, "tfs": index.tfs, "leads": index.leads}
    header = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "doc_ids": index.doc_ids,
        "terms": list(index.spans),
    }
    write_artifact(path, b"".join([
        json.dumps(header).encode("ascii"), b"\n",
        *(columns[name].astype(dtype).tobytes() for name, dtype in _SECTIONS),
    ]))


def load_index(path) -> InvertedIndex:
    """Read an index written by `save_index`; a file that cannot be read
    raises `corpus_io.read_binary_file`'s ParseError.

    Raises ValueError naming the path (and the term, for a postings fault)
    when the header line is not valid JSON or not an index of this version
    (an older one must be rebuilt), or the file is malformed: `doc_ids` or
    `terms` not a list of strings; a df below 1; a section cut short or
    bytes after the last (`df` holds one value per term, each other section
    sum(df) values); doc_ids empty or not strictly ascending (which also
    catches a duplicate); terms not strictly ascending; a tf below 1; a
    lead flag other than 0 or 1; or a term's postings not strictly
    ascending by internal id or holding an id out of range. The
    `searchsorted` gathers of `InvertedIndex.gather` rely on the last
    two.
    """
    head, _, body = read_binary_file(path).partition(b"\n")  # a version 5 file is one line of JSON
    try:
        header = json.loads(head)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"index file {path} is not valid JSON: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != INDEX_FORMAT:
        raise ValueError(f"not an index file: {path}")
    if header.get("version") != INDEX_VERSION:
        raise ValueError(
            f"index file {path} has version {header.get('version')!r}, not "
            f"{INDEX_VERSION}; rebuild it with `hardrank index --force`"
        )

    def fault(message: str) -> ValueError:
        return ValueError(f"index file {path}: {message}")

    for name in ("doc_ids", "terms"):
        if not isinstance(header.get(name), list):
            raise fault(f"{name} is not a list")
        if not set(map(type, header[name])) <= {str}:
            raise fault(f"{name} holds a value that is not a string")
    doc_ids, terms = header["doc_ids"], header["terms"]
    sections, offset, count = {}, 0, len(terms)  # df holds one value per term
    for name, dtype in _SECTIONS:
        if len(body) - offset < count * dtype.itemsize:
            raise fault(f"{name} is cut short: {count} values need {count * dtype.itemsize} bytes")
        sections[name] = np.frombuffer(body, dtype, count, offset)
        offset += count * dtype.itemsize
        if name == "df":
            if (sections[name] < 1).any():
                raise fault("df holds a count below 1")
            dfs = sections[name].tolist()
            count = sum(dfs)  # ids, tfs and leads each; a Python int, so no int64 sum wraps
    if offset != len(body):
        raise fault(f"{len(body) - offset} trailing bytes after the last section")
    _, ids, tfs, leads = sections.values()
    if not doc_ids:
        raise fault("doc_ids is empty")
    if " ".join(doc_ids).split() != doc_ids:  # the rule run files and the corpus apply
        bad = next(doc_id for doc_id in doc_ids if doc_id.split() != [doc_id])
        raise fault(f"doc_ids holds {bad!r}, which is empty or holds whitespace")
    for name, values in (("doc_ids", doc_ids), ("terms", terms)):
        if not all(map(operator.lt, values, values[1:])):
            raise fault(f"{name} are not strictly ascending")
    n_docs = len(doc_ids)
    # Each check runs over whole columns. A term's first faulty posting
    # gives its row, and the term of the lowest row is named, with the
    # message of the first check (in this order) that its postings fail.
    ends = np.cumsum(dfs, dtype=np.int64)
    descending = ids[1:] <= ids[:-1]
    descending[ends[:-1] - 1] = False  # where one term's postings end and the next begin
    faults = [
        (int(ends.searchsorted(bad[0], side="right")), message)
        for message, bad in (
            ("are not strictly ascending by id", np.flatnonzero(descending) + 1),
            (f"hold an id outside [0, {n_docs})", np.flatnonzero((ids < 0) | (ids >= n_docs))),
            ("hold a tf below 1", np.flatnonzero(tfs < 1)),
            ("hold a lead flag other than 0 or 1", np.flatnonzero(leads > 1)),
        )
        if bad.size
    ]
    if faults:
        row, message = min(faults, key=operator.itemgetter(0))
        raise fault(f"postings of term {terms[row]!r} {message}")
    return InvertedIndex(spans=_spans(terms, dfs), ids=ids, tfs=tfs, leads=leads.view(bool),
                         doc_ids=doc_ids)
