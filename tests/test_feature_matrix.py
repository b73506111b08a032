"""The per-query feature kernel against a text-derived oracle, bit for bit.

`oracle_features` is the per-pair feature extraction as it was written
before the kernel existed: it tokenizes the query and the document text,
counts terms with `Counter`, and looks each term's tf up in a dict built
from the whole postings list. The kernel reads tf, length, norm and the
early-window terms from the index instead, so on the corpus that was
indexed the two must agree in every bit, and reranking, which is given
doc ids and no document text, must give the records that per-pair scoring
of the texts gives.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardrank.corpus_io import Document, rank_records
from hardrank.lexical_retrieval import EARLY_WINDOW, Bm25Params, build_index
from hardrank.linear_model import LogisticScorer
from hardrank.pointwise_ranker import FEATURE_NAMES, _feature_rows, extract_features, rerank
from hardrank.text import tokenize
from oracles import bm25_idf, bm25_term_score, score


def oracle_bm25(index, query_text, doc_id, params):
    internal_id = index.internal_ids[doc_id]
    total = 0.0
    for term in sorted(set(tokenize(query_text))):
        idf = bm25_idf(index, term)
        if idf == 0.0:
            continue
        tf = dict(index.postings.get(term, ())).get(internal_id, 0)
        if tf == 0:
            continue
        total += bm25_term_score(
            tf, idf, index.doc_lengths[internal_id], index.avg_doc_length, params
        )
    return total


def oracle_features(text, doc, index, params):
    q_tokens = tokenize(text)
    d_tokens = tokenize(doc.text)
    q_counts = Counter(q_tokens)
    d_counts = Counter(d_tokens)
    q_terms = set(q_counts)

    bm25 = oracle_bm25(index, text, doc.doc_id, params)

    if q_terms:
        overlap = len(q_terms & d_counts.keys()) / len(q_terms)
        early_terms = set(d_tokens[:EARLY_WINDOW])
        early = len(q_terms & early_terms) / len(q_terms)
    else:
        overlap = 0.0
        early = 0.0

    dot = sum(q_counts[t] * d_counts[t] for t in q_terms if t in d_counts)
    q_norm = math.sqrt(sum(c * c for c in q_counts.values()))
    d_norm = math.sqrt(sum(c * c for c in d_counts.values()))
    cosine = dot / (q_norm * d_norm) if dot else 0.0

    return np.array(
        [bm25, overlap, cosine, float(len(q_tokens)), math.log1p(len(d_tokens)), early]
    )


# Mixed case, non-ASCII (final sigma, dotted capital I, sharp s, a titlecase
# digraph), digits and underscore-joined words.
WORDS = (
    "solar", "Solar", "SOLAR", "wind", "power", "grid", "Σίσυφος", "ΟΔΟΣ",
    "straße", "İstanbul", "ǅemal", "café", "naïve", "x2", "42", "snake_case",
)
COMMON = "the"  # in every document, so its idf is 0
ABSENT = ("zebra", "Quagga", "ünindexed")
SEPARATORS = (" ", "  ", ", ", ". ", "-", "_", "\n", " — ")

words = st.sampled_from(WORDS)
separators = st.sampled_from(SEPARATORS)


@st.composite
def texts(draw, vocabulary, max_words):
    chosen = draw(st.lists(vocabulary, max_size=max_words))
    out = []
    for word in chosen:
        out.append(word)
        out.append(draw(separators))
    return "".join(out)


@st.composite
def corpora(draw):
    """Documents from empty to well past EARLY_WINDOW tokens, all indexed."""
    bodies = draw(
        st.lists(texts(words, 3 * EARLY_WINDOW), min_size=1, max_size=8)
    )
    return [
        Document(f"d{i}", f"{COMMON} {body}" if i % 3 else f"{body} {COMMON.upper()}")
        for i, body in enumerate(bodies)
    ]


queries = st.one_of(
    st.just(""),
    st.just("?!"),
    st.just(f"{COMMON} {COMMON.title()}"),  # stopword-only: every idf is 0
    texts(st.sampled_from(WORDS + ABSENT + (COMMON,)), 8),
)
params_st = st.builds(
    Bm25Params,
    k1=st.floats(0.1, 3.0, allow_nan=False),
    b=st.floats(0.0, 1.0, allow_nan=False),
)
finite = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
models = st.builds(
    LogisticScorer,
    weights=st.lists(finite, min_size=6, max_size=6).map(np.array),
    bias=finite,
    feature_means=st.lists(finite, min_size=6, max_size=6).map(np.array),
    feature_stds=st.lists(st.floats(0.1, 5.0), min_size=6, max_size=6).map(np.array),
)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(corpus=corpora(), query=queries, params=params_st)
def test_rows_equal_the_text_derived_oracle(corpus, query, params):
    index = build_index(corpus)
    matrix = _feature_rows([(query, index.internal_id_array([d.doc_id for d in corpus]))],
                           index, params)
    assert matrix.shape == (len(corpus), len(FEATURE_NAMES))
    for doc, row in zip(corpus, matrix):
        expected = oracle_features(query, doc, index, params)
        assert same_bits(row, expected), (doc.text, row, expected)
        assert same_bits(extract_features(query, doc, index, params), expected)


@settings(max_examples=100, deadline=None)
@given(corpus=corpora(), query=queries, params=params_st, model=models, data=st.data())
def test_rerank_equals_per_pair_scoring(corpus, query, params, model, data):
    index = build_index(corpus)
    by_id = {d.doc_id: d for d in corpus}
    chosen = data.draw(
        st.lists(st.sampled_from(sorted(by_id)), min_size=1, unique=True)
    )
    candidates = rank_records([(doc_id, 1.0) for doc_id in chosen])
    expected = rank_records(
        [
            (doc_id, score(model, oracle_features(query, by_id[doc_id], index, params)))
            for doc_id in chosen
        ]
    )
    assert rerank(model, query, candidates, index, params) == expected


@settings(max_examples=100, deadline=None)
@given(corpus=corpora(), query=queries, params=params_st, model=models)
def test_rerank_reads_no_document_text(corpus, query, params, model):
    index = build_index(corpus)
    expected = rank_records(
        [(doc.doc_id, score(model, oracle_features(query, doc, index, params))) for doc in corpus]
    )
    candidates = rank_records([(d.doc_id, 1.0) for d in corpus])
    assert rerank(model, query, candidates, index, params) == expected


def test_empty_document_list_gives_an_empty_matrix():
    index = build_index([Document("d1", "solar power")])
    assert _feature_rows([("solar", index.internal_id_array([]))], index,
                         Bm25Params()).shape == (0, len(FEATURE_NAMES))


class TestMissingDocuments:
    """The errors of the per-pair path, in candidate order."""

    @pytest.fixture
    def setting(self):
        indexed = [Document("d1", "solar power"), Document("d2", "wind power")]
        model = LogisticScorer(np.zeros(6), 0.0, np.zeros(6), np.ones(6))
        return model, build_index(indexed)

    def test_unindexed_document_names_the_doc(self, setting):
        _, index = setting
        with pytest.raises(ValueError, match=r"doc_id 'dX' not in index"):
            extract_features("solar", Document("dX", "solar"), index)

    def test_rerank_reports_the_first_faulty_candidate(self, setting):
        model, index = setting
        candidates = rank_records([("d1", 3.0), ("dX", 2.0), ("dY", 1.0)])
        with pytest.raises(ValueError, match=r"doc_id 'dX' not in index"):
            rerank(model, "solar", candidates, index)
        candidates = rank_records([("d1", 3.0), ("dY", 2.0), ("dX", 1.0)])
        with pytest.raises(ValueError, match=r"doc_id 'dY' not in index"):
            rerank(model, "solar", candidates, index)
