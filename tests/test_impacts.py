"""BM25 read from the index's impacts column, against the per-call oracle.

`InvertedIndex.impacts(params)` holds each posting's BM25 contribution,
computed once per parameter set. `oracles.bm25_search` and
`oracles.bm25_sum` compute the same contributions per call, from the tfs,
an idf of the term's df and the document lengths, as BM25 was computed
before the column existed. Every search, `bm25` feature and pair score
must equal them bit for bit, and the column must be built once per
parameter set, read-only, and the same after a save and reload or when two
threads build it at once.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hardrank.corpus_io import Document, Query
from hardrank.lexical_retrieval import (
    Bm25Params,
    bm25_search,
    build_index,
    load_index,
    save_index,
    score_pair,
)
from hardrank.pointwise_ranker import _feature_rows
from hardrank.text import tokenize

WORDS = ("solar", "wind", "grid", "x2", "42", "power", "café", "ΟΔΟΣ", "rain", "fog")
COMMON = "the"  # in more than half the documents, so its idf floors at 0
ABSENT = ("zebra", "quagga")

k1s = st.one_of(st.floats(1e-3, 0.1), st.floats(0.1, 3.0), st.floats(3.0, 1e3))
params_st = st.builds(Bm25Params, k1=k1s, b=st.one_of(st.sampled_from([0.0, 1.0]),
                                                      st.floats(0.0, 1.0)))


@st.composite
def cases(draw):
    """A corpus with `COMMON` in 3 of every 4 documents, a query that may
    repeat a term or hold one the index lacks, and BM25 parameters."""
    bodies = draw(st.lists(st.lists(st.sampled_from(WORDS), max_size=12), min_size=1,
                           max_size=16))
    texts = [" ".join([COMMON] * (i % 4 > 0) + body) for i, body in enumerate(bodies)]
    corpus = [Document(f"d{i}", text) for i, text in enumerate(texts)]
    terms = draw(st.lists(st.sampled_from(WORDS + ABSENT + (COMMON,)), max_size=8))
    repeated = draw(st.lists(st.sampled_from(terms), max_size=3)) if terms else []
    return corpus, " ".join(terms + repeated), draw(params_st)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(cases())
def test_search_features_and_pair_scores_equal_the_oracle(case):
    corpus, text, params = case
    index = build_index(corpus)
    query = Query("q", text)
    found = bm25_search(index, query, len(corpus), params)
    expected = oracles.bm25_search(index, query, len(corpus), params)
    assert found.doc_ids == expected.doc_ids
    assert same_bits(found.scores, expected.scores)

    doc_ids = [doc.doc_id for doc in corpus]
    ids = index.internal_id_array(doc_ids)
    terms = sorted(set(tokenize(text)))
    tfs = oracles.tf_matrix(index, terms, ids, params)[0]
    reference = oracles.bm25_sum(
        tfs, [oracles.bm25_idf(index, t) for t in terms], index.doc_lengths[ids],
        index.avg_doc_length, params,
    )
    assert same_bits(_feature_rows([(text, ids)], index, params)[:, 0], reference)
    assert same_bits([score_pair(index, text, d, params) for d in doc_ids], reference)


def test_a_term_in_more_than_half_the_documents_adds_nothing():
    corpus = [Document(f"d{i}", COMMON if i < 3 else "wind") for i in range(4)]
    index = build_index(corpus)
    assert index.idf(COMMON) == 0.0
    assert index.idf("zebra") == index.idf_by_df[0] > index.idf("wind") > 0.0
    start, end = index.spans[COMMON]
    assert not index.impacts(Bm25Params())[start:end].any()
    assert list(bm25_search(index, Query("q", COMMON), 4)) == []


class TestImpactsMemo:
    @pytest.fixture
    def index(self):
        return build_index([Document("a", "solar wind grid solar"), Document("b", "wind rain"),
                            Document("c", "fog fog grid")])

    def test_equal_params_share_one_read_only_column(self, index):
        column = index.impacts(Bm25Params(k1=1.2, b=0.75))
        assert index.impacts(Bm25Params(k1=1.2, b=0.75)) is column
        assert column.dtype == np.float64 and column.shape == index.ids.shape
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 0.0

    def test_different_params_get_their_own_column(self, index):
        default, other = index.impacts(Bm25Params()), index.impacts(Bm25Params(k1=2.0))
        assert other is not default
        assert not same_bits(other, default)
        assert index.impacts(Bm25Params()) is default

    def test_a_reloaded_index_gives_equal_impacts(self, index, tmp_path):
        path = tmp_path / "index.bin"
        save_index(index, path)
        for params in (Bm25Params(), Bm25Params(k1=0.01, b=0.0), Bm25Params(k1=50.0, b=1.0)):
            assert same_bits(load_index(path).impacts(params), index.impacts(params))

    def test_threads_searching_a_fresh_index_give_the_same_bytes(self):
        corpus = [Document(f"d{i}", " ".join(WORDS[j % len(WORDS)] for j in range(i, 3 * i)))
                  for i in range(1, 60)]
        queries = [Query(f"q{i}", f"{WORDS[i]} {WORDS[-i - 1]}") for i in range(len(WORDS))]
        expected = [bm25_search(build_index(corpus), q, 20) for q in queries]
        index = build_index(corpus)  # no column yet: every thread may build it
        n_threads = 4  # more than the cores of a small runner
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads

        def search(slot):
            barrier.wait()
            results[slot] = [bm25_search(index, q, 20) for q in queries]

        threads = [threading.Thread(target=search, args=(slot,)) for slot in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for found in results:
            assert [r.doc_ids for r in found] == [r.doc_ids for r in expected]
            assert all(same_bits(r.scores, e.scores) for r, e in zip(found, expected))
        assert list(index._impacts) == [Bm25Params()]


@pytest.mark.parametrize("k1", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_k1_must_be_a_finite_number_above_zero(k1):
    with pytest.raises(ValueError, match=f"k1 must be a finite number > 0, got {k1}"):
        Bm25Params(k1=k1)
