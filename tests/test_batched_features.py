"""The batched feature, training-set and QPP passes against their per-query
references, bit for bit.

`pointwise_ranker._feature_rows` featurizes many (query text, candidate
internal ids) lists in one pass. Each of its rows must equal the row of
`oracles.feature_rows`, the kernel as it was written per list, whatever
else the batch holds. `build_training_set` draws every query's negatives
first and featurizes all of them in one pass; `oracles.build_training_set`
featurizes query by query. `qpp.estimate_batch` scores all queries' QPP
features as one matrix; `qpp.estimate` scores one query at a time.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hardrank.corpus_io import Document, Qrels, Query, rank_records
from hardrank.lexical_retrieval import Bm25Params, bm25_search, build_index
from hardrank.linear_model import LogisticScorer
from hardrank.pointwise_ranker import (FEATURE_NAMES, _feature_rows, build_training_set, rerank,
                                       rerank_batch)
from hardrank.qpp import estimate, estimate_batch, qpp_features
from test_feature_matrix import (ABSENT, COMMON, WORDS, corpora, finite, models, params_st,
                                 same_bits, texts)

# from no token to a dozen distinct terms, with absent and repeated ones
query_texts = st.one_of(
    st.just(""),
    st.just("?!"),
    st.sampled_from(ABSENT),
    st.just("solar Solar SOLAR wind"),
    st.just(" ".join(WORDS[7:] + ABSENT[:1])),  # 12 distinct terms, one absent
    texts(st.sampled_from(WORDS + ABSENT + (COMMON,)), 12),
)


@st.composite
def batches(draw):
    """A corpus and a batch of lists over it: each a query text and 1 to
    all of the documents' internal ids, some lists of length 1."""
    corpus = draw(corpora())
    n = len(corpus)
    lists = draw(st.lists(
        st.tuples(query_texts, st.one_of(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=1),
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True),
        )),
        min_size=1, max_size=8,
    ))
    return corpus, [(text, np.array(ids, dtype=np.int64)) for text, ids in lists]


def test_fixed_batch_covers_every_query_shape():
    corpus = [
        Document("d0", "solar power for the grid and solar heat"),
        Document("d1", "wind power Σίσυφος straße café naïve x2 42 snake_case grid"),
        Document("d2", ""),
        Document("d3", " ".join(["the"] * 25) + " solar wind"),
    ]
    index, params = build_index(corpus), Bm25Params()
    lists = [
        ("", np.array([0, 1])),
        ("zebra Quagga", np.array([2])),
        ("solar solar wind the", np.array([3, 0, 2, 1])),
        ("grid", np.array([1])),
        (" ".join(WORDS[7:] + ABSENT[:1]), np.array([1, 0])),
    ]
    matrix = _feature_rows(lists, index, params)
    expected = np.concatenate([oracles.feature_rows(text, ids, index, params)
                               for text, ids in lists])
    assert matrix.shape == (10, len(FEATURE_NAMES))
    assert same_bits(matrix, expected)


@settings(max_examples=200, deadline=None)
@given(batch=batches(), params=params_st)
def test_batched_rows_equal_the_per_list_kernel(batch, params):
    corpus, lists = batch
    index = build_index(corpus)
    matrix = _feature_rows(lists, index, params)
    assert matrix.shape == (sum(len(ids) for _, ids in lists), len(FEATURE_NAMES))
    start = 0
    for text, ids in lists:
        block = matrix[start:start + len(ids)]
        start += len(ids)
        for column in range(len(FEATURE_NAMES)):
            expected = oracles.feature_rows(text, ids, index, params)[:, column]
            assert same_bits(block[:, column], expected), (text, FEATURE_NAMES[column])
        # a list gets the same rows alone as in the batch
        assert same_bits(_feature_rows([(text, ids)], index, params), block)


def test_an_empty_batch_gives_an_empty_matrix():
    index = build_index([Document("d1", "solar power")])
    assert _feature_rows([], index, Bm25Params()).shape == (0, len(FEATURE_NAMES))


@settings(max_examples=100, deadline=None)
@given(batch=batches(), params=params_st, br=models, sr=models)
def test_rerank_batch_equals_rerank_list_by_list(batch, params, br, sr):
    corpus, lists = batch
    index = build_index(corpus)
    ranked = [(text, rank_records([(index.doc_ids[i], 1.0) for i in set(ids.tolist())]))
              for text, ids in lists]
    got = rerank_batch([br, sr], ranked, index, params)
    for model, runs in zip((br, sr), got):
        assert runs == [rerank(model, text, hits, index, params) for text, hits in ranked]


@st.composite
def training_inputs(draw):
    """A corpus, queries over it (one may repeat another's text) and
    graded judgments, some of documents that are not indexed."""
    corpus = draw(corpora())
    doc_ids = [d.doc_id for d in corpus] + ["unindexed"]
    queries = [(f"q{i}", text) for i, text in enumerate(draw(st.lists(query_texts, max_size=6)))]
    judged = draw(st.dictionaries(
        st.tuples(st.sampled_from([qid for qid, _ in queries] or ["q0"]),
                  st.sampled_from(doc_ids)),
        st.integers(0, 3), max_size=20,
    ))
    return corpus, queries, Qrels(judged)


@settings(max_examples=150, deadline=None)
@given(inputs=training_inputs(), params=params_st, depth=st.integers(1, 10),
       negatives=st.integers(1, 4), threshold=st.integers(1, 3), seed=st.integers(0, 99))
def test_training_set_equals_the_per_query_oracle(inputs, params, depth, negatives, threshold,
                                                  seed):
    corpus, queries, qrels = inputs
    index = build_index(corpus)
    kwargs = dict(depth=depth, negatives_per_positive=negatives, label_threshold=threshold,
                  seed=seed)
    got = build_training_set(queries, qrels, index, index.internal_ids, params, **kwargs)
    expected = oracles.build_training_set(queries, qrels, index, index.internal_ids, params,
                                          **kwargs)
    assert got.pairs == expected.pairs
    assert got.labels.tolist() == expected.labels.tolist()
    assert same_bits(got.features, expected.features)


qpp_models = st.builds(
    LogisticScorer,
    weights=st.lists(finite, min_size=6, max_size=6).map(np.array),
    bias=finite,
    feature_means=st.lists(finite, min_size=6, max_size=6).map(np.array),
    feature_stds=st.lists(st.floats(0.1, 5.0), min_size=6, max_size=6).map(np.array),
    metadata=st.fixed_dictionaries({
        "k": st.integers(1, 10), "orientation": st.just("hardness"),
    }),
    kind=st.just("qpp"),
)


@settings(max_examples=150, deadline=None)
@given(corpus=corpora(), texts_=st.lists(query_texts, min_size=1, max_size=8), model=qpp_models,
       params=params_st)
def test_batched_psi_equals_per_query_estimates(corpus, texts_, model, params):
    index = build_index(corpus)
    queries = [Query(f"q{i}", text) for i, text in enumerate(texts_)]
    candidates = {q.query_id: hits for q in queries
                  if (hits := bm25_search(index, q, 10, params))}
    psi = estimate_batch(model, index, queries, candidates)
    present = [q for q in queries if q.query_id in candidates]
    assert list(psi) == [q.query_id for q in present]
    for query in present:
        hits = candidates[query.query_id]
        assert psi[query.query_id] == estimate(model, query, hits, index).psi
        # and the per-row reference score of the query's features
        features = qpp_features(query, hits[:model.metadata["k"]], index)
        assert psi[query.query_id] == 1.0 - oracles.score(model, features)
