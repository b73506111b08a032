"""One feature pass per candidate list, whichever rankers score it.

`rerank` keeps the last feature matrix it built, keyed by the index (held
weakly), the BM25 parameters, the query text and the candidate doc ids, so
BR then SR on one list costs one pass. The list is scored as a matrix with
the bits of the per-row `oracles.score`, the early-window terms of each
document are built with the index, and `RunRecord` has slots.
"""

import dataclasses
import gc
import json
import os
import subprocess
import sys
import threading
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardrank import pointwise_ranker
from hardrank.benchmark import write_benchmark
from hardrank.config import load_config
from hardrank.corpus_io import Document, RunRecord, rank_records, read_queries_file
from hardrank.lexical_retrieval import (
    EARLY_WINDOW,
    Bm25Params,
    build_index,
    load_index,
    save_index,
)
from hardrank.linear_model import LogisticScorer
from hardrank.pipeline import (
    build_and_save_index,
    candidates_for,
    enrich_training_queries,
    produce_run,
    train_qpp_model,
    train_ranker,
)
from hardrank.pointwise_ranker import rerank
from hardrank.text import tokenize
from oracles import score

DOCS = [
    Document("d1", "Solar power for the grid"),
    Document("d2", "wind power and wind farms"),
    Document("d3", "solar panels on the roof, solar heat"),
    Document("d4", "the history of the grid"),
]


def make_model(seed: int) -> LogisticScorer:
    rng = np.random.default_rng(seed)
    return LogisticScorer(
        weights=rng.normal(size=6),
        bias=float(rng.normal()),
        feature_means=rng.normal(size=6),
        feature_stds=rng.uniform(0.5, 2.0, size=6),
    )


BR, SR = make_model(1), make_model(2)


@pytest.fixture
def setting():
    corpus = {d.doc_id: d for d in DOCS}
    candidates = rank_records([(d.doc_id, 1.0) for d in DOCS])
    return corpus, build_index(DOCS), candidates


def fresh_rerank(model, query, candidates, corpus, index, params=Bm25Params()):
    pointwise_ranker._last_features = None
    return rerank(model, query, candidates, corpus, index, params)


class TestSharedFeaturePass:
    def test_br_then_sr_calls_the_kernel_once(self, setting, kernel_calls):
        corpus, index, candidates = setting
        br = rerank(BR, "solar grid", candidates, corpus, index)
        sr = rerank(SR, "solar grid", candidates, corpus, index)
        assert len(kernel_calls) == 1
        assert br == fresh_rerank(BR, "solar grid", candidates, corpus, index)
        assert sr == fresh_rerank(SR, "solar grid", candidates, corpus, index)
        assert br != sr

    @pytest.mark.parametrize("change", ["query", "params", "index", "document"])
    def test_memo_misses_when_an_input_differs(self, setting, kernel_calls, change):
        # an equal document that is another object is no different input:
        # reranking reads the index, not the document
        corpus, index, candidates = setting
        query, params = "solar grid", Bm25Params()
        first = rerank(BR, query, candidates, corpus, index, params)
        if change == "query":
            query = "solar grid wind"
        elif change == "params":
            params = Bm25Params(k1=1.2, b=0.75)
        elif change == "index":
            index = build_index(DOCS)
        else:  # an equal Document, but another object
            corpus = {**corpus, "d2": dataclasses.replace(corpus["d2"])}
        second = rerank(BR, query, candidates, corpus, index, params)
        assert len(kernel_calls) == (1 if change == "document" else 2)
        assert second == fresh_rerank(BR, query, candidates, corpus, index, params)
        if change in ("index", "document"):
            assert second == first

    def test_same_list_in_another_order_is_a_miss(self, setting, kernel_calls):
        corpus, index, candidates = setting
        rerank(BR, "solar", candidates, corpus, index)
        rerank(BR, "solar", candidates[::-1], corpus, index)
        rerank(BR, "solar", candidates[:2], corpus, index)
        assert len(kernel_calls) == 3

    def test_memo_keeps_no_index_or_document_alive(self):
        corpus = {d.doc_id: Document(d.doc_id, d.text) for d in DOCS}
        index = build_index(list(corpus.values()))
        rerank(BR, "solar", rank_records([(d, 1.0) for d in corpus]), corpus, index)
        index_ref = weakref.ref(index)
        doc_ref = weakref.ref(corpus["d1"])
        del index, corpus
        gc.collect()
        assert index_ref() is None
        assert doc_ref() is None

    def test_concurrent_reranks_match_sequential_ones(self, setting):
        # more threads than cores, switching often, each with its own query,
        # so a memo entry read half-replaced would give a wrong list
        corpus, index, candidates = setting
        queries = ["solar", "wind power", "grid", "solar heat roof"]
        expected = {
            (q, id(m)): fresh_rerank(m, q, candidates, corpus, index)
            for q in queries
            for m in (BR, SR)
        }
        mismatches = []

        def worker(query):
            for _ in range(2000):
                for model in (BR, SR):
                    got = rerank(model, query, candidates, corpus, index)
                    if got != expected[(query, id(model))]:
                        mismatches.append(query)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(q,)) for q in queries]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []

    def test_memo_matrix_is_read_only(self, setting):
        corpus, index, candidates = setting
        ids, matrix = pointwise_ranker._candidate_features(
            "solar", candidates, corpus, index, Bm25Params()
        )
        assert ids.tolist() == [index.internal_ids[rec.doc_id] for rec in candidates]
        for array in (ids, matrix):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1
        memo = pointwise_ranker._last_features
        assert memo[-2] is ids and memo[-1] is matrix


TESTS = Path(__file__).resolve().parent

# Run by a child interpreter with TESTS on its path: `score_rows` against the
# per-row `oracles.score` on fixed random matrices, the 1e6 scale saturating
# the sigmoid into the clamp. Prints the rows checked and how many of them
# were clamped.
KERNEL_CHECK = """
import numpy as np
from hardrank.linear_model import LogisticScorer
from oracles import score

rows = clamped = 0
for seed in range(40):
    rng = np.random.default_rng(seed)
    model = LogisticScorer(weights=rng.normal(size=6), bias=float(rng.normal()),
                           feature_means=rng.normal(size=6),
                           feature_stds=rng.uniform(0.5, 2.0, size=6))
    for scale in (1e-3, 1.0, 10.0, 1e3, 1e6):
        features = rng.normal(scale=scale, size=(50, 6))
        got = model.score_rows(features)
        expected = np.array([score(model, row) for row in features])
        assert got.tobytes() == expected.tobytes(), (seed, scale)
        rows += len(got)
        clamped += int(np.count_nonzero((got == 1e-12) | (got == 1.0 - 1e-12)))
print(rows, clamped)
"""


class TestMatrixScoring:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 40),
        scale=st.sampled_from([1e-3, 1.0, 10.0, 1e3, 1e6]),
    )
    def test_score_rows_equals_per_row_score(self, seed, rows, scale):
        # large scales saturate the sigmoid, so the clamp is reached
        rng = np.random.default_rng(seed)
        model = make_model(seed)
        features = rng.normal(scale=scale, size=(rows, 6))
        expected = np.array([score(model, row) for row in features])
        assert model.score_rows(features).tobytes() == expected.tobytes()

    def test_score_rows_equals_per_row_score_on_another_blas_kernel(self, child_env):
        # `np.vecdot` calls the per-row BLAS ddot that `score`'s `np.dot`
        # calls, so the two agree on any kernel; Prescott is an old one
        env = {**child_env, "OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([str(TESTS), child_env["PYTHONPATH"]])}
        result = subprocess.run([sys.executable, "-c", KERNEL_CHECK], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        rows, clamped = map(int, result.stdout.split())
        assert rows == 40 * 5 * 50
        assert clamped > 0


class TestLeadTerms:
    def test_built_with_the_index_interned_and_kept_by_save_and_load(self, tmp_path):
        # past the window, repeated terms, and no tokens at all
        docs = DOCS + [Document("long", " ".join(f"W{i % 15}" for i in range(60))),
                       Document("empty", "--")]
        index = build_index(docs)
        for doc in docs:
            lead = index.lead_terms[index.internal_ids[doc.doc_id]]
            assert list(lead) == list(dict.fromkeys(tokenize(doc.text)[:EARLY_WINDOW]))
            assert all(sys.intern(term) is term for term in lead)
        save_index(index, tmp_path / "index.json")
        loaded = load_index(tmp_path / "index.json")
        assert loaded.lead_terms == index.lead_terms
        assert all(sys.intern(term) is term for lead in loaded.lead_terms for term in lead)


class TestRunRecordSlots:
    def test_slotted_frozen_hashable_and_equal_by_value(self):
        rec = RunRecord("d1", 0.5)
        assert not hasattr(rec, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.score = 1.0
        assert rec == RunRecord("d1", 0.5)
        assert rec != RunRecord("d1", 0.6)
        assert hash(rec) == hash(RunRecord("d1", 0.5))
        assert len({rec, RunRecord("d1", 0.5)}) == 1


README_CONFIG = {
    "paths": {
        "corpus": "corpus.jsonl",
        "train_queries": "queries.tsv",
        "train_qrels": "qrels.txt",
        "test_queries": "queries.tsv",
        "test_qrels": "qrels.txt",
    },
    "enrichment": {"use_judged_context": True},
}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """The README experiment up to the trained models."""
    root = tmp_path_factory.mktemp("trained")
    write_benchmark(root, seed=7)
    (root / "config.json").write_text(json.dumps(README_CONFIG))
    config = load_config(root / "config.json")
    build_and_save_index(config)
    enrich_training_queries(config)
    train_ranker(config, "br")
    train_ranker(config, "sr")
    train_qpp_model(config)
    produce_run(config, "br")
    produce_run(config, "sr")
    return config


@pytest.mark.parametrize("method", ["br", "sr"])
def test_produce_run_builds_each_query_features_once(trained, kernel_calls, method):
    produce_run(trained, method)
    queries = read_queries_file(trained.path("test_queries"))
    ranked = candidates_for(trained, load_index(trained.path("index")), queries)
    assert len(kernel_calls) == len(ranked)
    assert set(Counter(kernel_calls).values()) == {1}


@pytest.mark.parametrize("method", ["bsf", "r_qpp", "w_qpps"])
def test_fusion_builds_no_features(trained, kernel_calls, method):
    # fusion reads the scores in br.txt and sr.txt instead of reranking
    produce_run(trained, method)
    assert kernel_calls == []
