"""Shape and intent of the shipped synthetic benchmark."""

import numpy as np

from hardrank.benchmark import generate_benchmark, write_benchmark
from hardrank.corpus_io import read_corpus_file, read_qrels_file, read_queries_file
from hardrank.enrichment import HardnessRule, classify_hardness
from hardrank.evaluation import ndcg_at_k
from hardrank.lexical_retrieval import bm25_search, build_index
from oracles import toy_ranker_instances


def test_sizes():
    bench = generate_benchmark(7)
    assert len(bench.corpus) == 200
    assert len(bench.queries) == 40
    assert len(bench.hard_query_ids) == 20
    assert len(bench.easy_query_ids) == 20


def test_deterministic_given_seed():
    a = generate_benchmark(7)
    b = generate_benchmark(7)
    assert a.corpus == b.corpus
    assert a.queries == b.queries
    assert a.qrels == b.qrels


def test_hardness_labels_match_default_rule():
    bench = generate_benchmark(7)
    rule = HardnessRule()
    by_id = {q.query_id: q for q in bench.queries}
    for qid in bench.hard_query_ids:
        assert classify_hardness(by_id[qid], rule) == "hard"
    for qid in bench.easy_query_ids:
        assert classify_hardness(by_id[qid], rule) == "easy"


def test_every_query_has_positive_judgments():
    bench = generate_benchmark(7)
    for query in bench.queries:
        assert bench.qrels.has_positive(query.query_id)


def test_first_stage_gap_between_populations():
    # the hard population must actually be hard for BM25, the easy one easy
    bench = generate_benchmark(7)
    index = build_index(bench.corpus)
    scores = {}
    for query in bench.queries:
        hits = bm25_search(index, query, 100)
        scores[query.query_id] = ndcg_at_k(hits, bench.qrels.for_query(query.query_id))
    hard = np.mean([scores[q] for q in bench.hard_query_ids])
    easy = np.mean([scores[q] for q in bench.easy_query_ids])
    assert easy > 0.9
    assert hard < 0.6
    assert easy - hard > 0.3


def test_write_benchmark_round_trips(tmp_path):
    bench = write_benchmark(tmp_path, seed=7)
    assert read_corpus_file(tmp_path / "corpus.jsonl") == bench.corpus
    assert read_queries_file(tmp_path / "queries.tsv") == bench.queries
    assert read_qrels_file(tmp_path / "qrels.txt") == bench.qrels


def test_toy_instances_are_separable():
    instances = toy_ranker_instances()
    pos = [i.features[1] for i in instances if i.label == 1]
    neg = [i.features[1] for i in instances if i.label == 0]
    assert min(pos) > 0.5 > max(neg)
