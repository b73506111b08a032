"""Acceptance suite: every exit criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they pass; on failure the line is printed before the traceback.
"""

import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.special import expit

from hardrank.benchmark import write_benchmark
from hardrank.corpus_io import (
    Document,
    Qrels,
    Query,
    RunList,
    parse_qrels,
    parse_run,
    rank_records,
    read_run_file,
    write_qrels,
    write_run,
)
from hardrank.evaluation import (
    build_report,
    ndcg_at_k,
    paired_test,
    reciprocal_rank,
    relative_improvement,
)
from hardrank.fusion import FusionConfig, bsf, route_qpp, w_qpps
from hardrank.lexical_retrieval import build_index
from hardrank.linear_model import (
    LogisticScorer,
    bce_gradient,
    bce_loss,
    load_scorer,
    save_scorer,
)
from hardrank.pointwise_ranker import ScoreFileRanker, train
from hardrank.qpp import FileQppProvider, train_qpp
from oracles import score, toy_qpp_set, toy_ranker_instances


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


class TestCriterion1TableArithmetic:
    def test_reported_deltas_match_printed_table_values(self):
        # The delta computation reports to 1 decimal; tolerances are
        # inclusive and the nDCG row allows 0.15pp for the table's internal
        # rounding (its aggregates are themselves rounded to 3 decimals).
        with criterion(1, "table arithmetic reproduction"):
            cases = [
                (0.444, 0.659, 48.4, 0.1),
                (0.444, 0.535, 20.5, 0.1),
                (0.444, 0.618, 39.3, 0.1),
                (0.324, 0.389, 20.2, 0.15),
            ]
            for base, sys_value, printed, tolerance in cases:
                reported = round(relative_improvement(sys_value, base), 1)
                assert abs(reported - printed) <= tolerance + 1e-9, (
                    f"{base}->{sys_value}: reported {reported} vs printed {printed}"
                )


def oracle_ndcg(grades_in_rank_order, all_grades, k=10):
    dcg = sum((2**g - 1) / math.log2(i + 2) for i, g in enumerate(grades_in_rank_order[:k]))
    ideal = sorted(all_grades, reverse=True)[:k]
    idcg = sum((2**g - 1) / math.log2(i + 2) for i, g in enumerate(ideal))
    return dcg / idcg if idcg > 0 else 0.0


def oracle_rr(grades_in_rank_order):
    for i, g in enumerate(grades_in_rank_order, start=1):
        if g >= 1:
            return 1.0 / i
    return 0.0


class TestCriterion2MetricOracle:
    def test_1000_randomized_cases_to_1e10(self):
        with criterion(2, "metric oracle equivalence"):
            rng = random.Random(424242)
            start = time.monotonic()
            for _ in range(1000):
                n = rng.randint(1, 10)
                doc_ids = [f"d{i}" for i in range(n)]
                judgments = {d: rng.randint(0, 3) for d in doc_ids if rng.random() < 0.85}
                ranking = rank_records([(d, rng.random()) for d in doc_ids])
                grades = [judgments.get(rec.doc_id, 0) for rec in ranking]
                expected_ndcg = oracle_ndcg(grades, list(judgments.values()))
                expected_rr = oracle_rr(grades)
                got_ndcg = ndcg_at_k(ranking, judgments, 10)
                got_rr = reciprocal_rank(ranking, judgments)
                assert abs(got_ndcg - expected_ndcg) <= 1e-10
                assert abs(got_rr - expected_rr) <= 1e-10
            assert time.monotonic() - start < 5.0


def _random_paired_runs(seed, n_queries=8, n_docs=10):
    rng = random.Random(seed)
    br, sr = {}, {}
    for q in range(n_queries):
        qid = f"q{q}"
        docs = [f"d{i}" for i in range(n_docs)]
        br[qid] = rank_records([(d, rng.uniform(-10, 10)) for d in docs])
        sr[qid] = rank_records([(d, rng.uniform(-10, 10)) for d in docs])
    return RunList(entries=br, tag="br"), RunList(entries=sr, tag="sr")


class TestCriterion3EndpointIdentities:
    def test_psi_endpoints_reproduce_single_rankers_and_bsf(self):
        with criterion(3, "interpolation endpoint identities"):
            for seed in (1, 2, 3, 4, 5):
                br, sr = _random_paired_runs(seed)
                qids = sorted(br.entries)
                config = FusionConfig(normalize="per_query_min_max")

                at_zero = w_qpps(br, sr, {q: 0.0 for q in qids}, config)
                at_one = w_qpps(br, sr, {q: 1.0 for q in qids}, config)
                at_half = w_qpps(br, sr, {q: 0.5 for q in qids}, config)
                combsum = bsf(br, sr, FusionConfig(method="bsf"))

                for qid in qids:
                    assert [r.doc_id for r in at_zero.entries[qid]] == [
                        r.doc_id for r in br.entries[qid]
                    ]
                    assert [r.doc_id for r in at_one.entries[qid]] == [
                        r.doc_id for r in sr.entries[qid]
                    ]
                    assert [r.doc_id for r in at_half.entries[qid]] == [
                        r.doc_id for r in combsum.entries[qid]
                    ]


class TestCriterion4OracleRoutingDominance:
    def test_oracle_routing_achieves_per_query_max(self):
        with criterion(4, "oracle routing dominance"):
            # two populations: SR wins the h* queries, BR wins the e* ones
            qrels = {}
            br_scores, sr_scores = {}, {}
            candidates = {}
            queries = []
            docs = ["rel3", "rel1", "x1", "x2", "x3"]
            for i in range(5):
                for prefix, winner in (("h", "sr"), ("e", "br")):
                    qid = f"{prefix}{i}"
                    queries.append(Query(qid, f"query {qid}"))
                    qrels[(qid, "rel3")] = 3
                    qrels[(qid, "rel1")] = 1
                    candidates[qid] = rank_records([(d, 1.0 - j * 0.1) for j, d in enumerate(docs)])
                    good = {"rel3": 0.9, "rel1": 0.8, "x1": 0.3, "x2": 0.2, "x3": 0.1}
                    bad = {"rel3": 0.2, "rel1": 0.1, "x1": 0.9, "x2": 0.8, "x3": 0.7}
                    sr_scores[qid] = good if winner == "sr" else bad
                    br_scores[qid] = bad if winner == "sr" else good
            qrels = Qrels(qrels)
            br_ranker = ScoreFileRanker(br_scores)
            sr_ranker = ScoreFileRanker(sr_scores)

            per_query = {}
            for query in queries:
                judged = qrels.for_query(query.query_id)
                n_br = ndcg_at_k(br_ranker.rerank_query(query, candidates[query.query_id]), judged)
                n_sr = ndcg_at_k(sr_ranker.rerank_query(query, candidates[query.query_id]), judged)
                per_query[query.query_id] = (n_br, n_sr)

            oracle_psi = {
                qid: 1.0 if n_sr > n_br else 0.0 for qid, (n_br, n_sr) in per_query.items()
            }
            provider = FileQppProvider(oracle_psi)
            routed, decisions = route_qpp(
                br_ranker, sr_ranker, provider, queries, candidates, tau=0.5
            )

            fused_scores = []
            for query in queries:
                judged = qrels.for_query(query.query_id)
                n_routed = ndcg_at_k(routed.entries[query.query_id], judged)
                n_br, n_sr = per_query[query.query_id]
                assert n_routed == max(n_br, n_sr)
                fused_scores.append(n_routed)

            mean_routed = np.mean(fused_scores)
            mean_br = np.mean([v[0] for v in per_query.values()])
            mean_sr = np.mean([v[1] for v in per_query.values()])
            assert mean_routed > mean_br
            assert mean_routed > mean_sr


class TestCriterion5TrainingCorrectness:
    def test_gradients_match_finite_differences(self):
        with criterion(5, "training correctness (a) gradient check"):
            rng = np.random.default_rng(77)
            h = 1e-5
            worst = 0.0
            for trial in range(100):
                n, d = 10, 6
                features = rng.normal(size=(n, d))
                # alternate binary (ranker-style) and soft (QPP-style) targets
                if trial % 2 == 0:
                    targets = rng.integers(0, 2, size=n).astype(float)
                else:
                    targets = rng.uniform(0, 1, size=n)
                weights = rng.normal(scale=0.6, size=d)
                bias = float(rng.normal(scale=0.6))
                grad_w, grad_b = bce_gradient(features, targets, expit(features @ weights + bias))

                def loss_at(w, b):
                    return bce_loss(targets, expit(features @ w + b))

                for j in range(d):
                    delta = np.zeros(d)
                    delta[j] = h
                    fd = (loss_at(weights + delta, bias) - loss_at(weights - delta, bias)) / (2 * h)
                    worst = max(worst, abs(grad_w[j] - fd) / max(abs(fd), 1e-8))
                fd_b = (loss_at(weights, bias + h) - loss_at(weights, bias - h)) / (2 * h)
                worst = max(worst, abs(grad_b - fd_b) / max(abs(fd_b), 1e-8))
            assert worst < 1e-4

    def test_loss_non_increasing_on_shipped_fixtures(self):
        with criterion(5, "training correctness (b) loss curves"):
            ranker_model = train(toy_ranker_instances(), epochs=500, learning_rate=0.01)
            curve = ranker_model.metadata["loss_curve"]
            assert len(curve) == 501
            assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))

            corpus = [Document(f"d{i}", f"filler text number {i}") for i in range(12)]
            index = build_index(corpus)
            qpp_model = train_qpp(toy_qpp_set(), index, epochs=500, learning_rate=0.05)
            curve = qpp_model.metadata["loss_curve"]
            assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_separable_toy_set_accuracy(self):
        with criterion(5, "training correctness (c) separable accuracy"):
            training_set = toy_ranker_instances()
            overlap, labels = training_set.features[:, 1], training_set.labels
            assert min(overlap[labels == 1]) > max(overlap[labels == 0])  # brute-force check
            model = train(training_set, epochs=500, learning_rate=0.1)
            correct = sum(
                (score(model, row) >= 0.5) == bool(label)
                for row, label in zip(training_set.features, labels)
            )
            assert correct / len(training_set) >= 0.95


class TestCriterion6EndToEndPipeline:
    def test_full_cli_pipeline_under_60s_and_wqpps_beats_br(self, tmp_path, child_env):
        with criterion(6, "end-to-end pipeline"):
            write_benchmark(tmp_path, seed=7)
            (tmp_path / "config.json").write_text(
                json.dumps(
                    {
                        "paths": {
                            "corpus": "corpus.jsonl",
                            "train_queries": "queries.tsv",
                            "train_qrels": "qrels.txt",
                            "test_queries": "queries.tsv",
                            "test_qrels": "qrels.txt",
                        },
                    }
                )
            )
            steps = [
                ["index"],
                ["enrich"],
                ["train", "--which", "br"],
                ["train", "--which", "sr"],
                ["train", "--which", "qpp"],
                ["run", "--method", "br"],
                ["run", "--method", "sr"],
                ["run", "--method", "bsf"],
                ["run", "--method", "r_qpp"],
                ["run", "--method", "w_qpps"],
                [
                    "eval",
                    "work/runs/br.txt",
                    "work/runs/bsf.txt",
                    "work/runs/r_qpp.txt",
                    "work/runs/w_qpps.txt",
                    "--baseline",
                    "br",
                ],
            ]
            start = time.monotonic()
            for step in steps:
                result = subprocess.run(
                    [sys.executable, "-m", "hardrank.cli", *step, "--config", "config.json"],
                    cwd=tmp_path,
                    env=child_env,
                    capture_output=True,
                    text=True,
                )
                assert result.returncode == 0, f"{step}: {result.stderr}"
            elapsed = time.monotonic() - start
            assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"

            qrels = parse_qrels((tmp_path / "qrels.txt").read_text().splitlines())
            runs = {
                name: read_run_file(tmp_path / "work" / "runs" / f"{name}.txt")
                for name in ("br", "w_qpps")
            }
            report = build_report(runs, qrels, baseline="br")
            # each system's mean nDCG, the first of METRIC_NAMES
            means = {name: row[0] for name, row in zip(report.systems, report.means)}
            br_ndcg, wqpps_ndcg = means["br"], means["w_qpps"]
            assert wqpps_ndcg >= br_ndcg, f"w_qpps {wqpps_ndcg} < br {br_ndcg}"


def _random_run(rng):
    entries = {}
    for q in range(rng.randint(1, 4)):
        qid = f"q{rng.randint(0, 999)}_{q}"
        docs = rng.sample(range(10000), rng.randint(1, 10))
        entries[qid] = rank_records([(f"d{i}", rng.uniform(-1e3, 1e3)) for i in docs])
    return RunList(entries=entries, tag=f"t{rng.randint(0, 99)}")


def _random_ranker_model(rng):
    return LogisticScorer(
        weights=np.array([rng.uniform(-5, 5) for _ in range(6)]),
        bias=rng.uniform(-2, 2),
        feature_means=np.array([rng.uniform(-3, 3) for _ in range(6)]),
        feature_stds=np.array([rng.uniform(0.1, 4) for _ in range(6)]),
        metadata={"epochs": rng.randint(1, 500), "loss_curve": [rng.random() for _ in range(4)]},
    )


def _random_qpp_model(rng):
    return LogisticScorer(
        weights=np.array([rng.uniform(-5, 5) for _ in range(6)]),
        bias=rng.uniform(-2, 2),
        feature_means=np.array([rng.uniform(-3, 3) for _ in range(6)]),
        feature_stds=np.array([rng.uniform(0.1, 4) for _ in range(6)]),
        metadata={
            "k": rng.randint(1, 100),
            "orientation": "hardness",
            "n_queries": rng.randint(2, 500),
        },
        kind="qpp",
    )


class TestCriterion7FormatRoundTrips:
    def test_1000_randomized_round_trips(self, tmp_path):
        with criterion(7, "format round-trips"):
            rng = random.Random(13579)
            # run files, which the fusion stages read back, take half the cases
            for _ in range(500):
                run = _random_run(rng)
                assert parse_run(write_run(run)) == run
            for _ in range(250):
                qrels = Qrels(
                    {
                        (f"q{rng.randint(0, 99)}", f"d{rng.randint(0, 999)}"): rng.randint(0, 3)
                        for _ in range(rng.randint(1, 30))
                    }
                )
                assert parse_qrels(write_qrels(qrels)) == qrels
            # both kinds of model go through the one save/load pair
            model_path = tmp_path / "model.json"
            for i in range(250):
                model = _random_ranker_model(rng) if i % 2 == 0 else _random_qpp_model(rng)
                save_scorer(model, model_path)
                assert load_scorer(model_path, model.kind) == model


class TestCriterion8Significance:
    def test_paired_test_example_and_two_level_flags(self):
        with criterion(8, "significance machinery"):
            result = paired_test([0.1, 0.2, 0.3], [0.0, 0.0, 0.0])
            assert result.t == pytest.approx(3.4641, abs=1e-4)
            assert result.df == 2
            assert result.p_two_tailed == pytest.approx(0.0742, abs=1e-3)
            assert result.level == 90
