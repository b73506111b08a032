"""Feature extraction, logistic training (with finite-difference gradient
oracle), reranking, and model persistence."""

import json
import logging
import math
import random

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from hardrank.corpus_io import Document, Qrels, Query, Ranking, RunRecord, rank_records
from hardrank.lexical_retrieval import build_index
from hardrank.linear_model import (
    DivergedFit,
    LogisticScorer,
    bce_gradient,
    bce_loss,
    fit_logistic,
    load_scorer,
    open_unit_sigmoids,
    save_scorer,
)
from hardrank.pointwise_ranker import (
    ScoreFileRanker,
    TrainingSet,
    build_training_set,
    extract_features,
    rerank,
    train,
)
from oracles import score, toy_ranker_instances


@pytest.fixture
def small_corpus():
    docs = [
        Document("d1", "solar panels convert sunlight into electricity"),
        Document("d2", "wind turbines spin to generate power"),
        Document("d3", "solar energy and wind energy are renewable power sources"),
    ]
    return docs, build_index(docs)


class TestExtractFeatures:
    def test_disjoint_terms_zero_overlap_and_cosine(self, small_corpus):
        docs, idx = small_corpus
        feats = extract_features("zebra quagga", docs[0], idx)
        assert feats[1] == 0.0  # overlap
        assert feats[2] == 0.0  # cosine

    def test_doc_equal_to_query_full_overlap(self, small_corpus):
        docs, idx = small_corpus
        feats = extract_features(docs[1].text, docs[1], idx)
        assert feats[1] == 1.0
        assert feats[2] == pytest.approx(1.0)

    def test_hand_computed_vector(self, small_corpus):
        # query "solar power", doc d3 = "solar energy and wind energy are
        # renewable power sources" (9 tokens). Hand evaluation:
        #   overlap: both terms present -> 1.0
        #   cosine: q = {solar:1, power:1}; d tf = {solar:1, energy:2, and:1,
        #     wind:1, are:1, renewable:1, power:1, sources:1};
        #     dot = 1*1 + 1*1 = 2; |q| = sqrt(2); |d| = sqrt(1+4+1+1+1+1+1+1)
        #   query_length = 2; log_doc_length = ln(1 + 9)
        #   early_coverage: both terms within first 20 tokens -> 1.0
        docs, idx = small_corpus
        feats = extract_features("solar power", docs[2], idx)
        d_norm = math.sqrt(1 + 4 + 1 + 1 + 1 + 1 + 1 + 1)
        assert feats[1] == 1.0
        assert feats[2] == pytest.approx(2 / (math.sqrt(2) * d_norm))
        assert feats[3] == 2.0
        assert feats[4] == pytest.approx(math.log(10))
        assert feats[5] == 1.0

    def test_bm25_feature_matches_hand_formula(self, small_corpus):
        # term "wind": df=2 of N=3 -> idf = max(0, ln(1.5/2.5)) = 0
        # term "turbines": df=1 -> idf = ln(2.5/1.5); d2 len 6, avg 7
        docs, idx = small_corpus
        feats = extract_features("wind turbines", docs[1], idx)
        idf = math.log(2.5 / 1.5)
        expected = idf * 1 * 1.9 / (1 + 0.9 * (1 - 0.4 + 0.4 * 6 / 7))
        assert feats[0] == pytest.approx(expected, rel=1e-12)

    def test_ratios_bounded(self, small_corpus):
        docs, idx = small_corpus
        rng = random.Random(5)
        vocab = ["solar", "wind", "power", "zebra", "energy"]
        for _ in range(50):
            q = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
            feats = extract_features(q, rng.choice(docs), idx)
            assert np.all(np.isfinite(feats))
            assert 0.0 <= feats[1] <= 1.0
            assert 0.0 <= feats[2] <= 1.0 + 1e-12
            assert 0.0 <= feats[5] <= 1.0


class TestScoreRows:
    @staticmethod
    def _score(model, row):
        return float(model.score_rows(np.asarray(row, dtype=float)[np.newaxis])[0])

    def _zero_model(self):
        return LogisticScorer(
            weights=np.zeros(6),
            bias=0.0,
            feature_means=np.zeros(6),
            feature_stds=np.ones(6),
        )

    def test_zero_model_scores_half(self):
        model = self._zero_model()
        assert self._score(model, [3.0, 0.5, 0.2, 4.0, 2.0, 1.0]) == 0.5

    def test_sigmoid_monotone_towards_one(self):
        model = self._zero_model()
        model.weights = np.array([1.0, 0, 0, 0, 0, 0])
        values = [self._score(model, [x, 0, 0, 0, 0, 0]) for x in (0, 2, 10, 20)]
        assert values[0] == 0.5
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0

    def test_output_in_open_interval_even_when_saturated(self):
        model = self._zero_model()
        model.weights = np.full(6, 50.0)
        assert 0.0 < self._score(model, np.full(6, 100.0)) < 1.0
        assert 0.0 < self._score(model, np.full(6, -100.0)) < 1.0

    def test_nan_feature_scores_nan_as_score_rows_does(self):
        model = self._zero_model()
        row = np.array([np.nan, 0, 0, 0, 0, 0])
        assert math.isnan(score(model, row))
        assert math.isnan(model.score_rows(row[np.newaxis])[0])


# where the sigmoid saturates to the clamp (+/-27.6, 28), where scoring clips
# the logits (40) and where exp overflows (709.8)
_SIGMOID_EDGES = (
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
    5e-324, -5e-324, 2.2250738585072014e-308,  # subnormals and the smallest normal
    *(sign * edge for edge in (1.0, 27.6, 28.0, 40.0, 709.8, 1e308) for sign in (1, -1)),
)
_doubles = st.one_of(
    st.floats(),  # every finite double, +/-inf, NaN and the subnormals
    # any 64-bit pattern, so NaNs with any sign and payload too
    st.integers(-2**63, 2**63 - 1).map(lambda bits: float(np.int64(bits).view(np.float64))),
)


class TestOpenUnitSigmoids:
    @settings(max_examples=500, deadline=None)
    @given(x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=12),
                        elements=_doubles))
    @example(x=np.array(_SIGMOID_EDGES))
    @example(x=np.array(_SIGMOID_EDGES).reshape(3, 7))
    def test_equals_clamped_scipy_expit_bit_for_bit(self, x):
        # one sigmoid: scoring's math.exp loop must not drift from the expit training uses
        expected = np.clip(expit(x), 1e-12, 1 - 1e-12)
        got = open_unit_sigmoids(x)
        assert got.shape == x.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class TestBceLoss:
    def test_half_prediction_positive_label_is_ln2(self):
        assert bce_loss(np.array([1.0]), np.array([0.5])) == pytest.approx(math.log(2))

    def test_perfect_binary_prediction_zero_loss(self):
        # zero up to the clamp: exact 1 and 0 are clipped to 1 - 1e-12 and 1e-12
        assert bce_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == -math.log(1 - 1e-12)

    def test_soft_target_ln2_at_half(self):
        assert bce_loss(np.array([0.5]), np.array([0.5])) == pytest.approx(math.log(2))

    @pytest.mark.parametrize("target, pred, gap", [(1.0, 0.0, 1e-12), (0.0, 1.0, 1 - (1 - 1e-12))])
    def test_a_certain_wrong_prediction_has_a_finite_loss(self, target, pred, gap):
        # the clamp clips 0 and 1 to 1e-12 and 1 - 1e-12, so the true label keeps `gap`
        assert bce_loss(np.array([target]), np.array([pred])) == -math.log(gap)


class TestGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(11)
        h = 1e-5
        worst = 0.0
        for _ in range(100):
            n, d = 8, 6
            features = rng.normal(size=(n, d))
            targets = rng.integers(0, 2, size=n).astype(float)
            weights = rng.normal(scale=0.5, size=d)
            bias = float(rng.normal(scale=0.5))

            grad_w, grad_b = bce_gradient(features, targets, expit(features @ weights + bias))

            def loss_at(w, b):
                return bce_loss(targets, expit(features @ w + b))

            fd_w = np.zeros(d)
            for j in range(d):
                delta = np.zeros(d)
                delta[j] = h
                fd_w[j] = (loss_at(weights + delta, bias) - loss_at(weights - delta, bias)) / (2 * h)
            fd_b = (loss_at(weights, bias + h) - loss_at(weights, bias - h)) / (2 * h)

            for analytic, numeric in list(zip(grad_w, fd_w)) + [(grad_b, fd_b)]:
                rel = abs(analytic - numeric) / max(abs(numeric), 1e-8)
                worst = max(worst, rel)
        assert worst < 1e-4


class TestTrain:
    def test_rejects_empty_and_single_class(self):
        with pytest.raises(ValueError):
            train(TrainingSet([], np.empty((0, 6)), np.empty(0)))
        ones = TrainingSet([("q", "d")] * 3, np.ones((3, 6)), np.ones(3))
        with pytest.raises(ValueError):
            train(ones)

    def test_separable_toy_set_accuracy(self):
        training_set = toy_ranker_instances()
        # brute-force separability check on the overlap feature
        overlap, labels = training_set.features[:, 1], training_set.labels
        assert min(overlap[labels == 1]) > max(overlap[labels == 0])

        model = train(training_set, epochs=500, learning_rate=0.1)
        correct = sum(
            (score(model, row) >= 0.5) == bool(label)
            for row, label in zip(training_set.features, labels)
        )
        assert correct / len(training_set) >= 0.95

    def test_loss_non_increasing_small_lr(self):
        instances = toy_ranker_instances()
        model = train(instances, epochs=200, learning_rate=0.01)
        losses = model.metadata["loss_curve"]
        assert len(losses) == 201
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    @pytest.mark.parametrize("epochs", [1, 7])
    def test_one_forward_pass_per_epoch(self, monkeypatch, epochs):
        calls = []

        def counting_expit(x):
            calls.append(1)
            return expit(x)

        # fit_logistic imports expit from scipy.special when called, so it gets this one
        monkeypatch.setattr(scipy.special, "expit", counting_expit)
        rng = np.random.default_rng(5)
        features = rng.normal(size=(20, 3))
        targets = rng.integers(0, 2, size=20).astype(float)
        weights, bias, losses = fit_logistic(features, targets, epochs, 0.1)
        assert len(calls) == epochs
        assert len(losses) == epochs + 1
        # the last loss is the loss of the returned parameters
        assert losses[-1] == bce_loss(targets, expit(features @ weights + bias))

    def test_overflowing_logit_refused(self):
        features, targets = np.array([[3.0], [-3.0]]), np.array([1.0, 0.0])
        # the weight after one step, 1.5e308, is finite; the logit 4.5e308 is not
        with pytest.raises(DivergedFit, match="a logit is not finite after epoch 1"):
            fit_logistic(features, targets, 10, 1e308)

    def test_rising_loss_refused(self):
        # not separable: one feature value is labelled both ways, so a step
        # far too long overshoots into a loss higher than at init
        features = np.array([[-1.0], [-1.0], [1.0], [1.0], [1.0]])
        targets = np.array([0.0, 1.0, 1.0, 1.0, 0.0])
        losses = fit_logistic(features, targets, 20, 1.0)[-1]
        assert losses[-1] < losses[0]
        with pytest.raises(DivergedFit, match="the loss rose from 0.6931 to"):
            fit_logistic(features, targets, 20, 1e4)

    def test_deterministic(self):
        instances = toy_ranker_instances()
        m1 = train(instances, epochs=50, learning_rate=0.1, seed=1)
        m2 = train(instances, epochs=50, learning_rate=0.1, seed=1)
        assert m1 == m2

    def test_degenerate_feature_gets_unit_std(self):
        training_set = TrainingSet(
            [("q1", "d1"), ("q2", "d2")],
            np.array([(1.0, 0.9, 0.0, 5.0, 2.0, 0.0), (1.0, 0.1, 0.0, 5.0, 2.0, 0.0)]),
            np.array([1.0, 0.0]),
        )
        model = train(training_set, epochs=10)
        assert model.feature_stds[0] == 1.0  # constant feature


class TestRerank:
    def test_zero_model_ties_break_by_doc_id(self, small_corpus):
        docs, idx = small_corpus
        model = LogisticScorer(np.zeros(6), 0.0, np.zeros(6), np.ones(6))
        candidates = rank_records([("d2", 3.0), ("d1", 2.0), ("d3", 1.0)])
        out = rerank(model, "solar", candidates, idx)
        assert [r.doc_id for r in out] == ["d1", "d2", "d3"]
        assert all(r.score == 0.5 for r in out)

    def test_ties_follow_doc_id_order_not_index_or_candidate_order(self):
        # the index's build order, the candidate order and the doc_id order
        # all differ, and "d10" sorts before "d2"
        docs = [Document(d, "solar wind") for d in ("zeta", "d2", "d10", "alpha", "d1")]
        index = build_index(docs)
        model = LogisticScorer(np.zeros(6), 0.0, np.zeros(6), np.ones(6))
        candidates = Ranking(("d1", "zeta", "d10", "alpha", "d2"), np.ones(5))
        out = rerank(model, "solar", candidates, index)
        assert [r.doc_id for r in out] == ["alpha", "d1", "d10", "d2", "zeta"]
        assert all(r.score == 0.5 for r in out)

    def test_single_candidate(self, small_corpus):
        docs, idx = small_corpus
        model = LogisticScorer(np.ones(6), 0.0, np.zeros(6), np.ones(6))
        out = rerank(model, "wind", rank_records([("d2", 1.0)]), idx)
        assert len(out) == 1
        assert out[0].doc_id == "d2"

    def test_order_matches_bruteforce_scoring(self, small_corpus):
        docs, idx = small_corpus
        corpus = {d.doc_id: d for d in docs}
        instances = toy_ranker_instances()
        model = train(instances, epochs=100)
        candidates = rank_records([("d1", 5.0), ("d2", 4.0), ("d3", 3.0)])
        out = rerank(model, "solar wind power", candidates, idx)
        brute = sorted(
            (
                (-score(model, extract_features("solar wind power", corpus[c.doc_id], idx)), c.doc_id)
                for c in candidates
            )
        )
        assert [r.doc_id for r in out] == [doc_id for _, doc_id in brute]
        assert {r.doc_id for r in out} == {c.doc_id for c in candidates}

    def test_missing_doc_is_error(self, small_corpus):
        docs, idx = small_corpus
        model = LogisticScorer(np.zeros(6), 0.0, np.zeros(6), np.ones(6))
        with pytest.raises(ValueError, match="dX"):
            rerank(model, "solar", rank_records([("dX", 1.0)]), idx)


class TestScoreFileRanker:
    def test_returns_stored_scores(self):
        ranker = ScoreFileRanker({"q1": {"d1": 0.9}})
        out = ranker.rerank_query(Query("q1", "x"), rank_records([("d1", 1.0)]))
        assert list(out) == [RunRecord("d1", 0.9)]

    def test_missing_pair_error_names_pair(self):
        ranker = ScoreFileRanker({"q1": {"d1": 0.9}})
        with pytest.raises(ValueError, match=r"q1.*d2"):
            ranker.rerank_query(Query("q1", "x"), rank_records([("d1", 1.0), ("d2", 0.5)]))

    def test_equal_scores_tie_break(self):
        ranker = ScoreFileRanker({"q1": {"b": 0.5, "a": 0.5}})
        out = ranker.rerank_query(Query("q1", "x"), rank_records([("b", 2.0), ("a", 1.0)]))
        assert [r.doc_id for r in out] == ["a", "b"]


class TestBuildTrainingSet:
    def test_labels_and_negative_sampling(self, small_corpus):
        docs, idx = small_corpus
        corpus = {d.doc_id: d for d in docs}
        qrels = Qrels({("q1", "d1"): 2, ("q1", "d2"): 0})
        training_set = build_training_set(
            [("q1", "solar wind power energy")], qrels, idx, corpus, seed=1
        )
        by_label = {d: label for (_, d), label in zip(training_set.pairs, training_set.labels)}
        assert by_label["d1"] == 1
        assert all(lbl == 0 for d, lbl in by_label.items() if d != "d1")

    def test_deterministic_given_seed(self, small_corpus):
        docs, idx = small_corpus
        corpus = {d.doc_id: d for d in docs}
        qrels = Qrels({("q1", "d1"): 2})
        a = build_training_set([("q1", "solar energy")], qrels, idx, corpus, seed=9)
        b = build_training_set([("q1", "solar energy")], qrels, idx, corpus, seed=9)
        assert a.pairs == b.pairs
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tolist() == b.labels.tolist()

    def test_missing_positives_get_one_warning_per_call(self, small_corpus, caplog):
        docs, idx = small_corpus
        corpus = {d.doc_id: d for d in docs}
        texts = [(f"q{i}", "solar wind power") for i in range(7)]
        judged = {(qid, "d1"): 1 for qid, _ in texts}
        judged.update({(qid, f"gone{qid}"): 2 for qid, _ in texts})
        judged[("q0", "gone-low")] = 0  # below the threshold: not a positive
        with caplog.at_level(logging.WARNING, logger="hardrank.pointwise_ranker"):
            training_set = build_training_set(texts, Qrels(judged), idx, corpus)
        assert [r.getMessage() for r in caplog.records] == [
            "positive judgments of documents not in the corpus: 7 skipped, first "
            "['goneq0', 'goneq1', 'goneq2', 'goneq3', 'goneq4']"
        ]
        assert {d for (_, d), label in zip(training_set.pairs, training_set.labels)
                if label} == {"d1"}


class TestPersistence:
    def test_roundtrip_exact(self, tmp_path):
        instances = toy_ranker_instances()
        model = train(instances, epochs=25, learning_rate=0.1)
        path = tmp_path / "model.json"
        save_scorer(model, path)
        assert load_scorer(path, "ranker") == model

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ValueError, match="x.json"):
            load_scorer(path, "ranker")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("weights", np.array([0.0, np.nan, 0, 0, 0, 0]), "weights holds a non-finite"),
            ("feature_means", np.full(6, np.inf), "feature_means holds a non-finite"),
            ("bias", -np.inf, "bias holds a non-finite"),
            ("feature_stds", np.array([1.0, 1, 1, 1, 1, -2]), "feature_stds .* not > 0"),
        ],
        ids=["nan_weight", "infinite_means", "infinite_bias", "negative_std"],
    )
    def test_scorer_that_cannot_score_cannot_be_built(self, field, value, message):
        parts = {"weights": np.zeros(6), "bias": 0.0, "feature_means": np.zeros(6),
                 "feature_stds": np.ones(6), field: value}
        with pytest.raises(ValueError, match=message):
            LogisticScorer(**parts)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("weights", [0.0, False, 0, 0, 0, 0], r"weights must hold numbers only, got \[0.0, F"),
            ("feature_means", ["0.0"] * 6, r"feature_means must hold numbers only, got \['0.0'"),
            ("feature_stds", 1.0, "feature_stds must hold numbers only, got 1.0"),
            ("bias", 10**400, "int too large to convert to float"),
            ("metadata", [["model_id", "m"]], r"metadata must be a JSON object, got \[\['model_id'"),
        ],
        ids=["bool_weight", "string_means", "scalar_stds", "huge_int_bias", "pairs_metadata"],
    )
    def test_non_numbers_rejected_naming_the_path(self, tmp_path, field, value, message):
        path = tmp_path / "model.json"
        save_scorer(LogisticScorer(np.zeros(6), 0.0, np.zeros(6), np.ones(6)), path)
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"model.json: {message}"):
            load_scorer(path, "ranker")
