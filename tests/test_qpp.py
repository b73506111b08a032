"""Hardness-estimator features, soft-target training, and providers."""

import json
import math

import numpy as np
import pytest

from hardrank.corpus_io import Document, Query, rank_records
from hardrank.lexical_retrieval import build_index
from hardrank.linear_model import LogisticScorer, bce_loss, load_scorer, save_scorer
from hardrank.qpp import (
    FileQppProvider,
    ModelQppProvider,
    QppEstimate,
    estimate,
    estimate_batch,
    qpp_features,
    train_qpp,
)


@pytest.fixture
def index():
    return build_index(
        [
            Document("d1", "alpha beta gamma"),
            Document("d2", "alpha delta"),
            Document("d3", "epsilon zeta eta theta"),
            Document("d4", "beta beta gamma"),
            Document("d5", "iota kappa"),
        ]
    )


def entry(scores):
    return rank_records([(f"d{i}", s) for i, s in enumerate(scores)])


def unit_model(k=10):
    """An untrained QPP scorer: zero weights, identity z-scores."""
    return LogisticScorer(
        weights=np.zeros(6),
        bias=0.0,
        feature_means=np.zeros(6),
        feature_stds=np.ones(6),
        metadata={"k": k, "orientation": "hardness"},
        kind="qpp",
    )


class TestQppFeatures:
    def test_equal_scores(self, index):
        feats = qpp_features(Query("q", "alpha"), entry([2.0, 2.0, 2.0]), index)
        assert feats[0] == 2.0  # mean
        assert feats[1] == 0.0  # stdev
        assert feats[2] == 2.0  # max
        assert feats[3] == 0.0  # gap

    def test_k1_degenerate(self, index):
        feats = qpp_features(Query("q", "alpha"), entry([5.0]), index)
        assert feats[1] == 0.0
        assert feats[3] == 0.0
        assert feats[0] == feats[2] == 5.0

    def test_hand_case(self, index):
        feats = qpp_features(Query("q", "alpha beta"), entry([3.0, 2.0, 1.0]), index)
        assert feats[0] == pytest.approx(2.0)
        assert feats[3] == pytest.approx(2.0)
        assert feats[4] == 2.0  # query length
        # mean idf: df(alpha)=2, df(beta)=2, N=5 -> ln(3.5/2.5) each
        assert feats[5] == pytest.approx(math.log(3.5 / 2.5))

    def test_unindexed_term_gets_df0_idf(self, index):
        feats = qpp_features(Query("q", "zzz"), entry([1.0]), index)
        assert feats[5] == pytest.approx(math.log(5.5 / 0.5))

    def test_empty_topk_is_error(self, index):
        with pytest.raises(ValueError):
            qpp_features(Query("q", "alpha"), [], index)


class TestSoftTargetLoss:
    def test_loss_zero_when_prediction_equals_binary_target(self):
        # zero up to the clamp: exact 0 and 1 are clipped to 1e-12 and 1 - 1e-12
        assert bce_loss(np.array([0.0, 1.0]), np.array([0.0, 1.0])) == -math.log(1 - 1e-12)

    def test_half_target_half_prediction_is_ln2(self):
        assert bce_loss(np.array([0.5]), np.array([0.5])) == pytest.approx(math.log(2))


class TestTrainQpp:
    def _labeled(self, index):
        return [
            (Query("q1", "alpha beta"), entry([9.0, 5.0, 1.0]), 0.9),
            (Query("q2", "zzz yyy"), entry([0.5, 0.4]), 0.1),
            (Query("q3", "epsilon"), entry([4.0, 3.0, 2.0]), 0.7),
            (Query("q4", "kappa qqq"), entry([0.9, 0.2]), 0.2),
        ]

    def test_full_lists_train_the_model_their_top_k_train(self, index):
        ranked = [
            (Query("q1", "alpha beta"), entry([9.0, 5.0, 1.0, 0.5, 0.4]), 0.9),
            (Query("q2", "zzz yyy"), entry([0.5, 0.4, 0.3, 0.2]), 0.1),
            (Query("q3", "epsilon"), entry([4.0, 3.0]), 0.7),
        ]
        top = [(query, hits[:3], label) for query, hits, label in ranked]
        model = train_qpp(ranked, index, epochs=50, k=3)
        assert model == train_qpp(top, index, epochs=50, k=3)
        assert model != train_qpp(ranked, index, epochs=50, k=4)

    def test_label_out_of_range_rejected(self, index):
        bad = [(Query("q1", "a"), entry([1.0]), 1.2), (Query("q2", "b"), entry([1.0]), 0.5)]
        with pytest.raises(ValueError):
            train_qpp(bad, index)

    def test_needs_two_queries(self, index):
        with pytest.raises(ValueError):
            train_qpp([(Query("q1", "a"), entry([1.0]), 0.5)], index)

    def test_loss_non_increasing(self, index):
        model = train_qpp(self._labeled(index), index, epochs=300, learning_rate=0.05)
        losses = model.metadata["loss_curve"]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_estimates_in_open_interval_and_ordered_by_hardness(self, index):
        model = train_qpp(self._labeled(index), index, epochs=500, learning_rate=0.1)
        psis = {}
        for query, topk, label in self._labeled(index):
            est = estimate(model, query, topk, index)
            assert 0.0 < est.psi < 1.0
            psis[query.query_id] = est.psi
        # q2 (label 0.1: retrieval failed -> hard) above q1 (label 0.9: easy)
        assert psis["q2"] > psis["q1"]


class TestEstimate:
    def _unit_model(self, **kwargs):
        return unit_model(**kwargs)

    def test_zero_weight_model_gives_half(self, index):
        est = estimate(self._unit_model(), Query("q", "alpha"), entry([1.0]), index)
        assert est.psi == 0.5

    def test_deterministic(self, index):
        model = self._unit_model()
        model.weights = np.array([0.3, 0, 0, 0, 0, 0])
        a = estimate(model, Query("q", "alpha"), entry([2.0, 1.0]), index)
        b = estimate(model, Query("q", "alpha"), entry([2.0, 1.0]), index)
        assert a == b

    def test_psi_falls_as_the_effectiveness_feature_rises(self, index):
        # the model predicts effectiveness from the weighted feature; psi is hardness
        model = self._unit_model()
        model.weights = np.array([1.0, 0, 0, 0, 0, 0])
        lo = estimate(model, Query("q", "alpha"), entry([1.0, 1.0]), index)
        hi = estimate(model, Query("q", "alpha"), entry([5.0, 5.0]), index)
        assert hi.psi < lo.psi

    def test_psi_is_one_minus_the_predicted_effectiveness(self, index):
        model = self._unit_model()
        model.weights = np.array([2.0, 0, 0, 0, 0, 0])
        query, topk = Query("q", "alpha"), entry([3.0])
        effectiveness = model.score_rows(qpp_features(query, topk, index)[None, :])[0]
        assert estimate(model, query, topk, index).psi == 1.0 - effectiveness

    def test_empty_topk_is_error(self, index):
        with pytest.raises(ValueError):
            estimate(self._unit_model(), Query("q", "alpha"), [], index)

    def test_k_prefix_used(self, index):
        model = self._unit_model(k=2)
        model.weights = np.array([1.0, 0, 0, 0, 0, 0])
        full = estimate(model, Query("q", "alpha"), entry([5.0, 4.0, 0.1, 0.1]), index)
        prefix = estimate(model, Query("q", "alpha"), entry([5.0, 4.0]), index)
        assert full.psi == prefix.psi


class TestEstimateBatch:
    def test_psi_by_query_id_for_each_query_with_candidates(self, index):
        model = unit_model()
        model.weights = np.array([0.5, 0, 0, 0, 0, 0.25])
        queries = [Query("q2", "alpha beta"), Query("q0", "zzz"), Query("q1", "gamma")]
        candidates = {"q1": entry([4.0, 1.0]), "q2": entry([2.0]), "q9": entry([1.0])}
        psi = estimate_batch(model, index, queries, candidates)
        assert psi == {qid: estimate(model, q, candidates[qid], index).psi
                       for q in queries if (qid := q.query_id) in candidates}
        assert list(psi) == ["q2", "q1"]

    def test_no_query_with_candidates_gives_no_psi(self, index):
        assert estimate_batch(unit_model(), index, [Query("q", "alpha")], {}) == {}


class TestFileProvider:
    def test_unknown_query_error(self):
        provider = FileQppProvider({"q1": 0.5})
        with pytest.raises(ValueError, match="q2"):
            provider.estimate_query(Query("q2", "x"))


class TestQppEstimateInvariant:
    def test_psi_bounds_enforced(self):
        with pytest.raises(ValueError):
            QppEstimate("q1", 1.5)


class TestPersistence:
    def test_roundtrip(self, index, tmp_path):
        labeled = [
            (Query("q1", "alpha"), entry([3.0, 1.0]), 0.8),
            (Query("q2", "zzz"), entry([0.2]), 0.2),
        ]
        model = train_qpp(labeled, index, epochs=30)
        path = tmp_path / "qpp.json"
        save_scorer(model, path)
        assert load_scorer(path, "qpp") == model
        assert (model.metadata["k"], model.metadata["orientation"]) == (10, "hardness")

    def test_ranker_file_rejected_naming_the_path(self, tmp_path):
        path = tmp_path / "qpp.json"
        save_scorer(LogisticScorer(np.zeros(6), 0.0, np.zeros(6), np.ones(6)), path)
        with pytest.raises(ValueError, match=r"qpp\.json.*'ranker' model, not a 'qpp'"):
            load_scorer(path, "qpp")

    def test_version_1_file_rejected_naming_the_path(self, tmp_path):
        path = tmp_path / "qpp.json"
        path.write_text(json.dumps({
            "format": "hardrank-qpp", "version": 1, "weights": [0.0] * 6, "bias": 0.0,
            "feature_means": [0.0] * 6, "feature_stds": [1.0] * 6, "k": 10,
            "orientation": "hardness", "metadata": {},
        }))
        with pytest.raises(ValueError, match=r"qpp\.json.*'hardrank-qpp' version 1"):
            load_scorer(path, "qpp")

    @pytest.mark.parametrize(
        "settings",
        [{"k": 0}, {"k": "10"}, {"k": True}, {"k": 2.0}, {"orientation": "up"}, {"k": None},
         {"orientation": "effectiveness"}],
    )
    def test_bad_k_or_orientation_rejected_on_load(self, tmp_path, settings):
        path = tmp_path / "qpp.json"
        save_scorer(unit_model(), path)
        payload = json.loads(path.read_text())
        payload["metadata"].update(settings)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"qpp\.json.*k >= 1"):
            load_scorer(path, "qpp")

    @pytest.mark.parametrize(
        "settings", [{"k": 0}, {"orientation": "up"}, {"orientation": "effectiveness"}]
    )
    def test_bad_k_or_orientation_rejected_at_training(self, index, settings):
        labeled = [
            (Query("q1", "alpha"), entry([3.0, 1.0]), 0.8),
            (Query("q2", "zzz"), entry([0.2]), 0.2),
        ]
        with pytest.raises(ValueError, match="k >= 1"):
            train_qpp(labeled, index, epochs=5, **settings)


class TestModelProvider:
    def test_requires_topk(self, index):
        provider = ModelQppProvider(unit_model(), index)
        with pytest.raises(ValueError, match="q1"):
            provider.estimate_query(Query("q1", "alpha"), [])
