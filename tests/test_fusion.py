"""Score normalization, CombSUM, routing, and weighted interpolation."""

import hashlib
import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hardrank.corpus_io import Query, Ranking, RunList, RunRecord, rank_records
from hardrank.evaluation import ndcg_at_k
from hardrank.fusion import (
    METHODS,
    NORMALIZATIONS,
    FusionConfig,
    bsf,
    normalize_scores,
    r_qpp,
    route_qpp,
    train_median_threshold,
    w_qpps,
    write_routing_log,
)
from hardrank.pointwise_ranker import ScoreFileRanker
from hardrank.qpp import FileQppProvider


def run_from(mapping, tag="t"):
    return RunList(
        entries={qid: rank_records(pairs.items()) for qid, pairs in mapping.items()},
        tag=tag,
    )


def order(run, qid):
    return [rec.doc_id for rec in run.entries[qid]]


def normalized(run, qid, normalize):
    """One query's scores by doc as fusion reads them, from the record oracle."""
    records = run.entries[qid]
    if normalize == "per_query_min_max":
        return oracles.normalize_scores(records)
    return {rec.doc_id: rec.score for rec in records}


def random_runs(seed, n_queries=6, n_docs=8):
    rng = random.Random(seed)
    doc_ids = [f"d{i}" for i in range(n_docs)]
    br, sr = {}, {}
    for q in range(n_queries):
        qid = f"q{q}"
        br[qid] = {d: rng.uniform(-5, 5) for d in doc_ids}
        sr[qid] = {d: rng.uniform(-5, 5) for d in doc_ids}
    return run_from(br, "br"), run_from(sr, "sr")


class TestNormalizeScores:
    def test_minmax_arithmetic(self):
        ranking = rank_records([("a", 2.0), ("b", 4.0), ("c", 6.0)])
        assert normalize_scores(ranking.scores).tolist() == [1.0, 0.5, 0.0]

    def test_constant_scores_map_to_half(self):
        ranking = rank_records([("a", 3.0), ("b", 3.0)])
        assert normalize_scores(ranking.scores).tolist() == [0.5, 0.5]

    def test_single_doc(self):
        assert normalize_scores(rank_records([("a", 9.0)]).scores).tolist() == [0.5]

    def test_order_preserved(self):
        rng = random.Random(1)
        ranking = rank_records([(f"d{i}", rng.uniform(-10, 10)) for i in range(10)])
        out = normalize_scores(ranking.scores).tolist()
        assert out == list(oracles.normalize_scores(ranking).values())
        assert out == sorted(out, reverse=True)

    def test_signed_zero_bounds_follow_list_order(self):
        # Python's min and max keep the first of equal values, so the first
        # zero in the list is the bound and decides the sign of 0 - lo
        for scores in ([1.0, 0.0, -0.0], [1.0, -0.0, 0.0], [0.0, -0.0], [-0.0, 0.0, -1.0]):
            records = [RunRecord(f"d{i}", s) for i, s in enumerate(scores)]
            expected = list(oracles.normalize_scores(records).values())
            got = normalize_scores(np.array(scores)).tolist()
            assert [s.hex() for s in got] == [s.hex() for s in expected], scores


class TestBsf:
    def test_sum_of_normalized_scores(self):
        br = run_from({"q1": {"a": 0.7, "b": 0.0}})
        sr = run_from({"q1": {"a": 0.4, "b": 0.0}})
        fused = bsf(br, sr, FusionConfig(method="bsf", normalize="none"))
        assert fused.entries["q1"][0] == RunRecord("a", pytest.approx(1.1))

    def test_identical_runs_preserve_ordering(self):
        br = run_from({"q1": {"a": 5.0, "b": 3.0, "c": 1.0}})
        fused = bsf(br, br, FusionConfig(method="bsf"))
        assert order(fused, "q1") == ["a", "b", "c"]

    def test_symmetry(self):
        br, sr = random_runs(4)
        assert bsf(br, sr).entries == bsf(sr, br).entries

    @pytest.mark.parametrize("normalize", ["per_query_min_max", "none"])
    def test_scores_equal_the_written_out_sum_bit_for_bit(self, normalize):
        br, sr = random_runs(6)
        fused = bsf(br, sr, FusionConfig(method="bsf", normalize=normalize))
        assert sorted(fused.entries) == sorted(br.entries)
        for qid, entry in fused.entries.items():
            br_scores = normalized(br, qid, normalize)
            sr_scores = normalized(sr, qid, normalize)
            expected = {d: br_scores[d] + sr_scores[d] for d in br_scores}
            assert entry == rank_records(expected.items())


def routing_runs():
    br = run_from({"q1": {"a": 0.9, "b": 0.1}, "q2": {"a": 0.8, "b": 0.2}}, "br")
    sr = run_from({"q1": {"a": 0.1, "b": 0.9}, "q2": {"a": 0.2, "b": 0.8}}, "sr")
    return br, sr


class TestRQpp:
    def test_high_psi_routes_to_sr(self):
        br, sr = routing_runs()
        run, decisions = r_qpp(br, sr, {"q1": 0.9, "q2": 0.1}, tau=0.5)
        assert order(run, "q1") == ["b", "a"]  # SR's ordering
        assert order(run, "q2") == ["a", "b"]  # BR's ordering
        assert [(d.query_id, d.route) for d in decisions] == [("q1", "sr"), ("q2", "br")]

    def test_boundary_inclusive_to_sr(self):
        br, sr = routing_runs()
        run, decisions = r_qpp(br, sr, {"q1": 0.5, "q2": 0.5}, tau=0.5)
        assert all(d.route == "sr" for d in decisions)
        assert run.entries == sr.entries

    def test_all_below_threshold_equals_br_run(self):
        br, sr = routing_runs()
        run, _ = r_qpp(br, sr, {"q1": 0.0, "q2": 0.0}, tau=0.5)
        assert run.entries == br.entries

    def test_missing_estimate_names_query(self):
        br, sr = routing_runs()
        with pytest.raises(ValueError, match="no hardness estimate for query 'q2'"):
            r_qpp(br, sr, {"q1": 0.5}, tau=0.5)

    def test_estimate_for_a_query_no_run_ranks_names_it(self):
        br, sr = routing_runs()
        with pytest.raises(ValueError, match="an estimate but no ranking for query 'q3'"):
            r_qpp(br, sr, {"q1": 0.5, "q2": 0.5, "q3": 0.5}, tau=0.5)

    def test_partition_every_query_once(self):
        br, sr = routing_runs()
        run, decisions = r_qpp(br, sr, {"q1": 0.7, "q2": 0.2}, tau=0.5)
        assert sorted(run.entries) == ["q1", "q2"]
        assert sorted(d.query_id for d in decisions) == ["q1", "q2"]

    def test_decisions_come_in_query_id_order_whatever_psi_order(self):
        br, sr = routing_runs()
        _, decisions = r_qpp(br, sr, {"q2": 0.2, "q1": 0.7}, tau=0.5)
        assert [(d.query_id, d.psi, d.route) for d in decisions] == \
            [("q1", 0.7, "sr"), ("q2", 0.2, "br")]
        assert decisions == r_qpp(br, sr, {"q1": 0.7, "q2": 0.2}, tau=0.5)[1]

    def test_routing_log_format(self):
        br, sr = routing_runs()
        _, decisions = r_qpp(br, sr, {"q1": 0.7, "q2": 0.2}, tau=0.5)
        lines = write_routing_log(decisions)
        assert lines == ["q1\t0.7\tsr", "q2\t0.2\tbr"]

    def test_psi_out_of_range_rejected(self):
        br, sr = routing_runs()
        with pytest.raises(ValueError, match="query 'q2'.*outside"):
            r_qpp(br, sr, {"q1": 0.5, "q2": -0.1}, tau=0.5)


class TestRouteQpp:
    def test_equals_r_qpp_over_the_reranked_runs(self):
        # the adapter reranks each query's candidates with both rankers and
        # routes the two runs; decisions follow the ids, not the queries
        br, sr = routing_runs()
        queries = [Query("q2", "two"), Query("q1", "one")]
        candidates = {q.query_id: rank_records([("a", 3.0), ("b", 2.0)]) for q in queries}
        psi = {"q2": 0.1, "q1": 0.9}
        routed = route_qpp(
            ScoreFileRanker.from_run(br), ScoreFileRanker.from_run(sr),
            FileQppProvider(psi), queries, candidates, tau=0.5,
        )
        assert routed == r_qpp(br, sr, psi, 0.5)
        assert [d.query_id for d in routed[1]] == ["q1", "q2"]


class TestRunTag:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("normalize", NORMALIZATIONS)
    @pytest.mark.parametrize("threshold", ["train_median", 0.0, 0.5, 1, 1.0])
    def test_every_tag_is_the_method_and_the_config_digest(self, method, normalize, threshold):
        config = FusionConfig(method, normalize, threshold)
        blob = json.dumps(
            {"method": method, "normalize": normalize, "routing_threshold": threshold},
            sort_keys=True,
        )
        digest = hashlib.sha1(blob.encode()).hexdigest()[:8]
        assert config.config_hash() == digest
        br, sr = run_from({"q1": {"a": 1.0, "b": 2.0}}), run_from({"q1": {"a": 2.0, "b": 0.5}})
        assert bsf(br, sr, config).tag == f"bsf-{digest}"
        assert r_qpp(br, sr, {"q1": 0.5}, 0.5, config)[0].tag == f"r_qpp-{digest}"
        assert w_qpps(br, sr, {"q1": 0.5}, config).tag == f"w_qpps-{digest}"

    def test_the_digest_is_not_a_compared_field(self):
        config = FusionConfig("bsf", "none", 0.25)
        assert config == FusionConfig("bsf", "none", 0.25) != FusionConfig("bsf", "none", 0.5)
        assert hash(config) == hash(FusionConfig("bsf", "none", 0.25))
        assert repr(config) == (
            "FusionConfig(method='bsf', normalize='none', routing_threshold=0.25)"
        )


@pytest.mark.parametrize("method", ["bsf", "w_qpps", "r_qpp"])
class TestPairing:
    @staticmethod
    def fuse(method, br, sr, normalize="per_query_min_max"):
        psi = {qid: 0.5 for qid in br.entries}
        config = FusionConfig(method, normalize)
        if method == "bsf":
            return bsf(br, sr, config)
        if method == "w_qpps":
            return w_qpps(br, sr, psi, config)
        return r_qpp(br, sr, psi, 0.5, config)

    def test_mismatched_documents_name_the_query(self, method):
        br = run_from({"q1": {"a": 1.0, "b": 0.5}, "q2": {"a": 9.0, "b": 6.0, "c": 3.0}})
        sr = run_from({"q1": {"a": 1.0, "b": 0.5}, "q2": {"a": 1.0, "b": 2.0}})
        with pytest.raises(ValueError, match=r"query 'q2': candidate sets differ on \['c'\]"):
            self.fuse(method, br, sr)

    def test_query_in_one_run_only_is_named(self, method):
        br, sr = random_runs(7)
        del sr.entries["q3"]
        with pytest.raises(ValueError, match="query 'q3' missing from one run"):
            self.fuse(method, br, sr)

    @pytest.mark.parametrize("twice", ["br", "sr"])
    def test_an_entry_that_ranks_a_document_twice_is_refused(self, method, twice):
        # the doc-id sets agree, so only the repeat tells the entries apart;
        # R-QPP at psi = tau would return SR's entry as it is
        runs = {side: run_from({"q1": {"a": 1.0}, "q2": {"a": 2.0, "b": 1.0}})
                for side in ("br", "sr")}
        runs[twice].entries["q2"] = Ranking(("b", "a", "a"), np.array([3.0, 2.0, 1.0]))
        with pytest.raises(ValueError, match="query 'q2': an entry ranks a document twice"):
            self.fuse(method, runs["br"], runs["sr"])

    @pytest.mark.parametrize("normalize", ["per_query_min_max", "none"])
    @pytest.mark.parametrize("empty", [("br",), ("sr",), ("br", "sr")])
    def test_an_empty_entry_is_refused_naming_its_query(self, method, normalize, empty):
        runs = {side: run_from({"q1": {"a": 1.0}, "q2": {"a": 2.0}}) for side in ("br", "sr")}
        for side in empty:
            runs[side].entries["q2"] = Ranking((), np.empty(0))
        with pytest.raises(ValueError, match="query 'q2' has an empty entry"):
            self.fuse(method, runs["br"], runs["sr"], normalize)


class TestWQpps:
    def test_interpolation_arithmetic(self):
        br = run_from({"q1": {"a": 0.25, "b": 0.0}})
        sr = run_from({"q1": {"a": 0.5, "b": 0.0}})
        fused = w_qpps(br, sr, {"q1": 0.8}, FusionConfig(normalize="none"))
        assert fused.entries["q1"][0].score == pytest.approx(0.8 * 0.5 + 0.2 * 0.25)

    def test_psi_one_matches_sr_ordering(self):
        br, sr = random_runs(11)
        psi = {qid: 1.0 for qid in br.entries}
        fused = w_qpps(br, sr, psi)
        for qid in sr.entries:
            assert order(fused, qid) == order(sr, qid)

    def test_psi_zero_matches_br_ordering(self):
        br, sr = random_runs(12)
        psi = {qid: 0.0 for qid in br.entries}
        fused = w_qpps(br, sr, psi)
        for qid in br.entries:
            assert order(fused, qid) == order(br, qid)

    def test_psi_half_matches_bsf_ordering(self):
        br, sr = random_runs(13)
        psi = {qid: 0.5 for qid in br.entries}
        config = FusionConfig(normalize="per_query_min_max")
        fused = w_qpps(br, sr, psi, config)
        combsum = bsf(br, sr, FusionConfig(method="bsf", normalize="per_query_min_max"))
        for qid in br.entries:
            assert order(fused, qid) == order(combsum, qid)

    @pytest.mark.parametrize("normalize", ["per_query_min_max", "none"])
    def test_scores_equal_the_written_out_interpolation_bit_for_bit(self, normalize):
        br, sr = random_runs(15)
        rng = random.Random(15)
        psi = {qid: rng.random() for qid in br.entries}
        fused = w_qpps(br, sr, psi, FusionConfig(normalize=normalize))
        for qid, entry in fused.entries.items():
            br_scores = normalized(br, qid, normalize)
            sr_scores = normalized(sr, qid, normalize)
            weight = psi[qid]
            expected = {d: weight * sr_scores[d] + (1.0 - weight) * br_scores[d]
                        for d in br_scores}
            assert entry == rank_records(expected.items())

    def test_equal_fused_scores_break_by_doc_id(self):
        # q1: the two sides swap after min-max, so psi = 0.5 fuses each
        # document to 0.5; q2: both sides are constant, so all map to 0.5
        br = run_from({"q1": {"d2": 1.0, "d10": 0.0, "a": 0.5}, "q2": {"y": 3.0, "x": 3.0}})
        sr = run_from({"q1": {"d2": 0.0, "d10": 1.0, "a": 0.5}, "q2": {"y": 7.0, "x": 7.0}})
        fused = w_qpps(br, sr, {"q1": 0.5, "q2": 0.25})
        assert list(fused.entries["q1"]) == [RunRecord(d, 0.5) for d in ("a", "d10", "d2")]
        assert list(fused.entries["q2"]) == [RunRecord(d, 0.5) for d in ("x", "y")]

    def test_candidate_mismatch_lists_difference(self):
        br = run_from({"q1": {"a": 1.0, "b": 0.5}})
        sr = run_from({"q1": {"a": 1.0, "c": 0.5}})
        with pytest.raises(ValueError, match=r"\['b', 'c'\]"):
            w_qpps(br, sr, {"q1": 0.5})

    def test_psi_out_of_range_rejected(self):
        br, sr = random_runs(14)
        psi = {qid: 1.5 for qid in br.entries}
        with pytest.raises(ValueError, match="outside"):
            w_qpps(br, sr, psi)

    def test_oracle_psi_achieves_max_per_query_ndcg(self):
        # With psi set per query to the better ranker, the interpolated
        # per-query nDCG equals max(BR, SR) and the aggregate beats both.
        br = run_from({
            "q1": {"rel": 0.9, "x": 0.5, "y": 0.1},   # BR wins q1
            "q2": {"rel": 0.1, "x": 0.9, "y": 0.5},   # SR wins q2
        })
        sr = run_from({
            "q1": {"rel": 0.1, "x": 0.9, "y": 0.5},
            "q2": {"rel": 0.9, "x": 0.5, "y": 0.1},
        })
        judgments = {"rel": 2}
        psi = {}
        for qid in br.entries:
            n_br = ndcg_at_k(br.entries[qid], judgments)
            n_sr = ndcg_at_k(sr.entries[qid], judgments)
            psi[qid] = 1.0 if n_sr > n_br else 0.0
        fused = w_qpps(br, sr, psi)
        aggregate = []
        for qid in br.entries:
            n_br = ndcg_at_k(br.entries[qid], judgments)
            n_sr = ndcg_at_k(sr.entries[qid], judgments)
            n_fused = ndcg_at_k(fused.entries[qid], judgments)
            assert n_fused == max(n_br, n_sr)
            aggregate.append((n_br, n_sr, n_fused))
        mean = lambda xs: sum(xs) / len(xs)
        assert mean([f for _, _, f in aggregate]) > mean([b for b, _, _ in aggregate])
        assert mean([f for _, _, f in aggregate]) > mean([s for _, s, _ in aggregate])


# few distinct values, so ties, all-equal lists and -0.0 / 0.0 ties are
# common; "d10" sorts before "d2", the non-ASCII ids compare by code point,
# and "a" < "a\x00" as str (a numpy unicode array would call them equal)
FUSION_IDS = ["a", "a\x00", "B", "d2", "d10", "é", "Ω", "ß", "a\u0301"]
FUSION_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 3.0]),
    st.floats(-1e6, 1e6, allow_nan=False),
)


@st.composite
def paired_runs(draw):
    """A BR and an SR run over the same documents per query, and psi."""
    br, sr, psi = {}, {}, {}
    for q in range(draw(st.integers(1, 3))):
        docs = draw(st.lists(st.sampled_from(FUSION_IDS), min_size=1, unique=True))
        qid = f"q{q}"
        br[qid] = rank_records([(d, draw(FUSION_SCORES)) for d in docs])
        sr[qid] = rank_records([(d, draw(FUSION_SCORES)) for d in docs])
        psi[qid] = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
    return RunList(br, "br"), RunList(sr, "sr"), psi


def _hex(records):
    return [(rec.doc_id, rec.score.hex()) for rec in records]


class TestFusionOracle:
    """bsf and w_qpps equal fusion over records, bit for bit: same order,
    same score bits (float.hex tells -0.0 from 0.0)."""

    @settings(max_examples=300, deadline=None)
    @given(paired_runs(), st.sampled_from(["per_query_min_max", "none"]))
    def test_bsf_equals_the_record_oracle(self, runs, normalize):
        br, sr, _ = runs
        fused = bsf(br, sr, FusionConfig(method="bsf", normalize=normalize))
        assert sorted(fused.entries) == sorted(br.entries)
        for qid, entry in fused.entries.items():
            expected = oracles.combine(br.entries[qid], sr.entries[qid], 1.0, 1.0, normalize)
            assert _hex(entry) == _hex(expected)

    @settings(max_examples=300, deadline=None)
    @given(paired_runs(), st.sampled_from(["per_query_min_max", "none"]))
    def test_w_qpps_equals_the_record_oracle(self, runs, normalize):
        br, sr, psi = runs
        fused = w_qpps(br, sr, psi, FusionConfig(normalize=normalize))
        assert list(fused.entries) == list(psi)
        for qid, entry in fused.entries.items():
            weight = psi[qid]
            expected = oracles.combine(br.entries[qid], sr.entries[qid], 1.0 - weight, weight,
                                       normalize)
            assert _hex(entry) == _hex(expected)


class TestConfig:
    def test_hash_is_8_hex_characters(self):
        # run-file tags are "<method>-<config_hash()>"
        assert re.fullmatch(r"[0-9a-f]{8}", FusionConfig(method="w_qpps").config_hash())

    def test_hash_stable_across_instances(self):
        assert FusionConfig().config_hash() == FusionConfig().config_hash()

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            FusionConfig(method="rrf")

    def test_fixed_threshold_range_checked(self):
        with pytest.raises(ValueError):
            FusionConfig(routing_threshold=1.5)


class TestTrainMedian:
    def test_median(self):
        assert train_median_threshold([0.1, 0.9, 0.4]) == 0.4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            train_median_threshold([])
