"""Metrics against brute-force oracles, delta arithmetic, significance."""

import dataclasses
import json
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from hardrank import evaluation
from hardrank.corpus_io import Qrels, Ranking, RunList, rank_records
from hardrank.evaluation import (
    METRIC_NAMES,
    NoEvaluableQuery,
    build_report,
    ndcg_at_k,
    paired_test,
    reciprocal_rank,
    relative_improvement,
    render_report,
    report_jsonl,
)


def system(report, name):
    """The named system's part of a report, each value keyed by metric name:
    its per-query values (qid -> metric -> value), means, changes and p-values."""
    def by_metric(row):
        return dict(zip(METRIC_NAMES, row))

    s = report.systems.index(name)
    per_query = {qid: by_metric(report.values[s, :, q]) for q, qid in enumerate(report.query_ids)}
    return SimpleNamespace(name=name, per_query=per_query, means=by_metric(report.means[s]),
                           delta_pct=by_metric(report.delta_pct[s]),
                           p_value=by_metric(report.p_value[s]))


def oracle_ndcg(doc_grades_in_rank_order, all_grades, k):
    """Direct formula evaluation: exponential gain, log2(rank+1) discount,
    ideal from all judged grades sorted descending."""
    dcg = sum(
        (2**g - 1) / math.log2(i + 2)
        for i, g in enumerate(doc_grades_in_rank_order[:k])
    )
    ideal = sorted(all_grades, reverse=True)[:k]
    idcg = sum((2**g - 1) / math.log2(i + 2) for i, g in enumerate(ideal))
    return dcg / idcg if idcg > 0 else 0.0


def oracle_rr(doc_grades_in_rank_order, threshold=1, cutoff=None):
    scanned = doc_grades_in_rank_order if cutoff is None else doc_grades_in_rank_order[:cutoff]
    for i, g in enumerate(scanned, start=1):
        if g >= threshold:
            return 1.0 / i
    return 0.0


class TestNdcg:
    def test_ideal_ordering_scores_one(self):
        judgments = {"d1": 3, "d2": 1}
        ranking = rank_records([("d1", 2.0), ("d2", 1.0)])
        assert ndcg_at_k(ranking, judgments) == pytest.approx(1.0)

    def test_hand_case(self):
        # qrels {d1:3, d2:1}, ranking [d2, d1, d3-unjudged]:
        # DCG = 1/1 + 7/log2(3) = 5.41650..., IDCG = 7 + 1/log2(3) = 7.63093...
        judgments = {"d1": 3, "d2": 1}
        ranking = rank_records([("d2", 3.0), ("d1", 2.0), ("d3", 1.0)])
        assert ndcg_at_k(ranking, judgments) == pytest.approx(0.70981, abs=1e-5)

    def test_no_relevant_retrieved_scores_zero(self):
        judgments = {"d1": 2}
        ranking = rank_records([("x", 1.0), ("y", 0.5)])
        assert ndcg_at_k(ranking, judgments) == 0.0

    def test_no_positive_judgments_scores_zero(self):
        ranking = rank_records([("d1", 1.0)])
        assert ndcg_at_k(ranking, {"d1": 0}) == 0.0

    def test_invariant_to_permutations_below_k(self):
        judgments = {"d1": 3, "d2": 2, "d3": 1}
        head = [("d1", 9.0), ("d2", 8.0), ("d3", 7.0)]
        tail_a = [(f"x{i}", 5.0 - i) for i in range(5)]
        tail_b = list(reversed([(f"x{i}", 5.0 - i) for i in range(5)]))
        a = ndcg_at_k(rank_records(head + tail_a), judgments, k=3)
        b = ndcg_at_k(rank_records(head + tail_b), judgments, k=3)
        assert a == b

    def test_linear_gain_option(self):
        judgments = {"d1": 3}
        ranking = rank_records([("d1", 1.0)])
        assert ndcg_at_k(ranking, judgments, gain="linear") == 1.0

    def test_matches_bruteforce_oracle_randomized(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(1, 10)
            doc_ids = [f"d{i}" for i in range(n)]
            judgments = {d: rng.randint(0, 3) for d in doc_ids if rng.random() < 0.8}
            scores = [(d, rng.random()) for d in doc_ids]
            ranking = rank_records(scores)
            grades = [judgments.get(rec.doc_id, 0) for rec in ranking]
            expected = oracle_ndcg(grades, list(judgments.values()), 10)
            assert ndcg_at_k(ranking, judgments) == pytest.approx(expected, abs=1e-10)

    def test_bounded_by_ideal(self):
        rng = random.Random(5)
        for _ in range(50):
            judgments = {f"d{i}": rng.randint(0, 3) for i in range(6)}
            ranking = rank_records([(d, rng.random()) for d in judgments])
            value = ndcg_at_k(ranking, judgments)
            assert 0.0 <= value <= 1.0


class TestReciprocalRank:
    def test_first_rank(self):
        assert reciprocal_rank(rank_records([("d1", 1.0)]), {"d1": 1}) == 1.0

    def test_third_rank(self):
        ranking = rank_records([("a", 3.0), ("b", 2.0), ("d1", 1.0)])
        assert reciprocal_rank(ranking, {"d1": 2}) == pytest.approx(1 / 3)

    def test_none_relevant(self):
        assert reciprocal_rank(rank_records([("a", 1.0)]), {"d1": 1}) == 0.0

    def test_cutoff(self):
        ranking = rank_records([("a", 3.0), ("b", 2.0), ("d1", 1.0)])
        assert reciprocal_rank(ranking, {"d1": 1}, cutoff=2) == 0.0

    def test_grade_zero_is_not_relevant(self):
        ranking = rank_records([("a", 2.0), ("b", 1.0)])
        assert reciprocal_rank(ranking, {"a": 0, "b": 1}) == 0.5

    def test_matches_oracle_randomized(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(1, 10)
            judgments = {f"d{i}": rng.randint(0, 3) for i in range(n)}
            ranking = rank_records([(d, rng.random()) for d in judgments])
            grades = [judgments[rec.doc_id] for rec in ranking]
            assert reciprocal_rank(ranking, judgments) == oracle_rr(grades)


class TestRelativeImprovement:
    def test_table_values(self):
        assert round(relative_improvement(0.659, 0.444), 1) == 48.4
        assert round(relative_improvement(0.535, 0.444), 1) == 20.5

    def test_no_change_is_zero(self):
        assert relative_improvement(0.5, 0.5) == 0.0

    def test_nonpositive_base_rejected(self):
        with pytest.raises(ValueError):
            relative_improvement(0.5, 0.0)
        with pytest.raises(ValueError):
            relative_improvement(0.5, -0.1)


class TestPairedTest:
    def test_derived_example_vs_closed_form_oracle(self):
        # diffs [0.1, 0.2, 0.3]: t = 0.2/(0.1/sqrt(3)) = 2*sqrt(3), df = 2.
        # For df=2 the t CDF has the closed form 1/2 + t/(2*sqrt(t^2+2)),
        # so p = 2*(1 - CDF) = 1 - t/sqrt(t^2+2).
        result = paired_test([0.1, 0.2, 0.3], [0.0, 0.0, 0.0])
        t_expected = 2 * math.sqrt(3)
        p_expected = 1 - t_expected / math.sqrt(t_expected**2 + 2)
        assert result.t == pytest.approx(3.4641, abs=1e-4)
        assert result.df == 2
        assert result.p_two_tailed == pytest.approx(p_expected, abs=1e-12)
        assert result.p_two_tailed == pytest.approx(0.0742, abs=1e-3)
        assert result.level == 90

    def test_identical_vectors_p_one(self):
        result = paired_test([0.3, 0.4], [0.3, 0.4])
        assert result.p_two_tailed == 1.0
        assert result.level is None
        assert result.t == 0.0

    def test_constant_nonzero_diffs_flagged(self):
        result = paired_test([0.5, 0.6, 0.7], [0.4, 0.5, 0.6])
        assert result.p_two_tailed == 0.0
        assert result.t == math.inf
        assert paired_test([0.4, 0.5, 0.6], [0.5, 0.6, 0.7]).t == -math.inf
        assert result.level == 95

    def test_antisymmetric_t(self):
        a, b = [0.1, 0.5, 0.2], [0.05, 0.3, 0.4]
        assert paired_test(a, b).t == pytest.approx(-paired_test(b, a).t)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_test([0.1], [0.1, 0.2])

    def test_needs_two_pairs(self):
        with pytest.raises(ValueError):
            paired_test([0.1], [0.2])


def diffs_with_t(df, t):
    """df + 1 paired differences whose t statistic is close to ``t``.

    Alternating +1/-1 (and a 0 when the count is odd) has mean 0 and a known
    sample sd; shifting it by ``t * sd / sqrt(n)`` sets the mean.
    """
    n = df + 1
    pattern = np.array([1.0, -1.0] * (n // 2) + [0.0] * (n % 2))
    sd = math.sqrt(2 * (n // 2) / df)
    return pattern + t * sd / math.sqrt(n)


class TestPairedTestPValue:
    """The p-value is 2 * stdtr(df, -|t|), the function scipy.stats.t.sf calls."""

    @settings(max_examples=300, deadline=None)
    @given(
        df=st.integers(min_value=1, max_value=5000),
        log10_abs_t=st.floats(min_value=-8.0, max_value=3.0),
        negative=st.booleans(),
    )
    @example(df=1, log10_abs_t=-8.0, negative=False)
    @example(df=5000, log10_abs_t=3.0, negative=True)
    @example(df=5000, log10_abs_t=3.0, negative=False)
    def test_equals_scipy_stats_bit_for_bit(self, df, log10_abs_t, negative):
        diffs = diffs_with_t(df, (-1.0 if negative else 1.0) * 10.0**log10_abs_t)
        result = paired_test(diffs, np.zeros_like(diffs))
        assert result.df == df
        assert math.isfinite(result.t)
        reference = 2.0 * float(scipy_stats.t.sf(abs(result.t), result.df))
        assert result.p_two_tailed == reference

    def test_reaches_underflow_and_both_signs(self):
        # the property's range holds p values that underflow to exactly 0
        high = paired_test(diffs_with_t(5000, 1e3), np.zeros(5001))
        low = paired_test(diffs_with_t(5000, -1e3), np.zeros(5001))
        assert high.t > 0 > low.t
        assert high.p_two_tailed == low.p_two_tailed == 0.0
        tiny = paired_test(diffs_with_t(1, 1e-8), np.zeros(2))
        assert 0.99 < tiny.p_two_tailed <= 1.0


def two_system_fixture():
    qrels = Qrels(
        {
            ("q1", "r1"): 3, ("q1", "r2"): 1,
            ("q2", "r3"): 2,
            ("q3", "r4"): 1,
        }
    )
    good = RunList(
        entries={
            "q1": rank_records([("r1", 3.0), ("r2", 2.0), ("x", 1.0)]),
            "q2": rank_records([("r3", 2.0), ("y", 1.0)]),
            "q3": rank_records([("r4", 2.0), ("z", 1.0)]),
        },
        tag="good",
    )
    bad = RunList(
        entries={
            "q1": rank_records([("x", 3.0), ("r2", 2.0), ("r1", 1.0)]),
            "q2": rank_records([("y", 2.0), ("r3", 1.0)]),
            "q3": rank_records([("z", 2.0), ("r4", 1.0)]),
        },
        tag="bad",
    )
    return qrels, good, bad


@st.composite
def judged_runs(draw):
    """Random judgments over up to 6 queries and 8 documents (a query may have
    no positive judgment) and 1-4 runs, each of which may lack any query."""
    queries = [f"q{i}" for i in range(draw(st.integers(1, 6)))]
    docs = [f"d{i}" for i in range(8)]
    judgments = draw(st.dictionaries(st.tuples(st.sampled_from(queries), st.sampled_from(docs)),
                                     st.integers(0, 3), min_size=1))
    runs = {}
    for name in draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True)):
        entries = {}
        for qid in draw(st.lists(st.sampled_from(queries), unique=True)):
            ranked = draw(st.lists(st.sampled_from(docs), min_size=1, unique=True))
            entries[qid] = rank_records([(doc, float(-i)) for i, doc in enumerate(ranked)])
        runs[name] = RunList(entries=entries, tag=name)
    return judgments, runs


class TestBuildReport:
    @settings(max_examples=200, deadline=None)
    @given(drawn=judged_runs(), k=st.integers(1, 8), rr_cutoff=st.none() | st.integers(1, 8),
           include_no_positive=st.booleans(), data=st.data())
    def test_table_equals_its_oracle(self, drawn, k, rr_cutoff, include_no_positive, data):
        judgments, runs = drawn
        baseline = data.draw(st.sampled_from(sorted(runs)))
        qrels = Qrels(judgments)
        judged = {qid for qid, _ in judgments}
        positive = {qid for (qid, _), grade in judgments.items() if grade >= 1}
        included = sorted(judged if include_no_positive else positive)
        args = dict(k=k, rr_cutoff=rr_cutoff, include_no_positive=include_no_positive)
        if not included:
            with pytest.raises(NoEvaluableQuery):
                build_report(runs, qrels, baseline, **args)
            return
        report = build_report(runs, qrels, baseline, **args)
        systems = (baseline, *sorted(set(runs) - {baseline}))
        assert report.systems == systems and report.baseline == baseline
        assert report.query_ids == tuple(included)
        assert (report.n_queries, report.n_excluded) == (len(included), len(judged) - len(included))
        assert report.values.dtype == np.float64
        assert report.values.shape == (len(systems), len(METRIC_NAMES), len(included))
        unranked = Ranking((), np.empty(0))
        rows = []
        for name in systems:
            cells = []
            for qid in included:
                ranking = runs[name].entries.get(qid, unranked)
                grades = {doc: grade for (q, doc), grade in judgments.items() if q == qid}
                cells.append((ndcg_at_k(ranking, grades, k),
                              reciprocal_rank(ranking, grades, rr_cutoff)))
            rows.append([list(row) for row in zip(*cells)])  # [metric][query]
        assert report.values.tolist() == rows
        for s, system_rows in enumerate(rows):
            means = tuple(float(np.mean(row)) for row in system_rows)
            assert report.means[s] == means
            if s == 0:
                assert report.delta_pct[s] == report.p_value[s] == (None, None)
                continue
            assert report.delta_pct[s] == tuple(
                None if base == 0.0 else relative_improvement(mean, base)
                for mean, base in zip(means, report.means[0]))
            assert report.p_value[s] == tuple(
                paired_test(row, base).p_two_tailed if len(included) > 1 else None
                for row, base in zip(system_rows, rows[0]))
        assert not report.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            report.values[0, 0, 0] = 0.5

    def test_identical_runs_zero_delta_p_one(self):
        qrels, good, _ = two_system_fixture()
        report = build_report({"base": good, "same": good}, qrels, baseline="base")
        same = system(report, "same")
        assert same.delta_pct["ndcg10"] == 0.0
        assert same.p_value["ndcg10"] == 1.0

    def test_known_aggregate_delta(self):
        assert round(relative_improvement(0.659, 0.444), 1) == 48.4

    def test_three_run_deltas_match_hand_computation(self):
        qrels, good, bad = two_system_fixture()
        report = build_report({"base": bad, "good": good, "also": bad}, qrels, "base")
        base_mean = system(report, "base").means["ndcg10"]
        good_mean = system(report, "good").means["ndcg10"]
        expected = (good_mean - base_mean) / base_mean * 100
        assert system(report, "good").delta_pct["ndcg10"] == pytest.approx(expected)
        assert system(report, "also").delta_pct["ndcg10"] == 0.0

    def test_missing_baseline_rejected(self):
        qrels, good, _ = two_system_fixture()
        with pytest.raises(ValueError, match="nope"):
            build_report({"a": good}, qrels, baseline="nope")

    def test_query_missing_from_run_scores_zero(self):
        qrels, good, _ = two_system_fixture()
        partial = RunList(entries={"q1": good.entries["q1"]}, tag="partial")
        report = build_report({"base": good, "partial": partial}, qrels, "base")
        assert system(report, "partial").per_query["q2"]["ndcg10"] == 0.0

    def test_no_positive_queries_excluded_from_means(self):
        qrels = Qrels({("q1", "d1"): 2, ("q2", "d2"): 0})
        run = RunList(
            entries={
                "q1": rank_records([("d1", 1.0)]),
                "q2": rank_records([("d2", 1.0)]),
            },
            tag="t",
        )
        report = build_report({"base": run}, qrels, "base")
        assert report.n_queries == 1
        assert report.n_excluded == 1
        assert system(report, "base").means["ndcg10"] == 1.0

    @pytest.mark.parametrize("include_no_positive", [False, True])
    def test_no_judgment_is_no_evaluable_query(self, include_no_positive):
        run = RunList(entries={"q1": rank_records([("d1", 1.0)])}, tag="t")
        with pytest.raises(NoEvaluableQuery, match="the qrels hold no judgment") as caught:
            build_report({"base": run}, Qrels({}), "base",
                         include_no_positive=include_no_positive)
        assert caught.value.judged == 0

    def test_no_positive_judgment_is_no_evaluable_query_unless_included(self):
        qrels = Qrels({("q1", "d1"): 0, ("q2", "d2"): 0})
        run = RunList(entries={"q1": rank_records([("d1", 1.0)])}, tag="t")
        with pytest.raises(NoEvaluableQuery, match="none of the 2 judged queries") as caught:
            build_report({"base": run}, qrels, "base")
        assert caught.value.judged == 2
        report = build_report({"base": run}, qrels, "base", include_no_positive=True)
        assert (report.n_queries, report.n_excluded) == (2, 0)

    def test_judgments_looked_up_once_per_judged_query(self, monkeypatch):
        qrels, good, bad = two_system_fixture()
        looked_up = []
        for_query = Qrels.for_query

        def counting_for_query(self, query_id):
            looked_up.append(query_id)
            return for_query(self, query_id)

        monkeypatch.setattr(Qrels, "for_query", counting_for_query)
        report = build_report({"base": bad, "good": good, "also": bad}, qrels, "base")
        assert len(report.systems) == 3
        assert sorted(looked_up) == qrels.query_ids()

    def test_reports_are_frozen_and_complete(self):
        qrels, good, bad = two_system_fixture()
        report = build_report({"base": bad, "good": good}, qrels, "base")
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.baseline = "good"
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.means = ()
        base, other = (system(report, name) for name in report.systems)
        assert base.delta_pct == base.p_value == {"ndcg10": None, "rr": None}
        assert set(other.delta_pct) == set(other.p_value) == {"ndcg10", "rr"}
        assert all(p is not None for p in other.p_value.values())

    def test_zero_baseline_mean_has_no_change_but_a_p_value(self):
        qrels, good, _ = two_system_fixture()
        misses = RunList(entries={qid: rank_records([("x", 1.0)]) for qid in good.entries})
        report = build_report({"base": misses, "good": good}, qrels, "base")
        other = system(report, "good")
        assert system(report, "base").means == {"ndcg10": 0.0, "rr": 0.0}
        assert other.delta_pct == {"ndcg10": None, "rr": None}
        assert other.p_value["ndcg10"] == paired_test(
            [other.per_query[qid]["ndcg10"] for qid in qrels.query_ids()], [0.0] * 3
        ).p_two_tailed
        assert render_report(report).splitlines()[3].split() == [
            "good", "1.000", "1.000", "0.0000", "0.0000"
        ]

    def test_one_evaluated_query_gives_no_p_value(self):
        # q2 has no positive judgment, so only q1 is evaluated
        qrels = Qrels({("q1", "r1"): 2, ("q2", "r3"): 0})
        _, good, bad = two_system_fixture()
        report = build_report({"base": bad, "good": good}, qrels, "base")
        assert (report.n_queries, report.n_excluded) == (1, 1)
        good_report = system(report, "good")
        assert good_report.p_value == {"ndcg10": None, "rr": None}
        assert good_report.delta_pct["ndcg10"] is not None
        assert render_report(report).splitlines()[3].split()[-2:] == ["-", "-"]
        record = json.loads(report_jsonl(report)[1])
        assert (record["system"], record["p_ndcg10"], record["p_rr"]) == ("good", None, None)
        assert (record["sig_ndcg10"], record["sig_rr"]) == (None, None)

    def test_p_values_come_from_the_module_paired_test(self, monkeypatch):
        qrels, good, bad = two_system_fixture()
        fixed = evaluation.PairedTestResult(t=0.0, df=1, p_two_tailed=0.5)
        monkeypatch.setattr(evaluation, "paired_test", lambda _sys, _base: fixed)
        report = build_report({"base": bad, "good": good}, qrels, "base")
        assert system(report, "good").p_value == {"ndcg10": 0.5, "rr": 0.5}

    def test_header_names_the_cutoffs(self):
        qrels, good, bad = two_system_fixture()
        runs = {"base": bad, "good": good}
        default = render_report(build_report(runs, qrels, "base")).splitlines()[0].split()
        assert default == ["system", "nDCG@10", "RR", "p(nDCG@10)", "p(RR)"]
        report = build_report(runs, qrels, "base", k=1, rr_cutoff=2)
        assert (report.k, report.rr_cutoff) == (1, 2)
        header = render_report(report).splitlines()[0].split()
        assert header == ["system", "nDCG@1", "RR@2", "p(nDCG@1)", "p(RR@2)"]
        assert [json.loads(line)["ndcg10"] for line in report_jsonl(report)] == [0.0, 1.0]
        records = [json.loads(line) for line in report_jsonl(report)]
        assert [(r["k"], r["rr_cutoff"]) for r in records] == [(1, 2), (1, 2)]

    def test_render_and_jsonl(self):
        qrels, good, bad = two_system_fixture()
        report = build_report({"base": bad, "good": good}, qrels, "base")
        text = render_report(report)
        assert "base [baseline]" in text
        assert "nDCG@10" in text
        lines = report_jsonl(report)
        records = [json.loads(line) for line in lines]
        assert {r["system"] for r in records} == {"base", "good"}
        good_record = next(r for r in records if r["system"] == "good")
        assert good_record["delta_ndcg10_pct"] == round(
            system(report, "good").delta_pct["ndcg10"], 1
        )
