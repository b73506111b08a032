"""Ranking metrics, relative-improvement arithmetic and paired significance.

nDCG@k uses the exponential gain 2^grade - 1 (configurable to linear) with
a log2(rank + 1) discount; the ideal DCG ranks ALL judged documents for the
query and truncates at k. Reciprocal rank is 1/rank of the first document
graded 1 or more. Queries without any positive judgment score 0 and are
excluded from aggregate means by default.

Significance between systems is a two-tailed paired t-test on per-query
differences, flagged at the 95% and 90% levels.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus_io import Qrels, Ranking, RunList

GAINS = ("exp", "linear")
METRIC_NAMES = ("ndcg10", "rr")
_UNRANKED = Ranking((), np.empty(0))  # what a run holds for a query it does not rank


def _gain(grade: int, gain: str) -> float:
    if gain == "exp":
        return float(2**grade - 1)
    if gain == "linear":
        return float(grade)
    raise ValueError(f"gain must be one of {GAINS}, got {gain!r}")


def ndcg_at_k(
    ranking: Ranking,
    judgments: Mapping[str, int],
    k: int = 10,
    gain: str = "exp",
) -> float:
    """Normalized DCG at cutoff k against one query's graded judgments."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ideal = sorted(judgments.values(), reverse=True)[:k]
    idcg = sum(_gain(g, gain) / math.log2(i + 2) for i, g in enumerate(ideal))
    if idcg == 0.0:
        return 0.0
    dcg = sum(
        _gain(judgments.get(doc_id, 0), gain) / math.log2(i + 2)
        for i, doc_id in enumerate(ranking.doc_ids[:k])
    )
    return dcg / idcg


def reciprocal_rank(
    ranking: Ranking,
    judgments: Mapping[str, int],
    cutoff: int | None = None,
) -> float:
    """1/rank of the first document graded >= 1, 0 if none within the cutoff."""
    if cutoff is not None and cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    for i, doc_id in enumerate(ranking.doc_ids[:cutoff], start=1):
        if judgments.get(doc_id, 0) >= 1:
            return 1.0 / i
    return 0.0


def relative_improvement(sys_value: float, base_value: float) -> float:
    """(sys - base) / base * 100. Reports render this to 1 decimal."""
    if base_value <= 0.0:
        raise ValueError(f"baseline must be > 0, got {base_value}")
    return (sys_value - base_value) / base_value * 100.0


def significance_level(p: float | None) -> int | None:
    """95 when p < 0.05, 90 when p < 0.10, else (and for no test) None."""
    if p is not None and p < 0.10:
        return 95 if p < 0.05 else 90
    return None


@dataclass(frozen=True)
class PairedTestResult:
    t: float
    df: int
    p_two_tailed: float

    @property
    def level(self) -> int | None:
        return significance_level(self.p_two_tailed)


def paired_test(
    per_query_sys: Sequence[float], per_query_base: Sequence[float]
) -> PairedTestResult:
    """Two-tailed paired t-test on per-query metric differences.

    Degenerate inputs follow fixed conventions: all-zero differences give
    p = 1 and t = 0 (no evidence); zero-variance nonzero-mean differences
    give p = 0 and a t of infinity with the mean's sign.
    """
    if len(per_query_sys) != len(per_query_base):
        raise ValueError(
            f"length mismatch: {len(per_query_sys)} vs {len(per_query_base)}"
        )
    n = len(per_query_sys)
    if n < 2:
        raise ValueError("need at least 2 paired observations")
    diffs = np.asarray(per_query_sys, dtype=float) - np.asarray(per_query_base, dtype=float)
    df = n - 1
    mean = float(diffs.mean())
    sd = float(diffs.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return PairedTestResult(t=0.0, df=df, p_two_tailed=1.0)
        return PairedTestResult(t=math.copysign(math.inf, mean), df=df, p_two_tailed=0.0)
    from scipy.special import stdtr  # here, so only `eval` loads scipy for it

    t = mean / (sd / math.sqrt(n))
    # Student's t survival function, as scipy.stats.t.sf computes it.
    p = 2.0 * float(stdtr(df, -abs(t)))
    return PairedTestResult(t=t, df=df, p_two_tailed=p)


TEST_NAME = "paired-t (two-tailed)"


@dataclass(frozen=True)
class SystemReport:
    """Per metric: each judged query's value, the evaluated queries' mean, and the
    change (%) and paired p against the baseline (None for the baseline itself,
    and p None when fewer than 2 queries are evaluated)."""

    name: str
    per_query: dict[str, dict[str, float]]  # qid -> metric -> value
    means: dict[str, float]
    delta_pct: dict[str, float | None]
    p_value: dict[str, float | None]


@dataclass(frozen=True)
class MetricReport:
    """Every system's report (baseline first, then by name), each over the same
    `n_queries` evaluated queries; `n_excluded` judged queries had no positive
    judgment. `k` and `rr_cutoff` are the nDCG and RR cutoffs."""

    systems: list[SystemReport]
    baseline: str
    n_queries: int
    n_excluded: int
    k: int
    rr_cutoff: int | None


class NoEvaluableQuery(ValueError):
    """`build_report` has no query to evaluate: the qrels judge none
    (`judged == 0`), or none of the `judged` queries has a positive judgment
    and those without one are excluded."""

    def __init__(self, judged: int):
        self.judged = judged
        super().__init__("the qrels hold no judgment" if judged == 0 else
                         f"none of the {judged} judged queries has a document graded >= 1")


def build_report(
    runs: Mapping[str, RunList],
    qrels: Qrels,
    baseline: str,
    k: int = 10,
    rr_cutoff: int | None = None,
    gain: str = "exp",
    include_no_positive: bool = False,
) -> MetricReport:
    """Per-query and aggregate metrics for named runs, with baseline deltas.

    Every judged query's judgments are looked up once and evaluated for
    every system (a query absent from a run scores 0; RR counts grade >= 1).
    Queries with no positive judgment are excluded from the aggregate means
    unless include_no_positive is set; the same query set is used for every
    system so the significance tests pair correctly; with fewer than 2 of
    them no p-value is given. Raises NoEvaluableQuery when that set is empty.
    """
    if baseline not in runs:
        raise ValueError(f"baseline {baseline!r} not among runs {sorted(runs)}")
    judged = {qid: qrels.for_query(qid) for qid in qrels.query_ids()}
    included = [qid for qid in judged if include_no_positive or qrels.has_positive(qid)]
    if not included:
        raise NoEvaluableQuery(len(judged))

    def column(per_query: dict[str, dict[str, float]], metric: str) -> list[float]:
        return [per_query[qid][metric] for qid in included]

    def system_report(name: str, base: SystemReport | None) -> SystemReport:
        entries = runs[name].entries
        per_query = {
            qid: {
                "ndcg10": ndcg_at_k(entries.get(qid, _UNRANKED), judgments, k, gain),
                "rr": reciprocal_rank(entries.get(qid, _UNRANKED), judgments, rr_cutoff),
            }
            for qid, judgments in judged.items()
        }
        means = {metric: float(np.mean(column(per_query, metric))) for metric in METRIC_NAMES}
        if base is None:  # the baseline itself
            none = dict.fromkeys(METRIC_NAMES)
            return SystemReport(name, per_query, means, none, dict(none))
        delta = {
            m: None if base.means[m] == 0.0 else relative_improvement(means[m], base.means[m])
            for m in METRIC_NAMES
        }
        p = {  # no test of fewer than 2 queries
            m: paired_test(column(per_query, m), column(base.per_query, m)).p_two_tailed
            if len(included) > 1 else None for m in METRIC_NAMES
        }
        return SystemReport(name, per_query, means, delta, p)

    base = system_report(baseline, None)
    systems = [base] + [system_report(name, base) for name in sorted(runs) if name != baseline]
    return MetricReport(systems, baseline, len(included), len(judged) - len(included),
                        k, rr_cutoff)


_SIG_MARK = {95: "*", 90: "#", None: ""}


def _fmt_metric(report: SystemReport, metric: str) -> str:
    value = f"{report.means[metric]:.3f}"
    delta = report.delta_pct[metric]
    mark = _SIG_MARK[significance_level(report.p_value[metric])]
    if delta is None:
        return value
    return f"{value} ({delta:+.1f}%){mark}"


def render_report(report: MetricReport) -> str:
    """Aligned plain-text table; metrics to 3 decimals, deltas to 1. The
    header names the report's cutoffs: nDCG@k, and RR@cutoff when RR has one."""
    ndcg = f"nDCG@{report.k}"
    rr = "RR" if report.rr_cutoff is None else f"RR@{report.rr_cutoff}"
    headers = ["system", ndcg, rr, f"p({ndcg})", f"p({rr})"]
    rows = []
    for sys_report in report.systems:
        p_values = [sys_report.p_value[metric] for metric in METRIC_NAMES]
        rows.append(
            [
                sys_report.name + (" [baseline]" if sys_report.name == report.baseline else ""),
                *(_fmt_metric(sys_report, metric) for metric in METRIC_NAMES),
                *("-" if p is None else f"{p:.4f}" for p in p_values),
            ]
        )
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows]
    lines.append(
        f"queries: {report.n_queries} evaluated, {report.n_excluded} excluded "
        f"(no positive judgments); significance: {TEST_NAME}, "
        f"* = 95%, # = 90%"
    )
    return "\n".join(lines)


def report_jsonl(report: MetricReport) -> list[str]:
    """One machine-readable JSON record per system (3dp metrics, 1dp deltas)."""
    lines = []
    for sys_report in report.systems:
        record = {
            "system": sys_report.name,
            "baseline": report.baseline,
            "n_queries": report.n_queries,
            "n_excluded": report.n_excluded,
            "test": TEST_NAME,
        }
        for metric in METRIC_NAMES:
            delta, p = sys_report.delta_pct[metric], sys_report.p_value[metric]
            record[metric] = round(sys_report.means[metric], 3)
            record[f"delta_{metric}_pct"] = None if delta is None else round(delta, 1)
            record[f"p_{metric}"] = p
            record[f"sig_{metric}"] = significance_level(p)
        lines.append(json.dumps(record, sort_keys=True))
    return lines
