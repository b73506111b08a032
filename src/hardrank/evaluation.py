"""Ranking metrics, relative-improvement arithmetic and paired significance.

nDCG@k uses the exponential gain 2^grade - 1 (configurable to linear) with
a log2(rank + 1) discount; the ideal DCG ranks ALL judged documents for the
query and truncates at k. Reciprocal rank is 1/rank of the first document
graded 1 or more. Queries without any positive judgment are not evaluated
unless `include_no_positive` is set.

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


@dataclass(frozen=True, eq=False)
class MetricReport:
    """The per-query table: `values[s, m, q]` is system `systems[s]`'s value of
    metric `METRIC_NAMES[m]` on query `query_ids[q]`; the baseline comes first,
    then the other systems by name, and the evaluated queries in id order.
    `means`, `delta_pct` and `p_value` are [system][metric]: each row's mean,
    change (%) and paired p against the baseline's row (None for the baseline,
    the change None when its mean is 0, p None with fewer than 2 queries).
    `n_excluded` judged queries had no positive judgment. `k` and `rr_cutoff`
    are the nDCG and RR cutoffs."""

    systems: tuple[str, ...]
    query_ids: tuple[str, ...]
    values: np.ndarray  # float64, read-only, (systems, METRIC_NAMES, queries)
    means: tuple[tuple[float, ...], ...]
    delta_pct: tuple[tuple[float | None, ...], ...]
    p_value: tuple[tuple[float | None, ...], ...]
    n_excluded: int
    k: int
    rr_cutoff: int | None

    @property
    def baseline(self) -> str:
        return self.systems[0]

    @property
    def n_queries(self) -> int:
        return len(self.query_ids)


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
    """The per-query table of named runs, with its means and baseline deltas.

    Each evaluated query's judgments are looked up once and scored for every
    system (a query absent from a run scores 0; RR counts grade >= 1).
    Queries with no positive judgment are not evaluated unless
    include_no_positive is set; every system is scored on the same queries,
    so the significance tests pair correctly, and with fewer than 2 of them
    no p-value is given. Raises NoEvaluableQuery when no query is evaluated.
    """
    if baseline not in runs:
        raise ValueError(f"baseline {baseline!r} not among runs {sorted(runs)}")
    judged = qrels.query_ids()
    query_ids = tuple(qid for qid in judged if include_no_positive or qrels.has_positive(qid))
    if not query_ids:
        raise NoEvaluableQuery(len(judged))
    systems = (baseline, *sorted(name for name in runs if name != baseline))
    values = np.empty((len(systems), len(METRIC_NAMES), len(query_ids)))
    for q, qid in enumerate(query_ids):
        judgments = qrels.for_query(qid)
        for s, name in enumerate(systems):
            ranking = runs[name].entries.get(qid, _UNRANKED)
            values[s, :, q] = (ndcg_at_k(ranking, judgments, k, gain),
                               reciprocal_rank(ranking, judgments, rr_cutoff))
    values.flags.writeable = False
    means = tuple(tuple(float(np.mean(row)) for row in rows) for rows in values)
    none = (None,) * len(METRIC_NAMES)  # the baseline's change and p against itself
    delta_pct = (none, *(
        tuple(None if base == 0.0 else relative_improvement(mean, base)
              for mean, base in zip(row, means[0])) for row in means[1:]))
    p_value = (none, *(  # no test of fewer than 2 queries
        tuple(paired_test(row, base).p_two_tailed if len(query_ids) > 1 else None
              for row, base in zip(rows, values[0])) for rows in values[1:]))
    return MetricReport(systems, query_ids, values, means, delta_pct, p_value,
                        len(judged) - len(query_ids), k, rr_cutoff)


_SIG_MARK = {95: "*", 90: "#", None: ""}


def _fmt_metric(mean: float, delta: float | None, p: float | None) -> str:
    change = "" if delta is None else f" ({delta:+.1f}%){_SIG_MARK[significance_level(p)]}"
    return f"{mean:.3f}{change}"


def render_report(report: MetricReport) -> str:
    """Aligned plain-text table; metrics to 3 decimals, deltas to 1. The
    header names the report's cutoffs: nDCG@k, and RR@cutoff when RR has one."""
    ndcg = f"nDCG@{report.k}"
    rr = "RR" if report.rr_cutoff is None else f"RR@{report.rr_cutoff}"
    headers = ["system", ndcg, rr, f"p({ndcg})", f"p({rr})"]
    rows = [
        [
            name + (" [baseline]" if name == report.baseline else ""),
            *map(_fmt_metric, means, deltas, p_values),
            *("-" if p is None else f"{p:.4f}" for p in p_values),
        ]
        for name, means, deltas, p_values in zip(report.systems, report.means, report.delta_pct,
                                                 report.p_value)
    ]
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
    """One machine-readable JSON record per system (3dp metrics, 1dp deltas). The
    keys stay `ndcg10` and `rr` whatever the cutoffs, which `k` and `rr_cutoff` give."""
    lines = []
    for name, means, deltas, p_values in zip(report.systems, report.means, report.delta_pct,
                                             report.p_value):
        record = {
            "system": name,
            "baseline": report.baseline,
            "n_queries": report.n_queries,
            "n_excluded": report.n_excluded,
            "test": TEST_NAME,
            "k": report.k,
            "rr_cutoff": report.rr_cutoff,
        }
        for metric, mean, delta, p in zip(METRIC_NAMES, means, deltas, p_values):
            record[metric] = round(mean, 3)
            record[f"delta_{metric}_pct"] = None if delta is None else round(delta, 1)
            record[f"p_{metric}"] = p
            record[f"sig_{metric}"] = significance_level(p)
        lines.append(json.dumps(record, sort_keys=True))
    return lines
