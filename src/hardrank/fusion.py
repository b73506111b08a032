"""Combining base-ranker and specialized-ranker outputs.

Three strategies:

- Balanced score fusion (CombSUM): fused score = s_br + s_sr per document,
  with a document missing from one run contributing 0 on that side.
- Hardness routing: each query is answered entirely by one ranker, the
  specialized one when the hardness estimate psi reaches the threshold.
- Hardness-weighted interpolation: per document,
  s = psi * s_sr + (1 - psi) * s_br, so harder queries lean on the
  specialized ranker continuously instead of a hard switch.

The first and the last are one per-document weighted sum with weights
(1, 1) and (1 - psi, psi); routing keeps the chosen ranker's raw list.

Raw scores from different rankers rarely share a scale, so scores are
min-max normalized per query by default; `none` keeps raw scores for the
literal sum-of-scores behaviour.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .corpus_io import Query, RunList, RunRecord, rank_records
from .pointwise_ranker import Ranker
from .qpp import QppProvider

METHODS = ("bsf", "r_qpp", "w_qpps")
NORMALIZATIONS = ("per_query_min_max", "none")


@dataclass(frozen=True)
class FusionConfig:
    method: str = "w_qpps"
    normalize: str = "per_query_min_max"
    routing_threshold: float | str = "train_median"  # fixed value or policy name

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.normalize not in NORMALIZATIONS:
            raise ValueError(f"normalize must be one of {NORMALIZATIONS}")
        if isinstance(self.routing_threshold, str):
            if self.routing_threshold != "train_median":
                raise ValueError(
                    f"unknown threshold policy {self.routing_threshold!r}"
                )
        elif not 0.0 <= self.routing_threshold <= 1.0:
            raise ValueError("fixed routing threshold must lie in [0, 1]")

    def config_hash(self) -> str:
        blob = json.dumps(
            {
                "method": self.method,
                "normalize": self.normalize,
                "routing_threshold": self.routing_threshold,
            },
            sort_keys=True,
        )
        return hashlib.sha1(blob.encode()).hexdigest()[:8]


@dataclass(frozen=True)
class RoutingDecision:
    query_id: str
    psi: float
    route: str  # "sr" or "br"


def normalize_scores(records: Sequence[RunRecord]) -> dict[str, float]:
    """One query's scores by doc_id, min-max normalized into [0, 1], in list
    order.

    All-equal scores (including a single document) map to 0.5.
    """
    if not records:
        raise ValueError("cannot normalize an empty entry")
    scores = [rec.score for rec in records]
    lo, hi = min(scores), max(scores)
    if hi == lo:
        return dict.fromkeys([rec.doc_id for rec in records], 0.5)
    span = hi - lo
    return {rec.doc_id: (rec.score - lo) / span for rec in records}


def _scores_by_doc(
    records: Sequence[RunRecord] | None, normalize: str
) -> dict[str, float]:
    if not records:
        return {}
    if normalize == "per_query_min_max":
        return normalize_scores(records)
    return {rec.doc_id: rec.score for rec in records}


def _combine(br_entry, sr_entry, w_br: float, w_sr: float, normalize: str) -> list[RunRecord]:
    """One query's weighted CombSUM: w_sr * s_sr + w_br * s_br per document
    of either entry, a missing side counting 0. The weights (1, 1) give
    BSF's s_br + s_sr and (1 - psi, psi) give W-QPPS's interpolation, each
    with the same bits as the sum written out."""
    br_scores = _scores_by_doc(br_entry, normalize)
    sr_scores = _scores_by_doc(sr_entry, normalize)
    return rank_records(
        (doc_id, w_sr * sr_scores.get(doc_id, 0.0) + w_br * br_scores.get(doc_id, 0.0))
        for doc_id in set(br_scores) | set(sr_scores)
    )


def bsf(
    br_run: RunList,
    sr_run: RunList,
    config: FusionConfig = FusionConfig(method="bsf"),
) -> RunList:
    """CombSUM the two runs: fused = s_br + s_sr per (query, document) over
    the queries of either run.

    Documents present in only one run take 0 for the missing side (after
    normalization).
    """
    entries = {
        qid: _combine(
            br_run.entries.get(qid), sr_run.entries.get(qid), 1.0, 1.0, config.normalize
        )
        for qid in sorted(br_run.entries.keys() | sr_run.entries.keys())
    }
    return RunList(entries=entries, tag=f"bsf-{config.config_hash()}")


def train_median_threshold(psis: Iterable[float]) -> float:
    """Median hardness over a (training) query population."""
    values = list(psis)
    if not values:
        raise ValueError("cannot take the median of no estimates")
    return float(statistics.median(values))


def route_qpp(
    br_ranker: Ranker,
    sr_ranker: Ranker,
    qpp_provider: QppProvider,
    queries: Sequence[Query],
    candidates: Mapping[str, Sequence[RunRecord]],
    tau: float,
    config: FusionConfig = FusionConfig(method="r_qpp"),
) -> tuple[RunList, list[RoutingDecision]]:
    """Answer each query with exactly one ranker chosen by its hardness.

    psi >= tau routes to the specialized ranker (threshold inclusive),
    otherwise to the base ranker. Returns the combined run plus the
    per-query routing decisions.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    entries: dict[str, list[RunRecord]] = {}
    decisions: list[RoutingDecision] = []
    for query in queries:
        cands = candidates.get(query.query_id)
        if not cands:
            raise ValueError(f"query {query.query_id!r} has no candidates")
        est = qpp_provider.estimate_query(query, cands)
        if est.psi >= tau:
            route, ranker = "sr", sr_ranker
        else:
            route, ranker = "br", br_ranker
        entries[query.query_id] = ranker.rerank_query(query, cands)
        decisions.append(RoutingDecision(query.query_id, est.psi, route))
    return RunList(entries=entries, tag=f"r_qpp-{config.config_hash()}"), decisions


def w_qpps(
    br_run: RunList,
    sr_run: RunList,
    psi: Mapping[str, float],
    config: FusionConfig = FusionConfig(method="w_qpps"),
) -> RunList:
    """Interpolate the two runs per document, weighted by hardness.

    s = psi * s_sr + (1 - psi) * s_br over identical candidate sets; a
    mismatch between the two runs' documents for a query is an error.
    """
    entries: dict[str, list[RunRecord]] = {}
    for qid in sorted(br_run.entries.keys() | sr_run.entries.keys()):
        if qid not in psi:
            raise ValueError(f"no hardness estimate for query {qid!r}")
        weight = psi[qid]
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"psi for query {qid!r} outside [0, 1]: {weight}")
        br_entry = br_run.entries.get(qid)
        sr_entry = sr_run.entries.get(qid)
        if br_entry is None or sr_entry is None:
            raise ValueError(f"query {qid!r} missing from one run")
        br_docs = {rec.doc_id for rec in br_entry}
        sr_docs = {rec.doc_id for rec in sr_entry}
        if br_docs != sr_docs:
            diff = sorted(br_docs ^ sr_docs)
            raise ValueError(f"query {qid!r}: candidate sets differ on {diff}")
        entries[qid] = _combine(br_entry, sr_entry, 1.0 - weight, weight, config.normalize)
    return RunList(entries=entries, tag=f"w_qpps-{config.config_hash()}")


def write_routing_log(decisions: Iterable[RoutingDecision]) -> list[str]:
    """Routing decisions as `qid<TAB>psi<TAB>route` lines."""
    return [f"{d.query_id}\t{d.psi!r}\t{d.route}" for d in decisions]
