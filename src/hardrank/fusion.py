"""Combining base-ranker and specialized-ranker outputs.

Three strategies:

- Balanced score fusion (CombSUM): fused score = s_br + s_sr per document.
- Hardness routing: each query is answered entirely by one ranker, the
  specialized one when the hardness estimate psi reaches the threshold.
- Hardness-weighted interpolation: per document,
  s = psi * s_sr + (1 - psi) * s_br, so harder queries lean on the
  specialized ranker continuously instead of a hard switch.

Each is a function of the base run and the specialized run, which must
rank the same queries and, per query, the same documents; routing and
interpolation also take psi per query. The first and the last are one
per-document weighted sum with weights (1, 1) and (1 - psi, psi); routing
keeps the chosen run's raw list.

Raw scores from different rankers rarely share a scale, so scores are
min-max normalized per query by default; `none` keeps raw scores for the
literal sum-of-scores behaviour.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus_io import Query, Ranking, RunList

METHODS = ("bsf", "r_qpp", "w_qpps")
NORMALIZATIONS = ("per_query_min_max", "none")


@dataclass(frozen=True)
class FusionConfig:
    method: str = "w_qpps"
    normalize: str = "per_query_min_max"
    routing_threshold: float | str = "train_median"  # fixed value or policy name
    _hash: str = field(init=False, repr=False, compare=False)

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
        blob = json.dumps(
            {
                "method": self.method,
                "normalize": self.normalize,
                "routing_threshold": self.routing_threshold,
            },
            sort_keys=True,
        )
        # the config is frozen, so its run tag's hash is computed once, here
        object.__setattr__(self, "_hash", hashlib.sha1(blob.encode()).hexdigest()[:8])

    def config_hash(self) -> str:
        return self._hash


@dataclass(frozen=True)
class RoutingDecision:
    query_id: str
    psi: float
    route: str  # "sr" or "br"


def normalize_scores(scores: np.ndarray) -> np.ndarray:
    """One query's scores, in list order, min-max normalized into [0, 1].

    All-equal scores (including a single document) map to 0.5. The bounds
    are the first minimum and the first maximum in list order, as Python's
    `min` and `max` pick them, so a -0.0 / 0.0 tie keeps its sign.
    """
    lo, hi = scores[scores.argmin()], scores[scores.argmax()]
    if hi == lo:
        return np.full(len(scores), 0.5)
    return (scores - lo) / (hi - lo)


def _combine(br_entry: Ranking, sr_entry: Ranking, w_br: float, w_sr: float,
             normalize: str) -> Ranking:
    """One query's weighted CombSUM: w_sr * s_sr + w_br * s_br per document
    of the two entries, which hold the same documents. The weights (1, 1)
    give BSF's s_br + s_sr and (1 - psi, psi) give W-QPPS's interpolation.

    Both sides are put in doc_id order (a Python sort, so ids compare as
    `str` does) and combined elementwise; numpy's float64 `*`, `+`, `-` and
    `/` round as Python's float operators do, so each score has the bits
    of the sum written out. A stable sort by score descending then leaves
    equal scores in doc_id order.
    """
    br_scores, sr_scores = br_entry.scores, sr_entry.scores
    if normalize == "per_query_min_max":
        br_scores, sr_scores = normalize_scores(br_scores), normalize_scores(sr_scores)
    br_ids = br_entry.doc_ids
    br_by_id = sorted(range(len(br_ids)), key=br_ids.__getitem__)
    sr_by_id = sorted(range(len(br_ids)), key=sr_entry.doc_ids.__getitem__)
    fused = w_sr * sr_scores[sr_by_id] + w_br * br_scores[br_by_id]
    order = np.argsort(-fused, kind="stable")
    return Ranking(tuple([br_ids[br_by_id[i]] for i in order.tolist()]), fused[order])


def _paired(br_run: RunList, sr_run: RunList, psi: Mapping[str, float] | None = None):
    """Yield (qid, BR entry, SR entry, psi or None) per query, in query-id
    order, as the run files list them.

    Both runs must rank the same queries and, per query, the same
    documents, each once and at least one; a psi mapping must hold
    exactly those queries, each psi in [0, 1]. A ValueError names the
    first query that breaks a rule.
    """
    br, sr = br_run.entries, sr_run.entries
    unpaired = sorted(br.keys() ^ sr.keys())
    if unpaired:
        raise ValueError(f"query {unpaired[0]!r} missing from one run")
    unestimated = [] if psi is None else sorted(psi.keys() ^ br.keys())
    if unestimated:
        what = "no hardness estimate" if unestimated[0] in br else "an estimate but no ranking"
        raise ValueError(f"{what} for query {unestimated[0]!r}")
    for qid in sorted(br):
        weight = None if psi is None else psi[qid]
        if weight is not None and not 0.0 <= weight <= 1.0:
            raise ValueError(f"psi for query {qid!r} outside [0, 1]: {weight}")
        br_entry, sr_entry = br[qid], sr[qid]
        if not br_entry or not sr_entry:
            raise ValueError(f"query {qid!r} has an empty entry")
        br_ids, sr_ids = set(br_entry.doc_ids), set(sr_entry.doc_ids)
        if len(br_ids) < len(br_entry) or len(sr_ids) < len(sr_entry):
            raise ValueError(f"query {qid!r}: an entry ranks a document twice")
        differ = sorted(br_ids ^ sr_ids)
        if differ:
            raise ValueError(f"query {qid!r}: candidate sets differ on {differ}")
        yield qid, br_entry, sr_entry, weight


def bsf(
    br_run: RunList,
    sr_run: RunList,
    config: FusionConfig = FusionConfig(method="bsf"),
) -> RunList:
    """CombSUM the two runs: fused = s_br + s_sr per (query, document)."""
    entries = {
        qid: _combine(br_entry, sr_entry, 1.0, 1.0, config.normalize)
        for qid, br_entry, sr_entry, _ in _paired(br_run, sr_run)
    }
    return RunList(entries=entries, tag=f"bsf-{config.config_hash()}")


def train_median_threshold(psis: Iterable[float]) -> float:
    """Median hardness over a (training) query population."""
    values = list(psis)
    if not values:
        raise ValueError("cannot take the median of no estimates")
    return float(statistics.median(values))


def r_qpp(
    br_run: RunList,
    sr_run: RunList,
    psi: Mapping[str, float],
    tau: float,
    config: FusionConfig = FusionConfig(method="r_qpp"),
) -> tuple[RunList, list[RoutingDecision]]:
    """Answer each query with one run's raw entry, chosen by its hardness:
    the specialized run's when its psi reaches tau (inclusive), else the
    base run's. Returns the run and the routing decisions, in query-id order."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    entries, decisions = {}, []
    for qid, br_entry, sr_entry, query_psi in _paired(br_run, sr_run, psi):
        route = "sr" if query_psi >= tau else "br"
        entries[qid] = sr_entry if route == "sr" else br_entry
        decisions.append(RoutingDecision(qid, query_psi, route))
    return RunList(entries=entries, tag=f"r_qpp-{config.config_hash()}"), decisions


def route_qpp(
    br_ranker,
    sr_ranker,
    qpp_provider,
    queries: Sequence[Query],
    candidates: Mapping[str, Ranking],
    tau: float,
    config: FusionConfig = FusionConfig(method="r_qpp"),
) -> tuple[RunList, list[RoutingDecision]]:
    """`r_qpp` over both rankers' reranked candidates of each query, with
    psi from the provider; the decisions are in query-id order. A ranker is
    anything with `rerank_query(query, candidates)`, and the provider
    anything with `estimate_query(query, topk)`."""
    br, sr, psi = {}, {}, {}
    for query in queries:
        qid = query.query_id
        cands = candidates.get(qid)
        if not cands:
            raise ValueError(f"query {qid!r} has no candidates")
        psi[qid] = qpp_provider.estimate_query(query, cands).psi
        br[qid] = br_ranker.rerank_query(query, cands)
        sr[qid] = sr_ranker.rerank_query(query, cands)
    return r_qpp(RunList(br), RunList(sr), psi, tau, config)


def w_qpps(
    br_run: RunList,
    sr_run: RunList,
    psi: Mapping[str, float],
    config: FusionConfig = FusionConfig(method="w_qpps"),
) -> RunList:
    """Interpolate the two runs per document, weighted by hardness:
    s = psi * s_sr + (1 - psi) * s_br."""
    entries = {
        qid: _combine(br_entry, sr_entry, 1.0 - weight, weight, config.normalize)
        for qid, br_entry, sr_entry, weight in _paired(br_run, sr_run, psi)
    }
    return RunList(entries=entries, tag=f"w_qpps-{config.config_hash()}")


def write_routing_log(decisions: Iterable[RoutingDecision]) -> list[str]:
    """Routing decisions as `qid<TAB>psi<TAB>route` lines."""
    return [f"{d.query_id}\t{d.psi!r}\t{d.route}" for d in decisions]
