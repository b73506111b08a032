"""Output checks, effectiveness guards and output digests.

A check that fails raises CheckFailed; the caller counts it as a failed
operation and the benchmark exits nonzero.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from hardrank import corpus_io, evaluation
from hardrank.corpus_io import RunList

SYSTEMS = ("br", "bsf", "r_qpp", "sr", "w_qpps")
GUARDED = ("br", "bsf", "r_qpp", "w_qpps")
GUARDED_HARD = ("br", "w_qpps")


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_runs(runs: dict[str, RunList], test_ids: list[str]) -> None:
    """Each run is valid, and holds every test query with the same documents."""
    require(sorted(runs) == sorted(SYSTEMS), f"systems {sorted(runs)} != {sorted(SYSTEMS)}")
    for name, run in runs.items():
        try:
            run.validate()
        except ValueError as exc:
            raise CheckFailed(f"run {name}: {exc}") from None
        require(run.query_ids() == sorted(test_ids), f"run {name}: query set differs")
    for qid in test_ids:
        doc_sets = {name: {rec.doc_id for rec in run.entries[qid]} for name, run in runs.items()}
        require(
            all(docs == doc_sets["br"] for docs in doc_sets.values()),
            f"query {qid}: runs rank different documents",
        )


def read_outputs(work: Path, test_ids: list[str]) -> tuple[dict[str, RunList], list[dict]]:
    """Parse and check the 5 run files and report.jsonl of one pipeline pass."""
    runs = {}
    for name in SYSTEMS:
        try:
            runs[name] = corpus_io.read_run_file(work / "runs" / f"{name}.txt")
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"run file {name}: {exc}") from None
    check_runs(runs, test_ids)
    try:
        text = (work / "reports" / "report.jsonl").read_text(encoding="utf-8")
        report = [json.loads(line) for line in text.splitlines()]
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"report.jsonl: {exc}") from None
    require(
        sorted(r.get("system") for r in report) == sorted(SYSTEMS),
        f"report lists {[r.get('system') for r in report]}",
    )
    for record in report:
        require(0.0 <= record["ndcg10"] <= 1.0, f"report: ndcg10 {record['ndcg10']}")
    return runs, report


def file_digests(work: Path) -> dict[str, str]:
    paths = [work / "runs" / f"{name}.txt" for name in SYSTEMS]
    paths.append(work / "reports" / "report.jsonl")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def run_digests(runs: dict[str, RunList]) -> dict[str, str]:
    """SHA-256 of each run as its run file would hold it."""
    return {
        f"{name}.txt": hashlib.sha256(
            "".join(line + "\n" for line in corpus_io.write_run(run)).encode()
        ).hexdigest()
        for name, run in sorted(runs.items())
    }


def judgments_by_query(qrels) -> dict[str, dict[str, int]]:
    grouped: dict[str, dict[str, int]] = {}
    for (qid, doc_id), grade in qrels.judgments.items():
        grouped.setdefault(qid, {})[doc_id] = grade
    return grouped


def _evaluable(judgments, test_ids) -> list[str]:
    return [q for q in test_ids if any(g >= 1 for g in judgments.get(q, {}).values())]


def mean_ndcg(run: RunList, judgments, qids) -> float:
    return sum(evaluation.ndcg_at_k(run.entries.get(q, []), judgments[q]) for q in qids) / len(qids)


def effectiveness(runs: dict[str, RunList], judgments, test_ids, hard_ids) -> dict[str, float]:
    """Mean nDCG@10 over the test queries with a positive judgment."""
    evaluable = _evaluable(judgments, test_ids)
    hard = [q for q in evaluable if q in hard_ids]
    out = {f"ndcg10.{name}": mean_ndcg(runs[name], judgments, evaluable) for name in GUARDED}
    out.update({f"ndcg10_hard.{name}": mean_ndcg(runs[name], judgments, hard) for name in GUARDED_HARD})
    return out


def check_report_agrees(report: list[dict], runs, judgments, test_ids) -> None:
    """The package's report (3 decimals) and the benchmark's own nDCG agree."""
    evaluable = _evaluable(judgments, test_ids)
    for record in report:
        ours = mean_ndcg(runs[record["system"]], judgments, evaluable)
        require(
            abs(ours - record["ndcg10"]) <= 0.0005 + 1e-9,
            f"report ndcg10 for {record['system']} is {record['ndcg10']}, recomputed {ours:.6f}",
        )
