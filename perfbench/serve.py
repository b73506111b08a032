"""`serve_deep_50x`: query-time read path at the paper's rerank depth.

Set-up builds the index, the stub enrichment, BR, SR and the QPP model
through library calls on the train queries, as the CLI stages would but
without artifact I/O. The timed phase then serves the test queries one at
a time: BM25 top-`run_depth` -> BR and SR rerank -> QPP estimate -> W-QPPS
for that query. BSF and R-QPP runs are assembled after the timed phase
from the per-query BR/SR lists and estimates, for the effectiveness guards.
"""

from __future__ import annotations

from dataclasses import dataclass

from hardrank import (
    config as config_mod,
    enrichment,
    evaluation,
    fusion,
    lexical_retrieval,
    pipeline,
    pointwise_ranker,
    qpp,
)
from hardrank.corpus_io import RunList, corpus_by_id
from hardrank.pointwise_ranker import ModelRanker, ScoreFileRanker
from hardrank.qpp import FileQppProvider, ModelQppProvider

import clock
from workloads import Inputs

N_SEEDS = 50


def serve_config():
    config = config_mod.default_config()
    config.raw["enrichment"]["use_judged_context"] = True
    return config


@dataclass
class Served:
    """Everything set-up builds that the timed phase reads."""

    index: object
    br: ModelRanker
    sr: ModelRanker
    qpp: ModelQppProvider


def set_up(inputs: Inputs, config) -> Served:
    params = config.bm25_params()
    index = lexical_retrieval.build_index(inputs.corpus)
    corpus = corpus_by_id(inputs.corpus)
    rule = config.hardness_rule()
    hard = [
        q for q in inputs.train_queries if enrichment.classify_hardness(q, rule) == "hard"
    ]
    section = config.section("enrichment")
    enriched, errors = enrichment.enrich_all(
        hard,
        index,
        corpus,
        pipeline.make_generator(config),
        params=params,
        passage_window=section["passage_window"],
        qrels=inputs.train_qrels,
        use_judged_context=section["use_judged_context"],
    )
    if errors:
        raise RuntimeError(f"enrichment failed for {len(errors)} queries")
    ranker_cfg = config.section("ranker")

    def train_ranker(which: str, texts) -> ModelRanker:
        instances = pointwise_ranker.build_training_set(
            texts,
            inputs.train_qrels,
            index,
            corpus,
            params=params,
            depth=config.run_depth,
            negatives_per_positive=ranker_cfg["negatives_per_positive"],
            label_threshold=ranker_cfg["label_threshold"],
            seed=config.seed,
        )
        model = pointwise_ranker.train(
            instances,
            epochs=ranker_cfg["epochs"],
            learning_rate=ranker_cfg["learning_rate"],
            seed=config.seed,
            model_id=f"pointwise-logistic-v1:{which}",
        )
        return ModelRanker(model, corpus, index, params)

    br = train_ranker("br", [(q.query_id, q.text) for q in inputs.train_queries])
    sr = train_ranker("sr", sorted((e.query_id, e.enriched_text) for e in enriched))

    qpp_cfg = config.section("qpp")
    metrics = config.section("metrics")
    candidates = pipeline.candidates_for(config, index, inputs.train_queries)
    labeled = []
    for query in inputs.train_queries:
        hits = candidates.get(query.query_id)
        if not hits or not inputs.train_qrels.has_positive(
            query.query_id, ranker_cfg["label_threshold"]
        ):
            continue
        label = evaluation.ndcg_at_k(
            hits, inputs.train_qrels.for_query(query.query_id), metrics["ndcg_k"], metrics["gain"]
        )
        labeled.append((query, hits[: qpp_cfg["k"]], label))
    qpp_model = qpp.train_qpp(
        labeled,
        index,
        epochs=qpp_cfg["epochs"],
        learning_rate=qpp_cfg["learning_rate"],
        k=qpp_cfg["k"],
        orientation=qpp_cfg["orientation"],
    )
    return Served(index, br, sr, ModelQppProvider(qpp_model, index))


def train_median_tau(served: Served, inputs: Inputs, config) -> float:
    """R-QPP's `train_median` threshold, as `run --method r_qpp` resolves it."""
    candidates = pipeline.candidates_for(config, served.index, inputs.train_queries)
    return fusion.train_median_threshold(
        served.qpp.estimate_query(q, candidates[q.query_id]).psi
        for q in inputs.train_queries
        if q.query_id in candidates
    )


@dataclass
class Answer:
    candidates: list
    br: list
    sr: list
    psi: float
    w_qpps: list


def serve_query(served: Served, query, config, fusion_cfg) -> Answer:
    """One query through the read path; the unit the timed phase measures."""
    hits = lexical_retrieval.bm25_search(
        served.index, query, config.run_depth, config.bm25_params()
    )
    br = served.br.rerank_query(query, hits)
    sr = served.sr.rerank_query(query, hits)
    psi = served.qpp.estimate_query(query, hits).psi
    qid = query.query_id
    fused = fusion.w_qpps(
        RunList({qid: br}), RunList({qid: sr}), {qid: psi}, fusion_cfg
    )
    return Answer(hits, br, sr, psi, fused.entries[qid])


def serve_pass(served: Served, queries, config, ops, tracer=None) -> tuple[dict, dict]:
    """Serve every query once; returns answers and latencies (clock.Timing), by qid.

    A query that raises counts as a failed operation and has no answer.
    """
    fusion_cfg = fusion.FusionConfig(
        method="w_qpps", normalize=config.section("fusion")["normalize"]
    )
    answers: dict[str, Answer] = {}
    latencies: dict[str, clock.Timing] = {}
    for query in queries:
        ops.attempted += 1
        started = clock.start()
        try:
            if tracer is None:
                answer = serve_query(served, query, config, fusion_cfg)
            else:
                with tracer.span("serve.query", context=query.query_id):
                    answer = serve_query(served, query, config, fusion_cfg)
        except Exception as exc:  # noqa: BLE001 - counted, reported, exits nonzero
            ops.fail(f"query {query.query_id}", exc)
            continue
        latencies[query.query_id] = clock.stop(started)
        answers[query.query_id] = answer
    return answers, latencies


def assemble_runs(answers: dict, queries, tau: float, config) -> dict[str, RunList]:
    """The 5 system runs over the served queries (BSF and R-QPP untimed)."""
    normalize = config.section("fusion")["normalize"]
    br = RunList({qid: a.br for qid, a in answers.items()}, tag="br")
    sr = RunList({qid: a.sr for qid, a in answers.items()}, tag="sr")
    psis = {qid: a.psi for qid, a in answers.items()}
    w_qpps_cfg = fusion.FusionConfig(method="w_qpps", normalize=normalize)
    w_qpps = RunList(
        {qid: a.w_qpps for qid, a in answers.items()}, tag=f"w_qpps-{w_qpps_cfg.config_hash()}"
    )
    bsf = fusion.bsf(br, sr, fusion.FusionConfig(method="bsf", normalize=normalize))
    r_qpp, _ = fusion.route_qpp(
        ScoreFileRanker.from_run(br),
        ScoreFileRanker.from_run(sr),
        FileQppProvider(psis),
        [q for q in queries if q.query_id in answers],
        {qid: a.candidates for qid, a in answers.items()},
        tau,
        fusion.FusionConfig(method="r_qpp", normalize=normalize),
    )
    return {"br": br, "sr": sr, "bsf": bsf, "r_qpp": r_qpp, "w_qpps": w_qpps}
