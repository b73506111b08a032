"""The experiment as pure stages, plus the CLI stages that load, call and save.

The pure stages work on objects in memory and touch no file:
`enrich_queries`, `fit_ranker`, `fit_qpp`, `rank` and `evaluate`. Once
built, the index is the set of documents that exist; only enrichment,
which selects passages, also reads the corpus text.
`experiment` chains them from a corpus and two query sets to the report.
Each CLI stage (index, enrich, train x3, run per method, eval) only loads
its inputs from the paths of a PipelineConfig, calls a pure stage and
saves its artifact, so the on-disk sequence writes the bytes `experiment`
holds, exactly reproducible from the config and seed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

from .config import ConfigError, PipelineConfig
from .corpus_io import (Document, Qrels, Query, Ranking, RunList, corpus_by_id, parse_file,
                        read_corpus_file, read_qrels_file, read_queries_file, read_run_file,
                        write_artifact, write_lines, write_run_file)
from .enrichment import (EnrichedQuery, HttpGenerator, StubGenerator, classify_hardness,
                         enrich_all, parse_enriched, write_enriched)
from .evaluation import (MetricReport, NoEvaluableQuery, build_report, ndcg_at_k, render_report,
                         report_jsonl)
from .fusion import (FusionConfig, RoutingDecision, bsf, r_qpp, train_median_threshold, w_qpps,
                     write_routing_log)
from .lexical_retrieval import InvertedIndex, bm25_search, build_index, load_index, save_index
from .linear_model import DivergedFit, LogisticScorer, load_scorer, save_scorer
from .pointwise_ranker import FEATURE_NAMES, build_training_set, rerank_batch, train
from .qpp import QPP_FEATURE_NAMES, estimate_batch, train_qpp

log = logging.getLogger(__name__)

RUN_METHODS = ("br", "sr", "bsf", "r_qpp", "w_qpps")


def _require(path: Path, hint: str) -> Path:
    if not path.is_file():
        problem = "is not a file" if path.exists() else "does not exist"
        raise ConfigError(f"{path} {problem} ({hint})")
    return path


def _warn_skipped(what: str, query_ids: list[str]) -> None:
    """One warning for every query a stage skips: the count and the first 5 ids."""
    if query_ids:
        log.warning("%s: %d skipped, first %s", what, len(query_ids), query_ids[:5])


def _graded(config: PipelineConfig) -> str:
    threshold = config.section("ranker")["label_threshold"]
    return f"graded >= ranker.label_threshold ({threshold}) in {config.path('train_qrels')}"


def make_generator(config: PipelineConfig):
    section = config.section("generator")
    if section["type"] == "stub":
        return StubGenerator(context_terms=section["stub_context_terms"])
    return HttpGenerator(endpoint_url=section["endpoint_url"], max_retries=section["max_retries"],
                         auth_token_env=section["auth_token_env"])


def candidates_for(config: PipelineConfig, index: InvertedIndex,
                   queries: list[Query]) -> dict[str, Ranking]:
    """BM25 top-depth candidates per query; empty-result queries are dropped."""
    params = config.bm25_params()
    out = {}
    for query in queries:
        hits = bm25_search(index, query, config.run_depth, params)
        if hits:
            out[query.query_id] = hits
    _warn_skipped("queries with no BM25 candidate",
                  [q.query_id for q in queries if q.query_id not in out])
    return out


def enrich_queries(config: PipelineConfig, index: InvertedIndex, corpus, queries: list[Query],
                   qrels: Qrels | None) -> tuple[list[EnrichedQuery], list, int]:
    """Classify the queries and enrich the hard ones in query-id order;
    returns (enriched records, errors, number of hard queries). `qrels`
    give the context document under `enrichment.use_judged_context`."""
    rule = config.hardness_rule()
    hard = [q for q in queries if classify_hardness(q, rule) == "hard"]
    hard.sort(key=lambda q: q.query_id)
    section, generator = config.section("enrichment"), config.section("generator")
    enriched, errors = enrich_all(
        hard, index, corpus, make_generator(config),
        max_workers=generator["max_in_flight"] if generator["type"] == "http" else 1,
        params=config.bm25_params(), passage_window=section["passage_window"], qrels=qrels,
        use_judged_context=section["use_judged_context"],
    )
    return enriched, errors, len(hard)


def fit_ranker(config: PipelineConfig, which: str, texts: list[tuple[str, str]],
               index: InvertedIndex, qrels: Qrels) -> LogisticScorer:
    """The base ('br') or specialized ('sr') ranker, trained on (query id,
    text) pairs. A training set without a positive or without a negative
    raises ConfigError naming the qrels and `ranker.label_threshold`."""
    section = config.section("ranker")
    training_set = build_training_set(
        texts, qrels, index, index.internal_ids, params=config.bm25_params(),
        depth=config.run_depth, negatives_per_positive=section["negatives_per_positive"],
        label_threshold=section["label_threshold"], seed=config.seed,
    )
    if not training_set.labels.any():
        raise ConfigError(f"cannot train {which}: no training query has a corpus document "
                          f"{_graded(config)}, so there is no positive example")
    if training_set.labels.all():
        raise ConfigError(f"cannot train {which}: every BM25 top-{config.run_depth} candidate "
                          f"of its training queries is {_graded(config)}, so there is no "
                          "negative example; raise the threshold or run_depth")
    try:
        return train(training_set, epochs=section["epochs"],
                     learning_rate=section["learning_rate"], seed=config.seed,
                     model_id=f"pointwise-logistic-v1:{which}")
    except DivergedFit as exc:
        raise ConfigError(f"ranker.learning_rate: {exc}; lower it") from None


def fit_qpp(config: PipelineConfig, index: InvertedIndex, queries: list[Query],
            qrels: Qrels) -> LogisticScorer:
    """The hardness estimator, trained against nDCG@`metrics.ndcg_k` of the first-stage run.

    The model's metadata also keeps "train_median_psi", the median psi over
    every training query that retrieved a candidate: R-QPP's `train_median`
    threshold, so that ranking reads no training data.
    """
    candidates = candidates_for(config, index, queries)
    section = config.section("qpp")
    try:
        model = train_qpp(_qpp_labels(config, queries, candidates, qrels), index,
                          epochs=section["epochs"], learning_rate=section["learning_rate"],
                          k=section["k"], orientation=section["orientation"])
    except DivergedFit as exc:
        raise ConfigError(f"qpp.learning_rate: {exc}; lower it") from None
    psi = estimate_batch(model, index, queries, candidates)
    model.metadata["train_median_psi"] = train_median_threshold(psi.values())
    return model


def _qpp_labels(config, queries, candidates, qrels: Qrels):
    metrics = config.section("metrics")
    threshold = config.section("ranker")["label_threshold"]
    labeled, unjudged = [], []
    for query in queries:
        qid, hits = query.query_id, candidates.get(query.query_id)
        if hits and not qrels.has_positive(qid, threshold):
            unjudged.append(qid)
        elif hits:
            label = ndcg_at_k(hits, qrels.for_query(qid), metrics["ndcg_k"], metrics["gain"])
            labeled.append((query, hits, label))
    _warn_skipped(f"QPP training queries with no document {_graded(config)}", unjudged)
    if len(labeled) < 2:
        raise ConfigError(f"QPP training needs at least 2 training queries with a BM25 "
                          f"candidate and a document {_graded(config)}; {len(labeled)} have both")
    return labeled


def _fuse(config: PipelineConfig, method: str, br: RunList, sr: RunList, psi=None,
          qpp_model: LogisticScorer | None = None):
    """One fusion method's run of the BR and SR runs, and R-QPP's routing
    decisions (else None). Only R-QPP reads the routing threshold, so only
    its config and run tag carry it; `train_median` is the QPP model's."""
    normalize = config.section("fusion")["normalize"]
    if method == "bsf":
        return bsf(br, sr, FusionConfig(method, normalize)), None
    if method == "w_qpps":
        return w_qpps(br, sr, psi, FusionConfig(method, normalize)), None
    tau = config.section("fusion")["routing_threshold"]
    fusion_config = FusionConfig(method, normalize, tau)
    if tau == "train_median":
        tau = qpp_model.metadata.get("train_median_psi")
        if type(tau) not in (int, float) or not 0.0 <= tau <= 1.0:
            raise ConfigError(f"{_model_path(config, 'qpp')} holds no train_median_psi in [0, 1] "
                              f"(found {tau!r}); rerun `hardrank train --which qpp`")
    return r_qpp(br, sr, psi, tau, fusion_config)


def rank(config: PipelineConfig, models: dict[str, LogisticScorer], index: InvertedIndex,
         queries: list[Query], methods=RUN_METHODS
         ) -> tuple[dict[str, RunList], list[RoutingDecision] | None]:
    """Rank the queries that retrieve BM25 candidates by each of `methods`.

    Returns the runs by method and R-QPP's routing decisions in query-id
    order (None without 'r_qpp'). One feature pass builds the rows of
    every query's list, and BR and SR each score them once
    (`pointwise_ranker.rerank_batch`). The fusion methods combine those two
    runs, R-QPP and W-QPPS with psi from `models["qpp"]`, also estimated
    in one batch. `models` needs only what the methods read: 'br' or 'sr'
    alone reranks with that one model and estimates no psi.
    """
    candidates = candidates_for(config, index, queries)
    queries = [q for q in queries if q.query_id in candidates]
    fused = [m for m in methods if m not in ("br", "sr")]
    rankers = [which for which in ("br", "sr") if which in methods or fused]
    reranked = rerank_batch([models[which] for which in rankers],
                            [(q.text, candidates[q.query_id]) for q in queries], index,
                            config.bm25_params())
    qids = [q.query_id for q in queries]
    runs = {which: RunList(dict(zip(qids, lists)), tag=which)
            for which, lists in zip(rankers, reranked)}
    qpp_model, decisions = models.get("qpp"), None
    psi = (estimate_batch(qpp_model, index, queries, candidates)
           if {"r_qpp", "w_qpps"} & set(fused) else None)
    for method in fused:
        runs[method], routed = _fuse(config, method, runs["br"], runs["sr"], psi, qpp_model)
        decisions = routed or decisions
    return {method: runs[method] for method in methods}, decisions


def evaluate(config: PipelineConfig, runs: dict[str, RunList], qrels: Qrels,
             baseline: str) -> MetricReport:
    """The report of the named runs against `qrels`, each compared with `baseline`."""
    metrics = config.section("metrics")
    return build_report(runs, qrels, baseline, k=metrics["ndcg_k"],
                        rr_cutoff=metrics["rr_cutoff"], gain=metrics["gain"],
                        include_no_positive=metrics["include_no_positive"])


@dataclass(frozen=True)
class Experiment:
    """What `experiment` made: the enriched training queries, the models by
    name, the runs by method, R-QPP's routing decisions and the report."""

    enriched: list[EnrichedQuery]
    models: dict[str, LogisticScorer]
    runs: dict[str, RunList]
    decisions: list[RoutingDecision]
    report: MetricReport


def experiment(config: PipelineConfig, corpus: list[Document], train_queries: list[Query],
               train_qrels: Qrels, test_queries: list[Query], test_qrels: Qrels) -> Experiment:
    """The whole experiment in memory: index the corpus, enrich the hard
    training queries, fit BR, SR and QPP on the training queries, rank the
    test queries by every method and evaluate them against BR. It reads
    none of the config's `paths` and writes nothing. A failed enrichment
    raises its first error.
    """
    index, docs = build_index(corpus), corpus_by_id(corpus)
    enriched, errors, _ = enrich_queries(config, index, docs, train_queries, train_qrels)
    if errors:
        raise errors[0]
    br_texts = [(q.query_id, q.text) for q in train_queries]
    sr_texts = sorted((e.query_id, e.enriched_text) for e in enriched)
    models = {
        "br": fit_ranker(config, "br", br_texts, index, train_qrels),
        "sr": fit_ranker(config, "sr", sr_texts, index, train_qrels),
        "qpp": fit_qpp(config, index, train_queries, train_qrels),
    }
    runs, decisions = rank(config, models, index, test_queries)
    return Experiment(enriched, models, runs, decisions, evaluate(config, runs, test_qrels, "br"))


def build_and_save_index(config: PipelineConfig, force: bool = False) -> InvertedIndex:
    corpus_path = _require(config.path("corpus"), "corpus JSONL")
    index_path = config.path("index")
    if index_path.is_file() and not force:
        raise ConfigError(f"{index_path} already exists; pass --force to rebuild")
    docs = read_corpus_file(corpus_path)
    if not docs:
        raise ConfigError(f"{corpus_path} holds no documents (paths.corpus)")
    index = build_index(docs)
    save_index(index, index_path)
    return index


def _load_index(config: PipelineConfig) -> InvertedIndex:
    return load_index(_require(config.path("index"), "run the index command first"))


def enrich_training_queries(config: PipelineConfig) -> tuple[list[EnrichedQuery], list, int]:
    """`enrich_queries` on the training queries: returns (enriched records,
    errors, number of hard queries). The enriched TSV is written, even
    when empty, only when no query failed: a failed run leaves an existing
    file as it was, so `train --which sr` never reads the subset that
    succeeded. A corpus that lacks a document the index holds (it changed
    after `index`) raises ConfigError naming both, before anything is
    enriched."""
    corpus_path = _require(config.path("corpus"), "corpus JSONL")
    corpus = corpus_by_id(read_corpus_file(corpus_path))
    index = _load_index(config)
    absent = next((doc_id for doc_id in index.doc_ids if doc_id not in corpus), None)
    if absent is not None:
        raise ConfigError(f"{corpus_path} lacks document {absent!r}, which the index "
                          f"{config.path('index')} holds; the corpus changed after the index "
                          "was built: rebuild it with `hardrank index --force`")
    queries = read_queries_file(_require(config.path("train_queries"), "training queries"))
    qrels = None
    if config.section("enrichment")["use_judged_context"]:
        qrels = read_qrels_file(_require(config.path("train_qrels"), "training qrels"))
    enriched, errors, n_hard = enrich_queries(config, index, corpus, queries, qrels)
    if not errors:
        write_lines(config.path("enriched_queries"), write_enriched(enriched))
    return enriched, errors, n_hard


def _model_path(config: PipelineConfig, which: str) -> Path:
    return config.path("models_dir") / f"{which}.json"


def train_ranker(config: PipelineConfig, which: str) -> Path:
    """Train and persist the base ('br') or specialized ('sr') ranker."""
    if which not in ("br", "sr"):
        raise ConfigError(f"unknown ranker {which!r}")
    index = _load_index(config)
    qrels = read_qrels_file(_require(config.path("train_qrels"), "training qrels"))
    queries = read_queries_file(_require(config.path("train_queries"), "training queries"))

    if which == "br":
        texts = [(q.query_id, q.text) for q in queries]
    else:
        enriched_path = config.path("enriched_queries")
        hint = "the specialized ranker needs enriched training queries; run the enrich command"
        enriched = parse_file(parse_enriched, _require(enriched_path, hint))
        if not enriched:
            raise ConfigError(f"{enriched_path} holds no queries ({hint})")
        foreign = sorted(enriched.keys() - {q.query_id for q in queries})
        if foreign:
            raise ConfigError(f"{enriched_path} holds queries that are not training queries "
                              f"({foreign[:5]}); rerun `hardrank enrich`")
        texts = [(qid, text) for qid, (text, _, _) in sorted(enriched.items())]
    return _save_model(config, which, fit_ranker(config, which, texts, index, qrels))


def train_qpp_model(config: PipelineConfig) -> Path:
    """Train and persist the hardness estimator (`fit_qpp`)."""
    index = _load_index(config)
    qrels_path = _require(config.path("train_qrels"), "QPP training labels need judgments")
    qrels = read_qrels_file(qrels_path)
    queries = read_queries_file(_require(config.path("train_queries"), "training queries"))
    return _save_model(config, "qpp", fit_qpp(config, index, queries, qrels))


def _load_model(config: PipelineConfig, which: str) -> LogisticScorer:
    """The trained 'br', 'sr' or 'qpp' model. A file that holds no model of
    that kind, or not one weight per feature, raises ValueError naming the
    path."""
    path = _require(_model_path(config, which), f"train {which} first")
    kind, names = ("qpp", QPP_FEATURE_NAMES) if which == "qpp" else ("ranker", FEATURE_NAMES)
    model = load_scorer(path, kind)
    if len(model.weights) != len(names):
        raise ValueError(f"{path}: holds {len(model.weights)} weights, not one per "
                         f"{kind} feature ({len(names)}); retrain the model")
    return model


def _save_model(config: PipelineConfig, which: str, model: LogisticScorer) -> Path:
    """Write the model file and, beside it, its loss curve as `epoch<TAB>loss` lines."""
    path = _model_path(config, which)
    save_scorer(model, path)
    curve = enumerate(model.metadata["loss_curve"])
    write_lines(path.with_suffix(".loss.tsv"), (f"{epoch}\t{loss!r}" for epoch, loss in curve))
    return path


def _fusion_inputs(config: PipelineConfig, expected=None, test_ids=frozenset()):
    """Parse `br.txt` and `sr.txt`; each must rank exactly the documents
    `expected` maps each query id to, by default (BSF) those of `br.txt` on
    the test queries. A missing run file, or one that ranks other queries or
    documents, raises ConfigError naming it.
    """
    bsf_inputs = expected is None
    reference = "the test queries" if bsf_inputs else "the BM25 test candidates"
    runs = []
    for which in ("br", "sr"):
        hint = f"produce it with `hardrank run --method {which}`"
        path = _require(config.path("runs_dir") / f"{which}.txt", hint)
        run = read_run_file(path)
        docs = {qid: set(entry.doc_ids) for qid, entry in run.entries.items()}
        if expected is None:
            expected = {qid: ids for qid, ids in docs.items() if qid in test_ids}
        differ = sorted(q for q in docs.keys() | expected.keys() if docs.get(q) != expected.get(q))
        if differ:
            raise ConfigError(
                f"{path} ranks other queries or documents than {reference} (query ids "
                f"{differ[:5]}); rerun `hardrank run --method br` and `--method sr`"
            )
        runs.append(run)
        if bsf_inputs:
            reference = str(path)
    return runs


def produce_run(config: PipelineConfig, method: str) -> tuple[Path, Path | None]:
    """Rank the test queries by one method and write the run file.

    Returns (run path, routing log path or None). 'br' and 'sr' rerank the
    BM25 test candidates with one trained model (`rank`). The fusion
    methods combine the two run files those wrote, so `run --method br` and
    `sr` come first: 'bsf' reads nothing else, and 'r_qpp' and 'w_qpps'
    also load the index and the QPP model for each query's psi.
    """
    if method not in RUN_METHODS:
        raise ConfigError(f"unknown method {method!r}; choose from {RUN_METHODS}")
    test_queries = _require(config.path("test_queries"), "test queries")
    decisions = None
    if method in ("br", "sr"):
        index, queries = _load_index(config), read_queries_file(test_queries)
        models = {method: _load_model(config, method)}
        run = rank(config, models, index, queries, (method,))[0][method]
    elif method == "bsf":
        test_ids = {q.query_id for q in read_queries_file(test_queries)}
        run, _ = _fuse(config, method, *_fusion_inputs(config, test_ids=test_ids))
    else:
        index, queries = _load_index(config), read_queries_file(test_queries)
        candidates = candidates_for(config, index, queries)
        qpp_model = _load_model(config, "qpp")
        br, sr = _fusion_inputs(
            config, {qid: set(hits.doc_ids) for qid, hits in candidates.items()}
        )
        psi = estimate_batch(qpp_model, index, queries, candidates)
        run, decisions = _fuse(config, method, br, sr, psi, qpp_model)

    routing_log = None
    if decisions is not None:
        routing_log = config.path("runs_dir") / "r_qpp.routing.tsv"
        write_lines(routing_log, write_routing_log(decisions))
    run_path = config.path("runs_dir") / f"{method}.txt"
    write_run_file(run, run_path)
    return run_path, routing_log


def evaluate_runs(config: PipelineConfig, run_paths: list[Path],
                  baseline: str) -> tuple[MetricReport, Path, Path]:
    """Score named run files against the test qrels (`evaluate`) and persist the
    report. Qrels with no judgment are an error, and so are qrels with no
    positive judgment unless `metrics.include_no_positive` is set."""
    qrels_path = _require(config.path("test_qrels"), "test qrels")
    qrels = read_qrels_file(qrels_path)
    paths: dict[str, Path] = {}
    for path in map(Path, run_paths):
        if path.stem in paths:
            raise ConfigError(f"run files {paths[path.stem]} and {path} share the system name "
                              f"{path.stem!r}")
        paths[path.stem] = _require(path, "run file")
    runs = {name: read_run_file(path) for name, path in paths.items()}
    try:
        report = evaluate(config, runs, qrels, baseline)
    except NoEvaluableQuery as exc:
        why = (f"test qrels file {qrels_path} holds no judgment, so no query is evaluable"
               if exc.judged == 0 else
               f"no test query in {qrels_path} has a document graded >= 1, so none is "
               "evaluable; set metrics.include_no_positive=true to evaluate them")
        raise ConfigError(why) from None
    reports_dir = config.path("reports_dir")
    text_path = reports_dir / "report.txt"
    jsonl_path = reports_dir / "report.jsonl"
    write_artifact(text_path, render_report(report) + "\n")
    write_lines(jsonl_path, report_jsonl(report))
    return report, text_path, jsonl_path
