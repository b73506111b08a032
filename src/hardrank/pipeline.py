"""End-to-end orchestration shared by the command-line surface.

Each function here corresponds to one pipeline stage and works purely from
a PipelineConfig plus on-disk artifacts, so a full experiment is a sequence
of calls (index, enrich, train x3, run per method, eval) that is exactly
reproducible from the config and seed.
"""

from __future__ import annotations

import logging
from pathlib import Path

from .config import ConfigError, PipelineConfig
from .corpus_io import (
    Qrels,
    Query,
    RunList,
    corpus_by_id,
    parse_file,
    read_corpus_file,
    read_qrels_file,
    read_queries_file,
    read_run_file,
    write_artifact,
    write_lines,
    write_run_file,
)
from .enrichment import (
    EnrichedQuery,
    HttpGenerator,
    StubGenerator,
    classify_hardness,
    enrich_all,
    parse_enriched,
    write_enriched,
)
from .evaluation import MetricReport, build_report, ndcg_at_k, render_report, report_jsonl
from .fusion import FusionConfig, bsf, r_qpp, train_median_threshold, w_qpps, write_routing_log
from .lexical_retrieval import (
    InvertedIndex,
    bm25_search,
    build_index,
    load_index,
    save_index,
)
from .linear_model import DivergedFit, LogisticScorer, load_scorer, save_scorer
from .pointwise_ranker import FEATURE_NAMES, build_training_set, rerank, train
from .qpp import QPP_FEATURE_NAMES, estimate, train_qpp

log = logging.getLogger(__name__)

RUN_METHODS = ("br", "sr", "bsf", "r_qpp", "w_qpps")


def _require(path: Path, hint: str) -> Path:
    if not path.is_file():
        problem = "is not a file" if path.exists() else "does not exist"
        raise ConfigError(f"{path} {problem} ({hint})")
    return path


def make_generator(config: PipelineConfig):
    section = config.section("generator")
    if section["type"] == "stub":
        return StubGenerator(context_terms=section["stub_context_terms"])
    return HttpGenerator(
        endpoint_url=section["endpoint_url"],
        auth_token_env=section["auth_token_env"],
        max_retries=section["max_retries"],
        max_in_flight=section["max_in_flight"],
    )


def build_and_save_index(config: PipelineConfig, force: bool = False) -> InvertedIndex:
    corpus_path = _require(config.path("corpus"), "corpus JSONL")
    index_path = config.path("index")
    if index_path.is_file() and not force:
        raise ConfigError(f"{index_path} already exists; pass --force to rebuild")
    corpus = read_corpus_file(corpus_path)
    index = build_index(corpus)
    save_index(index, index_path)
    return index


def _load_index(config: PipelineConfig) -> InvertedIndex:
    return load_index(_require(config.path("index"), "run the index command first"))


def _load_retrieval(config: PipelineConfig):
    corpus = read_corpus_file(_require(config.path("corpus"), "corpus JSONL"))
    return corpus_by_id(corpus), _load_index(config)


def candidates_for(
    config: PipelineConfig, index: InvertedIndex, queries: list[Query]
) -> dict[str, list]:
    """BM25 top-depth candidates per query; empty-result queries are dropped."""
    params = config.bm25_params()
    out = {}
    for query in queries:
        hits = bm25_search(index, query, config.run_depth, params)
        if hits:
            out[query.query_id] = hits
        else:
            log.warning("query %s: no candidates retrieved, skipped", query.query_id)
    return out


def enrich_training_queries(
    config: PipelineConfig,
) -> tuple[list[EnrichedQuery], list, int]:
    """Classify the training queries and enrich the hard ones.

    Returns (enriched records, errors, number of hard queries). The enriched
    TSV is written, even when empty, only when no query failed: a failed
    run leaves an existing file as it was, so `train --which sr` never
    reads the subset that succeeded.
    """
    corpus, index = _load_retrieval(config)
    queries = read_queries_file(_require(config.path("train_queries"), "training queries"))
    rule = config.hardness_rule()
    hard = [q for q in queries if classify_hardness(q, rule) == "hard"]
    section = config.section("enrichment")
    qrels = None
    if section["use_judged_context"]:
        qrels = read_qrels_file(_require(config.path("train_qrels"), "training qrels"))
    generator = make_generator(config)
    max_workers = 1
    if config.section("generator")["type"] == "http":
        max_workers = config.section("generator")["max_in_flight"]
    enriched, errors = enrich_all(
        hard,
        index,
        corpus,
        generator,
        max_workers=max_workers,
        params=config.bm25_params(),
        passage_window=section["passage_window"],
        qrels=qrels,
        use_judged_context=section["use_judged_context"],
    )
    if not errors:
        write_lines(config.path("enriched_queries"), write_enriched(enriched))
    return enriched, errors, len(hard)


def _model_path(config: PipelineConfig, which: str) -> Path:
    return config.path("models_dir") / f"{which}.json"


def train_ranker(config: PipelineConfig, which: str) -> Path:
    """Train and persist the base ('br') or specialized ('sr') ranker."""
    if which not in ("br", "sr"):
        raise ConfigError(f"unknown ranker {which!r}")
    corpus, index = _load_retrieval(config)
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
            raise ConfigError(
                f"{enriched_path} holds queries that are not training queries "
                f"({foreign[:5]}); rerun `hardrank enrich`"
            )
        texts = [(qid, text) for qid, (text, _, _) in sorted(enriched.items())]

    section = config.section("ranker")
    instances = build_training_set(
        texts,
        qrels,
        index,
        corpus,
        params=config.bm25_params(),
        depth=config.run_depth,
        negatives_per_positive=section["negatives_per_positive"],
        label_threshold=section["label_threshold"],
        seed=config.seed,
    )
    try:
        model = train(
            instances,
            epochs=section["epochs"],
            learning_rate=section["learning_rate"],
            seed=config.seed,
            model_id=f"pointwise-logistic-v1:{which}",
        )
    except DivergedFit as exc:
        raise ConfigError(f"ranker.learning_rate: {exc}; lower it") from None
    return _save_model(config, which, model)


def train_qpp_model(config: PipelineConfig) -> Path:
    """Train the hardness estimator against nDCG@10 of the first-stage run.

    The model's metadata also keeps "train_median_psi", the median psi over
    every training query that retrieved a candidate: R-QPP's `train_median`
    threshold, so that `run` reads no training data.
    """
    index = _load_index(config)
    qrels = read_qrels_file(
        _require(config.path("train_qrels"), "QPP training labels need judgments")
    )
    queries = read_queries_file(_require(config.path("train_queries"), "training queries"))
    candidates = candidates_for(config, index, queries)
    section = config.section("qpp")
    try:
        model = train_qpp(
            _qpp_labels(config, queries, candidates, qrels),
            index,
            epochs=section["epochs"],
            learning_rate=section["learning_rate"],
            k=section["k"],
            orientation=section["orientation"],
        )
    except DivergedFit as exc:
        raise ConfigError(f"qpp.learning_rate: {exc}; lower it") from None
    model.metadata["train_median_psi"] = train_median_threshold(
        estimate(model, q, candidates[q.query_id], index).psi
        for q in queries
        if q.query_id in candidates
    )
    return _save_model(config, "qpp", model)


def _qpp_labels(config, queries, candidates, qrels: Qrels):
    metrics = config.section("metrics")
    k = config.section("qpp")["k"]
    labeled = []
    for query in queries:
        hits = candidates.get(query.query_id)
        if not hits:
            continue
        if not qrels.has_positive(query.query_id, config.section("ranker")["label_threshold"]):
            log.warning("query %s: no positive judgments, skipped for QPP", query.query_id)
            continue
        label = ndcg_at_k(
            hits, qrels.for_query(query.query_id), metrics["ndcg_k"], metrics["gain"]
        )
        labeled.append((query, hits[:k], label))
    if len(labeled) < 2:
        raise ConfigError("QPP training needs at least 2 labeled queries")
    return labeled


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


def _fusion_config(config: PipelineConfig, method: str) -> FusionConfig:
    """The method's fusion settings; only R-QPP reads the routing threshold,
    so only its config, and the tag of its run, carry it."""
    section = config.section("fusion")
    threshold = {"routing_threshold": section["routing_threshold"]} if method == "r_qpp" else {}
    return FusionConfig(method=method, normalize=section["normalize"], **threshold)


def _ranked_test_queries(config: PipelineConfig, index: InvertedIndex):
    """The test queries that retrieved candidates, in file order, and those candidates."""
    queries = read_queries_file(_require(config.path("test_queries"), "test queries"))
    candidates = candidates_for(config, index, queries)
    return [q for q in queries if q.query_id in candidates], candidates


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
        docs = {qid: {rec.doc_id for rec in recs} for qid, recs in run.entries.items()}
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
    BM25 test candidates with one trained model. The fusion methods combine
    the two run files those wrote, so `run --method br` and `sr` come first:
    'bsf' reads nothing else, and 'r_qpp' and 'w_qpps' also load the index
    and the QPP model for each query's psi.
    """
    if method not in RUN_METHODS:
        raise ConfigError(f"unknown method {method!r}; choose from {RUN_METHODS}")
    routing_log: Path | None = None
    if method in ("br", "sr"):
        corpus, index = _load_retrieval(config)
        queries, candidates = _ranked_test_queries(config, index)
        model, params = _load_model(config, method), config.bm25_params()
        entries = {
            q.query_id: rerank(model, q.text, candidates[q.query_id], corpus, index, params)
            for q in queries
        }
        run = RunList(entries=entries, tag=method)
    elif method == "bsf":
        queries = read_queries_file(_require(config.path("test_queries"), "test queries"))
        br, sr = _fusion_inputs(config, test_ids={q.query_id for q in queries})
        run = bsf(br, sr, _fusion_config(config, method))
    else:
        index = _load_index(config)
        queries, candidates = _ranked_test_queries(config, index)
        qpp_model = _load_model(config, "qpp")
        tau = config.section("fusion")["routing_threshold"]
        if method == "r_qpp" and tau == "train_median":
            tau = qpp_model.metadata.get("train_median_psi")
            if type(tau) not in (int, float) or not 0.0 <= tau <= 1.0:
                raise ConfigError(
                    f"{_model_path(config, 'qpp')} holds no train_median_psi in [0, 1] "
                    f"(found {tau!r}); rerun `hardrank train --which qpp`"
                )
        br, sr = _fusion_inputs(
            config, {qid: {rec.doc_id for rec in hits} for qid, hits in candidates.items()}
        )
        # in test-query file order, which the routing log follows
        psi = {q.query_id: estimate(qpp_model, q, candidates[q.query_id], index).psi
               for q in queries}
        fusion_config = _fusion_config(config, method)
        if method == "r_qpp":
            run, decisions = r_qpp(br, sr, psi, tau, fusion_config)
            routing_log = config.path("runs_dir") / "r_qpp.routing.tsv"
            write_lines(routing_log, write_routing_log(decisions))
        else:
            run = w_qpps(br, sr, psi, fusion_config)

    run_path = config.path("runs_dir") / f"{method}.txt"
    write_run_file(run, run_path)
    return run_path, routing_log


def evaluate_runs(
    config: PipelineConfig, run_paths: list[Path], baseline: str
) -> tuple[MetricReport, Path, Path]:
    """Score named run files against the test qrels and persist the report."""
    qrels = read_qrels_file(_require(config.path("test_qrels"), "test qrels"))
    paths: dict[str, Path] = {}
    for path in map(Path, run_paths):
        if path.stem in paths:
            raise ConfigError(
                f"run files {paths[path.stem]} and {path} share the system name {path.stem!r}"
            )
        paths[path.stem] = _require(path, "run file")
    runs = {name: read_run_file(path) for name, path in paths.items()}
    metrics = config.section("metrics")
    report = build_report(
        runs,
        qrels,
        baseline,
        k=metrics["ndcg_k"],
        rr_cutoff=metrics["rr_cutoff"],
        gain=metrics["gain"],
        include_no_positive=metrics["include_no_positive"],
    )
    reports_dir = config.path("reports_dir")
    text_path = reports_dir / "report.txt"
    jsonl_path = reports_dir / "report.jsonl"
    write_artifact(text_path, render_report(report) + "\n")
    write_lines(jsonl_path, report_jsonl(report))
    return report, text_path, jsonl_path
