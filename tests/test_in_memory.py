"""The experiment in memory equals the CLI stages on disk, bit for bit.

`pipeline.experiment` chains the pure stages with no file I/O. Rendered
with the writers the CLI stages use, its enriched queries, models, runs,
routing log and reports are the bytes those stages write: on the README
benchmark, where `tests/test_golden.py` pins them, and on a held-out
split (even topics train, odd topics test) built as the benchmark under
`perfbench/` builds it.
"""

import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from hardrank import pipeline
from hardrank.benchmark import generate_benchmark, write_benchmark
from hardrank.config import ConfigError, PipelineConfig, load_config, validate
from hardrank.corpus_io import Qrels, Query, write_queries_file, write_run
from hardrank.enrichment import write_enriched
from hardrank.evaluation import METRIC_NAMES, render_report, report_jsonl
from hardrank.fusion import write_routing_log
from hardrank.lexical_retrieval import build_index
from test_golden import ENRICHED_SHA256, GOLDEN_SHA256, MODEL_SHA256, README_CONFIG

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _text(lines) -> bytes:
    return "".join(f"{line}\n" for line in lines).encode()


def artifacts(result: pipeline.Experiment, models_dir: Path) -> dict[str, bytes]:
    """What the CLI stages would write for `result`, by file name. The
    models go through the stages' own model writer, into `models_dir`."""
    config = PipelineConfig(raw=validate({"paths": {"models_dir": str(models_dir)}}))
    out = {
        "enriched.tsv": _text(write_enriched(result.enriched)),
        "r_qpp.routing.tsv": _text(write_routing_log(result.decisions)),
        "report.txt": (render_report(result.report) + "\n").encode(),
        "report.jsonl": _text(report_jsonl(result.report)),
    }
    for method, run in result.runs.items():
        out[f"{method}.txt"] = _text(write_run(run))
    for which, model in result.models.items():
        pipeline._save_model(config, which, model)
    out.update((path.name, path.read_bytes()) for path in models_dir.iterdir())
    return out


def on_disk(config, after_enrich=None) -> dict[str, bytes]:
    """Every CLI stage in order, then what they wrote but the index, by file
    name. The stages after `enrich` run under `after_enrich`, if given."""
    pipeline.build_and_save_index(config)
    _, errors, _ = pipeline.enrich_training_queries(config)
    assert not errors
    config = after_enrich or config
    for which in ("br", "sr"):
        pipeline.train_ranker(config, which)
    pipeline.train_qpp_model(config)
    run_paths = [pipeline.produce_run(config, method)[0] for method in pipeline.RUN_METHODS]
    pipeline.evaluate_runs(config, run_paths, "br")
    written = [config.path("enriched_queries")]
    for name in ("models_dir", "runs_dir", "reports_dir"):
        written.extend(config.path(name).iterdir())
    return {path.name: path.read_bytes() for path in written}


@pytest.fixture(scope="module")
def readme():
    """The README benchmark, its config and its in-memory experiment."""
    bench = generate_benchmark(seed=7)
    config = PipelineConfig(raw=validate(README_CONFIG))
    queries, qrels = bench.queries, bench.qrels
    return bench, config, pipeline.experiment(config, bench.corpus, queries, qrels, queries, qrels)


def assert_golden(result: pipeline.Experiment, models_dir: Path) -> None:
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in artifacts(result, models_dir).items()}
    assert digests.pop("enriched.tsv") == ENRICHED_SHA256["judged"]
    assert {name: digests.pop(name) for name in MODEL_SHA256} == MODEL_SHA256
    assert digests == GOLDEN_SHA256


def test_readme_experiment_gives_the_golden_bytes(readme, tmp_path):
    assert_golden(readme[2], tmp_path)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("shuffled", ["corpus", "qrels"])
def test_line_order_of_the_corpus_and_qrels_changes_no_artifact(readme, tmp_path, shuffled,
                                                                seed):
    # the qrels judgments are shuffled in their insertion order
    bench, config, _ = readme
    corpus, judgments = list(bench.corpus), list(bench.qrels.judgments.items())
    random.Random(seed).shuffle(corpus if shuffled == "corpus" else judgments)
    queries, qrels = bench.queries, Qrels(dict(judgments))
    assert_golden(pipeline.experiment(config, corpus, queries, qrels, queries, qrels), tmp_path)


def _reordered(queries, order):
    """`queries` reversed (order None) or shuffled by `random.Random(order)`."""
    if order is None:
        return queries[::-1]
    queries = list(queries)
    random.Random(order).shuffle(queries)
    return queries


def _readme_on_disk(root, queries, which: str) -> PipelineConfig:
    """The README benchmark under `root`, with `queries` as its `which`
    ('train' or 'test') query file, and its config."""
    write_benchmark(root, seed=7)
    write_queries_file(queries, root / f"{which}_queries.tsv")
    paths = {**README_CONFIG["paths"], f"{which}_queries": f"{which}_queries.tsv"}
    (root / "config.json").write_text(json.dumps({**README_CONFIG, "paths": paths}))
    return load_config(root / "config.json")


@pytest.mark.parametrize("order", [None, 0, 1, 2], ids=["reversed", "seed0", "seed1", "seed2"])
def test_line_order_of_the_test_queries_changes_no_artifact(readme, tmp_path, order):
    # the routing log lists the decisions in query-id order, as the runs do
    bench, config, result = readme
    queries = _reordered(bench.queries, order)
    assert [q.query_id for q in queries] != [q.query_id for q in bench.queries]
    assert_golden(pipeline.experiment(config, bench.corpus, bench.queries, bench.qrels, queries,
                                      bench.qrels), tmp_path / "memory")
    disk = _readme_on_disk(tmp_path / "disk", queries, "test")
    assert on_disk(disk) == artifacts(result, tmp_path / "models")


def test_line_order_of_the_training_queries_changes_no_enriched_query_or_sr(readme, tmp_path):
    # the hard queries are enriched in query-id order and SR trains on its
    # texts sorted by id; BR and QPP still fit their rows in file order, so
    # br.json, qpp.json and the runs still follow it (ROADMAP item 16)
    bench, config, _ = readme
    queries = bench.queries[::-1]
    result = pipeline.experiment(config, bench.corpus, queries, bench.qrels, bench.queries,
                                 bench.qrels)
    written = artifacts(result, tmp_path / "memory")
    disk = _readme_on_disk(tmp_path / "disk", queries, "train")
    pipeline.build_and_save_index(disk)
    _, errors, _ = pipeline.enrich_training_queries(disk)
    assert not errors
    pipeline.train_ranker(disk, "sr")
    models = disk.path("models_dir")
    for got in (written, {path.name: path.read_bytes()
                          for path in (disk.path("enriched_queries"), *models.iterdir())}):
        digests = {name: hashlib.sha256(got[name]).hexdigest()
                   for name in ("enriched.tsv", "sr.json", "sr.loss.tsv")}
        assert digests == {"enriched.tsv": ENRICHED_SHA256["judged"],
                           "sr.json": MODEL_SHA256["sr.json"],
                           "sr.loss.tsv": MODEL_SHA256["sr.loss.tsv"]}


def test_stages_after_enrich_read_no_corpus(readme, tmp_path):
    # after `index` and `enrich`, the index is the only document store
    write_benchmark(tmp_path, seed=7)
    (tmp_path / "config.json").write_text(json.dumps(README_CONFIG))
    config = load_config(tmp_path / "config.json")
    gone = load_config(tmp_path / "config.json", ["paths.corpus=missing.jsonl"])
    assert not gone.path("corpus").exists()
    assert on_disk(config, gone) == artifacts(readme[2], tmp_path / "models")


def test_held_out_experiment_equals_the_on_disk_stages(tmp_path):
    workloads = _load_workloads()
    inputs = workloads.scaled_inputs(1, 1)
    config = load_config(workloads.write_inputs(inputs, tmp_path / "inputs"))
    result = pipeline.experiment(config, inputs.corpus, inputs.train_queries, inputs.train_qrels,
                                 inputs.test_queries, inputs.test_qrels)
    assert {q.query_id for q in inputs.train_queries}.isdisjoint(result.runs["br"].entries)
    assert artifacts(result, tmp_path / "models") == on_disk(config)


def test_rank_makes_one_feature_pass_per_query(readme, kernel_calls):
    # one kernel call for the stage, each query's list in it once, and
    # none from the fusion methods that follow
    bench, config, result = readme
    index = build_index(bench.corpus)
    runs, decisions = pipeline.rank(config, result.models, index, bench.queries)
    assert len(kernel_calls) == 1
    assert [text for text, _ in kernel_calls[0]] == [q.text for q in bench.queries]
    assert runs == result.runs
    assert decisions == result.decisions


@pytest.fixture(scope="module")
def extended():
    """`scaled_inputs(1, 5, True)`: its corpus, test queries, README config,
    experiment and hard test query ids."""
    inputs = _load_workloads().scaled_inputs(1, 5, True)
    config = PipelineConfig(raw=validate(README_CONFIG))
    result = pipeline.experiment(config, inputs.corpus, inputs.train_queries, inputs.train_qrels,
                                 inputs.test_queries, inputs.test_qrels)
    return inputs.corpus, inputs.test_queries, config, result, inputs.hard_test_ids


def test_held_out_means_of_all_hard_and_easy_queries(extended):
    # ROADMAP item 1's held-out row: SR beats BR on the hard queries and
    # loses on the easy ones; BSF beats BR on both
    _, queries, _, result, hard_ids = extended
    report = result.report
    assert report.query_ids == tuple(sorted(q.query_id for q in queries))
    hard = np.isin(report.query_ids, hard_ids)
    ndcg = report.values[:, METRIC_NAMES.index("ndcg10")]
    means = {name: [round(float(np.mean(row[which])), 3) for which in (..., hard, ~hard)]
             for name, row in zip(report.systems, ndcg)}
    assert means == {
        "br": [0.616, 0.391, 0.840],
        "sr": [0.560, 0.915, 0.205],
        "bsf": [0.757, 0.648, 0.867],
        "r_qpp": [0.644, 0.448, 0.840],
        "w_qpps": [0.694, 0.548, 0.840],
    }


@pytest.mark.parametrize("inputs", ["readme", "extended"])
def test_one_query_rank_is_the_search_path(request, inputs, kernel_calls):
    # serving a query is `rank` on it alone: its lists and routing decision
    # are the batch run's, bit for bit, from one feature pass
    if inputs == "readme":
        bench, config, result = request.getfixturevalue("readme")
        corpus, queries = bench.corpus, bench.queries
    else:
        corpus, queries, config, result, _ = request.getfixturevalue("extended")
    index = build_index(corpus)
    decided = {d.query_id: d for d in result.decisions}
    for query in queries:
        kernel_calls.clear()
        runs, decisions = pipeline.rank(config, result.models, index, [query])
        assert len(kernel_calls) == 1
        assert decisions == [decided[query.query_id]]
        assert list(runs) == list(pipeline.RUN_METHODS)
        for method, run in runs.items():
            [(qid, got)] = run.entries.items()
            want = result.runs[method].entries[query.query_id]
            assert qid == query.query_id and got.doc_ids == want.doc_ids
            assert got.scores.tobytes() == want.scores.tobytes()


def test_rank_builds_no_record(readme, record_constructions):
    # BM25, both reranks, psi and the three fusions read and write arrays
    bench, config, result = readme
    index = build_index(bench.corpus)
    runs, _ = pipeline.rank(config, result.models, index, bench.queries)
    assert record_constructions == []
    assert runs == result.runs


def test_rank_with_one_ranker_reads_no_other_model(readme, kernel_calls):
    bench, config, result = readme
    index = build_index(bench.corpus)
    runs, decisions = pipeline.rank(config, {"sr": result.models["sr"]}, index, bench.queries,
                                    ("sr",))
    assert list(runs) == ["sr"] and decisions is None
    assert runs["sr"] == result.runs["sr"]
    assert len(kernel_calls) == 1
    assert [text for text, _ in kernel_calls[0]] == [q.text for q in bench.queries]


def test_rank_of_a_query_no_document_matches(readme):
    # R-QPP routed no query: its decisions are an empty list, as the routing
    # log `produce_run` writes is empty; only a rank without it gives None
    bench, config, result = readme
    index = build_index(bench.corpus)
    unmatched = [Query("zz", "qqqqq zzzzz")]
    runs, decisions = pipeline.rank(config, result.models, index, unmatched)
    assert decisions == []
    assert {method: run.entries for method, run in runs.items()} == {
        method: {} for method in pipeline.RUN_METHODS}
    runs, decisions = pipeline.rank(config, {"sr": result.models["sr"]}, index, unmatched,
                                    ("sr",))
    assert list(runs) == ["sr"] and runs["sr"].entries == {} and decisions is None


def test_training_set_without_a_negative_names_the_qrels_and_threshold(readme):
    # every BM25 candidate of every query judged relevant leaves no negative
    bench, config, _ = readme
    index = build_index(bench.corpus)
    queries = bench.queries[:2]
    candidates = pipeline.candidates_for(config, index, queries)
    qrels = Qrels({(qid, rec.doc_id): 1 for qid, hits in candidates.items() for rec in hits})
    texts = [(q.query_id, q.text) for q in queries]
    with pytest.raises(ConfigError, match="no negative example") as raised:
        pipeline.fit_ranker(config, "br", texts, index, qrels)
    assert "ranker.label_threshold (1) in qrels.txt" in str(raised.value)
