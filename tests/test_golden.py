"""Golden digests of the README pipeline on the shipped benchmark.

The README experiment (``write_benchmark(seed=7)``; index, enrich, train
x3, run x5, eval) runs in-process through ``hardrank.pipeline``. The
SHA-256 of each run file, of R-QPP's routing log (every query's psi and
route) and of both reports (``report.jsonl`` and ``report.txt``) is
pinned, so any change that is meant to keep outputs byte-identical (a
faster feature path, a different summation, a new index layout, tau
computed at another stage) is checked against the exact bytes the
pipeline wrote before it. The run digests see
the enriched queries only through SR, so ``enriched.tsv`` (context doc ids
and fallback flags included) is pinned as well, under both context sources.
So are the three model files and their loss curves: a change to training
that happens to leave every ranking as it was still shows there.
"""

import hashlib
import json

from hardrank.benchmark import write_benchmark
from hardrank.config import load_config
from hardrank.pipeline import (
    RUN_METHODS,
    build_and_save_index,
    enrich_training_queries,
    evaluate_runs,
    produce_run,
    train_qpp_model,
    train_ranker,
)

README_CONFIG = {
    "paths": {
        "corpus": "corpus.jsonl",
        "train_queries": "queries.tsv",
        "train_qrels": "qrels.txt",
        "test_queries": "queries.tsv",
        "test_qrels": "qrels.txt",
    },
}

GOLDEN_SHA256 = {
    "br.txt": "e3191edef5e9a40a558e4fcab8e365c40dce45b6db76a486ea568103b40e8fd8",
    "sr.txt": "e91c69853115aa501e4ba1cc28bbc41f47279b3748d168b071626f2ba1de9f18",
    "bsf.txt": "fe41a85eea5d6d2cc38229efba029d09d3cf31736495086d49e6602be64665f5",
    "r_qpp.txt": "3cca5e434df9f26f5e52ee87be5191f0678dc12fbfffd2f1208cb3e8b03afd01",
    "r_qpp.routing.tsv": "a61b0ed254fe0fd1741121e22b02e3cdea52927652d4f8213a851c661404db64",
    "w_qpps.txt": "fcb6c790e4bad380e0f2e7ff80e9cb534e7683259582b518736cf73dffcd089e",
    "report.jsonl": "a736f1ee16131e45207a095e418a1bd0450e3da73dcfd3df87fd141538c8d43d",
    "report.txt": "6c0651ec9700e28fa4fd9326d87cba6ca122ffec934370019fec0e9cf0a5ada4",
}

MODEL_SHA256 = {
    "br.json": "c25eafcee7483e8d8731d97fb1b26a978a78f0918b03aa02e33dfc60ce4509ce",
    "br.loss.tsv": "1f9750d68d73169156ecef385200023ae4f62c0344ad971ddd98bc3699fb952a",
    "sr.json": "068c0d7f3c38e8fbe910ed8c552010605552731eabf08558031078a32f2a8d86",
    "sr.loss.tsv": "cb57d086689a2de723ca775d3d6d3afaad8e433bbc60a39f84f81869c91f48b7",
    "qpp.json": "0d3ec9509e856b484edaf62dc0e0999035d243c3f4d4d47b78a5592ad94e1b7e",
    "qpp.loss.tsv": "fa2f9f2f0aeeb842a22d8865242508ffa8ddfdb7a284501f4872e75c5665d89a",
}

ENRICHED_SHA256 = {
    # README config, the default: the highest-judged document gives the context passage
    "judged": "9d838a15501de6f00c4651192e4729eb8f38c32e2d1b6c9ae9719bfbddc117c6",
    # enrichment.use_judged_context false, the default before judged context was:
    # the BM25 rank-1 document gives it, and the bytes have not changed
    "bm25": "c16e3231e44f9f226949aec3d560374978c8b70fafcb245bb254ee3f8b06058a",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _benchmark_config(root, config: dict):
    write_benchmark(root, seed=7)
    (root / "config.json").write_text(json.dumps(config))
    return load_config(root / "config.json")


def test_readme_pipeline_outputs_are_byte_identical(tmp_path):
    config = _benchmark_config(tmp_path, README_CONFIG)

    build_and_save_index(config)
    _, errors, _ = enrich_training_queries(config)
    assert not errors
    assert _sha256(config.path("enriched_queries")) == ENRICHED_SHA256["judged"]
    train_ranker(config, "br")
    train_ranker(config, "sr")
    train_qpp_model(config)
    models = {path.name: _sha256(path) for path in config.path("models_dir").iterdir()}
    assert models == MODEL_SHA256
    outputs = [produce_run(config, method) for method in RUN_METHODS]
    run_paths = [run_path for run_path, _ in outputs]
    routing_logs = [log for _, log in outputs if log is not None]
    _, text_path, jsonl_path = evaluate_runs(config, sorted(run_paths), "br")

    written = [*run_paths, *routing_logs, text_path, jsonl_path]
    digests = {path.name: _sha256(path) for path in written}
    assert digests == GOLDEN_SHA256


def test_bm25_context_enriched_queries_are_byte_identical(tmp_path):
    config = _benchmark_config(tmp_path, {**README_CONFIG,
                                          "enrichment": {"use_judged_context": False}})
    build_and_save_index(config)
    _, errors, _ = enrich_training_queries(config)
    assert not errors
    assert _sha256(config.path("enriched_queries")) == ENRICHED_SHA256["bm25"]


def test_empty_judged_context_is_a_fallback(tmp_path):
    config = _benchmark_config(tmp_path, README_CONFIG)
    corpus_path = config.path("corpus")
    docs = [json.loads(line) for line in corpus_path.read_text().splitlines()]
    for doc in docs:
        if doc["doc_id"] == "h00_rel3":
            doc["text"] = ""
    corpus_path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))

    build_and_save_index(config)
    enriched, errors, _ = enrich_training_queries(config)
    assert not errors
    h00 = next(eq for eq in enriched if eq.query_id == "h00")
    assert (h00.enriched_text, h00.context_doc_id, h00.fallback) == ("DBNQ celowi", "h00_rel3", True)
    assert "h00\tDBNQ celowi\th00_rel3\tfallback" in config.path("enriched_queries").read_text()
