"""What the benchmark under `perfbench/` reads of the package still exists.

The benchmark is changed only on its own schedule, so when the package
changes, these names must keep working: `perfbench/tracing.install` looks
up every traced function by module and attribute name and observes the
searches it wraps through `InvertedIndex.document_frequency`, the
traced serving run checks that a saved and reloaded index has the same
`postings` as the served one, the trace counts a training set's rows as
its `len()`, and `perfbench/serve.py` trains, serves and fuses through the
package's adapters and keyword arguments.
"""

import importlib.util
import sys
from pathlib import Path

from hardrank import pipeline
from hardrank.benchmark import generate_benchmark
from hardrank.config import PipelineConfig, validate
from hardrank.corpus_io import Document, Query, corpus_by_id
from hardrank.lexical_retrieval import build_index, load_index, save_index
from test_golden import README_CONFIG

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
CORPUS = [
    Document("d2", "solar panels and solar power"),
    Document("d10", "wind power on the grid"),
    Document("d1", "rain and fog"),
]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_installs_over_every_target_and_uninstalls():
    tracing = _load_tracing()
    import hardrank.cli  # noqa: F401 - loads every module install wraps

    def bound():
        return {(module, attr): getattr(sys.modules[f"hardrank.{module}"], attr)
                for module, attr, *_ in tracing.TARGETS}

    originals = bound()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        for target, wrapper in bound().items():
            assert getattr(wrapper, "__wrapped__", None) is originals[target], target
        lexical_retrieval = sys.modules["hardrank.lexical_retrieval"]
        hits = lexical_retrieval.bm25_search(build_index(CORPUS), Query("q", "solar power"), 5)
    finally:
        uninstall()
    assert bound() == originals
    assert tracer.calls["lexical_retrieval.bm25_search"] == 1
    assert tracer.observed["candidates"] == [len(hits)]
    assert tracer.observed["postings"] == [3]  # df of "power" (2) plus "solar" (1)


def test_the_trace_counts_every_training_row(monkeypatch):
    tracing = _load_tracing()
    bench = generate_benchmark(seed=7)
    config = PipelineConfig(raw=validate(README_CONFIG))
    index = build_index(bench.corpus)
    enriched, errors, _ = pipeline.enrich_queries(config, index, corpus_by_id(bench.corpus),
                                                  bench.queries, bench.qrels)
    assert not errors
    texts = {"br": [(q.query_id, q.text) for q in bench.queries],
             "sr": sorted((e.query_id, e.enriched_text) for e in enriched)}
    sets, train = [], pipeline.train

    def recording_train(training_set, **kwargs):
        sets.append(training_set)
        return train(training_set, **kwargs)

    monkeypatch.setattr(pipeline, "train", recording_train)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        for which in ("br", "sr"):
            pipeline.fit_ranker(config, which, texts[which], index, bench.qrels)
    finally:
        uninstall()
    assert len(sets) == 2
    # perfbench/baseline.json records 400 for cli_small, the same two sets
    assert tracer.counts["training_instances"] == sum(map(len, sets)) == 400
    for ts in sets:
        assert len(ts) == len(ts.pairs) == len(ts.labels) == ts.features.shape[0]


def test_reloaded_postings_compare_as_a_plain_bool(tmp_path):
    index = build_index(CORPUS)
    path = tmp_path / "index.bin"
    save_index(index, path)
    same = load_index(path).postings == index.postings
    assert type(same) is bool and same
    differ = build_index(CORPUS[:2]).postings == index.postings
    assert type(differ) is bool and not differ


def _load_perfbench(name, monkeypatch):
    """Execute `perfbench/{name}.py` as the module `name`, as its siblings
    import it, for this test only; nothing under `perfbench/` is written."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look their module up there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


def test_serving_path_runs_on_the_package(monkeypatch, record_constructions):
    for name in ("clock", "workloads", "checks"):
        _load_perfbench(name, monkeypatch)
    serve = _load_perfbench("serve", monkeypatch)
    ops = _load_perfbench("run", monkeypatch).Ops()
    inputs = sys.modules["workloads"].scaled_inputs(1, 1, True)
    config = serve.serve_config()
    served = serve.set_up(inputs, config)
    tau = serve.train_median_tau(served, inputs, config)
    record_constructions.clear()
    answers, _ = serve.serve_pass(served, inputs.test_queries, config, ops)
    # a served query reads and writes arrays: BM25 to fusion builds no record
    assert record_constructions == []
    assert ops.errors == []
    assert ops.attempted == len(answers) == len(inputs.test_queries)
    runs = serve.assemble_runs(answers, inputs.test_queries, tau, config)
    sys.modules["checks"].check_runs(runs, [q.query_id for q in inputs.test_queries])
