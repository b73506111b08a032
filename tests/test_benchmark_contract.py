"""What the benchmark under `perfbench/` reads of the package still exists.

The benchmark is changed only on its own schedule, so when the package
changes, these names must keep working: `perfbench/tracing.install` looks
up every traced function by module and attribute name and observes the
searches it wraps through `InvertedIndex.document_frequency`, and the
traced serving run checks that a saved and reloaded index has the same
`postings` as the served one.
"""

import importlib.util
import sys
from pathlib import Path

from hardrank.corpus_io import Document, Query
from hardrank.lexical_retrieval import build_index, load_index, save_index

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
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


def test_reloaded_postings_compare_as_a_plain_bool(tmp_path):
    index = build_index(CORPUS)
    path = tmp_path / "index.json"
    save_index(index, path)
    same = load_index(path).postings == index.postings
    assert type(same) is bool and same
    differ = build_index(CORPUS[:2]).postings == index.postings
    assert type(differ) is bool and not differ
