"""Spans and counts recorded from outside the package.

`install` replaces each traced function with a wrapper in every `hardrank`
module that binds it (`from .x import f` makes a binding per importing
module), and wraps `Qrels` lookups on the class. Nothing under `src/`
changes.

Every call opens a frame; on return the frame's self time (duration minus
the time its traced callees took) and its inclusive time are added to the
totals of its metric key. Coarse calls (stages, commands, searches,
reranks, training) are also kept as span records: name, start, end, parent
span and the stage or query id current when they ran. Hot leaf calls
(tokenize, feature extraction, qrels lookups, ...) are only aggregated, so
a traced run keeps its memory flat. Records stay in memory until the run
writes them out, one `record` line per process.

Library metrics `<layer>.<function>_s` are self times; `pipeline.stage_s.*`
and `cli.command_s.*` are inclusive wall times.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

STAGES = (
    "index",
    "enrich",
    "train_br",
    "train_sr",
    "train_qpp",
    "run_br",
    "run_sr",
    "run_bsf",
    "run_r_qpp",
    "run_w_qpps",
    "eval",
)

# (module, attribute, metric key, aggregated only). A key shared by several
# functions sums them; a key of None is named from the call's arguments.
TARGETS = (
    ("pipeline", "build_and_save_index", None, False),
    ("pipeline", "enrich_training_queries", None, False),
    ("pipeline", "train_ranker", None, False),
    ("pipeline", "train_qpp_model", None, False),
    ("pipeline", "produce_run", None, False),
    ("pipeline", "evaluate_runs", None, False),
    ("corpus_io", "read_corpus_file", "corpus_io.read", False),
    ("corpus_io", "read_queries_file", "corpus_io.read", False),
    ("corpus_io", "read_qrels_file", "corpus_io.read", False),
    ("corpus_io", "read_run_file", "corpus_io.read", False),
    ("corpus_io", "write_corpus_file", "corpus_io.write", False),
    ("corpus_io", "write_queries_file", "corpus_io.write", False),
    ("corpus_io", "write_qrels_file", "corpus_io.write", False),
    ("corpus_io", "write_run_file", "corpus_io.write", False),
    ("corpus_io", "rank_records", "corpus_io.rank_records", True),
    ("text", "tokenize", "text.tokenize", True),
    ("lexical_retrieval", "build_index", "lexical_retrieval.build_index", False),
    ("lexical_retrieval", "save_index", "lexical_retrieval.save_index", False),
    ("lexical_retrieval", "load_index", "lexical_retrieval.load_index", False),
    ("lexical_retrieval", "bm25_search", "lexical_retrieval.bm25_search", False),
    ("lexical_retrieval", "score_pair", "lexical_retrieval.score_pair", True),
    ("lexical_retrieval", "select_passage", "lexical_retrieval.select_passage", True),
    ("enrichment", "enrich_all", "enrichment.enrich_all", False),
    ("pointwise_ranker", "extract_features", "pointwise_ranker.extract_features", True),
    ("pointwise_ranker", "rerank", "pointwise_ranker.rerank", False),
    ("pointwise_ranker", "build_training_set", "pointwise_ranker.build_training_set", False),
    ("pointwise_ranker", "train", "pointwise_ranker.train", False),
    ("linear_model", "fit_logistic", "linear_model.fit_logistic", False),
    ("qpp", "train_qpp", "qpp.train_qpp", False),
    ("qpp", "estimate", "qpp.estimate", False),
    ("fusion", "bsf", "fusion.bsf", False),
    ("fusion", "route_qpp", "fusion.route_qpp", False),
    ("fusion", "w_qpps", "fusion.w_qpps", False),
    ("evaluation", "build_report", "evaluation.build_report", False),
    ("evaluation", "paired_test", "evaluation.paired_test", True),
)
QRELS_METHODS = ("for_query", "has_positive")


def _stage_name(attr: str, args) -> str:
    """Pipeline stage of a `hardrank.pipeline` call, as the CLI names it."""
    if attr == "train_ranker":
        return f"train_{args[1]}"
    if attr == "produce_run":
        return f"run_{args[1]}"
    return {
        "build_and_save_index": "index",
        "enrich_training_queries": "enrich",
        "train_qpp_model": "train_qpp",
        "evaluate_runs": "eval",
    }[attr]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span, context]
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.observed: dict[str, list] = defaultdict(list)
        self.seen_texts: set[int] = set()
        self.context = ""
        self._stack: list[list] = []  # [key, start, callee seconds, span id]

    def enter(self, key: str, aggregated: bool = False) -> None:
        span_id = None
        if not aggregated:
            span_id = len(self.spans)
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            self.spans.append([key, 0.0, 0.0, parent, self.context])
        self._stack.append([key, time.perf_counter(), 0.0, span_id])

    def exit(self) -> None:
        end = time.perf_counter()
        key, start, callees, span_id = self._stack.pop()
        duration = end - start
        self.self_s[key] += duration - callees
        self.incl_s[key] += duration
        self.calls[key] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if span_id is not None:
            self.spans[span_id][1:3] = [start, end]

    def span(self, key: str, context: str | None = None):
        return _Span(self, key, context)

    def summary(self) -> dict:
        """Aggregates only, mergeable across processes with `merge`."""
        return {
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "observed": dict(self.observed),
            "distinct_texts": len(self.seen_texts),
        }

    def record(self, process: str) -> dict:
        """Spans plus aggregates of this process, one line of the trace file."""
        return {"process": process, "spans": self.spans, "summary": self.summary()}


class _Span:
    def __init__(self, tracer: Tracer, key: str, context: str | None):
        self.tracer, self.key, self.context = tracer, key, context

    def __enter__(self):
        if self.context is not None:
            self.saved, self.tracer.context = self.tracer.context, self.context
        self.tracer.enter(self.key)

    def __exit__(self, *exc):
        self.tracer.exit()
        if self.context is not None:
            self.tracer.context = self.saved


def merge(summaries: list[dict]) -> dict:
    out = {"self_s": Counter(), "incl_s": Counter(), "calls": Counter(), "counts": Counter(),
           "observed": defaultdict(list), "distinct_texts": 0}
    for s in summaries:
        for field in ("self_s", "incl_s", "calls", "counts"):
            out[field].update(s[field])
        for key, values in s["observed"].items():
            out["observed"][key].extend(values)
        out["distinct_texts"] += s["distinct_texts"]
    return out


def _observe(tracer: Tracer, key: str, args, result) -> None:
    """Counts taken at the boundary, after the span closed."""
    if key == "text.tokenize":
        tracer.seen_texts.add(hash(args[0]))
    elif key == "lexical_retrieval.bm25_search":
        index, query = args[0], args[1]
        from hardrank.text import tokenize

        terms = set(_untraced(tokenize)(query.text))
        tracer.observed["candidates"].append(len(result))
        tracer.observed["postings"].append(sum(index.document_frequency(t) for t in terms))
    elif key == "lexical_retrieval.save_index":
        tracer.counts["index_bytes"] = os.path.getsize(args[1])
    elif key == "enrichment.enrich_all":
        enriched, _ = result
        tracer.counts["hard_queries"] += len(args[0])
        tracer.counts["enriched"] += len(enriched)
        tracer.counts["fallbacks"] += sum(1 for e in enriched if e.fallback)
    elif key == "pointwise_ranker.build_training_set":
        tracer.counts["training_instances"] += len(result)
    elif key == "fusion.route_qpp":
        _, decisions = result
        tracer.counts["routed"] += len(decisions)
        tracer.counts["routed_to_sr"] += sum(1 for d in decisions if d.route == "sr")


def _untraced(fn):
    return getattr(fn, "__wrapped__", fn)


def _wrap(tracer: Tracer, fn, key, aggregated: bool, attr: str):
    observe = key in _OBSERVED

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if key is None:
            name = _stage_name(attr, args)
            with tracer.span(f"pipeline.stage.{name}", context=name):
                return fn(*args, **kwargs)
        tracer.enter(key, aggregated)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if observe:
            _observe(tracer, key, args, result)
        return result

    return wrapper


_OBSERVED = {
    "text.tokenize",
    "lexical_retrieval.bm25_search",
    "lexical_retrieval.save_index",
    "enrichment.enrich_all",
    "pointwise_ranker.build_training_set",
    "fusion.route_qpp",
}


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    import hardrank.cli  # noqa: F401 - every module that binds a target
    from hardrank.corpus_io import Qrels

    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "hardrank" or name.startswith("hardrank."))]
    undo = []
    for module_name, attr, key, aggregated in TARGETS:
        original = getattr(sys.modules[f"hardrank.{module_name}"], attr)
        wrapper = _wrap(tracer, original, key, aggregated, attr)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
                    undo.append((module, name, original))
    for method in QRELS_METHODS:
        original = getattr(Qrels, method)
        setattr(Qrels, method, _wrap(tracer, original, "corpus_io.qrels_lookup", True, method))
        undo.append((Qrels, method, original))

    def uninstall():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(summary: dict, import_s: float, overhead: dict) -> dict[str, float]:
    """Every per-layer metric from merged aggregates; untouched layers read 0."""
    self_s, incl_s, calls = summary["self_s"], summary["incl_s"], summary["calls"]
    counts, observed = summary["counts"], summary["observed"]
    metrics = {"cli.import_s": import_s}
    for stage in STAGES:
        metrics[f"cli.command_s.{stage}"] = incl_s.get(f"cli.command.{stage}", 0.0)
    for stage in STAGES:
        metrics[f"pipeline.stage_s.{stage}"] = incl_s.get(f"pipeline.stage.{stage}", 0.0)
    for key in dict.fromkeys(key for _, _, key, _ in TARGETS if key):
        metrics[f"{key}_s"] = self_s.get(key, 0.0)
    metrics["corpus_io.qrels_lookup_s"] = self_s.get("corpus_io.qrels_lookup", 0.0)
    for key in ("corpus_io.qrels_lookup", "text.tokenize", "lexical_retrieval.load_index",
                "lexical_retrieval.bm25_search", "lexical_retrieval.score_pair",
                "pointwise_ranker.extract_features", "pointwise_ranker.rerank",
                "qpp.estimate", "evaluation.paired_test"):
        metrics[f"{key}_calls"] = calls.get(key, 0)
    metrics["linear_model.fit_calls"] = calls.get("linear_model.fit_logistic", 0)
    tokenize_calls = calls.get("text.tokenize", 0)
    metrics["text.tokenize_distinct_share"] = (
        summary["distinct_texts"] / tokenize_calls if tokenize_calls else 0.0
    )
    metrics["lexical_retrieval.index_bytes"] = counts.get("index_bytes", 0)
    metrics["lexical_retrieval.candidates_per_search"] = _median(observed.get("candidates"))
    metrics["lexical_retrieval.postings_per_search"] = _median(observed.get("postings"))
    metrics["enrichment.hard_queries"] = counts.get("hard_queries", 0)
    enriched = counts.get("enriched", 0)
    metrics["enrichment.fallback_share"] = counts.get("fallbacks", 0) / enriched if enriched else 0.0
    metrics["pointwise_ranker.training_instances"] = counts.get("training_instances", 0)
    routed = counts.get("routed", 0)
    metrics["fusion.routed_to_sr_share"] = counts.get("routed_to_sr", 0) / routed if routed else 0.0
    metrics["trace.overhead_pipeline_s"] = overhead["pipeline_s"]
    metrics["trace.overhead_rank_qps"] = overhead["rank_qps"]
    return metrics
