"""The whole pipeline on the shipped synthetic benchmark, via the library.

Generates the 200-doc / 40-query benchmark (20 hard acronym queries, 20
easy long ones), trains the base ranker on all queries and the specialized
ranker on enriched hard queries, trains the hardness estimator, and
compares all strategies. Equivalent to the CLI sequence
index/enrich/train/run/eval; see the README for that form.
"""

import numpy as np

from hardrank.benchmark import generate_benchmark
from hardrank.corpus_io import RunList, corpus_by_id
from hardrank.enrichment import StubGenerator, enrich
from hardrank.evaluation import build_report, ndcg_at_k, render_report
from hardrank.fusion import FusionConfig, bsf, r_qpp, train_median_threshold, w_qpps
from hardrank.lexical_retrieval import bm25_search, build_index
from hardrank.pointwise_ranker import build_training_set, rerank, train
from hardrank.qpp import estimate, train_qpp

bench = generate_benchmark(seed=7)
corpus = corpus_by_id(bench.corpus)
index = build_index(bench.corpus)
print(f"benchmark: {len(bench.corpus)} docs, {len(bench.queries)} queries "
      f"({len(bench.hard_query_ids)} hard / {len(bench.easy_query_ids)} easy)")

candidates = {q.query_id: bm25_search(index, q, 100) for q in bench.queries}

# enrich the hard training queries with the deterministic stub generator
stub = StubGenerator()
enriched = {
    q.query_id: enrich(q, index, corpus, stub,
                       qrels=bench.qrels, use_judged_context=True).enriched_text
    for q in bench.queries if q.query_id in bench.hard_query_ids
}
print("example rewrite:", next(iter(enriched.items())))

# base ranker on all original queries, specialized on enriched hard ones
br_model = train(build_training_set(
    [(q.query_id, q.text) for q in bench.queries], bench.qrels, index, corpus, seed=13))
sr_model = train(build_training_set(
    sorted(enriched.items()), bench.qrels, index, corpus, seed=13))

br_run = RunList(entries={q.query_id: rerank(br_model, q, candidates[q.query_id], corpus, index)
                          for q in bench.queries}, tag="br")
sr_run = RunList(entries={q.query_id: rerank(sr_model, q, candidates[q.query_id], corpus, index)
                          for q in bench.queries}, tag="sr")

# hardness estimator trained against nDCG@10 of the first-stage run
labeled = [
    (q, candidates[q.query_id][:10],
     ndcg_at_k(candidates[q.query_id], bench.qrels.for_query(q.query_id)))
    for q in bench.queries
]
qpp_model = train_qpp(labeled, index)
psis = {q.query_id: estimate(qpp_model, q, candidates[q.query_id], index).psi
        for q in bench.queries}
print("mean psi: hard %.3f, easy %.3f" % (
    np.mean([psis[q] for q in bench.hard_query_ids]),
    np.mean([psis[q] for q in bench.easy_query_ids])))

tau = train_median_threshold(psis.values())
routed, _ = r_qpp(br_run, sr_run, psis, tau)
runs = {
    "br": br_run,
    "sr": sr_run,
    "bsf": bsf(br_run, sr_run, FusionConfig(method="bsf")),
    "r_qpp": routed,
    "w_qpps": w_qpps(br_run, sr_run, psis),
}
print()
print(render_report(build_report(runs, bench.qrels, baseline="br")))
