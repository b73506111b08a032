"""The whole pipeline on the shipped synthetic benchmark, in memory.

Generates the 200-doc / 40-query benchmark (20 hard acronym queries, 20
easy long ones) and runs `hardrank.pipeline.experiment` with the README
config: it enriches the hard queries, trains the base ranker on all
queries, the specialized ranker on the enriched hard ones and the
hardness estimator, ranks by every method and evaluates. It writes no
file, and prints the report of the README's CLI sequence
index/enrich/train/run/eval.
"""

from statistics import mean

from hardrank.benchmark import generate_benchmark
from hardrank.config import default_config
from hardrank.evaluation import render_report
from hardrank.pipeline import experiment

bench = generate_benchmark(seed=7)
print(f"benchmark: {len(bench.corpus)} docs, {len(bench.queries)} queries "
      f"({len(bench.hard_query_ids)} hard / {len(bench.easy_query_ids)} easy)")

# the README config but for its paths, which name files the CLI reads and this never opens
config = default_config()
result = experiment(config, bench.corpus, bench.queries, bench.qrels, bench.queries, bench.qrels)

rewrite = result.enriched[0]
print(f"enriched {len(result.enriched)} hard queries, e.g. {rewrite.query_id}: "
      f"{rewrite.enriched_text!r} (context {rewrite.context_doc_id})")

psi = {d.query_id: d.psi for d in result.decisions}
tau = result.models["qpp"].metadata["train_median_psi"]
routed = sum(d.route == "sr" for d in result.decisions)
print("mean psi: hard %.3f, easy %.3f; tau %.3f routes %d of %d queries to SR" % (
    mean(psi[q] for q in bench.hard_query_ids), mean(psi[q] for q in bench.easy_query_ids),
    tau, routed, len(result.decisions)))

qid = rewrite.query_id
print(f"top document for {qid}:",
      ", ".join(f"{method} {run.entries[qid][0].doc_id}" for method, run in result.runs.items()))
print()
print(render_report(result.report))
