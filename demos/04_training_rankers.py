"""Training the pointwise ranker and the hardness estimator.

On the shipped benchmark with the README config: the 6 features of a hard
query's BM25 candidates, the base ranker's BCE loss curve from full-batch
descent and its scores for those candidates, and the trained hardness
estimate psi of an easy and a hard query.
"""

from hardrank.benchmark import generate_benchmark
from hardrank.config import PipelineConfig, validate
from hardrank.corpus_io import corpus_by_id
from hardrank.lexical_retrieval import build_index
from hardrank.pipeline import candidates_for, fit_qpp, fit_ranker
from hardrank.pointwise_ranker import FEATURE_NAMES, feature_matrix
from hardrank.qpp import estimate

bench = generate_benchmark(seed=7)
# the README config; its paths name the files the CLI reads, which this never opens
config = PipelineConfig(raw=validate({"enrichment": {"use_judged_context": True}}))
index, corpus = build_index(bench.corpus), corpus_by_id(bench.corpus)
queries = {q.query_id: q for q in bench.queries}
candidates = candidates_for(config, index, bench.queries)

query, hits = queries["h00"], candidates["h00"]
features = feature_matrix(query, [rec.doc_id for rec in hits], index, config.bm25_params())
print(f"features of {query.query_id} {query.text!r} and its BM25 top document {hits[0].doc_id}:")
for name, value in zip(FEATURE_NAMES, features[0]):
    print(f"  {name:>15} = {value:.4f}")

texts = [(q.query_id, q.text) for q in bench.queries]
model = fit_ranker(config, "br", texts, index, corpus, bench.qrels)
curve = model.metadata["loss_curve"]
print(f"\nbase ranker BCE loss: {curve[0]:.4f} -> {curve[-1]:.4f} over {len(curve) - 1} epochs")
scores = model.score_rows(features)
print(f"the base ranker's top 3 of the {len(hits)} BM25 candidates of {query.query_id}:")
for i in sorted(range(len(hits)), key=lambda i: (-scores[i], hits[i].doc_id))[:3]:
    print(f"  {hits[i].doc_id:>8}  BM25 rank {i + 1:3d}  BR score {scores[i]:.4f}")

qpp_model = fit_qpp(config, index, bench.queries, bench.qrels)
print(f"\nhardness estimates (orientation: {qpp_model.metadata['orientation']}, "
      f"training median {qpp_model.metadata['train_median_psi']:.3f}):")
for qid in ("e00", "h00"):
    print(f"  {qid} {queries[qid].text!r}: psi = "
          f"{estimate(qpp_model, queries[qid], candidates[qid], index).psi:.3f}")
