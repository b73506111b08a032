"""Training the pointwise ranker and the hardness estimator.

On the shipped benchmark with the README config: the 6 features of a hard
query and its BM25 top document, the base ranker's BCE loss curve from
full-batch descent and its reranking of the query's BM25 candidates, and
the trained hardness estimate psi of an easy and a hard query.
"""

from hardrank.benchmark import generate_benchmark
from hardrank.config import PipelineConfig, validate
from hardrank.lexical_retrieval import build_index
from hardrank.pipeline import candidates_for, fit_qpp, fit_ranker
from hardrank.pointwise_ranker import FEATURE_NAMES, extract_features, rerank
from hardrank.qpp import estimate_batch

bench = generate_benchmark(seed=7)
# the README config; its paths name the files the CLI reads, which this never opens
config = PipelineConfig(raw=validate({"enrichment": {"use_judged_context": True}}))
index = build_index(bench.corpus)
corpus = {d.doc_id: d for d in bench.corpus}
queries = {q.query_id: q for q in bench.queries}
candidates = candidates_for(config, index, bench.queries)

query, hits = queries["h00"], candidates["h00"]
features = extract_features(query.text, corpus[hits.doc_ids[0]], index, config.bm25_params())
print(f"features of {query.query_id} {query.text!r} and its BM25 top document {hits.doc_ids[0]}:")
for name, value in zip(FEATURE_NAMES, features):
    print(f"  {name:>15} = {value:.4f}")

texts = [(q.query_id, q.text) for q in bench.queries]
model = fit_ranker(config, "br", texts, index, bench.qrels)
curve = model.metadata["loss_curve"]
print(f"\nbase ranker BCE loss: {curve[0]:.4f} -> {curve[-1]:.4f} over {len(curve) - 1} epochs")
reranked = rerank(model, query.text, hits, index, config.bm25_params())
print(f"the base ranker's top 3 of the {len(hits)} BM25 candidates of {query.query_id}:")
for doc_id, score in zip(reranked.doc_ids[:3], reranked.scores):
    print(f"  {doc_id:>8}  BM25 rank {hits.doc_ids.index(doc_id) + 1:3d}  BR score {score:.4f}")

qpp_model = fit_qpp(config, index, bench.queries, bench.qrels)
psi = estimate_batch(qpp_model, index, bench.queries, candidates)
print(f"\nhardness estimates (training median {qpp_model.metadata['train_median_psi']:.3f}):")
for qid in ("e00", "h00"):
    print(f"  {qid} {queries[qid].text!r}: psi = {psi[qid]:.3f}")
