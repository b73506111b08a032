"""First-stage retrieval: inverted index, BM25 search, passage selection."""

from hardrank.corpus_io import Document, Query
from hardrank.lexical_retrieval import Bm25Params, bm25_search, build_index, select_passage

corpus = [
    Document("d1", "Lean body mass (LBM) is total body weight minus fat weight. "
                   "Lean body mass is often estimated from height and weight."),
    Document("d2", "Solar irradiance measures the power of sunlight per unit area. "
                   "Panel output depends on irradiance and temperature."),
    Document("d3", "The river guide covers paddling techniques, canoe trim, "
                   "and reading whitewater. Lean downstream when bracing."),
    Document("d4", "Annual report of the weather bureau with rainfall tables."),
]

index = build_index(corpus)
print(f"indexed {index.n_docs} docs, avg length {index.avg_doc_length:.2f} tokens")

query = Query("q1", "lean body mass")
hits = bm25_search(index, query, k=4, params=Bm25Params(k1=0.9, b=0.4))
for rank, rec in enumerate(hits, start=1):
    print(f"  rank {rank}: {rec.doc_id} score {rec.score:.4f}")

print()
print("passage selection (window=12 tokens) on the top document:")
passage, matched = select_passage(corpus[0], query, window=12)
print(f"  matched {matched} distinct query terms")
print(f"  passage: {passage!r}")
