"""Training the pointwise ranker and the hardness estimator.

Shows the 6-feature extraction, the BCE loss curve from full-batch descent,
and a trained hardness estimate next to its file-backed stand-in.
"""

import numpy as np

from hardrank.benchmark import toy_qpp_set, toy_ranker_instances
from hardrank.corpus_io import Document, Query
from hardrank.lexical_retrieval import build_index
from hardrank.pointwise_ranker import FEATURE_NAMES, extract_features, score, train
from hardrank.qpp import estimate, qpp_features, train_qpp

corpus = [
    Document("d1", "solar panels convert sunlight into electricity"),
    Document("d2", "wind turbines spin to generate power"),
    Document("d3", "solar energy and wind energy are renewable power sources"),
]
index = build_index(corpus)
features = extract_features(Query("q", "solar power"), corpus[2], index)
print("feature vector for ('solar power', d3):")
for name, value in zip(FEATURE_NAMES, features):
    print(f"  {name:>15} = {value:.4f}")

model = train(toy_ranker_instances(), epochs=500, learning_rate=0.1)
curve = model.metadata["loss_curve"]
print(f"\nranker BCE loss: {curve[0]:.4f} -> {curve[-1]:.4f} over {len(curve) - 1} epochs")
print("score for the vector above:", round(score(model, features), 4))

qpp_model = train_qpp(toy_qpp_set(), index, epochs=500, learning_rate=0.05)
query, topk, label = toy_qpp_set()[1]
print("\nQPP features (query with weak retrieval):",
      np.round(qpp_features(query, topk, index), 3))
est = estimate(qpp_model, query, topk, index)
print(f"trained hardness estimate psi = {est.psi:.3f}",
      f"(orientation: {qpp_model.metadata['orientation']})")
