"""Reference code that only the tests read.

`score` is the per-row logistic score that `LogisticScorer.score_rows`
must equal bit for bit. `toy_ranker_instances` and `toy_qpp_set` are the
small fixture training sets of the training invariants (loss curves,
separability).
"""

import random

import numpy as np

from hardrank.benchmark import _SYLLABLES
from hardrank.corpus_io import Query, rank_records
from hardrank.linear_model import LogisticScorer, apply_zscore, open_unit_sigmoids
from hardrank.pointwise_ranker import TrainingInstance


def score(model: LogisticScorer, features: np.ndarray) -> float:
    """Relevance score in (0, 1) of one feature vector; the per-row
    reference that `LogisticScorer.score_rows` equals bit for bit."""
    z = apply_zscore(features, model.feature_means, model.feature_stds)
    return float(open_unit_sigmoids(float(np.dot(model.weights, z)) + model.bias))


def toy_qpp_set(n: int = 24, seed: int = 5):
    """Deterministic (query, top-k, effectiveness label) fixture triples.

    Half the queries look well-served (tight high scores, high label), half
    poorly served (low flat scores, low label).
    """
    rng = random.Random(seed)
    labeled = []
    for i in range(n):
        good = i % 2 == 0
        base = rng.uniform(6.0, 9.0) if good else rng.uniform(0.2, 1.5)
        spread = rng.uniform(0.5, 1.5) if good else rng.uniform(0.05, 0.2)
        scores = sorted(
            (base - rng.uniform(0.0, spread) for _ in range(10)), reverse=True
        )
        topk = rank_records([(f"d{j}", s) for j, s in enumerate(scores)])
        n_terms = rng.randint(4, 8) if good else rng.randint(1, 2)
        text = " ".join(rng.choice(_SYLLABLES) + rng.choice(_SYLLABLES) for _ in range(n_terms))
        label = rng.uniform(0.75, 0.95) if good else rng.uniform(0.05, 0.3)
        labeled.append((Query(f"t{i:02d}", text), topk, label))
    return labeled


def toy_ranker_instances(n: int = 80, seed: int = 3):
    """Linearly separable training fixture: label = overlap ratio > 0.5."""
    rng = random.Random(seed)
    instances = []
    for i in range(n):
        label = i % 2
        overlap = rng.uniform(0.7, 1.0) if label else rng.uniform(0.0, 0.3)
        features = (
            rng.uniform(0.0, 10.0),
            overlap,
            rng.uniform(0.0, 1.0),
            float(rng.randint(1, 10)),
            rng.uniform(1.0, 6.0),
            rng.uniform(0.0, 1.0),
        )
        instances.append(TrainingInstance(f"q{i}", f"d{i}", features, label))
    return instances
