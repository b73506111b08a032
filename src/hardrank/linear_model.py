"""Logistic scoring trained with binary cross-entropy, full-batch.

Shared by the pointwise ranker and the hardness estimator: both are a
sigmoid over a linear function of z-scored features, fitted by plain
full-batch gradient descent from zero-initialized parameters. Targets may
be binary labels or soft values in [0, 1]; the loss and gradient are the
same either way:

    L = -(1/N) sum_i [ t_i * ln(p_i) + (1 - t_i) * ln(1 - p_i) ]
    dL/dw = (1/N) Z^T (p - t),   dL/db = mean(p - t)

Each epoch runs one forward pass: the predictions p computed after an
update give that epoch's loss and the next epoch's gradient.

Both models are one `LogisticScorer`, stored in one versioned JSON format
whose `kind` field says which model a file holds.

`scipy.special` is imported inside the functions that call it, so a CLI
command that neither trains nor tests never pays for loading scipy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus_io import parse_file, write_artifact

_CLAMP = 1e-12
# |logit| bound for scoring: past 27.7 the sigmoid already rounds to the
# clamp, and math.exp overflows only past 709.78
_LOGIT_BOUND = 40.0

SCORER_FORMAT = "hardrank-scorer"
SCORER_VERSION = 2  # version 1 was the separate ranker and QPP formats
KINDS = ("ranker", "qpp")
QPP_ORIENTATIONS = ("hardness",)  # psi is always 1 - predicted effectiveness
_ARRAYS = ("weights", "feature_means", "feature_stds")


def open_unit_sigmoids(x: np.ndarray) -> np.ndarray:
    """Sigmoid clamped just inside (0, 1) so float saturation never emits an
    exact 0 or 1 (log-loss and interval contracts depend on this).

    It is `np.clip(scipy.special.expit(x), _CLAMP, 1 - _CLAMP)` to the last
    bit without importing scipy: `expit` computes `1 / (1 + exp(-x))` with
    the C library's `exp`, and `math.exp` is that same libm function
    (numpy's own `np.exp` may use SIMD code that rounds otherwise). The
    logits are clipped to +/-40 first, which changes no clamped output and
    keeps `math.exp` from overflowing; NaN stays NaN. Both clips call
    `np.minimum`/`np.maximum` directly: `np.clip`'s Python wrapper adds a
    fixed cost to every served list's call.
    """
    negated = -np.minimum(np.maximum(x, -_LOGIT_BOUND), _LOGIT_BOUND)
    exps = np.fromiter(map(math.exp, negated.ravel().tolist()), float, negated.size)
    return np.minimum(np.maximum(1.0 / (1.0 + exps.reshape(negated.shape)), _CLAMP),
                      1.0 - _CLAMP)


def bce_loss(targets: np.ndarray, preds: np.ndarray) -> float:
    """Mean binary cross-entropy with the 0*ln(0) = 0 convention.

    Predictions are clipped away from {0, 1} so the loss stays finite
    during training even if the sigmoid saturates.
    """
    from scipy.special import xlogy

    targets = np.asarray(targets, dtype=float)
    preds = np.clip(np.asarray(preds, dtype=float), _CLAMP, 1.0 - _CLAMP)
    terms = xlogy(targets, preds) + xlogy(1.0 - targets, 1.0 - preds)
    return float(-np.mean(terms))


def bce_gradient(features: np.ndarray, targets: np.ndarray,
                 preds: np.ndarray) -> tuple[np.ndarray, float]:
    """Analytic gradient of the mean BCE with respect to (weights, bias) at
    the parameters that predicted `preds = expit(features @ weights + bias)`."""
    residual = preds - targets
    return features.T @ residual / len(targets), float(np.mean(residual))


def zscore_stats(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and stdev; degenerate (zero-variance) features get stdev 1."""
    means = features.mean(axis=0)
    stds = features.std(axis=0)
    stds = np.where(stds > 0.0, stds, 1.0)
    return means, stds


def apply_zscore(features: np.ndarray, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    return (np.asarray(features, dtype=float) - means) / stds


class DivergedFit(ValueError):
    """Gradient descent diverged: a logit overflowed or the loss rose."""


def fit_logistic(
    features: np.ndarray,
    targets: np.ndarray,
    epochs: int,
    learning_rate: float,
) -> tuple[np.ndarray, float, list[float]]:
    """Full-batch gradient descent on the BCE from zero-initialized parameters.

    `features` must already be normalized; `targets` in [0, 1]. Returns the
    weights, the bias and the losses: at init, then after each epoch's update.
    Raises DivergedFit when a logit is not finite or the last loss is above the first.
    """
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if features.ndim != 2 or len(features) != len(targets):
        raise ValueError("features must be (N, d) with one target per row")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if learning_rate <= 0:
        raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
    from scipy.special import expit

    weights = np.zeros(features.shape[1])
    bias = 0.0
    preds = np.full(len(targets), 0.5)  # expit(0.0): weights and bias start at zero
    losses = [bce_loss(targets, preds)]
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged fit raises below
        for epoch in range(1, epochs + 1):
            grad_w, grad_b = bce_gradient(features, targets, preds)
            weights = weights - learning_rate * grad_w
            bias = bias - learning_rate * grad_b
            logits = features @ weights + bias
            if not np.all(np.isfinite(logits)):
                raise DivergedFit(f"a logit is not finite after epoch {epoch}")
            preds = expit(logits)
            losses.append(bce_loss(targets, preds))
    if losses[-1] > losses[0]:
        raise DivergedFit(f"the loss rose from {losses[0]:.4g} to {losses[-1]:.4g}")
    return weights, bias, losses


@dataclass(eq=False)
class LogisticScorer:
    """sigmoid(w . z + b) over z-scored features: a ranker or a QPP model.

    A "qpp" scorer carries its top-k depth and orientation in `metadata`
    under "k" and "orientation". A scorer with bad ones, a non-finite
    weight, mean or bias, or a feature stdev that is not > 0 cannot be
    built, so it can be neither trained nor loaded.
    """

    weights: np.ndarray
    bias: float
    feature_means: np.ndarray
    feature_stds: np.ndarray
    metadata: dict = field(default_factory=dict)
    kind: str = "ranker"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if len({len(getattr(self, name)) for name in _ARRAYS}) != 1:
            raise ValueError(f"{', '.join(_ARRAYS)} differ in length")
        for name in (*_ARRAYS, "bias"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} holds a non-finite value")
        if not np.all(self.feature_stds > 0.0):
            raise ValueError("feature_stds holds a value that is not > 0")
        if self.kind == "qpp":
            k, orientation = self.metadata.get("k"), self.metadata.get("orientation")
            if type(k) is not int or k < 1 or orientation not in QPP_ORIENTATIONS:
                raise ValueError(f"a qpp model needs an integer k >= 1 and an orientation in "
                                 f"{QPP_ORIENTATIONS}, got k={k!r}, orientation={orientation!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogisticScorer):
            return NotImplemented
        return (
            (self.kind, self.bias, self.metadata) == (other.kind, other.bias, other.metadata)
            and all(np.array_equal(getattr(self, n), getattr(other, n)) for n in _ARRAYS)
        )

    def score_rows(self, features: np.ndarray) -> np.ndarray:
        """Score in (0, 1) of every row of an (n, d) feature matrix.

        The z-scores, bias, sigmoid and clamp run over the whole matrix, as
        they are elementwise. The dot products are one `np.vecdot`, which
        calls the same BLAS `ddot` per row as `np.dot` does, in one C loop;
        a matrix-vector product (`z @ w`) may sum in another order and
        change a last bit. So each row equals
        `open_unit_sigmoids(np.dot(w, z) + b)`.
        """
        z = apply_zscore(features, self.feature_means, self.feature_stds)
        logits = np.vecdot(z, self.weights)
        return open_unit_sigmoids(logits + self.bias)


def fit_scorer(
    features: np.ndarray,
    targets: np.ndarray,
    epochs: int,
    learning_rate: float,
    kind: str,
    metadata: dict,
) -> LogisticScorer:
    """Z-score the raw features, fit them with `fit_logistic`, and freeze
    the z-score statistics into the scorer. Its metadata is `metadata`
    plus the epochs, learning rate and loss curve."""
    means, stds = zscore_stats(features)
    weights, bias, losses = fit_logistic(
        apply_zscore(features, means, stds), targets, epochs, learning_rate)
    metadata = {**metadata, "epochs": epochs, "learning_rate": learning_rate,
                "loss_curve": losses}
    return LogisticScorer(weights, bias, means, stds, metadata, kind)


def save_scorer(scorer: LogisticScorer, path) -> None:
    payload = {"format": SCORER_FORMAT, "version": SCORER_VERSION, "kind": scorer.kind}
    payload.update((name, getattr(scorer, name).tolist()) for name in _ARRAYS)
    payload.update(bias=scorer.bias, metadata=scorer.metadata)
    write_artifact(path, json.dumps(payload, indent=1))


def load_scorer(path, kind: str) -> LogisticScorer:
    """Read a scorer of `kind`. Any other file, version 1 files included,
    raises ValueError naming the path, as does a file whose weights, means,
    stdevs or bias hold anything but JSON numbers (a `true` included) or a
    value that `LogisticScorer` refuses, or whose metadata is no object."""
    text = parse_file("".join, path)
    try:
        payload = json.loads(text)
        found = (payload.get("format"), payload.get("version"))
        if found != (SCORER_FORMAT, SCORER_VERSION):
            raise ValueError(f"format {found[0]!r} version {found[1]!r} is not "
                             f"{SCORER_FORMAT!r} version {SCORER_VERSION}; retrain the model")
        if payload.get("kind") != kind:
            raise ValueError(f"holds a {payload.get('kind')!r} model, not a {kind!r} one")
        numbers = {**{name: payload[name] for name in _ARRAYS}, "bias": [payload["bias"]]}
        for name, values in numbers.items():  # type(True) is bool, so true is no number
            if type(values) is not list or not all(type(v) in (int, float) for v in values):
                raise ValueError(f"{name} must hold numbers only, got {payload[name]!r}")
        if type(payload["metadata"]) is not dict:
            raise ValueError(f"metadata must be a JSON object, got {payload['metadata']!r}")
        return LogisticScorer(
            **{name: np.array(numbers[name], dtype=float) for name in _ARRAYS},
            bias=float(payload["bias"]),
            metadata=payload["metadata"],
            kind=kind,
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from None
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None
