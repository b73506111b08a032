"""Logistic scoring trained with binary cross-entropy, full-batch.

Shared by the pointwise ranker and the hardness estimator: both are a
sigmoid over a linear function of z-scored features, fitted by plain
full-batch gradient descent from zero-initialized parameters. Targets may
be binary labels or soft values in [0, 1]; the loss and gradient are the
same either way:

    L = -(1/N) sum_i [ t_i * ln(p_i) + (1 - t_i) * ln(1 - p_i) ]
    dL/dw = (1/N) Z^T (p - t),   dL/db = mean(p - t)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, xlogy

_CLAMP = 1e-12


def sigmoid(x):
    return expit(x)


def open_unit_sigmoid(x: float) -> float:
    """Sigmoid clamped just inside (0, 1) so float saturation never emits an
    exact 0 or 1 (log-loss and interval contracts depend on this)."""
    return float(min(max(expit(x), _CLAMP), 1.0 - _CLAMP))


def open_unit_sigmoids(x: np.ndarray) -> np.ndarray:
    """`open_unit_sigmoid` of every element, with the same bits."""
    return np.clip(expit(x), _CLAMP, 1.0 - _CLAMP)


def bce_loss(targets: np.ndarray, preds: np.ndarray, clamp: bool = False) -> float:
    """Mean binary cross-entropy with the 0*ln(0) = 0 convention.

    With clamp=True predictions are clipped away from {0, 1} so the loss
    stays finite during training even if the sigmoid saturates.
    """
    targets = np.asarray(targets, dtype=float)
    preds = np.asarray(preds, dtype=float)
    if clamp:
        preds = np.clip(preds, _CLAMP, 1.0 - _CLAMP)
    terms = xlogy(targets, preds) + xlogy(1.0 - targets, 1.0 - preds)
    return float(-np.mean(terms))


def bce_gradient(
    features: np.ndarray, targets: np.ndarray, weights: np.ndarray, bias: float
) -> tuple[np.ndarray, float]:
    """Analytic gradient of the mean BCE at (weights, bias)."""
    preds = expit(features @ weights + bias)
    residual = preds - targets
    grad_w = features.T @ residual / len(targets)
    grad_b = float(np.mean(residual))
    return grad_w, grad_b


def zscore_stats(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and stdev; degenerate (zero-variance) features get stdev 1."""
    means = features.mean(axis=0)
    stds = features.std(axis=0)
    stds = np.where(stds > 0.0, stds, 1.0)
    return means, stds


def apply_zscore(features: np.ndarray, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    return (np.asarray(features, dtype=float) - means) / stds


@dataclass
class FitResult:
    weights: np.ndarray
    bias: float
    losses: list[float]  # loss at init, then after each epoch's update


def fit_logistic(
    features: np.ndarray,
    targets: np.ndarray,
    epochs: int,
    learning_rate: float,
) -> FitResult:
    """Full-batch gradient descent on the BCE from zero-initialized parameters.

    `features` must already be normalized; `targets` in [0, 1].
    """
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if features.ndim != 2 or len(features) != len(targets):
        raise ValueError("features must be (N, d) with one target per row")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if learning_rate <= 0:
        raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
    n, dim = features.shape
    weights = np.zeros(dim)
    bias = 0.0
    losses = [bce_loss(targets, expit(features @ weights + bias), clamp=True)]
    for _ in range(epochs):
        grad_w, grad_b = bce_gradient(features, targets, weights, bias)
        weights = weights - learning_rate * grad_w
        bias = bias - learning_rate * grad_b
        losses.append(bce_loss(targets, expit(features @ weights + bias), clamp=True))
    return FitResult(weights=weights, bias=bias, losses=losses)
