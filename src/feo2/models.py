"""Model families, local losses/gradients, and the client-side update step.

Three model families are supported:

* point estimation — scalar (or d-dim) mean estimation, loss ``0.5*||theta - mean(x)||^2``;
* linear regression — ``(1/(2 n_s))*||F theta - x||^2`` with orthogonal designs,
  normalized so the gradient is exactly ``theta - phi_hat`` when ``F^T F = n_s I``
  (this is what makes the one-local-step-with-eta-1 path land exactly on the
  least-squares solution);
* softmax classification — a single linear layer with bias and cross-entropy.

Models are flat float64 vectors everywhere; the softmax layer is stored as
``concat(W.ravel(), b)`` with ``W`` of shape (classes, features).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Union

import numpy as np

ModelVector = np.ndarray


class NumericFailure(RuntimeError):
    """A training step produced NaN/Inf; message carries the client context."""


class LossKind(str, Enum):
    POINT_ESTIMATION = "point_estimation"
    LINEAR_REGRESSION = "linear_regression"
    SOFTMAX_CLASSIFICATION = "softmax_classification"


def as_vector(values) -> ModelVector:
    """Coerce to a finite 1-D float64 array."""
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError("model vector contains non-finite entries")
    return v


@dataclass
class PointSamples:
    observations: np.ndarray  # shape (n_s,) or (n_s, d)

    def __post_init__(self):
        self.observations = np.atleast_1d(np.asarray(self.observations, dtype=np.float64))
        if self.observations.shape[0] < 1:
            raise ValueError("PointSamples needs n_s >= 1")

    @property
    def n_s(self) -> int:
        return self.observations.shape[0]

    @property
    def dim(self) -> int:
        return 1 if self.observations.ndim == 1 else self.observations.shape[1]


@dataclass
class RegressionSamples:
    features: np.ndarray  # (n_s, d)
    responses: np.ndarray  # (n_s,)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.responses = np.asarray(self.responses, dtype=np.float64).reshape(-1)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.features.shape[0] != self.responses.shape[0]:
            raise ValueError("features and responses disagree on the sample count")
        if self.features.shape[0] < 1:
            raise ValueError("RegressionSamples needs n_s >= 1")

    @property
    def n_s(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class LabeledExamples:
    features: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,) integer classes

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on the example count")

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


LocalDataset = Union[PointSamples, RegressionSamples, LabeledExamples]


@dataclass
class ClientRecord:
    id: int
    is_private: bool
    dataset: LocalDataset
    personalized_model: Optional[ModelVector] = None


def model_dim_for(data: LocalDataset, kind: LossKind, n_classes: int = 10) -> int:
    if kind is LossKind.SOFTMAX_CLASSIFICATION:
        return n_classes * (data.dim + 1)
    return data.dim


def _softmax_unpack(model: ModelVector, n_features: int) -> tuple[np.ndarray, np.ndarray]:
    if model.size % (n_features + 1) != 0:
        raise ValueError(
            f"model of size {model.size} does not fit a linear layer over {n_features} features"
        )
    n_classes = model.size // (n_features + 1)
    w = model[: n_classes * n_features].reshape(n_classes, n_features)
    b = model[n_classes * n_features :]
    return w, b


def _softmax_probs(model: ModelVector, x: np.ndarray) -> np.ndarray:
    w, b = _softmax_unpack(model, x.shape[1])
    logits = x @ w.T + b
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    p /= p.sum(axis=1, keepdims=True)
    return p


def local_loss(model: ModelVector, data: LocalDataset, kind: LossKind) -> float:
    """Mean local objective of ``model`` on ``data``. Nonnegative."""
    model = np.asarray(model, dtype=np.float64)
    if kind is LossKind.POINT_ESTIMATION:
        if not isinstance(data, PointSamples):
            raise ValueError("point-estimation loss needs PointSamples")
        target = data.observations.mean(axis=0)
        diff = model - np.atleast_1d(target)
        if diff.shape != model.shape:
            raise ValueError("model/data dimension mismatch")
        return 0.5 * float(diff @ diff)
    if kind is LossKind.LINEAR_REGRESSION:
        if not isinstance(data, RegressionSamples):
            raise ValueError("linear-regression loss needs RegressionSamples")
        if model.shape[0] != data.dim:
            raise ValueError("model/data dimension mismatch")
        resid = data.features @ model - data.responses
        return float(resid @ resid) / (2.0 * data.n_s)
    if kind is LossKind.SOFTMAX_CLASSIFICATION:
        if not isinstance(data, LabeledExamples):
            raise ValueError("softmax loss needs LabeledExamples")
        p = _softmax_probs(model, data.features)
        picked = p[np.arange(data.n), data.labels]
        return float(-np.mean(np.log(np.maximum(picked, 1e-300))))
    raise ValueError(f"unknown loss kind {kind!r}")


def local_gradient(model: ModelVector, data: LocalDataset, kind: LossKind) -> ModelVector:
    model = np.asarray(model, dtype=np.float64)
    if kind is LossKind.POINT_ESTIMATION:
        target = np.atleast_1d(data.observations.mean(axis=0))
        return model - target
    if kind is LossKind.LINEAR_REGRESSION:
        resid = data.features @ model - data.responses
        return (data.features.T @ resid) / data.n_s
    if kind is LossKind.SOFTMAX_CLASSIFICATION:
        p = _softmax_probs(model, data.features)
        y = np.zeros_like(p)
        y[np.arange(data.n), data.labels] = 1.0
        err = (p - y) / data.n
        gw = err.T @ data.features
        gb = err.sum(axis=0)
        return np.concatenate([gw.ravel(), gb])
    raise ValueError(f"unknown loss kind {kind!r}")


def _batches(
    data: LocalDataset, batch_size: Optional[int], rng: Optional[np.random.Generator]
) -> Iterator[LocalDataset]:
    """Full batch when batch_size is None, else shuffled mini-batches."""
    if batch_size is None:
        yield data
        return
    n = data.n if isinstance(data, LabeledExamples) else data.n_s
    order = np.arange(n) if rng is None else rng.permutation(n)
    for lo in range(0, n, batch_size):
        idx = order[lo : lo + batch_size]
        if isinstance(data, PointSamples):
            yield PointSamples(data.observations[idx])
        elif isinstance(data, RegressionSamples):
            yield RegressionSamples(data.features[idx], data.responses[idx])
        else:
            yield LabeledExamples(data.features[idx], data.labels[idx])


def client_update(
    global_model: ModelVector,
    client: ClientRecord,
    clip_norm: float,
    cfg,
    kind: LossKind,
    ditto=None,
    rng: Optional[np.random.Generator] = None,
) -> tuple[ModelVector, int]:
    """Run the local training loop and return (clipped delta, indicator bit).

    ``cfg`` supplies epochs / eta / batch_size. The indicator is 1 iff the raw
    delta's L2 norm was within ``clip_norm`` before clipping. When ``ditto`` is
    given, the client's personalized model takes one proximal step per batch,
    regularized toward the broadcast ``global_model``.
    """
    from .personalization import ditto_step
    from .privacy import clip

    if clip_norm <= 0:
        raise ValueError("clip_norm must be positive")
    theta = np.array(global_model, dtype=np.float64, copy=True)
    if ditto is not None and client.personalized_model is None:
        client.personalized_model = np.array(global_model, dtype=np.float64, copy=True)
    for _ in range(cfg.epochs):
        for batch in _batches(client.dataset, cfg.batch_size, rng):
            theta = theta - cfg.eta * local_gradient(theta, batch, kind)
            if ditto is not None:
                lam = ditto.lambda_p if client.is_private else ditto.lambda_np
                eta_p = ditto.eta_p if ditto.eta_p is not None else 1.0 / (1.0 + lam)
                client.personalized_model = ditto_step(
                    client.personalized_model, global_model, batch, kind, lam, eta_p
                )
    delta = theta - global_model
    if not np.all(np.isfinite(delta)):
        raise NumericFailure(f"non-finite update from client {client.id}")
    return clip(delta, clip_norm)
