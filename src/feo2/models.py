"""Model families, their local gradients, and the client-side update step.

Three model families are supported:

* point estimation — scalar (or d-dim) mean estimation, loss ``0.5*||theta - mean(x)||^2``;
* linear regression — ``(1/(2 n_s))*||F theta - x||^2`` with orthogonal designs,
  normalized so the gradient is exactly ``theta - phi_hat`` when ``F^T F = n_s I``
  (this is what makes the one-local-step-with-eta-1 path land exactly on the
  least-squares solution);
* softmax classification — a single linear layer with bias and cross-entropy.

Models are flat float64 vectors everywhere; the softmax layer is stored as
``concat(W.ravel(), b)`` with ``W`` of shape (classes, features).

Training runs on a whole cohort at once: (clients, examples, features) data
stacks and (clients, dim) model stacks, whose rows never mix. `LabeledExamples`
is the labelled sample pool that label-shard populations are drawn from.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

import numpy as np

from .privacy import clip_rows

ModelVector = np.ndarray


class NumericFailure(RuntimeError):
    """A training step produced NaN/Inf; message carries the client context."""


class LossKind(str, Enum):
    POINT_ESTIMATION = "point_estimation"
    LINEAR_REGRESSION = "linear_regression"
    SOFTMAX_CLASSIFICATION = "softmax_classification"


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
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class Cohort:
    """One round's clients on a leading axis, in cohort order."""

    ids: np.ndarray  # client ids, for error messages
    private: np.ndarray  # True where the client stays private; picks its Ditto lambda
    x: np.ndarray  # (clients, n, f) inputs: observations, designs or features
    y: Optional[np.ndarray]  # (clients, n) responses or labels; None for point estimation
    personal: Optional[np.ndarray] = None  # (clients, dim) personal models, stepped by Ditto


def _logits(model: ModelVector, x: np.ndarray) -> np.ndarray:
    """Class scores x·Wᵀ + b of one model on (n, f) inputs, or of a (clients, dim)
    stack on (clients, n, f) inputs; their argmax is the predicted class."""
    size, f = model.shape[-1], x.shape[-1]
    if size % (f + 1) != 0:
        raise ValueError(f"model of size {size} does not fit a linear layer over {f} features")
    c = size // (f + 1)
    w = model[..., : c * f].reshape(*model.shape[:-1], c, f)
    p = np.matmul(x, np.swapaxes(w, -1, -2))
    p += model[..., None, c * f :]
    return p


def _softmax_probs(model: ModelVector, x: np.ndarray) -> np.ndarray:
    """Class probabilities, laid out as in `_logits`."""
    p = _logits(model, x)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def local_gradient(models: np.ndarray, x: np.ndarray, y: Optional[np.ndarray], kind) -> np.ndarray:
    """Gradient of each client's mean local loss at its own row of ``models``
    (clients, dim); ``x`` and ``y`` are laid out as in `Cohort`."""
    if kind is LossKind.POINT_ESTIMATION:
        return models - x.mean(axis=1)
    if kind is LossKind.LINEAR_REGRESSION:
        resid = np.matmul(x, models[:, :, None])[:, :, 0] - y
        return np.matmul(np.swapaxes(x, 1, 2), resid[:, :, None])[:, :, 0] / x.shape[1]
    if kind is LossKind.SOFTMAX_CLASSIFICATION:
        p = _softmax_probs(models, x)
        (m, n), c, f = y.shape, p.shape[2], x.shape[2]
        p[np.arange(m)[:, None], np.arange(n), y] -= 1.0  # minus the one-hot labels
        err = np.divide(p, n, out=p)
        grad = np.empty(models.shape)  # weight gradients (c, f) per row, then bias gradients
        np.matmul(np.swapaxes(err, 1, 2), x, out=grad[:, : c * f].reshape(m, c, f))
        err.sum(axis=1, out=grad[:, c * f :])
        return grad
    raise ValueError(f"unknown loss kind {kind!r}")


def _batches(x, y, batch_size: Optional[int], order: Optional[np.ndarray]) -> Iterator[tuple]:
    """Full batch when batch_size is None, else one pass of mini-batches taking
    row i's examples in the order ``order[i]`` (in order when order is None)."""
    if batch_size is None:
        yield x, y
        return
    m, n = x.shape[:2]
    if order is None:
        order = np.broadcast_to(np.arange(n), (m, n))
    rows = np.arange(m)[:, None]
    for lo in range(0, n, batch_size):
        idx = order[:, lo : lo + batch_size]
        yield x[rows, idx], None if y is None else y[rows, idx]


def client_update(
    global_model: ModelVector, cohort: Cohort, clip_norm: float, cfg, kind: LossKind, ditto=None,
    order: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Train every cohort client at once; return (clipped deltas (clients, dim), bits)
    with bit 1 iff the raw delta's L2 norm was within ``clip_norm``. ``cfg`` gives
    epochs / eta / batch_size, ``order`` (epochs, clients, examples) each epoch's
    mini-batch example order per client, taken in order when None. With ``ditto``,
    each personal model (``cohort.personal``, else the broadcast ``global_model``)
    takes one proximal step per batch. A non-finite delta or personal model
    raises `NumericFailure` naming the first such client."""
    from .personalization import ditto_step

    if clip_norm <= 0:
        raise ValueError("clip_norm must be positive")
    global_model = np.asarray(global_model, dtype=np.float64)
    theta = np.repeat(global_model[None, :], len(cohort.ids), axis=0)
    personal = theta.copy() if ditto is not None and cohort.personal is None else cohort.personal
    if ditto is not None:
        lam = np.where(cohort.private, ditto.lambda_p, ditto.lambda_np).astype(np.float64)[:, None]
        eta_p = 1.0 / (1.0 + lam) if ditto.eta_p is None else ditto.eta_p
    for epoch in range(cfg.epochs):
        epoch_order = None if order is None else order[epoch]
        for xb, yb in _batches(cohort.x, cohort.y, cfg.batch_size, epoch_order):
            grad = local_gradient(theta, xb, yb, kind)
            theta -= np.multiply(cfg.eta, grad, out=grad)
            if ditto is not None:
                personal = ditto_step(personal, global_model, xb, yb, kind, lam, eta_p)
    cohort.personal = personal
    delta = np.subtract(theta, global_model, out=theta)
    finite = np.isfinite(delta).all(axis=1)
    personal_ok = np.ones_like(finite) if ditto is None else np.isfinite(personal).all(axis=1)
    if not (finite & personal_ok).all():
        i = int(np.argmin(finite & personal_ok))
        what = "update" if personal_ok[i] else "personalized model"
        raise NumericFailure(f"non-finite {what} from client {cohort.ids[i]}")
    return clip_rows(delta, clip_norm)
