"""Model families, their local gradients, and the client-side update step.

Each `config.PopulationKind` trains one model family:

* point estimation — scalar (or d-dim) mean estimation, loss ``0.5*||theta - mean(x)||^2``;
* linear regression — ``(1/(2 n_s))*||F theta - x||^2`` with orthogonal designs,
  normalized so the gradient is exactly ``theta - phi_hat`` when ``F^T F = n_s I``
  (this is what makes the one-local-step-with-eta-1 path land exactly on the
  least-squares solution);
* label shard — softmax classification: a single linear layer with bias and
  cross-entropy.

Models are flat float64 vectors everywhere; the softmax layer is stored as
``concat(W.ravel(), b)`` with ``W`` of shape (classes, features).

Training runs on a whole cohort at once: (clients, examples, features) data
stacks and (clients, dim) model stacks, whose rows never mix. A call makes fresh
arrays unless given ``out=`` ones, like `simulate.run_experiment`'s stack and gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .config import PopulationKind


class NumericFailure(RuntimeError):
    """A training step produced NaN/Inf; message carries the client context."""


@dataclass
class Cohort:
    """One round's clients on a leading axis, in cohort order."""

    ids: np.ndarray  # client ids, for error messages
    private: np.ndarray  # True where the client stays private; picks its Ditto lambda
    x: np.ndarray  # (clients, n, f) inputs: observations, designs or features
    y: Optional[np.ndarray]  # (clients, n) responses or labels; None for point estimation
    personal: Optional[np.ndarray] = None  # (clients, dim) personal models Ditto starts from


def _logits(model: np.ndarray, x: np.ndarray) -> np.ndarray:
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


def _softmax_probs(model: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Class probabilities, laid out as in `_logits`."""
    p = _logits(model, x)
    top = p[..., 0].copy()  # the row max, column by column: a reduction over the short class axis is slower
    for k in range(1, p.shape[-1]):
        np.maximum(top, p[..., k], out=top)
    p -= top[..., None]
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def local_gradient(models: np.ndarray, x: np.ndarray, y: Optional[np.ndarray], kind, out=None) -> np.ndarray:
    """Gradient of each client's mean local loss at its own row of ``models``
    (clients, dim), written into ``out`` if given; ``x`` and ``y`` are laid out as
    in `Cohort`."""
    if kind is PopulationKind.POINT_ESTIMATION:
        return np.subtract(models, x.mean(axis=1), out=out)
    if kind is PopulationKind.LINEAR_REGRESSION:
        resid = np.matmul(x, models[:, :, None])[:, :, 0] - y
        return np.divide(np.matmul(np.swapaxes(x, 1, 2), resid[:, :, None])[:, :, 0], x.shape[1], out=out)
    if kind is PopulationKind.LABEL_SHARD:
        (m, n), f = y.shape, x.shape[2]
        c = models.shape[1] // (f + 1)
        p = _softmax_probs(models, x)
        hot = np.arange(m * n) * c + y.reshape(-1)  # the one-hot labels' flat index into p
        np.put(p, hot, p.take(hot) - 1.0)  # put writes into p itself, never into a copy
        err = np.divide(p, n, out=p)
        grad = np.empty(models.shape) if out is None else out  # weight gradients (c, f) per row, then bias gradients
        np.matmul(np.swapaxes(err, 1, 2), x, out=grad[:, : c * f].reshape(m, c, f))
        bias = err[:, 0].copy()  # err.sum(axis=1)'s order, added up in a contiguous (m, c) array
        for k in range(1, n):
            bias += err[:, k]
        grad[:, c * f :] = bias
        return grad
    raise ValueError(f"unknown population kind {kind!r}")


def _batches(x, y, batch_size: Optional[int], order: Optional[np.ndarray]) -> Iterator[tuple]:
    """Full batch when batch_size is None, else one pass of mini-batches taking
    row i's examples in the order ``order[i]``."""
    if batch_size is None:
        yield x, y
        return
    rows = np.arange(x.shape[0])[:, None]
    for lo in range(0, x.shape[1], batch_size):
        idx = order[:, lo : lo + batch_size]
        yield x[rows, idx], None if y is None else y[rows, idx]


def client_update(
    global_model: np.ndarray, cohort: Cohort, cfg, kind: PopulationKind, ditto=None,
    order: Optional[np.ndarray] = None, out: Optional[tuple] = None,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Train every cohort client at once; return (raw deltas (clients, dim),
    personal models). ``cfg`` gives epochs / eta / batch_size, ``order``
    (epochs, clients, examples) each epoch's mini-batch example order per client
    (None for full batches). ``out`` gives work arrays for the cohort's rows to
    write into, (model stack, gradient); the deltas returned are then ``out[0]``.
    The personal models are None without ``ditto``; with it, each starts from
    ``cohort.personal`` and takes one proximal step per batch. A non-finite delta,
    delta norm or personal model raises `NumericFailure` naming the first such client."""
    from .privacy import row_norms
    from .personalization import ditto_step

    global_model = np.asarray(global_model, dtype=np.float64)
    theta, grad = (np.empty((len(cohort.ids), global_model.size)), None) if out is None else out
    theta[...] = global_model
    personal = None
    if ditto is not None:
        personal = cohort.personal
        lam = np.where(cohort.private, ditto.lambda_p, ditto.lambda_np).astype(np.float64)[:, None]
        eta_p = 1.0 / (1.0 + lam) if ditto.eta_p is None else ditto.eta_p
    for epoch in range(cfg.epochs):
        epoch_order = None if order is None else order[epoch]
        for xb, yb in _batches(cohort.x, cohort.y, cfg.batch_size, epoch_order):
            grad = local_gradient(theta, xb, yb, kind, grad)
            theta -= np.multiply(cfg.eta, grad, out=grad)
            if ditto is not None:
                personal = ditto_step(personal, global_model, xb, yb, kind, lam, eta_p)
    delta = np.subtract(theta, global_model, out=theta)
    with np.errstate(over="ignore"):
        finite = np.isfinite(row_norms(delta))  # False for a non-finite delta too
    personal_ok = np.ones_like(finite) if ditto is None else np.isfinite(personal).all(axis=1)
    if not (finite.all() and personal_ok.all()):
        i = int(np.argmin(finite & personal_ok))
        what = ("update norm" if np.isfinite(delta[i]).all() else "update") if personal_ok[i] else "personalized model"
        raise NumericFailure(f"non-finite {what} from client {cohort.ids[i]}")
    return delta, personal
