"""Clipping, and the adaptive clip-norm update with its noised indicator mean."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import FeO2Config
from .models import NumericFailure


def row_norms(rows: np.ndarray) -> np.ndarray:
    """L2 norm of each row, bitwise equal to ``np.linalg.norm(row)``: the root of a
    one-row dot product (``np.linalg.norm(rows, axis=1)`` can differ in the last bit)."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def clip_rows(rows: np.ndarray, S: float) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row onto the L2 ball of radius ``S``; return (clipped, b) with
    b[i] = 1 iff ||rows[i]|| <= S before clipping. The rescale loop guards
    against a scaled norm landing a few ulps above S, which makes a second clip
    a bitwise no-op (idempotent). Rows are clipped independently."""
    if S <= 0:
        raise ValueError("clip norm must be positive")
    out = np.array(rows, dtype=np.float64, copy=True)
    norms = row_norms(out)
    if not np.isfinite(norms).all():
        raise ValueError(f"cannot clip a vector of norm {norms[~np.isfinite(norms)][0]}")
    b = (norms <= S).astype(np.int64)
    over = norms > S
    while over.any():
        out *= np.where(over, S / np.maximum(norms, S), 1.0)[:, None]  # rows that fit: times 1
        norms = row_norms(out)
        over = norms > S
    return out, b


def clip(v: np.ndarray, S: float) -> tuple[np.ndarray, int]:
    """`clip_rows` of the single vector ``v``: (clipped, b) with b = 1 iff ||v|| <= S."""
    out, b = clip_rows(np.reshape(np.asarray(v, dtype=np.float64), (1, -1)), S)
    return out[0], int(b[0])


def update_clip_norm(
    S: float, indicators: Sequence[int], cfg: FeO2Config, rng: np.random.Generator
) -> float:
    """Geometric step of the clip norm toward the kappa-quantile of update norms.

    S' = S * exp(-eta_b * ((mean(b) + N(0, z_b^2 / N_t^2)) - kappa)), with
    N_t = len(indicators); z_b, kappa and eta_b come from ``cfg``. A step
    that leaves (0, inf) raises `NumericFailure` naming the value.
    """
    if S <= 0:
        raise ValueError("S must be positive")
    N_t = len(indicators)
    if N_t < 1:
        raise ValueError("need at least one indicator bit")
    b_mean = float(np.mean(indicators))
    if cfg.z_b > 0:
        b_mean += float(rng.normal(0.0, cfg.z_b / N_t))
    with np.errstate(over="ignore"):
        S_new = S * float(np.exp(-cfg.eta_b * (b_mean - cfg.kappa)))
    if not 0.0 < S_new < np.inf:
        raise NumericFailure(f"clip norm update gave S = {S_new!r}")
    return S_new
