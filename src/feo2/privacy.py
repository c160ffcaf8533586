"""Clipping, Gaussian noising, and the adaptive clip-norm update."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .config import FeO2Config


def clip(v: np.ndarray, S: float) -> tuple[np.ndarray, int]:
    """Scale ``v`` onto the L2 ball of radius ``S``; also report whether it already fit.

    Returns (clipped, b) with b = 1 iff ||v|| <= S before clipping. The
    rescale loop guards against the scaled norm landing a few ulps above S,
    which makes a second clip a bitwise no-op (idempotent).
    """
    if S <= 0:
        raise ValueError("clip norm must be positive")
    out = np.array(v, dtype=np.float64, copy=True)
    norm = float(np.linalg.norm(out))
    if not math.isfinite(norm):
        raise ValueError(f"cannot clip a vector of norm {norm}")
    b = 1 if norm <= S else 0
    while norm > S:
        out *= S / norm
        norm = float(np.linalg.norm(out))
    return out, b


def gaussian_noise_vector(dim: int, std: float, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. N(0, std^2) vector; exactly zero when std == 0."""
    if std < 0:
        raise ValueError("std must be >= 0")
    if std == 0.0:
        return np.zeros(dim)
    return rng.normal(0.0, std, dim)


def update_clip_norm(
    S: float, indicators: Sequence[int], cfg: FeO2Config, rng: np.random.Generator
) -> float:
    """Geometric step of the clip norm toward the kappa-quantile of update norms.

    S' = S * exp(-eta_b * ((mean(b) + N(0, z_b^2 / N_t^2)) - kappa)), with
    N_t = len(indicators); z_b, kappa and eta_b come from ``cfg``.
    """
    if S <= 0:
        raise ValueError("S must be positive")
    N_t = len(indicators)
    if N_t < 1:
        raise ValueError("need at least one indicator bit")
    b_mean = float(np.mean(indicators))
    if cfg.z_b > 0:
        b_mean += float(rng.normal(0.0, cfg.z_b / N_t))
    return S * float(np.exp(-cfg.eta_b * (b_mean - cfg.kappa)))
