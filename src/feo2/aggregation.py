"""Server-side two-group aggregation and its degenerate baselines."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .privacy import gaussian_noise_vector, row_norms


class RoundSkipped(RuntimeError):
    """No usable update this round (e.g. r=0 with no opted-out client sampled)."""


def group_mean(updates: np.ndarray) -> np.ndarray:
    """Mean of a (clients, dim) stack of updates."""
    stack = np.asarray(updates, dtype=np.float64)
    if len(stack) == 0:
        raise RoundSkipped("empty group has no mean")
    return stack.mean(axis=0)


def dp_group_mean(
    updates: np.ndarray, S: float, z: float, rng: np.random.Generator
) -> np.ndarray:
    """Mean of a (clients, dim) stack of clipped updates plus N(0, (z*S/N_p)^2) noise."""
    mean = group_mean(updates)
    norms = row_norms(np.asarray(updates, dtype=np.float64))
    over = norms[~(norms <= S + 1e-9)]  # negated so that a NaN norm fails too
    if over.size:
        raise ValueError(f"private update norm {over[0]:.6g} exceeds clip bound {S}")
    n = len(updates)
    return mean + gaussian_noise_vector(mean.shape[0], z * S / n, rng)


def feo2_combine(
    delta_np: Optional[np.ndarray],
    delta_p: Optional[np.ndarray],
    N_np_t: int,
    N_p_t: int,
    r: float,
) -> np.ndarray:
    """Combine the group means with weights N_np : r*N_p (renormalized).

    r=1 is count-weighted averaging of everyone (plain federated averaging);
    r=0 drops the private group entirely. A missing group gets weight zero;
    if nothing remains the round is skipped.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError("r must be in [0, 1]")
    if N_np_t < 0 or N_p_t < 0:
        raise ValueError("group counts must be >= 0")
    w_np = float(N_np_t) if delta_np is not None else 0.0
    w_p = r * float(N_p_t) if delta_p is not None else 0.0
    total = w_np + w_p
    if total <= 0.0:
        raise RoundSkipped("no group carries weight this round")
    if delta_np is None:
        return (w_p / total) * delta_p
    if delta_p is None:
        return (w_np / total) * delta_np
    return (w_np / total) * delta_np + (w_p / total) * delta_p


def apply_update(theta: np.ndarray, delta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if theta.shape != delta.shape:
        raise ValueError("model/update dimension mismatch")
    return theta + delta
