"""Personalization via a proximal (L2-tethered) local objective.

Each client keeps a personal model ``theta_j`` trained on
``f_j(theta_j) + (lambda/2) * ||theta_j - theta_global||^2``. For the
quadratic families one gradient step with ``eta_p = 1/(1+lambda)`` lands
exactly on the minimizer ``(phi_hat_j + lambda*theta_global)/(1+lambda)``,
which is also available directly as `ditto_closed_form`. `ditto_step` steps a
cohort's personal models at once; `models.client_update` checks them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .models import LossKind, local_gradient


def ditto_step(
    theta_j: np.ndarray,
    theta_global: np.ndarray,
    x: np.ndarray,
    y: Optional[np.ndarray],
    kind: LossKind,
    lam,
    eta_p,
) -> np.ndarray:
    """One proximal step of each row of ``theta_j`` (clients, dim) on its client's
    data: theta_j - eta_p*(grad f_j + lam*(theta_j - theta_global)). ``lam`` and
    ``eta_p`` are scalars or per-client columns (clients, 1)."""
    if np.any(np.asarray(lam) < 0):
        raise ValueError("lambda must be >= 0")
    if np.any(np.asarray(eta_p) <= 0):
        raise ValueError("eta_p must be > 0")
    theta_j = np.asarray(theta_j, dtype=np.float64)
    g = local_gradient(theta_j, x, y, kind) + lam * (theta_j - np.asarray(theta_global))
    return theta_j - eta_p * g


def ditto_closed_form(
    phi_hat_j: np.ndarray, theta_global: np.ndarray, lam: float
) -> np.ndarray:
    """Minimizer of the tethered quadratic: (phi_hat_j + lam*theta_global)/(1+lam)."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    phi_hat_j = np.asarray(phi_hat_j, dtype=np.float64)
    theta_global = np.asarray(theta_global, dtype=np.float64)
    return (phi_hat_j + lam * theta_global) / (1.0 + lam)
