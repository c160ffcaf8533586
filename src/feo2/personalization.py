"""Personalization via a proximal (L2-tethered) local objective.

Each client keeps a personal model ``theta_j`` trained on
``f_j(theta_j) + (lambda/2) * ||theta_j - theta_global||^2``. For the
quadratic families one gradient step with ``eta_p = 1/(1+lambda)`` lands
exactly on the minimizer ``(phi_hat_j + lambda*theta_global)/(1+lambda)``
(a test oracle, `tests/oracles.py`). `ditto_step` steps a cohort's personal
models at once on the gradient of ``f_j`` it is given: `models.client_update`
computes that gradient in the same pass as the global models', validates
lambda and eta_p once per call, and checks the stepped models.
"""

from __future__ import annotations

import numpy as np


def ditto_step(theta_j: np.ndarray, theta_global: np.ndarray, grad: np.ndarray, lam, eta_p) -> np.ndarray:
    """One proximal step of each row of ``theta_j`` (clients, dim), in place:
    theta_j - eta_p*(grad + lam*(theta_j - theta_global)), with ``grad`` each
    row's gradient of its local loss at theta_j; ``grad`` is overwritten.
    ``lam`` and ``eta_p`` are scalars or per-client columns (clients, 1).
    Returns ``theta_j``."""
    tether = np.subtract(theta_j, theta_global)
    grad += np.multiply(lam, tether, out=tether)
    theta_j -= np.multiply(eta_p, grad, out=grad)
    return theta_j
