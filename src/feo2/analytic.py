"""Closed forms for the Gaussian estimation model behind the simulator.

The population model: a global truth ``phi`` (flat prior), per-client truths
``phi_j = phi + N(0, tau2)``, local estimates ``phi_hat_j = phi_j + N(0, alpha2)``
with ``alpha2 = beta2/n_s``, and private updates carrying extra noise of
variance ``N_p*gamma2`` per client (so the private group mean carries
``gamma2``). Everything here is exact algebra on those variances:

* `optimal_ratio` — the private-group weight r* that minimizes the server's
  estimation variance, with `server_variance_opt` the variance it achieves;
* `server_variance_fedavg` / `server_variance_dpfedavg` — baselines that
  weight everyone equally (r=1) or noise everyone;
* `gap_fedavg` / `gap_dpfedavg` — baseline-minus-optimal differences in
  simplified form (they equal the literal variance differences identically);
* `focal_view` — a client's weight in the global estimate at ratio r and its
  peers' variance there; `lambda_star_general` — the tether that exactly
  minimises the tethered estimator's loss at any r (so under either
  aggregator), and `lambda_star_np` / `lambda_star_p` its closed forms at r*;
* `bayes_global_oracle` / `bayes_local_oracle` — inverse-variance estimators
  used by the test suite as independent references.

All covariances are scalar multiples of the identity (the orthogonal-design
regime), so variances are carried as plain floats and vectors of any
dimension reuse the same scalars per coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import check_field_types


class UnboundedLambda(ValueError):
    """The optimal tether strength diverges (e.g. identical clients, tau2 = 0)."""


@dataclass(frozen=True)
class AnalyticParams:
    """Scalar parameters of the estimation model.

    N/N_p are client counts (floats allowed for continuous sweeps), beta2 the
    per-observation noise, n_s observations per client, tau2 the client-truth
    spread, gamma2 the server-side privacy noise variance, d the dimension.
    """

    N: float
    N_p: float
    tau2: float
    beta2: float
    gamma2: float
    n_s: int = 1
    d: int = 1

    def __post_init__(self):
        check_field_types(self)
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if not 0 <= self.N_p <= self.N:
            raise ValueError("N_p must lie in [0, N]")
        if min(self.tau2, self.beta2, self.gamma2) < 0:
            raise ValueError("variances must be >= 0")
        if self.n_s < 1 or self.d < 1:
            raise ValueError("n_s and d must be >= 1")

    @classmethod
    def from_sigma_c2(
        cls, N: float, N_p: float, sigma_c2: float, gamma2: float, d: int = 1
    ) -> "AnalyticParams":
        """Construct from the lumped per-client variance (tau2 folded to 0)."""
        if not math.isfinite(sigma_c2):
            raise ValueError(f"sigma_c2 must be finite, got {sigma_c2}")
        return cls(N=N, N_p=N_p, tau2=0.0, beta2=sigma_c2, gamma2=gamma2, n_s=1, d=d)

    @property
    def N_np(self) -> float:
        return self.N - self.N_p

    @property
    def rho_np(self) -> float:
        return self.N_np / self.N

    @property
    def alpha2(self) -> float:
        return self.beta2 / self.n_s

    @property
    def sigma_c2(self) -> float:
        return self.alpha2 + self.tau2

    @property
    def sigma_p2(self) -> float:
        return self.sigma_c2 + self.N_p * self.gamma2

    @property
    def Upsilon2(self) -> float:
        if self.alpha2 <= 0:
            raise UnboundedLambda("Upsilon2 needs alpha2 > 0")
        return self.tau2 / self.alpha2

    @property
    def Gamma2(self) -> float:
        if self.alpha2 <= 0:
            raise UnboundedLambda("Gamma2 needs alpha2 > 0")
        return self.N_p * self.gamma2 / self.alpha2


def optimal_ratio(p: AnalyticParams) -> float:
    """r* = sigma_c2 / (sigma_c2 + N_p*gamma2): down-weight the noised group
    exactly by how much extra variance it carries."""
    den = p.sigma_c2 + p.N_p * p.gamma2
    if den <= 0:
        raise ValueError("undefined ratio: all variances are zero")
    return p.sigma_c2 / den


def server_variance_at(p: AnalyticParams, r: float) -> float:
    """Variance (per coordinate) of the two-group estimator at an arbitrary r."""
    if not 0.0 <= r <= 1.0:
        raise ValueError("r must be in [0, 1]")
    W = p.N_np + r * p.N_p
    if W <= 0:
        return float("inf")
    return (p.N_np * p.sigma_c2 + r**2 * p.N_p * p.sigma_p2) / W**2


def server_variance_opt(p: AnalyticParams) -> float:
    """Variance at r*: sigma_c2*sigma_p2 / (N*(sigma_c2 + rho_np*N_p*gamma2))."""
    return (p.sigma_c2 * p.sigma_p2) / (p.N * (p.sigma_c2 + p.rho_np * p.N_p * p.gamma2))


def server_variance_fedavg(p: AnalyticParams) -> float:
    """Equal-weight aggregation: (sigma_c2 + (1 - rho_np)*N_p*gamma2) / N."""
    return (p.sigma_c2 + (1.0 - p.rho_np) * p.N_p * p.gamma2) / p.N


def server_variance_dpfedavg(p: AnalyticParams) -> float:
    """Everyone noised at the same per-client level: sigma_p2 / N."""
    return p.sigma_p2 / p.N


def gap_fedavg(p: AnalyticParams) -> float:
    """Simplified form of server_variance_fedavg - server_variance_opt."""
    den = p.N * (p.sigma_c2 + p.rho_np * p.N_p * p.gamma2)
    return p.rho_np * (1.0 - p.rho_np) * (p.N_p * p.gamma2) ** 2 / den


def gap_dpfedavg(p: AnalyticParams) -> float:
    """Simplified form of server_variance_dpfedavg - server_variance_opt."""
    den = p.N * (p.sigma_c2 + p.rho_np * p.N_p * p.gamma2)
    return p.N_p * p.gamma2 * p.rho_np * (p.sigma_c2 + p.N_p * p.gamma2) / den


def lambda_star_np(p: AnalyticParams) -> float:
    """Optimal tether for an opted-out client: 1/Upsilon2 = alpha2/tau2."""
    if p.tau2 <= 0:
        raise UnboundedLambda("tau2 = 0: identical client truths, lambda* diverges")
    return p.alpha2 / p.tau2


def lambda_star_p(p: AnalyticParams) -> float:
    """Optimal tether for a private client.

    (N + U2*N + G2*(N - N_p)) / (U2*(U2+1)*N + U2*G2*(N - N_p + 1) + G2)
    with U2 = tau2/alpha2 and G2 = N_p*gamma2/alpha2.
    """
    U2, G2 = p.Upsilon2, p.Gamma2
    den = U2 * (U2 + 1.0) * p.N + U2 * G2 * (p.N - p.N_p + 1.0) + G2
    if den <= 0:
        raise UnboundedLambda("degenerate parameters: lambda*_p diverges")
    return (p.N + U2 * p.N + G2 * (p.N - p.N_p)) / den


def focal_view(p: AnalyticParams, is_private: bool, r: float) -> tuple[float, float]:
    """The focal client's weight a = i_j/W in the global estimate at ratio r,
    W = N_np + r*N_p, and the per-coordinate variance v of its peers' share.
    A private client has n = N_p - 1 private and m = N_np opted-out peers and
    i_j = r; an opted-out one has n = N_p, m = N_np - 1 and i_j = 1."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r must be in [0, 1], got {r}")
    if is_private:
        i_j, n, m = r, p.N_p - 1.0, p.N_np
    else:
        i_j, n, m = 1.0, p.N_p, p.N_np - 1.0
    if n < 0 or m < 0:
        kind = "private" if is_private else "opted-out"
        raise ValueError(f"focal client class not present in the population: no {kind} client")
    W = p.N_np + r * p.N_p
    if W <= 0:
        raise ValueError("estimator undefined: zero total weight")
    return i_j / W, (m * p.sigma_c2 + r**2 * n * p.sigma_p2) / W**2


def lambda_star_general(p: AnalyticParams, is_private: bool, r: float) -> float:
    """Optimal tether at ratio r: the exact minimiser (A - B)/(C - B) of the
    tethered estimator's loss (A + 2*lam*B + lam^2*C)/(1 + lam)^2, with
    A = alpha2, B = a*alpha2, C = (1-a)^2*tau2 + a^2*alpha2 + v from `focal_view`.
    At r* it equals `lambda_star_np` / `lambda_star_p`."""
    a, v = focal_view(p, is_private, r)
    A, B = p.alpha2, a * p.alpha2
    C = (1.0 - a) ** 2 * p.tau2 + a * a * A + v
    if C - B <= 0:
        raise UnboundedLambda("the loss falls with lambda: no finite optimal tether")
    return (A - B) / (C - B)


def bayes_global_oracle(updates: Sequence[tuple[np.ndarray, float]]) -> np.ndarray:
    """Inverse-variance weighted mean of (vector, variance) observations."""
    if len(updates) == 0:
        raise ValueError("need at least one update")
    if any(not (var > 0) or not math.isfinite(var) for _, var in updates):
        raise ValueError("variances must be positive and finite")
    weights = np.array([1.0 / var for _, var in updates])
    weights /= weights.sum()
    return sum(w * np.asarray(v, dtype=np.float64) for (v, _), w in zip(updates, weights))


def bayes_local_oracle(
    phi_hat_j: np.ndarray,
    others: Sequence[tuple[np.ndarray, bool]],
    p: AnalyticParams,
    is_private_j: bool,
) -> np.ndarray:
    """Bayes-optimal personal estimate of phi_j from the client's own clean
    estimate plus every other client's submitted update.

    others: (update_vector, is_private) pairs for the N-1 peers. The
    closed-form coefficients (own, opted-out peer, private peer):

        a   = (sc2*sp2 + tau2*(n*sc2 + m*sp2)) / (sc2*k)
        b   = alpha2 * sp2 / (sc2*k)
        c   = alpha2 / k,     k = n*sc2 + (m+1)*sp2

    with n private peers, m opted-out peers, alpha2 = sc2 - tau2.
    """
    sc2, sp2, tau2 = p.sigma_c2, p.sigma_p2, p.tau2
    n = sum(1 for _, priv in others if priv)
    m = len(others) - n
    if (n + is_private_j, m + (not is_private_j)) != (p.N_p, p.N_np):
        raise ValueError(
            f"peer class counts ({n} private, {m} opted-out) plus the focal client "
            f"disagree with params ({p.N_p}, {p.N_np})"
        )
    k = n * sc2 + (m + 1.0) * sp2
    coef_own = (sc2 * sp2 + tau2 * (n * sc2 + m * sp2)) / (sc2 * k)
    coef_np = (sc2 - tau2) * sp2 / (sc2 * k)
    coef_p = (sc2 - tau2) / k
    out = coef_own * np.asarray(phi_hat_j, dtype=np.float64)
    for v, priv in others:
        out = out + (coef_p if priv else coef_np) * np.asarray(v, dtype=np.float64)
    return out
