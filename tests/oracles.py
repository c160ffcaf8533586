"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles with different
numerics than the library code (mpmath quadrature instead of log-domain
series, a dense linear solve instead of closed-form coefficients), so
agreement is meaningful. The array kernels' references are their plainer
first formulations instead, which the library must match byte for byte.
"""

import math
from itertools import combinations_with_replacement

import mpmath as mp
import numpy as np

from feo2.accounting import DEFAULT_ORDERS, PrivacyLedger, rdp_increment
from feo2.config import PopulationKind
from feo2.models import _batches, _logits, _softmax_probs, local_gradient
from feo2.privacy import row_norms
from feo2.rng import stream


def rdp_subsampled_gaussian_quadrature(q: float, sigma: float, alpha: float, dps: int = 30) -> float:
    """RDP of the Poisson-subsampled Gaussian by direct numerical integration.

    A_alpha = E_{x~N(0,1)}[((1-q) + q*exp((2*sigma*x - 1)/(2*sigma^2)))^alpha],
    RDP = log(A_alpha)/(alpha - 1).
    """
    with mp.workdps(dps):
        qm, sm, am = mp.mpf(q), mp.mpf(sigma), mp.mpf(alpha)

        def integrand(x):
            return mp.npdf(x, 0, 1) * ((1 - qm) + qm * mp.exp((2 * sm * x - 1) / (2 * sm**2))) ** am

        # the mixture term shifts the effective bump to ~ alpha/sigma
        pts = [-mp.inf, 0, am / sm, am / sm + 8, mp.inf]
        a_val = mp.quad(integrand, pts)
        return float(mp.log(a_val) / (am - 1))


def rdp_subsampled_gaussian_binomial(q: float, sigma: float, alpha: int, dps: int = 80) -> float:
    """Exact binomial summation at integer orders, in plain high precision."""
    if alpha != int(alpha) or alpha < 2:
        raise ValueError("integer orders >= 2 only")
    alpha = int(alpha)
    with mp.workdps(dps):
        qm, sm = mp.mpf(q), mp.mpf(sigma)
        total = mp.mpf(0)
        for k in range(alpha + 1):
            total += (
                mp.binomial(alpha, k)
                * (1 - qm) ** (alpha - k)
                * qm**k
                * mp.exp(k * (k - 1) / (2 * sm**2))
            )
        return float(mp.log(total) / (alpha - 1))


def epsilon_full_curve(counts, delta: float) -> tuple[float, float]:
    """(epsilon, order) of a ledger's (q, z, count) entries with every order
    evaluated: the minimum over DEFAULT_ORDERS of
    Σ count · rdp_increment(q, z, a) + log(1/delta)/(a - 1), the first minimum
    winning.
    The reference for the accountant's pruned scan."""
    rdp = [0.0] * len(DEFAULT_ORDERS)
    for q, z, count in counts:
        curve = tuple(rdp_increment(q, z, a) for a in DEFAULT_ORDERS)
        rdp = [r + count * i for r, i in zip(rdp, curve)]
    eps = [r + math.log(1.0 / delta) / (a - 1.0) for a, r in zip(DEFAULT_ORDERS, rdp)]
    best = eps.index(min(eps))
    return eps[best], DEFAULT_ORDERS[best]


def solve_z_full_curve(target_epsilon: float, delta: float, q: float, rounds: int,
                       z_lo: float = 0.1, z_hi: float = 100.0, tol: float = 1e-3) -> float:
    """`feo2.accounting.solve_z`'s Illinois false position on (log z, log epsilon),
    step for step, with every epsilon taken from `epsilon_full_curve`: the
    reference for the solver's pruned, warm-started scans."""

    def log_eps(z: float) -> float:
        return math.log(epsilon_full_curve(PrivacyLedger(((q, z, rounds),)).counts, delta)[0])

    log_target = math.log(target_epsilon)
    lo, hi = math.log(z_lo), math.log(z_hi)
    f_lo, f_hi = log_eps(z_lo) - log_target, log_eps(z_hi) - log_target
    kept = 0
    for _ in range(200):
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        e = epsilon_full_curve(PrivacyLedger(((q, math.exp(x), rounds),)).counts, delta)[0]
        if abs(e - target_epsilon) < tol:
            return math.exp(x)
        f = math.log(e) - log_target
        if f > 0:
            lo, f_lo = x, f
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = x, f
            if kept == -1:
                f_lo *= 0.5
            kept = -1
    raise ValueError("no z within tol after 200 steps")


def gdp_epsilon(mu: float, delta: float) -> float:
    """Exact epsilon at ``delta`` of a mu-GDP mechanism (Dong, Roth & Su, 2019),
    which T rounds of the Gaussian mechanism with noise multiplier z are, with
    mu = sqrt(T)/z: the root of
    delta(eps) = Phi(-eps/mu + mu/2) - e^eps Phi(-eps/mu - mu/2), which falls
    in eps, by bisection in high precision (e^eps overflows a float at small z).
    Returns the bracket's upper end, never below the root."""
    with mp.workdps(30):
        m, d = mp.mpf(mu), mp.mpf(delta)

        def excess(eps):
            return mp.ncdf(-eps / m + m / 2) - mp.exp(eps) * mp.ncdf(-eps / m - m / 2) - d

        lo, hi = mp.mpf(0), mp.mpf(1)
        while excess(hi) > 0:
            lo, hi = hi, 2 * hi
        for _ in range(64):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if excess(mid) > 0 else (lo, mid)
        return float(hi)


def posterior_mean_dense(
    phi_hat_j: np.ndarray,
    others: list,
    sigma_c2: float,
    sigma_p2: float,
    tau2: float,
    alpha2: float,
    flat_prior_precision: float = 1e-12,
) -> np.ndarray:
    """Posterior mean of phi_j in the joint Gaussian model, by a 2x2 solve.

    Unknowns (phi, phi_j); peers' submissions are N(phi, v) with v = sigma_c2
    for opted-out peers and sigma_p2 for private peers; the focal client's own
    estimate is N(phi_j, alpha2); phi_j ~ N(phi, tau2); phi gets an (almost)
    flat prior.
    """
    phi_hat_j = np.atleast_1d(np.asarray(phi_hat_j, dtype=np.float64))
    d = phi_hat_j.shape[0]
    peer_prec = 0.0
    h0 = np.zeros(d)
    for vec, is_private in others:
        v = sigma_p2 if is_private else sigma_c2
        peer_prec += 1.0 / v
        h0 += np.atleast_1d(np.asarray(vec, dtype=np.float64)) / v
    J = np.array(
        [
            [peer_prec + 1.0 / tau2 + flat_prior_precision, -1.0 / tau2],
            [-1.0 / tau2, 1.0 / tau2 + 1.0 / alpha2],
        ]
    )
    h = np.stack([h0, phi_hat_j / alpha2])
    mean = np.linalg.solve(J, h)
    return mean[1]


def bayes_global_oracle(updates: list) -> np.ndarray:
    """Inverse-variance weighted mean of (vector, variance) observations."""
    if len(updates) == 0:
        raise ValueError("need at least one update")
    if any(not (var > 0) or not math.isfinite(var) for _, var in updates):
        raise ValueError("variances must be positive and finite")
    weights = np.array([1.0 / var for _, var in updates])
    weights /= weights.sum()
    return sum(w * np.asarray(v, dtype=np.float64) for (v, _), w in zip(updates, weights))


def bayes_local_oracle(phi_hat_j: np.ndarray, others: list, p, is_private_j: bool) -> np.ndarray:
    """Bayes-optimal personal estimate of phi_j from the client's own clean
    estimate plus every other client's submitted update.

    others: (update_vector, is_private) pairs for the N-1 peers; p: the
    model's `feo2.analytic.AnalyticParams`. The closed-form coefficients (own, opted-out peer, private peer):

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


def numeric_gradient(fn, theta: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences, one coordinate at a time."""
    theta = np.asarray(theta, dtype=np.float64)
    out = np.zeros_like(theta)
    for i in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (fn(up) - fn(dn)) / (2 * h)
    return out


def local_loss(model: np.ndarray, x: np.ndarray, y, kind: PopulationKind) -> float:
    """Mean local objective of ``model`` on one client's inputs ``x`` (n, f) and
    targets ``y`` (n,) (None for point estimation). Nonnegative. The objective
    whose gradient `feo2.models.local_gradient` computes."""
    model = np.asarray(model, dtype=np.float64)
    if kind is PopulationKind.POINT_ESTIMATION:
        diff = model - x.mean(axis=0)
        return 0.5 * float(diff @ diff)
    if kind is PopulationKind.LINEAR_REGRESSION:
        resid = x @ model - y
        return float(resid @ resid) / (2.0 * len(y))
    if kind is PopulationKind.LABEL_SHARD:
        p = _softmax_probs(model, x)
        picked = p[np.arange(len(y)), y]
        return float(-np.mean(np.log(np.maximum(picked, 1e-300))))
    raise ValueError(f"unknown population kind {kind!r}")


def ditto_closed_form(
    phi_hat_j: np.ndarray, theta_global: np.ndarray, lam: float
) -> np.ndarray:
    """Minimizer of the tethered quadratic: (phi_hat_j + lam*theta_global)/(1+lam)."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    phi_hat_j = np.asarray(phi_hat_j, dtype=np.float64)
    theta_global = np.asarray(theta_global, dtype=np.float64)
    return (phi_hat_j + lam * theta_global) / (1.0 + lam)


def rescored_local_metrics(result) -> dict:
    """Final-round ``acc_g``, ``acc_l_p``, ``acc_l_np`` and ``delta_l`` of a run
    with Ditto, rescoring ``result.global_model`` and every row of
    ``result.personal_models`` from scratch with the group and score arithmetic
    of `feo2.simulate._evaluate`: percent hits of the most probable class for
    label shards, squared error against the hidden truths for the quadratic kinds."""
    pop = result.population
    if pop.kind is PopulationKind.LABEL_SHARD:
        x, labels = pop.server_test
        acc_g = 100.0 * float(np.mean(_softmax_probs(result.global_model, x).argmax(axis=1) == labels))
        probs = _softmax_probs(result.personal_models, pop.test_x)
        on_local = 100.0 * (probs.argmax(axis=2) == pop.test_y).mean(axis=1)
    else:
        acc_g = float(np.sum((result.global_model - pop.truth_global) ** 2))
        on_local = np.sum((result.personal_models - pop.truth_clients) ** 2, axis=1)
    out = {
        "acc_g": acc_g,
        "acc_l_p": float(np.mean(on_local[pop.private])),
        "acc_l_np": float(np.mean(on_local[~pop.private])),
    }
    out["delta_l"] = out["acc_l_np"] - out["acc_l_p"]
    return out


def raw_gram(seed: int, purpose: str, trials: int, d: int, sds: tuple) -> tuple[tuple[float, ...], ...]:
    """Trial-mean Gram matrix <x_i, x_j> of independent N(0, sd_i^2) (trials, d)
    draws x_i, computed from the draws themselves, taken in order from the
    ``purpose`` stream; an sd of None is an absent group, not drawn, with a zero
    row and column. A drop-in for `feo2.simulate._gram`, which samples the same
    matrix from its Wishart law: with it, the harnesses' losses equal a
    per-trial evaluation of the same draws to rounding."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = stream(seed, purpose)
    draws = [None if sd is None else rng.normal(0.0, sd, (trials, d)) for sd in sds]
    gram = [[0.0] * len(sds) for _ in sds]
    for (i, x), (j, y) in combinations_with_replacement(enumerate(draws), 2):
        if x is not None and y is not None:
            gram[i][j] = gram[j][i] = float(np.einsum("ij,ij->", x, y)) / trials
    return tuple(map(tuple, gram))


def clip_rows_every_row(rows: np.ndarray, S: float) -> tuple[np.ndarray, np.ndarray, int]:
    """`feo2.privacy.clip_rows` rescaling and re-norming every row on every
    pass (a row that fits is multiplied by exactly 1.0): (clipped, b, passes),
    with ``passes`` the number of rescale passes taken."""
    out = np.array(rows, dtype=np.float64, copy=True)
    norms = row_norms(out)
    b = (norms <= S).astype(np.int64)
    over, passes = norms > S, 0
    while over.any():
        out *= np.where(over, S / np.maximum(norms, S), 1.0)[:, None]
        norms = row_norms(out)
        over, passes = norms > S, passes + 1
    return out, b, passes


def softmax_by_reduction(model: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`feo2.models._softmax_probs` with the row max taken as one reduction
    over the class axis."""
    p = _logits(model, x)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def label_shard_gradient_three_index(models: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The label-shard `feo2.models.local_gradient` of a (clients, dim) stack:
    probabilities from `softmax_by_reduction`, minus the one-hot labels
    subtracted through three broadcast index arrays, averaged over examples."""
    p = softmax_by_reduction(models, x)
    (m, n), c, f = y.shape, p.shape[2], x.shape[2]
    p[np.arange(m)[:, None], np.arange(n), y] -= 1.0
    err = np.divide(p, n, out=p)
    grad = np.empty(models.shape)
    np.matmul(np.swapaxes(err, 1, 2), x, out=grad[:, : c * f].reshape(m, c, f))
    err.sum(axis=1, out=grad[:, c * f :])
    return grad


def clip_rows_gathering(rows: np.ndarray, S: float) -> tuple[np.ndarray, np.ndarray]:
    """`feo2.privacy.clip_rows` as a copy that gathers the rows above S, scales
    the gathered rows and writes them back, re-norming only those on each pass:
    (clipped, b)."""
    out = np.array(rows, dtype=np.float64, copy=True)
    norms = row_norms(out)
    b = (norms <= S).astype(np.int64)
    over = np.flatnonzero(norms > S)
    norms = norms[over]
    while over.size:
        scaled = out[over] * (S / norms)[:, None]
        out[over] = scaled
        norms = row_norms(scaled)
        keep = norms > S
        over, norms = over[keep], norms[keep]
    return out, b


def label_shard_gradient_reduced(models: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The label-shard `feo2.models.local_gradient` of a (clients, dim) stack in
    fresh arrays, with the one-hot labels subtracted through a flat index and
    the bias gradients summed by one ``err.sum(axis=1)`` reduction."""
    p = _softmax_probs(models, x)
    (m, n), c, f = y.shape, p.shape[2], x.shape[2]
    hot = np.arange(m * n) * c + y.reshape(-1)
    np.put(p, hot, p.take(hot) - 1.0)
    err = np.divide(p, n, out=p)
    grad = np.empty(models.shape)
    np.matmul(np.swapaxes(err, 1, 2), x, out=grad[:, : c * f].reshape(m, c, f))
    err.sum(axis=1, out=grad[:, c * f :])
    return grad


def client_update_two_passes(global_model: np.ndarray, cohort, cfg, kind: PopulationKind, ditto, order=None):
    """`feo2.models.client_update` with Ditto, in fresh arrays and two
    `local_gradient` calls per batch: the global stack's SGD step, then each
    personal model's proximal step on a gradient of its own,
    theta_j - eta_p*(grad f_j + lam*(theta_j - theta_global)):
    (raw deltas, personal models)."""
    lam = np.where(cohort.private, ditto.lambda_p, ditto.lambda_np).astype(np.float64)[:, None]
    eta_p = 1.0 / (1.0 + lam) if ditto.eta_p is None else ditto.eta_p
    theta = np.tile(global_model, (len(cohort.ids), 1))
    personal = np.asarray(cohort.personal, dtype=np.float64)
    for epoch in range(cfg.epochs):
        epoch_order = None if order is None else order[epoch]
        for xb, yb in _batches(cohort.x, cohort.y, cfg.batch_size, epoch_order):
            theta = theta - cfg.eta * local_gradient(theta, xb, yb, kind)
            g = local_gradient(personal, xb, yb, kind) + lam * (personal - global_model)
            personal = personal - eta_p * g
    return theta - global_model, personal
