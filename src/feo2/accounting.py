"""Rényi-DP accounting for the Poisson-subsampled Gaussian mechanism.

A `PrivacyLedger` counts the rounds charged per (sampling rate q, noise
multiplier z). RDP composes by addition, so the ledger's RDP at order a is
``Σ count · rdp_increment(q, z, a)``, and `epsilon_at_delta` converts it
to (epsilon, delta) as the minimum over DEFAULT_ORDERS of
``rdp(a) + log(1/delta)/(a - 1)``. That is the only epsilon computation: a
run, `solve_z` and ``feo2 solve-z`` all call it, so a run that charges every
round ends at the epsilon ``solve-z`` reports for its z, bit for bit.

Integer orders use the exact binomial expansion of the log moment; fractional
orders use the two-sided series with Gaussian tail terms. Both are computed
in log space to stay finite at large orders (the raw moment overflows float64
around order 64 already for modest q/z).

``eps(a) = rdp(a) + log(1/delta)/(a - 1)`` is quasi-convex, so only orders near
its minimum are evaluated: {a: eps(a) <= t} is {a: (a - 1)(rdp(a) - t) +
log(1/delta) <= 0}, and ``(a - 1) * rdp(a)`` is convex in a (van Erven &
Harremoës, IEEE T-IT 2014). The scan starts by default at the grid neighbour of
``1 + sqrt(log(1/delta)/s)``, the minimiser for a linear stand-in ``s * a`` of
the rdp, gallops downhill in doubling steps, then walks out order by order. A
walk stops once epsilon exceeds the best by the relative margin RISE_MARGIN: if
the computed epsilon is within relative error e of the quasi-convex curve and
RISE_MARGIN >= 2e/(1 - e), no order beyond can win. Exact rules stop it too:
upward once rdp(a) alone reaches the best (rdp never falls as a grows; rounding
cannot undercut the delta term, >= log(1/delta)/511), downward once the delta
term alone exceeds it. The start and the gallop set only the cost: the result is
the full curve's, bit for bit, ties to the lower order.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Orders 1.25, 1.50, ..., 63.75 plus sparse large orders. Fractional steps keep
# the epsilon curve tight at small budgets; the large tail covers tiny q*T.
DEFAULT_ORDERS: tuple[float, ...] = tuple(
    float(x) for x in np.arange(1.25, 63.75 + 1e-9, 0.25)
) + (64.0, 128.0, 256.0, 512.0)
RISE_MARGIN = 1e-6  # see the module docstring; the rdp matches quadrature to 8e-8 relative


class InfinitePrivacyLoss(ValueError):
    """Raised when accounting is requested for an unnoised (z = 0) release."""


def _check_mechanism(q: float, z: float) -> None:
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    if z <= 0.0:
        raise InfinitePrivacyLoss("z = 0 gives no privacy; nothing to account")


@dataclass(frozen=True)
class PrivacyLedger:
    """Rounds charged per mechanism: ``(q, z, count)`` entries, one per (q, z)
    key, in the order each key was first charged."""

    counts: tuple[tuple[float, float, int], ...] = ()

    def __post_init__(self):
        for q, z, _ in self.counts:
            _check_mechanism(q, z)

    def rdp(self, order: float) -> float:
        """The ledger's RDP at ``order``: Σ count · rdp_increment(q, z, order)."""
        total = 0.0  # a loop, not sum() of a generator: half the cost per order scanned
        for q, z, count in self.counts:
            total += count * rdp_increment(q, z, order)
        return total

    def to_dict(self) -> dict:
        """The charged mechanisms, as ``summary.json`` lists them; `rdp` gives
        their curve at any order."""
        return {"charged": [{"q": q, "z": z, "rounds": count} for q, z, count in self.counts]}


def _log_add(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a > b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def _log_sub(a: float, b: float) -> float:
    """log(exp(a) - exp(b)) for a >= b."""
    if b == -math.inf:
        return a
    if a == b:
        return -math.inf
    if a < b:
        raise ValueError("_log_sub needs a >= b")
    return a + math.log1p(-math.exp(b - a))


def _log_erfc(x: float) -> float:
    if x <= 25.0:
        return math.log(math.erfc(x))
    # asymptotic series to x^-6 (next term 105/(16 x^8) < 5e-11); erfc underflows near 26.6
    return (
        -(x**2)
        - math.log(x)
        - 0.5 * math.log(math.pi)
        + math.log1p(-0.5 / x**2 + 0.75 / x**4 - 1.875 / x**6)
    )


def _log_a_int(q: float, sigma: float, alpha: int) -> float:
    """log E[(...)^alpha] via the exact binomial sum at integer alpha."""
    log_q, log_1mq, two_s2 = math.log(q), math.log1p(-q), 2.0 * sigma**2
    lg_alpha = math.lgamma(alpha + 1)
    log_a = -math.inf
    for i in range(alpha + 1):
        term = (
            lg_alpha - math.lgamma(i + 1) - math.lgamma(alpha - i + 1)  # log binom(alpha, i)
            + i * log_q
            + (alpha - i) * log_1mq
            + (i * i - i) / two_s2
        )
        log_a = _log_add(log_a, term)
    return log_a


def _log_a_frac(q: float, sigma: float, alpha: float) -> float:
    """log moment at fractional alpha: two-sided series split at z0."""
    log_a0 = -math.inf
    log_a1 = -math.inf
    log_q, log_1mq, two_s2 = math.log(q), math.log1p(-q), 2.0 * sigma**2
    sqrt2_sigma, log_half = math.sqrt(2.0) * sigma, math.log(0.5)
    z0 = sigma**2 * math.log(1.0 / q - 1.0) + 0.5
    # running log|binom(alpha, i)| and its sign, built by the product rule
    log_coef = 0.0
    sign = 1.0
    i = 0
    while True:
        if i > 0:
            ratio = (alpha - i + 1.0) / i
            log_coef += math.log(abs(ratio))
            sign *= math.copysign(1.0, ratio)
        j = alpha - i
        log_t0 = log_coef + i * log_q + j * log_1mq
        log_t1 = log_coef + j * log_q + i * log_1mq
        log_e0 = log_half + _log_erfc((i - z0) / sqrt2_sigma)
        log_e1 = log_half + _log_erfc((z0 - j) / sqrt2_sigma)
        log_s0 = log_t0 + (i * i - i) / two_s2 + log_e0
        log_s1 = log_t1 + (j * j - j) / two_s2 + log_e1
        if sign > 0:
            log_a0 = _log_add(log_a0, log_s0)
            log_a1 = _log_add(log_a1, log_s1)
        else:
            log_a0 = _log_sub(log_a0, log_s0)
            log_a1 = _log_sub(log_a1, log_s1)
        i += 1
        if max(log_s0, log_s1) < -30.0 and i > alpha:
            break
    return _log_add(log_a0, log_a1)


@lru_cache(maxsize=4096)
def rdp_increment(q: float, z: float, order: float) -> float:
    """RDP at ``order`` of a single (q, z) subsampled Gaussian round."""
    _check_mechanism(q, z)
    if q == 1.0:
        return order / (2.0 * z**2)
    if float(order).is_integer():
        log_a = _log_a_int(q, z, int(order))
    else:
        log_a = _log_a_frac(q, z, order)
    return max(log_a / (order - 1.0), 0.0)


def account_round(ledger: PrivacyLedger, q: float, z: float) -> PrivacyLedger:
    """Return a new ledger with one more (q, z) round charged."""
    counts = {(kq, kz): count for kq, kz, count in ledger.counts}
    counts[q, z] = counts.get((q, z), 0) + 1
    return PrivacyLedger(tuple((kq, kz, count) for (kq, kz), count in counts.items()))


def epsilon_at_delta(
    ledger: PrivacyLedger, delta: float, start: float | None = None
) -> tuple[float, float]:
    """(epsilon, best order) of the ledger at ``delta``: the minimum over
    DEFAULT_ORDERS of ``rdp(a) + log(1/delta)/(a - 1)``, found by the scan of
    the module docstring from the order ``start`` (the unit of the best order
    returned, so a run passes back its last one; off the grid, a ValueError),
    by default from the stand-in slope ``s = Σ count · min(2 q^2, 1/2) / z^2``
    (order 512 for an empty ledger)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    orders, rdp = DEFAULT_ORDERS, ledger.rdp
    log_inv = math.log(1.0 / delta)
    if start is None:
        slope = sum(count * min(2.0 * q * q, 0.5) / z**2 for q, z, count in ledger.counts)
        a_min = 1.0 + math.sqrt(log_inv / slope) if slope else math.inf
        start = min(bisect.bisect(orders, a_min), len(orders) - 1)
    else:
        start = orders.index(start)

    def eps_at(i: int) -> float:
        return rdp(orders[i]) + log_inv / (orders[i] - 1.0)

    best = eps_at(start)
    for step in (1, -1):  # gallop: double the step while epsilon falls
        while 0 <= start + step < len(orders) and (eps := eps_at(start + step)) < best:
            start, best, step = start + step, eps, 2 * step
    best_i = start
    for i in range(start + 1, len(orders)):
        eps = (loss := rdp(orders[i])) + log_inv / (orders[i] - 1.0)
        if loss >= best or eps > best * (1.0 + RISE_MARGIN):
            break
        if eps < best:
            best, best_i = eps, i
    for i in range(start - 1, -1, -1):
        if log_inv / (orders[i] - 1.0) > best or (eps := eps_at(i)) > best * (1.0 + RISE_MARGIN):
            break
        if eps <= best:
            best, best_i = eps, i
    return best, orders[best_i]


def solve_z(
    target_epsilon: float,
    delta: float,
    q: float,
    rounds: int,
    z_lo: float = 0.1,
    z_hi: float = 100.0,
    tol: float = 1e-3,
) -> float:
    """Invert the accountant: a z with |epsilon(z) - target| < tol, where
    epsilon(z) is `epsilon_at_delta` of the ledger charged ``rounds`` (q, z)
    rounds.

    epsilon is strictly decreasing in z, so the root is unique when the target
    lies between epsilon(z_hi) and epsilon(z_lo). The root is found by Illinois
    false position on (log z, log epsilon), where the curve is close to a line,
    so a solve takes about 7-10 accountant evaluations, both ends included. A
    step that leaves the bracket falls back to the bracket's midpoint. Raises
    ValueError for arguments out of range, and when 200 steps do not meet tol.
    """
    if target_epsilon <= 0:
        raise ValueError("target epsilon must be > 0")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if not 0 < z_lo < z_hi:
        raise ValueError(f"need 0 < z_lo < z_hi, got z_lo={z_lo}, z_hi={z_hi}")

    def eps_of(z: float) -> float:
        return epsilon_at_delta(PrivacyLedger(((q, z, rounds),)), delta)[0]

    eps_lo, eps_hi = eps_of(z_lo), eps_of(z_hi)
    if not (eps_hi <= target_epsilon <= eps_lo):
        raise ValueError(
            f"target epsilon {target_epsilon} outside reachable range "
            f"[{eps_hi:.4g}, {eps_lo:.4g}] for z in [{z_lo}, {z_hi}]"
        )
    log_target = math.log(target_epsilon)
    # f(x) = log epsilon(e^x) - log target, with f(lo) >= 0 >= f(hi).
    lo, hi = math.log(z_lo), math.log(z_hi)
    f_lo, f_hi = math.log(eps_lo) - log_target, math.log(eps_hi) - log_target
    kept = 0  # which end survived the last step: -1 lo, +1 hi
    for _ in range(200):
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        e = eps_of(math.exp(x))
        if abs(e - target_epsilon) < tol:
            return math.exp(x)
        f = math.log(e) - log_target
        if f > 0:
            lo, f_lo = x, f
            if kept == 1:
                f_hi *= 0.5  # Illinois: halve the end that stayed twice in a row
            kept = 1
        else:
            hi, f_hi = x, f
            if kept == -1:
                f_lo *= 0.5
            kept = -1
    raise ValueError(
        f"no z within tol={tol} of target epsilon {target_epsilon} after 200 steps "
        f"(bracket z in [{math.exp(lo):.17g}, {math.exp(hi):.17g}])"
    )
