"""Rényi-DP accounting for the Poisson-subsampled Gaussian mechanism.

The ledger stores cumulative RDP at a fixed grid of orders; each noised round
adds the per-order RDP of one subsampled Gaussian release (sampling rate q,
noise multiplier z). Conversion to (epsilon, delta) takes the minimum over
orders of ``rdp(a) + log(1/delta)/(a - 1)``.

Integer orders use the exact binomial expansion of the log moment; fractional
orders use the two-sided series with Gaussian tail terms. Both are computed
in log space to stay finite at large orders (the raw moment overflows float64
around order 64 already for modest q/z).

``solve_z`` needs epsilon of ``rounds`` identical rounds at many trial z, and
the minimum over orders is set by a narrow band of them, so it evaluates only
the orders that can still attain it. Scanning up from a start order stops
once ``rounds * rdp(a)`` alone reaches the best epsilon so far: Rényi
divergence is non-decreasing in the order (van Erven & Harremoës, IEEE T-IT
2014) and the delta term is positive, so no higher order can do better.
Scanning down stops once ``log(1/delta)/(a - 1)`` alone exceeds it: that term
grows as the order falls and rdp >= 0. Every value is the one the full curve
gives, bit for bit, ties included. Rounding in the computed rdp cannot break
the upward rule: a higher order would have to undercut it by its whole delta
term, at least log(1/delta)/511.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# Orders 1.25, 1.50, ..., 63.75 plus sparse large orders. Fractional steps keep
# the epsilon curve tight at small budgets; the large tail covers tiny q*T.
DEFAULT_ORDERS: tuple[float, ...] = tuple(
    float(x) for x in np.arange(1.25, 63.75 + 1e-9, 0.25)
) + (64.0, 128.0, 256.0, 512.0)


class InfinitePrivacyLoss(ValueError):
    """Raised when accounting is requested for an unnoised (z = 0) release."""


@dataclass(frozen=True)
class PrivacyLedger:
    orders: tuple[float, ...] = DEFAULT_ORDERS
    cumulative_rdp: tuple[float, ...] = field(default=None)
    rounds_recorded: int = 0

    def __post_init__(self):
        if len(self.orders) == 0:
            raise ValueError("order grid must be nonempty")
        if any(a <= 1.0 for a in self.orders):
            raise ValueError("RDP orders must be > 1")
        if self.cumulative_rdp is None:
            object.__setattr__(self, "cumulative_rdp", tuple(0.0 for _ in self.orders))
        if len(self.cumulative_rdp) != len(self.orders):
            raise ValueError("orders and cumulative_rdp must have equal length")

    def to_dict(self) -> dict:
        return {
            "orders": list(self.orders),
            "rdp": list(self.cumulative_rdp),
            "rounds_recorded": self.rounds_recorded,
        }


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
    if x <= 8.0:
        return math.log(math.erfc(x))
    # asymptotic expansion; erfc underflows float64 near x ~ 26.6
    return (
        -(x**2)
        - math.log(x)
        - 0.5 * math.log(math.pi)
        + math.log1p(-0.5 / x**2 + 0.75 / x**4)
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
            if ratio == 0.0:
                break
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


def _rdp_one_order(q: float, sigma: float, alpha: float) -> float:
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return alpha / (2.0 * sigma**2)
    if float(alpha).is_integer():
        log_a = _log_a_int(q, sigma, int(alpha))
    else:
        log_a = _log_a_frac(q, sigma, alpha)
    return max(log_a / (alpha - 1.0), 0.0)


@lru_cache(maxsize=256)
def rdp_increment(q: float, z: float, orders: tuple[float, ...]) -> tuple[float, ...]:
    """Per-order RDP of a single subsampled Gaussian round."""
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    if z <= 0.0:
        raise InfinitePrivacyLoss("z = 0 gives no privacy; nothing to account")
    return tuple(_rdp_one_order(q, z, a) for a in orders)


def account_round(ledger: PrivacyLedger, q: float, z: float) -> PrivacyLedger:
    """Return a new ledger with one more (q, z) round composed in."""
    inc = rdp_increment(q, z, ledger.orders)
    total = tuple(c + i for c, i in zip(ledger.cumulative_rdp, inc))
    return PrivacyLedger(ledger.orders, total, ledger.rounds_recorded + 1)


def epsilon_at_delta(ledger: PrivacyLedger, delta: float) -> tuple[float, float]:
    """(epsilon, best_order) from the ledger via the standard RDP conversion."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    log_inv = math.log(1.0 / delta)
    best_eps = math.inf
    best_order = ledger.orders[0]
    for a, r in zip(ledger.orders, ledger.cumulative_rdp):
        eps = r + log_inv / (a - 1.0)
        if eps < best_eps:
            best_eps = eps
            best_order = a
    return best_eps, best_order


def _epsilon_at(
    q: float, z: float, rounds: int, delta: float, start: int | None = None
) -> tuple[float, float]:
    """(epsilon, best order) of ``rounds`` (q, z) rounds on DEFAULT_ORDERS.

    Equal, bit for bit, to ``epsilon_at_delta`` on the ledger whose rdp is
    ``rounds * rdp_increment(q, z, DEFAULT_ORDERS)``, ties going to the lower
    order, but evaluates only the orders the module docstring's two stop rules
    leave. ``start`` (an index; by default the argmin of the closed-form
    stand-in ``rounds * min(2 q^2, 1/2) * a / z^2`` for the rdp) sets only
    where the scans begin, never the result.
    """
    orders = DEFAULT_ORDERS
    log_inv = math.log(1.0 / delta)
    if start is None:
        slope = rounds * min(2.0 * q * q, 0.5) / z**2
        guess = [slope * a + log_inv / (a - 1.0) for a in orders]
        start = guess.index(min(guess))
    best = rounds * _rdp_one_order(q, z, orders[start]) + log_inv / (orders[start] - 1.0)
    best_i = start
    for i in range(start + 1, len(orders)):
        loss = rounds * _rdp_one_order(q, z, orders[i])
        if loss >= best:
            break
        eps = loss + log_inv / (orders[i] - 1.0)
        if eps < best:
            best, best_i = eps, i
    for i in range(start - 1, -1, -1):
        slack = log_inv / (orders[i] - 1.0)
        if slack > best:
            break
        eps = rounds * _rdp_one_order(q, z, orders[i]) + slack
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
    """Invert the accountant: a z with |epsilon(z) - target| < tol.

    epsilon is strictly decreasing in z, so the root is unique when the target
    lies between epsilon(z_hi) and epsilon(z_lo). The root is found by Illinois
    false position on (log z, log epsilon), where the curve is close to a line,
    so a solve takes about 7-10 accountant evaluations, both ends included. A
    step that leaves the bracket falls back to the bracket's midpoint.

    Each evaluation computes only the orders that can attain the minimum
    (``_epsilon_at``): up from a start order until ``rounds * rdp(a)`` reaches
    the best epsilon so far, down until ``log(1/delta)/(a - 1)`` exceeds it.
    rdp is non-decreasing in the order and non-negative, so the skipped orders
    cannot win and epsilon(z) is the full curve's, bit for bit. Raises
    ValueError for arguments out of range, and when 200 steps do not meet tol.
    """
    if target_epsilon <= 0:
        raise ValueError("target epsilon must be > 0")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if not 0 < z_lo < z_hi:
        raise ValueError(f"need 0 < z_lo < z_hi, got z_lo={z_lo}, z_hi={z_hi}")

    def eps_of(z: float) -> float:
        return _epsilon_at(q, z, rounds, delta)[0]

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
