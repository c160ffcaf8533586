"""Rényi-DP accounting for the Poisson-subsampled Gaussian mechanism.

A `PrivacyLedger` counts the rounds charged per (sampling rate q, noise
multiplier z). RDP composes by addition, so the ledger's RDP at order a is
``Σ count · rdp_increment(q, z, a)``, and `epsilon_at_delta` converts it
to (epsilon, delta) as the minimum over DEFAULT_ORDERS of
``rdp(a) + log(1/delta)/(a - 1)``. That is the only epsilon computation: a
run and `solve_z` both call it, and ``feo2 solve-z`` reports `solve_z`'s last
scan, so a run that charges every round ends at the epsilon ``solve-z``
reports for its z, bit for bit.

Integer orders use the exact binomial expansion of the log moment; fractional
orders use the two-sided series with Gaussian tail terms. Both are computed
in log space to stay finite at large orders (the raw moment overflows float64
around order 64 already for modest q/z). They run only for z in SERIES_Z; at
q = 1 and at any z outside it the RDP is the unsampled Gaussian's a/(2z²),
which bounds the subsampled one at every q: +inf where it overflows.

``eps(a) = rdp(a) + log(1/delta)/(a - 1)`` is quasi-convex, so only orders near
its minimum are evaluated: {a: eps(a) <= t} is {a: (a - 1)(rdp(a) - t) +
log(1/delta) <= 0}, and ``(a - 1) * rdp(a)`` is convex in a (van Erven &
Harremoës, IEEE T-IT 2014). A scan starts by default where a stand-in epsilon
stops falling, with rdp ``s·a + e^K(a)/(a - 1)`` per round: ``s·a``, with
``s = q²(e^(1/z²) - 1)/2``, is the small-q rdp of the binomial expansion's i = 2
term and ``K(a) = a·log q + a(a - 1)/(2z²)`` the log of its i = a term (at q = 1,
the exact ``a/(2z²)``). It gallops downhill in steps of 1, 2, 4, ... orders,
again from each new best, until both neighbours of the best are worse, then
walks out order by order. A walk stops once epsilon exceeds the best by the
relative margin RISE_MARGIN: if the computed epsilon is within relative error e
of the quasi-convex curve and RISE_MARGIN >= 2e/(1 - e), no order beyond can
win. The start and the gallop set only the cost: the result is the full
curve's, bit for bit, ties to the lower order.
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
# >= 2e/(1 - e), see the module docstring: the tests hold the rdp to its oracles within
# 1e-9 relative (1e-11 at fractional orders, absolute below 1) and epsilon >=
# log(1/delta)/511, so e < 1e-8 for any delta <= 0.01
RISE_MARGIN = 1e-6
# The series' range of z. Below it a/(2z²) is the subsampled RDP to within an ulp
# (their gap, about a·log(1/q)/(a - 1), is smaller for q >= 1e-6), and the series
# overflow from z = 1e-50. Above it their rounding nears the RDP itself (at z = 1e6
# and q = 0.1 they return 0 for order 1.25, whose RDP is 6.25e-15) and they fail
# from 1e8, while a/(2z²), never below the RDP, is at most 2.6e-8 per round.
SERIES_Z = (1e-9, 1e5)
Z_BRACKET = (0.1, 100.0)  # the range of z that solve_z searches
_LOG_FACTORIAL = tuple(math.lgamma(k + 1) for k in range(int(DEFAULT_ORDERS[-1]) + 1))  # log k!


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
        for q, z, count in self.counts:
            _check_mechanism(q, z)
            if isinstance(count, bool) or not isinstance(count, int):
                raise ValueError(f"rounds must be an integer, got {count!r}")
            if count < 1:
                raise ValueError("rounds must be >= 1")

    def rdp(self, order: float) -> float:
        """The ledger's RDP at ``order``: Σ count · rdp_increment(q, z, order)."""
        total = 0.0  # a loop, not sum(): from Python 3.12 sum() compensates float rounding, moving bits
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
    lg = _LOG_FACTORIAL if alpha < len(_LOG_FACTORIAL) else [math.lgamma(k + 1) for k in range(alpha + 1)]
    log_a = -math.inf
    for i in range(alpha + 1):
        log_binom = lg[alpha] - lg[i] - lg[alpha - i]
        log_a = _log_add(log_a, log_binom + i * log_q + (alpha - i) * log_1mq + (i * i - i) / two_s2)
    return log_a


def _log_a_frac(q: float, sigma: float, alpha: float) -> float:
    """log moment at fractional alpha: two-sided series split at z0."""
    log_a0 = log_a1 = -math.inf
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
        log_e0 = log_half + _log_erfc((i - z0) / sqrt2_sigma)
        log_e1 = log_half + _log_erfc((z0 - j) / sqrt2_sigma)
        log_s0 = log_coef + i * log_q + j * log_1mq + (i * i - i) / two_s2 + log_e0
        log_s1 = log_coef + j * log_q + i * log_1mq + (j * j - j) / two_s2 + log_e1
        if sign > 0:
            log_a0, log_a1 = _log_add(log_a0, log_s0), _log_add(log_a1, log_s1)
        else:
            log_a0, log_a1 = _log_sub(log_a0, log_s0), _log_sub(log_a1, log_s1)
        i += 1
        if i > alpha and max(log_s0, log_s1) < -30.0:
            break
    return _log_add(log_a0, log_a1)


@lru_cache(maxsize=4096)
def rdp_increment(q: float, z: float, order: float) -> float:
    """RDP at ``order`` of a single (q, z) subsampled Gaussian round; RDP is
    defined only at finite orders above 1, and any other order is a ValueError."""
    _check_mechanism(q, z)
    if not 1.0 < order < math.inf:
        raise ValueError(f"RDP order must be finite and above 1, got {order!r}")
    if not SERIES_Z[0] <= z <= SERIES_Z[1]:
        return order / 2.0 / z / z  # no z² to overflow: +inf for the tiniest z, 0 for the largest
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


def _stand_in_start(counts, log_inv: float) -> int:
    """Index of the first order where the module docstring's stand-in epsilon stops falling."""

    def slope(a: float) -> float:  # of the stand-in epsilon
        u = a - 1.0
        total = -log_inv / (u * u)
        for q, z, count in counts:
            c, log_q = 0.5 / (z * z) if z * z else math.inf, math.log(q)
            if q == 1.0:
                total += count * c
                continue
            top = math.exp(min(a * log_q + a * u * c, 700.0)) * ((log_q + (2.0 * a - 1.0) * c) * u - 1.0)
            total += count * (q * q * math.expm1(min(2.0 * c, 700.0)) / 2.0 + top / (u * u))
        return total

    return min(bisect.bisect_left(DEFAULT_ORDERS, 0.0, key=slope), len(DEFAULT_ORDERS) - 1)


def epsilon_at_delta(
    ledger: PrivacyLedger, delta: float, start: float | None = None
) -> tuple[float, float]:
    """(epsilon, best order) of the ledger at ``delta``: the minimum over
    DEFAULT_ORDERS of ``rdp(a) + log(1/delta)/(a - 1)``, found by the scan of
    the module docstring from the order ``start`` (the unit of the best order
    returned, so a run passes back its last one; off the grid, a ValueError),
    by default from the stand-in's minimum."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    orders, rdp, n = DEFAULT_ORDERS, ledger.rdp, len(DEFAULT_ORDERS)
    log_inv = math.log(1.0 / delta)
    s = _stand_in_start(ledger.counts, log_inv) if start is None else orders.index(start)

    seen: dict[int, float] = {}  # each order's epsilon, its rdp read once

    def eps_at(i: int) -> float:
        if not 0 <= i < n:
            return math.inf
        if i not in seen:
            seen[i] = rdp(orders[i]) + log_inv / (orders[i] - 1.0)
        return seen[i]

    b, best, step = s, eps_at(s), 4
    while step > 2:  # gallop downhill by offsets 1, 2, 4, ... from b, again from each new best
        s, step, d = b, 1, -1 if eps_at(b - 1) < best else 1
        while (eps := eps_at(s + d * step)) < best:
            b, best, step = s + d * step, eps, 2 * step
    best_i = b
    for i in range(b + 1, n):
        if (eps := eps_at(i)) > best * (1.0 + RISE_MARGIN):
            break
        if eps < best:
            best, best_i = eps, i
    for i in range(b - 1, -1, -1):
        if (eps := eps_at(i)) > best * (1.0 + RISE_MARGIN):
            break
        if eps <= best:
            best, best_i = eps, i
    return best, orders[best_i]


def solve_z(
    target_epsilon: float,
    delta: float,
    q: float,
    rounds: int,
    tol: float = 1e-3,
) -> tuple[float, float, float]:
    """Invert the accountant: (z, epsilon(z), order) with |epsilon(z) - target|
    < tol, where (epsilon(z), order) is `epsilon_at_delta` of the ledger charged
    ``rounds`` (q, z) rounds, as the solve's last scan returned it.

    epsilon is strictly decreasing in z, so the root is unique when the target
    lies between epsilon at the ends of Z_BRACKET, z = 0.1 and z = 100. The
    root is found by Illinois false position on (log z, log epsilon), where the
    curve is close to a line, so a solve takes about 6-10 epsilon scans, both
    ends included. A step that leaves the bracket falls back to the bracket's
    midpoint. The ends scan from the stand-in start; each later scan from the
    previous one's best order, if below 64, scaled as the stand-in start scales
    with z (a* - 1 ∝ z for the Gaussian mechanism). Raises ValueError for
    arguments out of range, and when 200 steps do not meet tol.
    """
    if target_epsilon <= 0:
        raise ValueError("target epsilon must be > 0")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    eps_lo, eps_hi = (epsilon_at_delta(PrivacyLedger(((q, z, rounds),)), delta)[0] for z in Z_BRACKET)
    if not (eps_hi <= target_epsilon <= eps_lo):
        raise ValueError(
            f"target epsilon {target_epsilon} outside reachable range "
            f"[{eps_hi:.4g}, {eps_lo:.4g}] for z in [{Z_BRACKET[0]}, {Z_BRACKET[1]}]"
        )
    log_target, log_inv = math.log(target_epsilon), math.log(1.0 / delta)
    # f(x) = log epsilon(e^x) - log target, with f(lo) >= 0 >= f(hi).
    lo, hi = map(math.log, Z_BRACKET)
    f_lo, f_hi = math.log(eps_lo) - log_target, math.log(eps_hi) - log_target
    kept = 0  # which end survived the last step: -1 lo, +1 hi
    last = None  # (stand-in start, best order) of the previous interior scan
    for _ in range(200):
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        z = math.exp(x)
        ledger = PrivacyLedger(((q, z, rounds),))
        guess = start = DEFAULT_ORDERS[_stand_in_start(ledger.counts, log_inv)]
        if last is not None and last[1] < 64.0:
            scaled = 1.0 + (guess - 1.0) * (last[1] - 1.0) / (last[0] - 1.0)
            start = min(max(round(4.0 * scaled) / 4.0, 1.25), 63.75)  # the nearest order up to 63.75
        e, order = epsilon_at_delta(ledger, delta, start)
        last = (guess, order)
        if abs(e - target_epsilon) < tol:
            return z, e, order
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
