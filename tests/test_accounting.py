"""Privacy accountant: composition bookkeeping and the subsampled-Gaussian
RDP curve, cross-checked against quadrature and plain-precision summation
oracles that share no code with the implementation."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import feo2.accounting
from feo2.accounting import (
    DEFAULT_ORDERS,
    InfinitePrivacyLoss,
    PrivacyLedger,
    account_round,
    epsilon_at_delta,
    rdp_increment,
    solve_z,
)

import oracles


def test_default_order_grid_shape():
    assert DEFAULT_ORDERS[0] == 1.25
    assert DEFAULT_ORDERS[-1] == 512
    assert 63.75 in DEFAULT_ORDERS
    assert 64 in DEFAULT_ORDERS and 128 in DEFAULT_ORDERS and 256 in DEFAULT_ORDERS
    diffs = {round(b - a, 10) for a, b in zip(DEFAULT_ORDERS[:250], DEFAULT_ORDERS[1:251])}
    assert diffs == {0.25}


def test_full_batch_reduces_to_gaussian_rdp():
    for z in (0.5, 1.0, 3.3, 10.0):
        inc = rdp_increment(1.0, z, DEFAULT_ORDERS)
        for a, got in zip(DEFAULT_ORDERS, inc):
            want = a / (2.0 * z * z)
            assert abs(got - want) <= 1e-12 * max(1.0, want), (z, a)


def test_increment_rejects_bad_inputs():
    with pytest.raises(ValueError):
        rdp_increment(0.0, 1.0, DEFAULT_ORDERS)
    with pytest.raises(ValueError):
        rdp_increment(1.2, 1.0, DEFAULT_ORDERS)
    with pytest.raises(InfinitePrivacyLoss):
        rdp_increment(0.1, 0.0, DEFAULT_ORDERS)


def test_ledger_charges_count_times_increment():
    inc = rdp_increment(0.02, 1.1, DEFAULT_ORDERS)
    ledger = PrivacyLedger()
    for t in range(1, 8):
        ledger = account_round(ledger, 0.02, 1.1)
        assert ledger.counts == ((0.02, 1.1, t),)
        curve = tuple(ledger.rdp(a) for a in DEFAULT_ORDERS)
        assert curve == tuple(t * i for i in inc)  # exact float equality
        assert sum(c for *_, c in ledger.counts) == t
    ledger = account_round(account_round(ledger, 0.5, 2.0), 0.02, 1.1)
    assert ledger.counts == ((0.02, 1.1, 8), (0.5, 2.0, 1))
    assert sum(c for *_, c in ledger.counts) == 9


def test_account_round_leaves_input_ledger_untouched():
    ledger = account_round(PrivacyLedger(), 0.1, 1.0)
    before = tuple(ledger.rdp(a) for a in DEFAULT_ORDERS)
    account_round(ledger, 0.1, 1.0)
    assert tuple(ledger.rdp(a) for a in DEFAULT_ORDERS) == before
    assert sum(c for *_, c in ledger.counts) == 1


def _eps(q, z, rounds, delta=1e-5):
    ledger = PrivacyLedger()
    for _ in range(rounds):
        ledger = account_round(ledger, q, z)
    return epsilon_at_delta(ledger, delta)[0]


def test_epsilon_monotone_in_noise_and_rounds():
    zs = [0.6, 1.0, 2.0, 4.0, 8.0]
    ts = [1, 5, 20, 60, 120]
    grid = {(z, t): _eps(0.05, z, t) for z in zs for t in ts}
    for t in ts:
        col = [grid[(z, t)] for z in zs]
        assert all(a > b for a, b in zip(col, col[1:])), f"not decreasing in z at T={t}"
    for z in zs:
        row = [grid[(z, t)] for t in ts]
        assert all(a < b for a, b in zip(row, row[1:])), f"not increasing in T at z={z}"


@pytest.mark.parametrize("q", [0.001, 0.02, 0.3, 0.9])
@pytest.mark.parametrize("z", [0.7, 1.3, 5.0])
def test_matches_quadrature_oracle_at_fractional_orders(q, z):
    for alpha in (1.25, 1.75, 3.5, 7.25, 31.5, 63.75):
        got = rdp_increment(q, z, (alpha,))[0]
        want = oracles.rdp_subsampled_gaussian_quadrature(q, z, alpha)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (q, z, alpha)


@pytest.mark.parametrize("q, z, alpha", [(0.3, 0.7, 1.25), (0.02, 5.0, 63.75), (0.9, 1.3, 7.25)])
def test_quadrature_oracle_gives_the_same_float_at_30_and_60_digits(q, z, alpha):
    # The oracle runs at 30 digits by default; 60 must not move a single bit.
    at_30 = oracles.rdp_subsampled_gaussian_quadrature(q, z, alpha)
    assert at_30 == oracles.rdp_subsampled_gaussian_quadrature(q, z, alpha, dps=60)


@pytest.mark.parametrize("q", [0.001, 0.02, 0.3, 0.9])
@pytest.mark.parametrize("z", [0.7, 1.3, 5.0])
def test_matches_binomial_oracle_at_integer_orders(q, z):
    for alpha in (2, 3, 16, 64, 256):
        got = rdp_increment(q, z, (float(alpha),))[0]
        want = oracles.rdp_subsampled_gaussian_binomial(q, z, alpha)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (q, z, alpha)


def test_epsilon_conversion_picks_best_order():
    ledger = account_round(PrivacyLedger(), 0.01, 1.0)
    eps, order = epsilon_at_delta(ledger, 1e-5)
    by_hand = min(ledger.rdp(a) + math.log(1e5) / (a - 1.0) for a in DEFAULT_ORDERS)
    assert eps == pytest.approx(by_hand, abs=0)
    assert order in DEFAULT_ORDERS


def test_epsilon_delta_validation():
    with pytest.raises(ValueError):
        epsilon_at_delta(PrivacyLedger(), 0.0)


@pytest.mark.parametrize("target", [0.5, 2.0, 8.0])
def test_solve_z_roundtrip(target):
    z = solve_z(target, 1e-5, 0.02, 100)
    assert abs(_eps(0.02, z, 100) - target) <= 1e-3


def test_solve_z_unreachable_target():
    with pytest.raises(ValueError, match="reachable"):
        solve_z(1e-9, 1e-5, 1.0, 10_000)
    with pytest.raises(ValueError):
        solve_z(-1.0, 1e-5, 0.1, 10)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"tol": 0.0}, "tol"),
        ({"tol": -1.0}, "tol"),
        ({"z_lo": 0.0}, "z_lo"),
        ({"z_lo": 100.0, "z_hi": 0.1}, "z_lo"),
        ({"z_lo": 5.0, "z_hi": 5.0}, "z_lo"),
        ({"q": 0.0}, r"q must be in \(0, 1\]"),
        ({"q": 1.2}, r"q must be in \(0, 1\]"),
        ({"delta": 0.0}, r"delta must be in \(0, 1\)"),
        ({"delta": 1.0}, r"delta must be in \(0, 1\)"),
    ],
)
def test_solve_z_names_the_bad_argument(kwargs, match):
    args = {"target_epsilon": 2.0, "delta": 1e-5, "q": 0.02, "rounds": 100, **kwargs}
    with pytest.raises(ValueError, match=match):
        solve_z(**args)


def test_solve_z_raises_when_the_step_cap_runs_out():
    # |epsilon - target| < 1e-300 asks for the target's exact bits.
    with pytest.raises(ValueError, match="after 200 steps"):
        solve_z(2.0, 1e-5, 1.0, 100, tol=1e-300)


# (q, z, count) ledger entries; keys are distinct (q, z) pairs.
LEDGER_ENTRIES = st.lists(
    st.tuples(st.floats(1e-4, 1.0), st.floats(0.1, 100.0), st.integers(1, 10_000)),
    min_size=1,
    max_size=3,
    unique_by=lambda entry: entry[:2],
)


@given(
    counts=LEDGER_ENTRIES,
    delta=st.floats(1e-10, 1e-2),
    start=st.one_of(st.none(), st.sampled_from(DEFAULT_ORDERS)),
)
@example(counts=[(1.0, 0.7, 100)], delta=1e-5, start=DEFAULT_ORDERS[0])
@example(counts=[(1.0, 30.0, 1)], delta=1e-2, start=DEFAULT_ORDERS[-1])
@example(counts=[(1e-4, 100.0, 1)], delta=1e-10, start=DEFAULT_ORDERS[0])
@example(counts=[(0.02, 1.1, 100), (1.0, 30.0, 1), (1e-4, 0.5, 5000)], delta=1e-5, start=None)
@example(counts=[], delta=1e-5, start=None)  # a sampled run's rounds before its first charge
# minimum in the sparse tail, scanned from the far grid end
@example(counts=[(1e-4, 2.0, 1)], delta=1e-10, start=DEFAULT_ORDERS[-1])  # order 64
@example(counts=[(0.01, 5.0, 1)], delta=1e-10, start=DEFAULT_ORDERS[0])  # order 128
@example(counts=[(1e-4, 5.0, 1)], delta=1e-10, start=DEFAULT_ORDERS[-1])  # order 256
@example(counts=[(1e-4, 10.0, 1)], delta=1e-10, start=DEFAULT_ORDERS[0])  # order 512
@example(counts=[(0.01, 0.8, 10_000), (0.5, 5.0, 9_999), (1.0, 60.0, 7_777)], delta=1e-5, start=None)
def test_pruned_epsilon_equals_the_full_curve_bitwise(counts, delta, start):
    ledger = PrivacyLedger(tuple(counts))
    eps, order = epsilon_at_delta(ledger, delta, start)
    want_eps, want_order = oracles.epsilon_full_curve(ledger.counts, delta)
    assert (repr(eps), order) == (repr(want_eps), want_order)


@pytest.mark.parametrize("start", [0, 1.3, 65.0, 1024.0])
def test_an_epsilon_scan_start_off_the_order_grid_is_rejected(start):
    # start is an order, the unit epsilon_at_delta returns, not an index into the grid
    with pytest.raises(ValueError):
        epsilon_at_delta(PrivacyLedger(((0.05, 1.0, 3),)), 1e-5, start)


# repr of rdp_increment(q, z, PINNED_ORDERS), recorded before the series'
# loop invariants were hoisted: rounds.csv bytes depend on every bit.
PINNED_ORDERS = (1.25, 2.0, 7.75, 63.75, 512.0)
PINNED = {
    (0.02, 1.1): "(0.00031334240805352883, 0.0005139412670767698, 0.0026972923182509573, "
    "22.368609205080983, 207.65056930613628)",
    (0.05, 0.7): "(0.007880721635345107, 0.01660361839550486, 4.4686415181285435, "
    "62.00754738124587, 519.4473848285106)",
    (0.01, 3.0): "(7.338255515394061e-06, 1.1751837821062747e-05, 4.585757801367564e-05, "
    "0.00040578299913727073, 23.830262183728394)",
    (0.1, 1.5): "(0.0033506720256735005, 0.005580634229679797, 0.034996744292210676, "
    "11.827386990524404, 111.47068664741975)",
}


@pytest.mark.parametrize("q, z", list(PINNED))
def test_increment_bits_are_pinned(q, z):
    assert repr(rdp_increment(q, z, PINNED_ORDERS)) == PINNED[(q, z)]


@pytest.mark.parametrize(
    "target, q, rounds",
    [(2.0, 0.02, 100), (1.0, 0.05, 200), (4.0, 0.01, 1000), (8.0, 0.1, 50), (2.0, 1.0, 100)],
)
def test_solve_z_hits_target_within_an_evaluation_budget(target, q, rounds, monkeypatch):
    calls = 0
    one_order = feo2.accounting._rdp_one_order

    def counted(*args):
        nonlocal calls
        calls += 1
        return one_order(*args)

    monkeypatch.setattr(feo2.accounting, "_rdp_one_order", counted)
    one_order.cache_clear()
    z = solve_z(target, 1e-5, q, rounds)
    assert one_order.cache_info().misses <= 115  # 21-105 distinct evaluations at these targets
    assert calls <= 120  # 30-107
    assert abs(_eps(q, z, rounds) - target) < 1e-3


# repr of solve_z at the plan's targets before the per-order pruning: the
# pruned accountant must return the same z, bit for bit.
PINNED_Z = {
    (2.0, 0.02, 100): "1.0662007617822822",
    (1.0, 0.05, 200): "3.689363234146904",
    (4.0, 0.01, 1000): "0.8256404643428811",
    (8.0, 0.1, 50): "0.9087860132910895",
    (2.0, 1.0, 100): "24.994748760642405",
}


@pytest.mark.parametrize("target, q, rounds", list(PINNED_Z))
def test_solve_z_bits_are_pinned(target, q, rounds):
    assert repr(solve_z(target, 1e-5, q, rounds)) == PINNED_Z[(target, q, rounds)]
