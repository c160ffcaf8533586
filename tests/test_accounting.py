"""Privacy accountant: composition bookkeeping and the subsampled-Gaussian
RDP curve, cross-checked against quadrature and plain-precision summation
oracles that share no code with the implementation."""

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import feo2.accounting
from feo2.accounting import (
    DEFAULT_ORDERS,
    Z_BRACKET,
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
        for a in DEFAULT_ORDERS:
            got, want = rdp_increment(1.0, z, a), a / (2.0 * z * z)
            assert abs(got - want) <= 1e-12 * max(1.0, want), (z, a)


def test_full_batch_epsilon_is_never_below_the_exact_gdp_epsilon():
    # T full-batch rounds are exactly sqrt(T)/z-GDP, so no valid accountant can
    # report less; the RDP conversion's slack is 0.018 at its smallest here
    below = [
        (z, rounds, delta)
        for z, rounds, delta in itertools.product((0.8, 1.0, 5.0, 48.0, 100.0), (1, 50), (1e-2, 1e-5, 1e-10))
        if epsilon_at_delta(PrivacyLedger(((1.0, z, rounds),)), delta)[0]
        < oracles.gdp_epsilon(math.sqrt(rounds) / z, delta)
    ]
    assert below == []


def test_increment_rejects_bad_inputs():
    with pytest.raises(ValueError):
        rdp_increment(0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        rdp_increment(1.2, 1.0, 2.0)
    with pytest.raises(InfinitePrivacyLoss):
        rdp_increment(0.1, 0.0, 2.0)


@pytest.mark.parametrize("q", [0.1, 1.0], ids=["subsampled", "full_batch"])
@pytest.mark.parametrize("order", [math.nan, math.inf, 1.0, 0.5, -3.0])
def test_increment_rejects_orders_that_are_not_finite_and_above_one(q, order):
    # a NaN or infinite order never ended the fractional series, order 1 divided
    # by zero, and orders at or below 1 returned a number (the q = 1 shortcut too)
    with pytest.raises(ValueError, match=r"^RDP order must be finite and above 1, got "):
        rdp_increment(q, 1.0, order)


@pytest.mark.parametrize("q", [0.1, 1.0], ids=["subsampled", "full_batch"])
@pytest.mark.parametrize("z", [1e-300, 1e-160, 1e-60, 1e160, 1e300])
def test_extreme_noise_multipliers_give_the_gaussian_bound_and_a_defined_epsilon(q, z):
    # Outside SERIES_Z every q's RDP is the unsampled Gaussian's a/(2z²): +inf
    # where it overflows, 0 where it underflows. The series and the shortcut
    # divided by zero at z = 1e-300, gave NaN at 1e-160, overflowed at 1e-60
    # (order 63.75) and squared z into an OverflowError at 1e160 and 1e300.
    curve = [rdp_increment(q, z, a) for a in DEFAULT_ORDERS]
    assert curve == [a / 2.0 / z / z for a in DEFAULT_ORDERS]
    ledger = PrivacyLedger(((q, z, 3),))
    eps, order = epsilon_at_delta(ledger, 1e-5)
    assert (eps, order) == oracles.epsilon_full_curve(ledger.counts, 1e-5)
    assert eps == (math.inf if z < 1e-150 else 3 * 0.625 / z / z if z < 1 else math.log(1e5) / 511)
    assert order == (1.25 if z < 1 else 512.0)


@pytest.mark.parametrize("z", [1e6, 1e7])
def test_rdp_above_the_series_range_is_never_below_the_oracle(z):
    # the series' rounding there returned 0 at q = 0.1, z = 1e6, order 1.25,
    # whose RDP is 6.25e-15; a/(2z²) bounds the RDP at every q
    for q in (0.5, 0.1, 0.001):
        for alpha in (1.25, 2.0, 63.75):
            want = oracles.rdp_subsampled_gaussian_quadrature(q, z, alpha)
            assert want <= rdp_increment(q, z, alpha) == alpha / 2.0 / z / z, (q, alpha)


@pytest.mark.parametrize(
    "count, match",
    [
        (-3, "rounds must be >= 1"),
        (0, "rounds must be >= 1"),
        (2.5, "rounds must be an integer, got 2.5"),
        (100.0, "rounds must be an integer, got 100.0"),
        (True, "rounds must be an integer, got True"),
    ],
)
def test_a_ledger_count_must_be_a_positive_integer(count, match):
    with pytest.raises(ValueError, match=match):
        PrivacyLedger(((0.02, 1.0, count),))


def test_ledger_charges_count_times_increment():
    inc = tuple(rdp_increment(0.02, 1.1, a) for a in DEFAULT_ORDERS)
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
        got = rdp_increment(q, z, alpha)
        want = oracles.rdp_subsampled_gaussian_quadrature(q, z, alpha)
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want)), (q, z, alpha)


@pytest.mark.parametrize("q, z, alpha", [(0.3, 0.7, 1.25), (0.02, 5.0, 63.75), (0.9, 1.3, 7.25)])
def test_quadrature_oracle_gives_the_same_float_at_30_and_60_digits(q, z, alpha):
    # The oracle runs at 30 digits by default; 60 must not move a single bit.
    at_30 = oracles.rdp_subsampled_gaussian_quadrature(q, z, alpha)
    assert at_30 == oracles.rdp_subsampled_gaussian_quadrature(q, z, alpha, dps=60)


@pytest.mark.parametrize("q", [0.001, 0.02, 0.3, 0.9])
@pytest.mark.parametrize("z", [0.7, 1.3, 5.0])
def test_matches_binomial_oracle_at_integer_orders(q, z):
    for alpha in (2, 3, 16, 64, 256):
        got = rdp_increment(q, z, float(alpha))
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
    z = solve_z(target, 1e-5, 0.02, 100)[0]
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
        ({"q": 0.0}, r"q must be in \(0, 1\]"),
        ({"q": 1.2}, r"q must be in \(0, 1\]"),
        ({"delta": 0.0}, r"delta must be in \(0, 1\)"),
        ({"delta": 1.0}, r"delta must be in \(0, 1\)"),
        ({"rounds": 100.5}, "rounds must be an integer, got 100.5"),
        ({"rounds": True}, "rounds must be an integer, got True"),
        ({"rounds": 0}, "rounds must be >= 1"),
    ],
)
def test_solve_z_names_the_bad_argument(kwargs, match):
    args = {"target_epsilon": 2.0, "delta": 1e-5, "q": 0.02, "rounds": 100, **kwargs}
    with pytest.raises(ValueError, match=match):
        solve_z(**args)


@pytest.mark.parametrize("end", [0, 1], ids=["z_lo", "z_hi"])
def test_solve_z_reaches_each_end_of_its_bracket(end):
    # a target equal to epsilon at an end of Z_BRACKET is reachable
    target = _eps(0.02, Z_BRACKET[end], 100)
    z, eps, _ = solve_z(target, 1e-5, 0.02, 100)
    assert Z_BRACKET[0] <= z <= Z_BRACKET[1]
    assert abs(eps - target) < 1e-3


@pytest.mark.parametrize("end, factor", [(0, 1.0001), (1, 0.9999)], ids=["below_z_lo", "above_z_hi"])
def test_solve_z_refuses_a_target_just_past_its_bracket(end, factor):
    # the bracket is fixed: a target a hair beyond either end is out of reach
    target = _eps(0.02, Z_BRACKET[end], 100) * factor
    with pytest.raises(ValueError, match=r"reachable range .* for z in \[0\.1, 100\.0\]"):
        solve_z(target, 1e-5, 0.02, 100)


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


# repr of the tuple of rdp_increment(q, z, a) over PINNED_ORDERS: rounds.csv bytes
# depend on every bit, so a change that moves one says why in CHANGES.md.
PINNED_ORDERS = (1.25, 2.0, 7.75, 63.75, 512.0)
PINNED = {
    (0.02, 1.1): "(0.00031334240806476, 0.0005139412670767698, 0.002697292318250959, "
    "22.368609205080983, 207.65056930613628)",
    (0.05, 0.7): "(0.00788072159305139, 0.01660361839550486, 4.4686415181285435, "
    "62.00754738124587, 519.4473848285106)",
    (0.01, 3.0): "(7.338255515394061e-06, 1.1751837821062747e-05, 4.585757801367564e-05, "
    "0.00040578299913727073, 23.830262183728394)",
    (0.1, 1.5): "(0.00335067202640962, 0.005580634229679797, 0.034996744292210676, "
    "11.827386990524404, 111.47068664741975)",
    # the long series: 1,587-2,036 fractional terms at order 1.25 and small z, and
    # the 513-term binomial sum at order 512
    (0.1, 0.6): "(0.046699034374005244, 0.14048551246615323, 8.12018015275386, "
    "86.20238699051735, 708.8040199807532)",
    (0.1, 0.8): "(0.018038670726333972, 0.0370137910562662, 3.411250997087122, "
    "47.46540782385066, 397.69290886964194)",
    (0.1, 1.0): "(0.009408440726366374, 0.01703686323617655, 1.2442535854174124, "
    "29.535720323850672, 253.692908869642)",
    (0.01, 100.0): "(6.250308009452993e-09, 1.0000499959619846e-08, 3.875215798369745e-08, "
    "3.1878542659177e-07, 2.5614215748922915e-06)",
    (0.3, 100.0): "(5.625167253047448e-06, 9.000409511045193e-06, 3.488079901387641e-05, "
    "0.00028726066873630696, 0.0023291020472144736)",
}


@pytest.mark.parametrize("q, z", list(PINNED))
def test_increment_bits_are_pinned(q, z):
    assert repr(tuple(rdp_increment(q, z, a) for a in PINNED_ORDERS)) == PINNED[(q, z)]


# repr of rdp_increment at orders off PINNED_ORDERS where the series are long:
# 145-294 fractional terms at orders 2.25-3.5 and small z, and the 257-term
# binomial sum at order 256
PINNED_SLOW = {
    (0.1, 0.6, 2.25): "0.214589281430771",
    (0.1, 0.6, 2.5): "0.34096055286922966",
    (0.1, 0.6, 2.75): "0.5502787032352017",
    (0.1, 0.6, 3.0): "0.8583840987277906",
    (0.1, 0.6, 3.25): "1.2415566360973924",
    (0.1, 0.6, 3.5): "1.6568194266970386",
    (0.1, 0.8, 2.25): "0.04627934077503231",
    (0.1, 0.8, 2.5): "0.05808757108369544",
    (0.1, 0.8, 2.75): "0.07367279274984181",
    (0.1, 0.8, 3.0): "0.09505853907615305",
    (0.1, 0.8, 3.25): "0.125585305645689",
    (0.1, 0.8, 3.5): "0.17062506553774956",
    (0.1, 1.0, 2.25): "0.020096164600782042",
    (0.1, 1.0, 2.5): "0.023503727261061733",
    (0.1, 1.0, 2.75): "0.027339716358646356",
    (0.1, 1.0, 3.0): "0.03171230030337659",
    (0.1, 1.0, 3.25): "0.036770549277841465",
    (0.1, 1.0, 3.5): "0.04272449080308446",
    (0.01, 100.0, 256.0): "1.2803860147834338e-06",
    (0.3, 100.0, 256.0): "0.0011582370585526654",
}


@pytest.mark.parametrize("q, z, alpha", list(PINNED_SLOW))
def test_slow_series_bits_are_pinned(q, z, alpha):
    assert repr(rdp_increment(q, z, alpha)) == PINNED_SLOW[(q, z, alpha)]


@pytest.mark.parametrize(
    "target, q, rounds",
    [(2.0, 0.02, 100), (1.0, 0.05, 200), (4.0, 0.01, 1000), (8.0, 0.1, 50), (2.0, 1.0, 100)],
)
def test_solve_z_hits_target_within_an_evaluation_budget(target, q, rounds, monkeypatch):
    calls = 0
    one_order = feo2.accounting.rdp_increment

    def counted(*args):
        nonlocal calls
        calls += 1
        return one_order(*args)

    monkeypatch.setattr(feo2.accounting, "rdp_increment", counted)
    one_order.cache_clear()
    z = solve_z(target, 1e-5, q, rounds)[0]
    assert one_order.cache_info().misses <= 40  # 19-36 distinct evaluations at these targets
    assert calls <= 40  # each scan reads an order once: as many as the misses
    assert abs(_eps(q, z, rounds) - target) < 1e-3


def test_a_subsampled_scan_from_the_default_start_evaluates_a_few_orders():
    # a start far from the best order, or a gallop that jumps past it and walks
    # back order by order, costs this ledger 21 fresh evaluations
    one_order = feo2.accounting.rdp_increment
    one_order.cache_clear()
    _, order = epsilon_at_delta(PrivacyLedger(((0.05, 1.0, 2),)), 1e-5)
    assert order == 6.75
    assert one_order.cache_info().misses <= 8  # 3 here


def test_default_start_scans_over_a_grid_of_ledgers_read_few_orders(monkeypatch):
    # the stand-in start, the gallop and the walks' RISE_MARGIN stop set this
    # cost: 2,054 reads over these 576 ledgers, at most 15 in one scan
    reads = []
    rdp = PrivacyLedger.rdp

    def counted(ledger, order):
        reads[-1] += 1
        return rdp(ledger, order)

    monkeypatch.setattr(PrivacyLedger, "rdp", counted)
    grid = itertools.product(
        (1.0, 0.5, 0.1, 0.02, 1e-3, 1e-5),
        (0.3, 0.7, 1.0, 2.0, 5.0, 20.0, 100.0, 1e4),
        (1, 10, 1_000, 100_000),
        (1e-2, 1e-5, 1e-10),
    )
    for q, z, rounds, delta in grid:
        reads.append(0)
        epsilon_at_delta(PrivacyLedger(((q, z, rounds),)), delta)
    assert len(reads) == 576
    assert sum(reads) <= 2054 and max(reads) <= 15


# repr of solve_z at the plan's targets: a change to the accountant's scan must
# return the same z, bit for bit.
PINNED_Z = {
    (2.0, 0.02, 100): "1.0662007617822822",
    (1.0, 0.05, 200): "3.689363234146904",
    (4.0, 0.01, 1000): "0.8256404643429015",
    (8.0, 0.1, 50): "0.9087860132910442",
    (2.0, 1.0, 100): "24.994748760642405",
}


@pytest.mark.parametrize("target, q, rounds", list(PINNED_Z))
def test_solve_z_bits_are_pinned(target, q, rounds):
    assert repr(solve_z(target, 1e-5, q, rounds)[0]) == PINNED_Z[(target, q, rounds)]


def _full_curve_solve(target, delta, q, rounds):
    """(z, epsilon, order) as `solve_z` returns them: the same Illinois steps
    with every epsilon from all 255 orders, then that z's full curve."""
    z = oracles.solve_z_full_curve(target, delta, q, rounds)
    return (z, *oracles.epsilon_full_curve(((q, z, rounds),), delta))


@pytest.mark.parametrize("target, q, rounds", list(PINNED_Z))
def test_solve_z_equals_a_full_curve_solve_bitwise(target, q, rounds):
    assert repr(solve_z(target, 1e-5, q, rounds)) == repr(_full_curve_solve(target, 1e-5, q, rounds))


def _solved(solver, target, delta, q, rounds):
    try:
        return repr(solver(target, delta, q, rounds))
    except ValueError:
        return "no solution"


@settings(max_examples=6)
@given(z=st.floats(0.3, 50.0), q=st.floats(1e-3, 1.0), rounds=st.integers(1, 2000), delta=st.floats(1e-10, 1e-2))
def test_solve_z_equals_a_full_curve_solve_on_sampled_targets(z, q, rounds, delta):
    target = oracles.epsilon_full_curve(((q, z, rounds),), delta)[0]  # reachable: 0.1 < z < 100
    assert _solved(solve_z, target, delta, q, rounds) == _solved(_full_curve_solve, target, delta, q, rounds)
