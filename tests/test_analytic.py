"""Closed forms of the estimation model: variances, gaps, optimal weights,
optimal tether strengths, and the Bayes oracles they are derived from.

The heavy mass checks (wide random-draw grids) live in test_acceptance; here
each identity gets targeted coverage plus the known corner cases.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from feo2.analytic import (
    AnalyticParams,
    focal_view,
    gap_dpfedavg,
    gap_fedavg,
    lambda_star_general,
    lambda_star_np,
    lambda_star_p,
    optimal_ratio,
    server_variance_at,
    server_variance_dpfedavg,
    server_variance_fedavg,
    server_variance_opt,
    total_weight,
)
from feo2.rng import stream

from oracles import bayes_global_oracle, bayes_local_oracle, posterior_mean_dense


def params_strategy(min_private=0, min_opted_out=0):
    @st.composite
    def _params(draw):
        N = draw(st.integers(2 + min_private + min_opted_out, 300))
        N_p = draw(st.integers(min_private, N - min_opted_out))
        tau2 = draw(st.floats(0.01, 4.0))
        beta2 = draw(st.floats(0.01, 4.0))
        gamma2 = draw(st.floats(0.0, 2.0))
        n_s = draw(st.integers(1, 20))
        return AnalyticParams(N=N, N_p=N_p, tau2=tau2, beta2=beta2, gamma2=gamma2, n_s=n_s)

    return _params()


def test_derived_quantities():
    p = AnalyticParams(N=100, N_p=95, tau2=0.5, beta2=1.0, gamma2=0.01, n_s=4)
    assert p.N_np == 5
    assert p.rho_np == pytest.approx(0.05)
    assert p.alpha2 == pytest.approx(0.25)
    assert p.sigma_c2 == pytest.approx(0.75)
    assert p.sigma_p2 == pytest.approx(0.75 + 0.95)


def test_params_validation():
    with pytest.raises(ValueError):
        AnalyticParams(N=0, N_p=0, tau2=0, beta2=1, gamma2=0)
    with pytest.raises(ValueError):
        AnalyticParams(N=10, N_p=11, tau2=0, beta2=1, gamma2=0)
    with pytest.raises(ValueError):
        AnalyticParams(N=10, N_p=5, tau2=-1, beta2=1, gamma2=0)


@given(p=params_strategy())
def test_variance_at_optimal_ratio_equals_opt_form(p):
    assume(p.sigma_c2 + p.N_p * p.gamma2 > 0)
    r = optimal_ratio(p)
    assert 0.0 < r <= 1.0
    direct = server_variance_at(p, r)
    assert direct == pytest.approx(server_variance_opt(p), rel=1e-12)


@given(p=params_strategy(), r=st.floats(0.0, 1.0))
def test_opt_is_the_minimum_over_r(p, r):
    assume(p.N_np + r * p.N_p > 0)
    assert server_variance_at(p, r) >= server_variance_opt(p) - 1e-15


@given(p=params_strategy())
def test_gap_identities(p):
    opt = server_variance_opt(p)
    assert abs(gap_fedavg(p) - (server_variance_fedavg(p) - opt)) <= 1e-12
    assert abs(gap_dpfedavg(p) - (server_variance_dpfedavg(p) - opt)) <= 1e-12
    assert gap_fedavg(p) >= 0.0
    assert gap_dpfedavg(p) >= 0.0


def test_all_private_makes_every_rule_equal():
    p = AnalyticParams(N=50, N_p=50, tau2=0.3, beta2=1.0, gamma2=0.2)
    v = server_variance_dpfedavg(p)
    assert server_variance_fedavg(p) == pytest.approx(v, rel=1e-12)
    assert server_variance_opt(p) == pytest.approx(v, rel=1e-12)
    # with a single group the ratio has no effect
    assert server_variance_at(p, 0.37) == pytest.approx(v, rel=1e-12)


def test_no_noise_makes_fedavg_optimal():
    p = AnalyticParams(N=80, N_p=60, tau2=0.3, beta2=1.0, gamma2=0.0)
    assert optimal_ratio(p) == 1.0
    assert gap_fedavg(p) == 0.0


def test_known_lambda_values():
    p = AnalyticParams(N=100, N_p=95, tau2=0.5, beta2=0.25, gamma2=0.01)
    assert lambda_star_np(p) == pytest.approx(0.5, abs=1e-15)
    assert lambda_star_p(p) == pytest.approx(319.0 / 649.4, abs=1e-12)


@given(p=params_strategy(min_private=2, min_opted_out=1))
def test_general_lambda_collapses_at_matched_ratio(p):
    assume(p.alpha2 > 1e-3 and p.tau2 > 1e-3)
    r = optimal_ratio(p)
    want = lambda_star_p(p)
    got = lambda_star_general(p, is_private=True, r=r)
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


@given(p=params_strategy(min_private=1, min_opted_out=2))
def test_general_lambda_collapses_opted_out(p):
    assume(p.alpha2 > 1e-3 and p.tau2 > 1e-3)
    r = optimal_ratio(p)
    want = lambda_star_np(p)
    got = lambda_star_general(p, is_private=False, r=r)
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_lambda_p_limit_all_clients_private():
    p = AnalyticParams(N=40, N_p=40, tau2=0.5, beta2=0.25, gamma2=0.05)
    U2, G2 = p.tau2 / p.alpha2, p.N_p * p.gamma2 / p.alpha2
    assert lambda_star_p(p) == pytest.approx(p.N / (U2 * p.N + G2), rel=1e-12)


def test_lambda_p_limit_no_client_spread():
    p = AnalyticParams(N=40, N_p=30, tau2=0.0, beta2=0.25, gamma2=0.05)
    G2 = p.N_p * p.gamma2 / p.alpha2
    want = (p.N + G2 * (p.N - p.N_p)) / G2
    assert lambda_star_p(p) == pytest.approx(want, rel=1e-12)
    assert lambda_star_np(p) == math.inf
    # with no privacy noise either, the global estimate is better at every lambda
    assert lambda_star_p(AnalyticParams(N=40, N_p=30, tau2=0.0, beta2=0.25, gamma2=0.0)) == math.inf


@pytest.mark.parametrize("tau2", [0.0, 0.5])
@pytest.mark.parametrize("gamma2", [0.0, 1.0])
def test_an_exact_own_estimate_needs_no_tether(tau2, gamma2):
    # alpha2 = 0: the tethered loss is lam^2/(1+lam)^2 * E|theta_g - phi_j|^2, least at lam = 0
    p = AnalyticParams(N=100, N_p=95, tau2=tau2, beta2=0.0, gamma2=gamma2)
    assert lambda_star_np(p) == 0.0
    assert lambda_star_p(p) == 0.0
    for is_private in (True, False):
        for r in (0.0, 0.3, 1.0):
            assert lambda_star_general(p, is_private, r) == 0.0


def test_total_weight_is_the_one_check_of_r_and_w():
    p = AnalyticParams(N=10, N_p=10, tau2=0.5, beta2=1.0, gamma2=0.1)
    assert total_weight(p, 0.25) == 2.5
    for r in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"^r must be in \[0, 1\], got "):
            total_weight(p, r)
    # every client private and r = 0: no group carries weight
    with pytest.raises(ValueError, match="^estimator undefined: zero total weight$"):
        server_variance_at(p, 0.0)
    with pytest.raises(ValueError, match="^estimator undefined: zero total weight$"):
        focal_view(p, is_private=True, r=0.0)
    # the absent class is named before the weight is checked
    with pytest.raises(ValueError, match="no opted-out client"):
        focal_view(p, is_private=False, r=0.0)


def test_lambda_general_rejects_absent_class():
    p = AnalyticParams(N=10, N_p=0, tau2=0.5, beta2=1.0, gamma2=0.1)
    with pytest.raises(ValueError, match="no private client"):
        lambda_star_general(p, is_private=True, r=0.5)


@given(
    p=params_strategy(min_private=1, min_opted_out=1),
    is_private=st.booleans(),
    r=st.floats(0.0, 1.0),
)
def test_general_lambda_minimises_the_tethered_loss(p, is_private, r):
    a, v = focal_view(p, is_private, r)
    A, B = p.alpha2, a * p.alpha2  # E<e,e> and E<e,g>: own error e, global error g
    C = (1.0 - a) ** 2 * p.tau2 + a * a * p.alpha2 + v  # E<g,g>

    def loss(lam):
        return (A + 2.0 * lam * B + lam * lam * C) / (1.0 + lam) ** 2

    lam = lambda_star_general(p, is_private, r)
    if math.isinf(lam):  # no finite minimiser: the loss never rises with lambda
        assert loss(1e6) <= loss(0.0) * (1.0 + 1e-12)
        return
    assert lam >= 0.0
    # a few ulps of slack: loss() itself rounds
    assert loss(lam) <= min(loss(lam * (1.0 - 1e-3)), loss(lam * (1.0 + 1e-3))) * (1.0 + 1e-14)


def test_global_oracle_weights_by_inverse_variance():
    v1, v2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    got = bayes_global_oracle([(v1, 0.5), (v2, 2.0)])
    # precision weights 2 : 0.5 -> 0.8 / 0.2
    assert np.allclose(got, 0.8 * v1 + 0.2 * v2, atol=1e-15)
    with pytest.raises(ValueError):
        bayes_global_oracle([])
    with pytest.raises(ValueError):
        bayes_global_oracle([(v1, 0.0)])


@pytest.mark.parametrize("is_private", [True, False])
@pytest.mark.parametrize("case", range(6))
def test_local_oracle_matches_dense_posterior(case, is_private):
    rng = stream(100 + case, "oracle", int(is_private))
    N = int(rng.integers(4, 30))
    N_p = int(rng.integers(1 if is_private else 0, N))
    if not is_private and N_p == N:
        N_p -= 1
    p = AnalyticParams(
        N=N,
        N_p=N_p,
        tau2=float(rng.uniform(0.05, 2.0)),
        beta2=float(rng.uniform(0.05, 2.0)),
        gamma2=float(rng.uniform(0.0, 1.0)),
        n_s=int(rng.integers(1, 6)),
    )
    n_peers_private = p.N_p - 1 if is_private else p.N_p
    m_peers = p.N_np if is_private else p.N_np - 1
    if n_peers_private < 0 or m_peers < 0:
        pytest.skip("degenerate class split")
    d = 3
    phi_hat = rng.normal(size=d)
    others = [(rng.normal(size=d), True) for _ in range(int(n_peers_private))]
    others += [(rng.normal(size=d), False) for _ in range(int(m_peers))]
    got = bayes_local_oracle(phi_hat, others, p, is_private)
    want = posterior_mean_dense(
        phi_hat, others, p.sigma_c2, p.sigma_p2, p.tau2, p.alpha2
    )
    assert np.allclose(got, want, atol=1e-9), np.abs(got - want).max()


def test_local_oracle_validates_peer_counts():
    p = AnalyticParams(N=5, N_p=3, tau2=0.5, beta2=1.0, gamma2=0.1)
    peers = [(np.zeros(2), True)] * 3 + [(np.zeros(2), False)] * 2
    with pytest.raises(ValueError, match="peer class counts"):
        bayes_local_oracle(np.zeros(2), peers, p, is_private_j=True)


def test_variance_monotone_in_gamma():
    base = dict(N=60, N_p=40, tau2=0.2, beta2=1.0)
    vals = [server_variance_opt(AnalyticParams(gamma2=g, **base)) for g in (0.0, 0.1, 0.5, 2.0)]
    assert vals == sorted(vals)
    assert math.isfinite(vals[-1])
