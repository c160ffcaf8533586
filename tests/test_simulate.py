"""The round loop: exact replication of a round by hand, determinism across
worker counts, group bookkeeping per algorithm, and the Monte Carlo harnesses
against their closed forms."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import feo2.accounting
import feo2.simulate
from feo2.aggregation import feo2_combine, group_mean
from feo2.analytic import AnalyticParams, optimal_ratio, server_variance_at
from feo2.config import Algorithm, DittoConfig, ExperimentConfig, FeO2Config, PopulationKind, PopulationSpec
from feo2.datagen import build_population
from feo2.privacy import clip
from feo2.rng import stream
from feo2.simulate import (
    RoundReport,
    lambda_sweep,
    monte_carlo_server_variance,
    run_experiment,
)
from oracles import ditto_closed_form, raw_gram, rescored_local_metrics


def _point_cfg(**overrides):
    pop = dict(
        kind=PopulationKind.POINT_ESTIMATION,
        n_clients=10,
        rho_np=0.3,
        samples_per_client=4,
        tau2=0.3,
        beta2=0.8,
        d=2,
        seed=5,
    )
    base = dict(
        population=PopulationSpec(**pop),
        algorithm=Algorithm.FEO2,
        feo2=FeO2Config(r=0.4, z=0.9, S0=1.5),
        rounds=1,
        master_seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_a_full_participation_round_evaluates_a_few_orders(monkeypatch):
    # z = 48 as in the shipped skewed config. Each round's scan starts at the last
    # round's best order (the first round at the closed-form one), so it looks at
    # that order and its two neighbours; a walk to twice the best order made ~144
    # calls per round.
    calls = 0
    one_order = feo2.accounting._rdp_one_order

    def counted(*args):
        nonlocal calls
        calls += 1
        return one_order(*args)

    monkeypatch.setattr(feo2.accounting, "_rdp_one_order", counted)
    res = run_experiment(_point_cfg(rounds=50, feo2=FeO2Config(r=0.4, z=48.0, S0=1.5)))
    assert res.ledger.counts == ((1.0, 48.0, 50),)
    assert calls <= 8 * 50  # 349 here


def test_one_round_matches_hand_computation():
    cfg = _point_cfg()
    res = run_experiment(cfg)
    pop = build_population(cfg.population)

    S = cfg.feo2.S0
    priv, nonpriv = [], []
    for obs, private in zip(pop.train_x, pop.private):  # cohort_fraction 1: everyone in order
        delta, _ = clip(obs.mean(axis=0), S)
        (priv if private else nonpriv).append(delta)
    noise = stream(3, "noise", 0).normal(0.0, cfg.feo2.z * S / len(priv), 2)
    expected = feo2_combine(
        group_mean(nonpriv), group_mean(priv) + noise, len(nonpriv), len(priv), cfg.feo2.r
    )
    assert np.allclose(res.global_model, expected, atol=1e-12)
    rep = res.reports[0]
    assert rep.N_p_t == len(priv) and rep.N_np_t == len(nonpriv)
    assert rep.acc_g == pytest.approx(float(np.sum((expected - pop.truth_global) ** 2)), abs=1e-12)


def test_personal_models_under_sampled_cohorts():
    # Full-batch Ditto with eta_p = 1/(1 + lambda) lands on the tethered
    # minimizer, so a sampled client's personal model is fixed by its data and
    # the global model broadcast in the last round that sampled it.
    ditto = DittoConfig(lambda_p=0.5, lambda_np=2.0)
    cfg = _point_cfg(rounds=4, cohort_fraction=0.3, ditto=ditto)
    res = run_experiment(cfg)
    pop = res.population
    n = len(pop.private)
    broadcast, theta = {}, np.zeros(pop.dim)
    for t in range(cfg.rounds):
        for j in stream(cfg.master_seed, "cohort", t).choice(n, 3, replace=False).tolist():
            broadcast[j] = theta
        theta = run_experiment(dataclasses.replace(cfg, rounds=t + 1)).global_model
    assert np.array_equal(theta, res.global_model)
    assert 0 < len(broadcast) < n
    assert res.personal_models.shape == (n, pop.dim)
    for j, row in enumerate(res.personal_models):
        if j in broadcast:
            lam = ditto.lambda_p if pop.private[j] else ditto.lambda_np
            want = ditto_closed_form(pop.train_x[j].mean(axis=0), broadcast[j], lam)
            assert np.allclose(row, want, rtol=0.0, atol=1e-12)
        else:
            assert np.array_equal(row, res.global_model)
    assert run_experiment(dataclasses.replace(cfg, ditto=None)).personal_models is None


def test_reports_are_worker_invariant():
    cfg = _point_cfg(rounds=4, ditto=DittoConfig(lambda_p=0.5, lambda_np=0.5))
    seq = run_experiment(cfg, workers=1)
    par = run_experiment(cfg, workers=4)
    assert [dataclasses.asdict(r) for r in seq.reports] == [
        dataclasses.asdict(r) for r in par.reports
    ]
    assert np.array_equal(seq.global_model, par.global_model)


def test_rerun_is_bit_reproducible():
    cfg = _point_cfg(rounds=3)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert [r.csv_row() for r in a.reports] == [r.csv_row() for r in b.reports]


def test_csv_row_round_trips_floats():
    rep = RoundReport(0, 1 / 3, 2, 1, 0.1 + 0.2, 1.0, float("nan"), 0.5, 0.5, 0.25, 0.0, float("inf"))
    row = rep.csv_row().split(",")
    assert float(row[1]) == 1 / 3
    assert float(row[4]) == 0.1 + 0.2
    assert row[11] == "inf"


def test_dpfedavg_counts_everyone_as_private():
    cfg = _point_cfg(algorithm=Algorithm.DPFEDAVG, feo2=FeO2Config(z=0.5))
    rep = run_experiment(cfg).reports[0]
    assert rep.N_p_t == 10
    assert rep.N_np_t == 0


def test_fedavg_is_plain_averaging():
    cfg = _point_cfg(algorithm=Algorithm.FEDAVG, feo2=FeO2Config(r=1.0, z=0.0, S0=1e9))
    res = run_experiment(cfg)
    pop = build_population(cfg.population)
    means = np.stack([obs.mean(axis=0) for obs in pop.train_x])
    assert np.allclose(res.global_model, means.mean(axis=0), atol=1e-12)
    assert res.reports[0].epsilon == float("inf")


def test_epsilon_accumulates_only_with_noise():
    noisy = run_experiment(_point_cfg(rounds=3)).reports
    assert all(np.isfinite(r.epsilon) for r in noisy)
    assert noisy[0].epsilon < noisy[1].epsilon < noisy[2].epsilon
    quiet = run_experiment(
        _point_cfg(rounds=2, feo2=FeO2Config(r=0.4, z=0.0, S0=1.5))
    ).reports
    assert all(r.epsilon == float("inf") for r in quiet)


def test_skipped_rounds_freeze_model_but_not_clip_norm():
    # all clients private and r = 0: nothing carries weight
    cfg = _point_cfg(
        population=PopulationSpec(
            kind=PopulationKind.POINT_ESTIMATION, n_clients=6, rho_np=0.0,
            samples_per_client=3, d=2, seed=1,
        ),
        feo2=FeO2Config(r=0.0, z=0.0, S0=1e6),
        rounds=3,
    )
    res = run_experiment(cfg)
    assert np.array_equal(res.global_model, np.zeros(2))
    accs = [r.acc_g for r in res.reports]
    assert accs[0] == accs[1] == accs[2]
    ss = [r.S for r in res.reports]
    assert ss[0] != 1e6 and len(set(ss)) == 3  # quantile tracking continues


def test_cohort_fraction_subsamples_clients():
    cfg = _point_cfg(cohort_fraction=0.5, rounds=3)
    for rep in run_experiment(cfg).reports:
        assert rep.N_p_t + rep.N_np_t == 5
    # different rounds pick different cohorts (with overwhelming probability)
    counts = {(r.N_p_t, r.N_np_t) for r in run_experiment(cfg).reports}
    assert len(counts) >= 1


def test_adaptive_clip_norm_direction():
    # huge S0: every update fits, so S contracts at the full rate
    cfg = _point_cfg(feo2=FeO2Config(r=1.0, z=0.0, S0=1e6, eta_b=0.2, kappa=0.5))
    rep = run_experiment(cfg).reports[0]
    assert rep.S == pytest.approx(1e6 * np.exp(-0.2 * 0.5), rel=1e-12)
    # microscopic S0: nothing fits and S expands
    cfg = _point_cfg(feo2=FeO2Config(r=1.0, z=0.0, S0=1e-9, eta_b=0.2, kappa=0.5))
    rep = run_experiment(cfg).reports[0]
    assert rep.S == pytest.approx(1e-9 * np.exp(0.2 * 0.5), rel=1e-12)


def test_personalized_metrics_fall_back_to_global_without_ditto():
    rep = run_experiment(_point_cfg()).reports[0]
    assert rep.acc_l_p == rep.acc_g_p
    assert rep.acc_l_np == rep.acc_g_np
    assert rep.delta_l == rep.delta_g


def test_ditto_improves_personal_fit_on_heterogeneous_clients():
    cfg = _point_cfg(
        population=PopulationSpec(
            kind=PopulationKind.POINT_ESTIMATION, n_clients=20, rho_np=0.5,
            samples_per_client=40, tau2=4.0, beta2=0.1, d=2, seed=8,
        ),
        feo2=FeO2Config(r=1.0, z=0.0, S0=1e6),
        ditto=DittoConfig(lambda_p=0.1, lambda_np=0.1),
        rounds=2,
    )
    rep = run_experiment(cfg).reports[-1]
    # spread dwarfs estimation noise: hugging the local estimate must win
    assert rep.acc_l_p < rep.acc_g_p
    assert rep.acc_l_np < rep.acc_g_np


def test_classification_run_learns_something():
    cfg = ExperimentConfig(
        population=PopulationSpec(
            kind=PopulationKind.LABEL_SHARD, n_clients=30, rho_np=0.1,
            samples_per_client=10, seed=2,
        ),
        algorithm=Algorithm.FEO2,
        feo2=FeO2Config(r=1.0, z=0.3, S0=5.0, eta=0.5),
        rounds=6,
        master_seed=1,
    )
    reports = run_experiment(cfg).reports
    assert all(0.0 <= r.acc_g <= 100.0 for r in reports)
    assert reports[-1].acc_g > 25.0  # 10 classes, chance is ~10
    assert np.isfinite(reports[-1].epsilon)


def _sampled_shard_ditto_cfg(rounds):
    """60 label-shard clients, 6 sampled per round, mini-batch Ditto."""
    return ExperimentConfig(
        population=PopulationSpec(
            kind=PopulationKind.LABEL_SHARD, n_clients=60, rho_np=0.2,
            samples_per_client=10, seed=6,
        ),
        algorithm=Algorithm.FEO2,
        feo2=FeO2Config(r=0.2, z=1.0, z_b=5.0, S0=1.0, eta=0.5, batch_size=3),
        ditto=DittoConfig(lambda_p=0.5, lambda_np=0.2),
        rounds=rounds,
        cohort_fraction=0.1,
        master_seed=7,
    )


def _sampled_quadratic_ditto_cfg(kind):
    """10 clients of ``kind``, 3 sampled per round for 6 rounds, full-batch Ditto;
    clients 3, 8 and 9 are never sampled."""
    cfg = _point_cfg(rounds=6, cohort_fraction=0.3, ditto=DittoConfig(lambda_p=0.5, lambda_np=2.0))
    return dataclasses.replace(cfg, population=dataclasses.replace(cfg.population, kind=kind))


RESCORING_CASES = {
    **{f"label_shard-{rounds}": _sampled_shard_ditto_cfg(rounds) for rounds in (1, 4, 9)},
    **{
        kind.value: _sampled_quadratic_ditto_cfg(kind)
        for kind in (PopulationKind.POINT_ESTIMATION, PopulationKind.LINEAR_REGRESSION)
    },
}


@pytest.mark.parametrize("cfg", RESCORING_CASES.values(), ids=RESCORING_CASES.keys())
def test_cached_local_scores_equal_full_rescoring(cfg):
    # Early on most clients are untrained and take their global score.
    res = run_experiment(cfg)
    assert any(np.array_equal(row, res.global_model) for row in res.personal_models)
    want = rescored_local_metrics(res)
    assert {k: getattr(res.reports[-1], k) for k in want} == want


def test_a_sampled_round_scores_only_its_cohort(monkeypatch):
    logits, rows = feo2.simulate._logits, []

    def counting(model, x):
        rows.append(1 if model.ndim == 1 else len(model))
        return logits(model, x)

    monkeypatch.setattr(feo2.simulate, "_logits", counting)
    run_experiment(_sampled_shard_ditto_cfg(9))
    assert rows == [1, 6] * 9  # the global model, then the cohort's personal models


def _stream_paths(monkeypatch, cfg):
    """The path of every stream `run_experiment` derives, in call order."""
    paths = []

    def recording(seed, *path):
        paths.append(path)
        return stream(seed, *path)

    monkeypatch.setattr(feo2.simulate, "stream", recording)
    run_experiment(cfg)
    return paths


def test_a_round_derives_the_same_few_streams_at_any_cohort_size(monkeypatch):
    small = dataclasses.replace(_sampled_shard_ditto_cfg(5), cohort_fraction=0.2)
    paths = _stream_paths(monkeypatch, small)
    assert all(len(path) == 2 and isinstance(path[0], str) for path in paths)  # (purpose, round)
    assert [p for p in paths if p[0] == "minibatch"] == [("minibatch", t) for t in range(5)]
    doubled = _stream_paths(monkeypatch, dataclasses.replace(small, cohort_fraction=0.4))
    assert len(doubled) == len(paths)


def test_round_orders_are_permutations_and_an_arange_order_keeps_the_order(monkeypatch):
    from feo2.models import _batches

    update, orders = feo2.simulate.client_update, []

    def recording(*args):
        orders.append(args[-1])
        return update(*args)

    monkeypatch.setattr(feo2.simulate, "client_update", recording)
    cfg = _sampled_shard_ditto_cfg(3)
    res = run_experiment(dataclasses.replace(cfg, feo2=dataclasses.replace(cfg.feo2, epochs=2)))
    n_ex = res.population.train_x.shape[1]
    assert [order.shape for order in orders] == [(2, 6, n_ex)] * 3  # (epochs, cohort, examples)
    rows = np.concatenate([order.reshape(-1, n_ex) for order in orders])
    assert np.array_equal(np.sort(rows, axis=1), np.broadcast_to(np.arange(n_ex), rows.shape))
    assert len({row.tobytes() for row in rows}) == len(rows)  # a fresh order per epoch and client
    x = np.arange(14.0).reshape(2, 7, 1)
    batches = [xb for xb, _ in _batches(x, None, 3, np.tile(np.arange(7), (2, 1)))]
    assert [xb.shape[1] for xb in batches] == [3, 3, 1]
    assert np.array_equal(np.concatenate(batches, axis=1), x)


def test_minibatch_reports_are_worker_invariant():
    cfg = _sampled_shard_ditto_cfg(4)
    seq, par = run_experiment(cfg, workers=1), run_experiment(cfg, workers=4)
    assert [r.csv_row() for r in seq.reports] == [r.csv_row() for r in par.reports]
    assert np.array_equal(seq.personal_models, par.personal_models)


# --- Monte Carlo harnesses ----------------------------------------------------


def test_mc_server_variance_tracks_closed_form():
    p = AnalyticParams.from_sigma_c2(N=40, N_p=30, sigma_c2=1.0, gamma2=0.05)
    for r in (0.2, 0.7, 1.0):
        mc = monte_carlo_server_variance(p, r, trials=300_000, seed=11)
        assert mc == pytest.approx(server_variance_at(p, r), rel=0.02)


def test_mc_server_variance_is_deterministic_and_validated():
    p = AnalyticParams.from_sigma_c2(N=10, N_p=5, sigma_c2=1.0, gamma2=0.1)
    assert monte_carlo_server_variance(p, 0.5, 1000, seed=3) == monte_carlo_server_variance(
        p, 0.5, 1000, seed=3
    )
    with pytest.raises(ValueError):
        monte_carlo_server_variance(p, 1.5, 10, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_server_variance(p, 0.5, 0, seed=0)


def test_mc_server_variance_multidimensional_scales_with_trace():
    p1 = AnalyticParams.from_sigma_c2(N=40, N_p=30, sigma_c2=1.0, gamma2=0.05, d=1)
    p4 = AnalyticParams.from_sigma_c2(N=40, N_p=30, sigma_c2=1.0, gamma2=0.05, d=4)
    mc = monte_carlo_server_variance(p4, 0.5, trials=200_000, seed=2)
    assert mc == pytest.approx(4 * server_variance_at(p1, 0.5), rel=0.03)


@pytest.fixture
def raw_draws(monkeypatch):
    """The harnesses with `_gram` computed from raw per-trial draws: their losses
    must then equal a per-trial evaluation of those same draws to rounding."""
    monkeypatch.setattr(feo2.simulate, "_gram", raw_gram)


def _direct_server_variance(p, r, trials, seed):
    """Per-trial reference: combine each trial's group means, then square."""
    rng = stream(seed, "server-variance")
    W = p.N_np + r * p.N_p
    est = np.zeros((trials, p.d))
    if p.N_np > 0:
        est += (p.N_np / W) * rng.normal(0.0, math.sqrt(p.sigma_c2 / p.N_np), (trials, p.d))
    if p.N_p > 0:
        sd_p = math.sqrt(p.sigma_c2 / p.N_p + p.gamma2)
        est += (r * p.N_p / W) * rng.normal(0.0, sd_p, (trials, p.d))
    return float(np.mean(np.sum(est**2, axis=1)))


@pytest.mark.parametrize("d", [1, 10])
@pytest.mark.parametrize("N_p", [0, 30, 40])
def test_mc_server_variance_moments_match_per_trial_evaluation(d, N_p, raw_draws):
    p = AnalyticParams.from_sigma_c2(N=40, N_p=N_p, sigma_c2=1.0, gamma2=0.05, d=d)
    for r in (0.0, optimal_ratio(p), 1.0):
        if p.N_np + r * p.N_p == 0:
            continue  # all clients private at r = 0: no estimator
        want = _direct_server_variance(p, r, 2000, seed=5)
        assert monte_carlo_server_variance(p, r, 2000, seed=5) == pytest.approx(want, rel=1e-12)


def _direct_lambda_sweep(p, focal_private, grid, trials, seed, aggregator):
    """Per-lambda reference: form every trial's personal estimate, then score it."""
    Np_t, Nnp_t = (p.N_p, p.N_np) if focal_private else (p.N_p - 1, p.N_np + 1)
    scenario = dataclasses.replace(p, N_p=Np_t)
    r = 1.0 if aggregator == "fedavg" else optimal_ratio(scenario)
    i_j = r if focal_private else 1.0
    W = Nnp_t + r * Np_t
    var_others = (p.N_np * p.sigma_c2 + r**2 * (p.N_p - 1) * (p.sigma_c2 + Np_t * p.gamma2)) / W**2
    rng = stream(seed, "lambda-sweep")
    truth = rng.normal(0.0, math.sqrt(p.tau2), (trials, p.d))
    phi_hat = truth + rng.normal(0.0, math.sqrt(p.alpha2), (trials, p.d))
    theta_g = (i_j / W) * phi_hat + math.sqrt(var_others) * rng.normal(0.0, 1.0, (trials, p.d))
    return [
        float(np.mean(np.sum(((phi_hat + lam * theta_g) / (1.0 + lam) - truth) ** 2, axis=1)))
        for lam in grid
    ]


def test_mc_server_variance_cache_keeps_sweeps_apart(raw_draws):
    base = AnalyticParams.from_sigma_c2(N=40, N_p=30, sigma_c2=1.0, gamma2=0.05, d=2)
    # same seed and trials; only the private group's law or the dimension differs
    for p in (base, dataclasses.replace(base, gamma2=0.5), dataclasses.replace(base, d=3), base):
        want = _direct_server_variance(p, 0.4, 1000, seed=8)
        assert monte_carlo_server_variance(p, 0.4, 1000, seed=8) == pytest.approx(want, rel=1e-12)
    # the tether draws share the cache: same seed and trials, one law or the dimension differs
    tether, grid = AnalyticParams(N=100, N_p=95, tau2=0.5, beta2=0.25, gamma2=1.0, d=2), [0.0, 0.4, 2.0]
    replace = dataclasses.replace
    for p in (tether, replace(tether, tau2=0.2), replace(tether, beta2=0.6), replace(tether, d=3), tether):
        got = [loss for _, loss in lambda_sweep(p, True, grid, 1000, seed=8)]
        assert got == pytest.approx(_direct_lambda_sweep(p, True, grid, 1000, 8, "feo2"), rel=1e-12)


def test_lambda_sweep_arms_share_one_draw(monkeypatch):
    paths = []

    def recording(seed, *path):
        paths.append(path)
        return stream(seed, *path)

    monkeypatch.setattr(feo2.simulate, "stream", recording)
    feo2.simulate._gram.cache_clear()
    p = AnalyticParams(N=100, N_p=95, tau2=0.5, beta2=0.25, gamma2=1.0)
    for focal_private in (True, False):
        for aggregator in ("feo2", "fedavg"):
            lambda_sweep(p, focal_private, [0.0, 0.5], 1000, seed=12, aggregator=aggregator)
    assert paths == [("lambda-sweep",)]


def test_mc_moments_stay_python_floats():
    # A cached r-sweep point reads three floats: an ndarray Gram matrix made each
    # cached call about 7 µs slower, a third of the call on privacy_plan's step median.
    gram = feo2.simulate._gram(3, "server-variance", 100, 2, (0.5, None))
    assert type(gram) is tuple and all(type(row) is tuple for row in gram)
    assert all(type(x) is float for row in gram for x in row)
    assert gram[0][0] > 0 and gram[0][1] == gram[1][0] == gram[1][1] == 0.0  # None: absent, not drawn
    p = AnalyticParams.from_sigma_c2(N=40, N_p=30, sigma_c2=1.0, gamma2=0.05, d=2)
    assert type(monte_carlo_server_variance(p, 0.5, 100, seed=3)) is float


def test_gram_cache_keys_on_every_argument():
    key = (8, "server-variance", 1000, 2, (0.5, 1.0))
    keys = [key, (9, *key[1:]), (8, "lambda-sweep", *key[2:]), (8, key[1], 1001, 2, key[4]),
            (*key[:3], 3, key[4]), (*key[:4], (0.5, 1.1)), (*key[:4], (None, 1.0))]
    cached = [feo2.simulate._gram(*k) for k in keys]
    assert len(set(cached)) == len(keys)
    assert cached == [feo2.simulate._gram(*k) for k in keys] == [feo2.simulate._gram.__wrapped__(*k) for k in keys]


# (trials, d, sds): two and three groups, an absent group, an sd of 0, and
# trials*d = 1 and 2 beside three groups, where the Wishart law is rank-deficient.
WISHART_CASES = [
    (5, 2, (0.5, 2.0)),
    (3, 1, (1.0, 0.7, 1.5)),
    (4, 2, (1.2, None, 0.8)),
    (2, 3, (0.0, 1.0, 0.6)),
    (1, 1, (1.0, 0.5, 2.0)),
    (2, 1, (1.0, 0.5, 2.0)),
]


@pytest.mark.parametrize("trials, d, sds", WISHART_CASES)
def test_gram_entries_follow_the_wishart_moments(trials, d, sds):
    # Entry (i, j) is sd_i*sd_j*W_ij/trials for W ~ Wishart(I, n = trials*d): its mean
    # is n*sd_i^2*[i=j]/trials and its variance n*(sd_i^2*sd_j^2 + [i=j]*sd_i^4)/trials^2.
    n, seeds = trials * d, 3000
    grams = np.array([feo2.simulate._gram.__wrapped__(s, "law", trials, d, sds) for s in range(seeds)])
    sd = [0.0 if x is None else x for x in sds]
    for i in range(len(sds)):
        for j in range(len(sds)):
            x, same = grams[:, i, j], float(i == j)
            mean = n * sd[i] ** 2 * same / trials
            var = n * (sd[i] ** 2 * sd[j] ** 2 + same * sd[i] ** 4) / trials**2
            if var == 0.0:  # an absent group or an sd of 0
                assert not x.any()
                continue
            assert abs(x.mean() - mean) <= 4 * math.sqrt(var / seeds), (i, j)
            spread = (x - x.mean()) ** 2
            assert abs(spread.mean() - var) <= 4 * spread.std() / math.sqrt(seeds), (i, j)


def test_an_absent_group_takes_no_draw():
    with_absent = feo2.simulate._gram(7, "law", 4, 2, (1.2, None, 0.8))
    (xx, xy), (_, yy) = feo2.simulate._gram(7, "law", 4, 2, (1.2, 0.8))
    assert with_absent == ((xx, 0.0, xy), (0.0, 0.0, 0.0), (xy, 0.0, yy))


def test_a_gram_costs_the_same_at_any_trial_count():
    # 10^13 normals per group if drawn one by one; sampled from its law, a few variates
    p = AnalyticParams.from_sigma_c2(N=100, N_p=95, sigma_c2=1.0, gamma2=0.01, d=10)
    r = optimal_ratio(p)
    mc = monte_carlo_server_variance(p, r, trials=10**12, seed=0)
    assert mc == pytest.approx(p.d * server_variance_at(p, r), rel=1e-5)
    # the plan's r-sweep Gram held 32 MB of draws when computed from them
    tracemalloc.start()
    try:
        feo2.simulate._gram.__wrapped__(0, "server-variance", 200_000, 10, (0.1, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("focal_private", [True, False])
@pytest.mark.parametrize("aggregator", ["feo2", "fedavg"])
def test_lambda_sweep_moments_match_per_lambda_evaluation(focal_private, aggregator, raw_draws):
    p = AnalyticParams(N=100, N_p=95, tau2=0.5, beta2=0.25, gamma2=1.0, d=3)
    grid = [0.0, 0.05, 0.4, 1.0, 3.0, 50.0]
    got = lambda_sweep(p, focal_private, grid, 3000, seed=6, aggregator=aggregator)
    want = _direct_lambda_sweep(p, focal_private, grid, 3000, 6, aggregator)
    assert [lam for lam, _ in got] == grid
    assert [loss for _, loss in got] == pytest.approx(want, rel=1e-12)


def test_lambda_sweep_shape_and_determinism():
    p = AnalyticParams(N=30, N_p=20, tau2=0.5, beta2=0.25, gamma2=0.3)
    grid = [0.0, 0.5, 1.0]
    rows = lambda_sweep(p, True, grid, trials=5000, seed=4)
    assert [lam for lam, _ in rows] == grid
    assert all(loss > 0 for _, loss in rows)
    assert rows == lambda_sweep(p, True, grid, trials=5000, seed=4)


def test_lambda_sweep_zero_tether_recovers_own_noise_level():
    p = AnalyticParams(N=50, N_p=40, tau2=0.5, beta2=0.25, gamma2=0.2)
    rows = dict(lambda_sweep(p, True, [0.0], trials=400_000, seed=9))
    # lambda = 0 keeps the raw local estimate, so the loss is alpha2
    assert rows[0.0] == pytest.approx(p.alpha2, rel=0.02)


def test_lambda_sweep_validation():
    p = AnalyticParams(N=10, N_p=5, tau2=0.5, beta2=1.0, gamma2=0.1)
    with pytest.raises(ValueError):
        lambda_sweep(p, True, [], 100, 0)
    with pytest.raises(ValueError):
        lambda_sweep(p, True, [0.5], 0, 0)
    with pytest.raises(ValueError):
        lambda_sweep(p, True, [0.5, -1.0], 100, 0)
    with pytest.raises(ValueError):
        lambda_sweep(p, True, [0.5], 100, 0, aggregator="median")
    empty = AnalyticParams(N=10, N_p=0, tau2=0.5, beta2=1.0, gamma2=0.1)
    with pytest.raises(ValueError):
        lambda_sweep(empty, False, [0.5], 100, 0)


def test_lambda_sweep_paired_draws_isolate_the_aggregator_effect():
    p = AnalyticParams(N=100, N_p=95, tau2=0.5, beta2=0.25, gamma2=1.0)
    grid = [0.4]
    a = lambda_sweep(p, True, grid, trials=50_000, seed=7, aggregator="feo2")[0][1]
    b = lambda_sweep(p, True, grid, trials=50_000, seed=7, aggregator="fedavg")[0][1]
    # heavy privacy noise: the variance-optimal mix must beat plain averaging
    assert a < b
