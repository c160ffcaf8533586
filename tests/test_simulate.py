"""The round loop: exact replication of a round by hand, determinism across
worker counts, group bookkeeping per algorithm, and the Monte Carlo harnesses
against their closed forms."""

import dataclasses
import math

import numpy as np
import pytest

import feo2.accounting
import feo2.simulate
from feo2.aggregation import feo2_combine, group_mean
from feo2.analytic import AnalyticParams, optimal_ratio, server_variance_at
from feo2.config import Algorithm, DittoConfig, ExperimentConfig, FeO2Config, PopulationKind, PopulationSpec
from feo2.datagen import build_population
from feo2.personalization import ditto_closed_form
from feo2.privacy import clip, gaussian_noise_vector
from feo2.rng import stream
from feo2.simulate import (
    RoundReport,
    lambda_sweep,
    monte_carlo_server_variance,
    run_experiment,
)
from oracles import rescored_local_metrics


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
    noise = gaussian_noise_vector(2, cfg.feo2.z * S / len(priv), stream(3, "noise", 0))
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


@pytest.mark.parametrize("rounds", [1, 4, 9])
def test_cached_local_scores_equal_full_rescoring(rounds):
    # Early on most clients are untrained and take their global score.
    res = run_experiment(_sampled_shard_ditto_cfg(rounds))
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


def test_round_orders_are_permutations_and_none_keeps_the_order(monkeypatch):
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
    batches = [xb for xb, _ in _batches(x, None, 3, None)]
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
def test_mc_server_variance_moments_match_per_trial_evaluation(d, N_p):
    p = AnalyticParams.from_sigma_c2(N=40, N_p=N_p, sigma_c2=1.0, gamma2=0.05, d=d)
    for r in (0.0, optimal_ratio(p), 1.0):
        if p.N_np + r * p.N_p == 0:
            continue  # all clients private at r = 0: no estimator
        want = _direct_server_variance(p, r, 2000, seed=5)
        assert monte_carlo_server_variance(p, r, 2000, seed=5) == pytest.approx(want, rel=1e-12)


def test_mc_server_variance_cache_keeps_sweeps_apart():
    base = AnalyticParams.from_sigma_c2(N=40, N_p=30, sigma_c2=1.0, gamma2=0.05, d=2)
    # same seed and trials; only the private group's law or the dimension differs
    for p in (base, dataclasses.replace(base, gamma2=0.5), dataclasses.replace(base, d=3), base):
        want = _direct_server_variance(p, 0.4, 1000, seed=8)
        assert monte_carlo_server_variance(p, 0.4, 1000, seed=8) == pytest.approx(want, rel=1e-12)


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


@pytest.mark.parametrize("focal_private", [True, False])
@pytest.mark.parametrize("aggregator", ["feo2", "fedavg"])
def test_lambda_sweep_moments_match_per_lambda_evaluation(focal_private, aggregator):
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
