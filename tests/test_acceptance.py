"""Release gate: twelve end-to-end checks, one test per criterion.

Each test prints exactly one ``[criterion NN] PASS/FAIL`` line (visible with
``pytest -s`` and in failure output) and pins its tolerances inline next to
the quantity they bound. Tests build everything they verify from scratch —
no fixtures shared with the unit suite — so a red line here localizes a
behavioral regression, not a test-plumbing one.
"""

import math
import time

import numpy as np

import oracles
from feo2.accounting import (
    DEFAULT_ORDERS,
    PrivacyLedger,
    account_round,
    epsilon_at_delta,
    rdp_increment,
    solve_z,
)
from feo2.aggregation import RoundSkipped, feo2_combine
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
)
from feo2.cli import main as cli_main
from feo2.config import (
    Algorithm,
    DittoConfig,
    ExperimentConfig,
    FeO2Config,
    PoolSpec,
    PopulationKind,
    PopulationSpec,
)
from feo2.datagen import build_population
from feo2.privacy import clip
from feo2.rng import stream
from feo2.simulate import lambda_sweep, monte_carlo_server_variance, run_experiment


def _gate(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


# Shared parameter sets. The ratio study uses unit client variance with a
# small per-client privacy variance; the tether study uses the same counts
# with tau2 = 0.5, alpha2 = 0.25 (n_s = 1) and unit privacy variance so the
# optimal-lambda landscape has a clearly separated interior minimum.
RATIO_PARAMS = AnalyticParams.from_sigma_c2(sigma_c2=1.0, N=100, N_p=95, gamma2=0.01)
TETHER_PARAMS = AnalyticParams(N=100, N_p=95, tau2=0.5, beta2=0.25, gamma2=1.0, n_s=1)
LAMBDA_GRID = tuple(round(0.05 * k, 10) for k in range(41))  # 0.00 .. 2.00
LAMBDA_STEP = 0.05


def test_criterion_01_monte_carlo_recovers_optimal_ratio():
    t0 = time.monotonic()
    p = RATIO_PARAMS
    rstar = optimal_ratio(p)
    opt = server_variance_opt(p)
    grid = sorted({round(0.05 * k, 10) for k in range(21)} | {rstar})
    # identical seed => identical draws at every r, so the curve is CRN-paired
    # and its empirical argmin is stable despite the flat basin around r*
    mc = {r: monte_carlo_server_variance(p, r, trials=200_000, seed=0) for r in grid}
    argmin = min(mc, key=mc.get)
    rel = abs(mc[rstar] - opt) / opt
    elapsed = time.monotonic() - t0
    ok = (
        abs(rstar - 0.512821) <= 5e-7          # matches the quoted 6-dp value
        and abs(opt - 0.0186158) <= 5e-8       # matches the quoted variance
        and argmin == rstar                    # grid {0,0.05,..,1} + {r*}
        and rel <= 0.03                        # MC within 3% relative at r*
        and elapsed < 30.0
    )
    _gate(1, ok, f"argmin={argmin:.6f} (r*={rstar:.6f}), MC rel err {rel:.3%} <= 3%, {elapsed:.1f}s < 30s")


def test_criterion_02_gap_identities_hold_and_are_nonnegative():
    rng = np.random.default_rng(42)
    worst_f = worst_d = 0.0
    min_gap = math.inf
    for _ in range(10_000):
        N = int(rng.integers(2, 301))
        p = AnalyticParams(
            N=N,
            N_p=int(rng.integers(1, N + 1)),
            tau2=float(rng.uniform(0.01, 4.0)),
            beta2=float(rng.uniform(0.01, 4.0)),
            gamma2=float(rng.uniform(0.0, 2.0)),
            n_s=int(rng.integers(1, 20)),
        )
        gf, gd = gap_fedavg(p), gap_dpfedavg(p)
        worst_f = max(worst_f, abs(gf - (server_variance_fedavg(p) - server_variance_opt(p))))
        worst_d = max(worst_d, abs(gd - (server_variance_dpfedavg(p) - server_variance_opt(p))))
        min_gap = min(min_gap, gf, gd)
    ok = worst_f <= 1e-12 and worst_d <= 1e-12 and min_gap >= 0.0
    _gate(2, ok, f"identity devs {worst_f:.2e}/{worst_d:.2e} <= 1e-12 over 10^4 draws, min gap {min_gap:.2e} >= 0")


def _local_solution(x, y):
    """Least-squares solution of a quadratic local objective on one client's
    inputs ``x`` (n_s, d) and responses ``y`` (None for point estimation)."""
    if y is None:
        return x.mean(axis=0)
    # designs satisfy F^T F = n_s I, so LS reduces to F^T x / n_s
    return x.T @ y / len(y)


def test_criterion_03_one_round_matches_closed_forms():
    worst_global = worst_personal = 0.0
    for i in range(100):
        prand = np.random.default_rng(1000 + i)
        kind = (
            PopulationKind.POINT_ESTIMATION if i % 2 == 0 else PopulationKind.LINEAR_REGRESSION
        )
        d = int(prand.integers(1, 4))
        cfg = ExperimentConfig(
            population=PopulationSpec(
                kind=kind,
                n_clients=int(prand.integers(2, 9)),
                rho_np=float(prand.uniform(0.0, 1.0)),
                samples_per_client=int(prand.integers(d, d + 5)),
                tau2=float(prand.uniform(0.0, 2.0)),
                beta2=float(prand.uniform(0.1, 2.0)),
                d=d,
                seed=i,
            ),
            algorithm=Algorithm.FEO2,
            feo2=FeO2Config(
                r=float(prand.uniform(0.0, 1.0)),
                z=float(prand.choice([0.0, prand.uniform(0.1, 1.5)])),
                S0=float(prand.uniform(0.05, 3.0)),  # small values exercise clipping
                eta=1.0,
                epochs=1,
            ),
            ditto=DittoConfig(
                lambda_p=float(prand.uniform(0.0, 3.0)),
                lambda_np=float(prand.uniform(0.0, 3.0)),
            ),
            rounds=1,
            master_seed=10_000 + i,
        )
        res = run_experiment(cfg)

        pop = build_population(cfg.population)
        theta0 = np.zeros(pop.dim)
        ys = [None] * len(pop.private) if pop.train_y is None else pop.train_y
        solutions = [_local_solution(x, y) for x, y in zip(pop.train_x, ys)]
        priv, nonpriv = [], []
        for solution, private in zip(solutions, pop.private):
            delta, _ = clip(solution - theta0, cfg.feo2.S0)
            (priv if private else nonpriv).append(delta)
        mean_np = np.mean(nonpriv, axis=0) if nonpriv else None
        mean_p = None
        if priv:
            noise = stream(cfg.master_seed, "noise", 0).normal(
                0.0, cfg.feo2.z * cfg.feo2.S0 / len(priv), pop.dim
            ) if cfg.feo2.z > 0 else np.zeros(pop.dim)
            mean_p = np.mean(priv, axis=0) + noise
        try:
            expected = theta0 + feo2_combine(mean_np, mean_p, len(nonpriv), len(priv), cfg.feo2.r)
        except RoundSkipped:
            expected = theta0
        worst_global = max(worst_global, float(np.max(np.abs(res.global_model - expected))))

        for personal, solution, private in zip(res.personal_models, solutions, pop.private):
            lam = cfg.ditto.lambda_p if private else cfg.ditto.lambda_np
            want = oracles.ditto_closed_form(solution, theta0, lam)
            worst_personal = max(worst_personal, float(np.max(np.abs(personal - want))))
    ok = worst_global <= 1e-12 and worst_personal <= 1e-12
    _gate(3, ok, f"100 instances: global dev {worst_global:.2e}, personal dev {worst_personal:.2e}, both <= 1e-12")


def test_criterion_04_lambda_sweep_minima_and_general_collapse():
    lam_p = lambda_star_p(TETHER_PARAMS)
    lam_np = lambda_star_np(TETHER_PARAMS)
    am_p = min(lambda_sweep(TETHER_PARAMS, True, LAMBDA_GRID, 200_000, seed=0), key=lambda t: t[1])[0]
    am_np = min(lambda_sweep(TETHER_PARAMS, False, LAMBDA_GRID, 200_000, seed=0), key=lambda t: t[1])[0]
    on_grid = (
        abs(am_p - lam_p) <= LAMBDA_STEP + 1e-9 and abs(am_np - lam_np) <= LAMBDA_STEP + 1e-9
    )

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        N = int(rng.integers(3, 200))
        p = AnalyticParams(
            N=N,
            N_p=int(rng.integers(1, N)),  # leaves at least one opted-out client
            tau2=float(rng.uniform(0.05, 3.0)),
            beta2=float(rng.uniform(0.05, 3.0)),
            gamma2=float(rng.uniform(0.0, 1.5)),
            n_s=int(rng.integers(1, 10)),
        )
        rstar = optimal_ratio(p)
        for is_priv, closed in ((True, lambda_star_p(p)), (False, lambda_star_np(p))):
            general = lambda_star_general(p, is_priv, rstar)
            worst = max(worst, abs(general - closed) / max(1.0, abs(closed)))
    ok = on_grid and worst <= 1e-9
    _gate(4, ok, f"argmins {am_p:.2f}/{am_np:.2f} vs lambda* {lam_p:.4f}/{lam_np:.4f} within one 0.05 step; collapse dev {worst:.2e} <= 1e-9")


def test_criterion_05_tethered_loss_orderings_and_improvement():
    min_loss = {}
    for agg in ("feo2", "fedavg"):
        for focal_private in (True, False):
            pts = lambda_sweep(
                TETHER_PARAMS, focal_private, LAMBDA_GRID, 200_000, seed=0, aggregator=agg
            )
            min_loss[agg, focal_private] = min(loss for _, loss in pts)
    impr_p = (min_loss["fedavg", True] - min_loss["feo2", True]) / min_loss["fedavg", True]
    impr_np = (min_loss["fedavg", False] - min_loss["feo2", False]) / min_loss["fedavg", False]
    ok = (
        min_loss["feo2", True] < min_loss["fedavg", True]
        and min_loss["feo2", False] < min_loss["fedavg", False]
        and min_loss["feo2", False] < min_loss["feo2", True]
        and min_loss["fedavg", False] < min_loss["fedavg", True]
        and 0.05 <= impr_p <= 0.40
        and 0.05 <= impr_np <= 0.40
    )
    _gate(5, ok, f"ratio-weighted < equal-weight for both classes; opted-out < private under both; improvements {impr_p:.2%}/{impr_np:.2%} in [5%, 40%]")


def test_criterion_06_optimal_dominates_fedavg_across_rho():
    worst_end = 0.0
    min_interior_margin = math.inf
    dominated = True
    for k in range(101):  # rho_np = k/100 over {0, 0.01, ..., 1}
        p = AnalyticParams.from_sigma_c2(sigma_c2=1.0, N=100, N_p=100 - k, gamma2=0.01)
        o, f = server_variance_opt(p), server_variance_fedavg(p)
        dominated = dominated and o <= f
        if k in (0, 100):
            worst_end = max(worst_end, abs(f - o))
        else:
            min_interior_margin = min(min_interior_margin, f - o)
    ok = dominated and worst_end <= 1e-15 and min_interior_margin > 0.0
    _gate(6, ok, f"opt <= fedavg on all 101 grid points; endpoint |diff| {worst_end:.1e} <= 1e-15; interior strict (min margin {min_interior_margin:.2e})")


def test_criterion_07_regression_error_trace_d5():
    # with F^T F = n_s I the per-client LS error is exactly N(0, (beta2/n_s) I),
    # so the d=5 sampler draws from the true error law of the combined estimate
    p = AnalyticParams(N=100, N_p=95, tau2=0.5, beta2=1.0, gamma2=0.01, n_s=4, d=5)
    want = p.d * server_variance_opt(p)
    mc = monte_carlo_server_variance(p, optimal_ratio(p), trials=50_000, seed=0)
    rel = abs(mc - want) / want
    ok = p.d == 5 and rel <= 0.05
    _gate(7, ok, f"trace MC {mc:.6f} vs closed form {want:.6f}, rel err {rel:.3%} <= 5%")


def test_criterion_08_accountant_contract():
    # additivity: composing rounds equals the same-order sum of increments, exactly
    rng = np.random.default_rng(5)
    rounds = [
        (float(rng.uniform(0.01, 1.0)), float(rng.uniform(0.4, 4.0))) for _ in range(7)
    ]
    ledger = PrivacyLedger()
    manual = tuple(0.0 for _ in DEFAULT_ORDERS)
    additive = True
    for q, z in rounds:
        ledger = account_round(ledger, q, z)
        inc = rdp_increment(q, z, DEFAULT_ORDERS)
        manual = tuple(c + i for c, i in zip(manual, inc))
        additive = additive and tuple(ledger.rdp(a) for a in DEFAULT_ORDERS) == manual

    # epsilon monotone: decreasing in z at fixed T, increasing in T at fixed z
    zs, Ts = (0.6, 1.0, 2.0, 4.0, 8.0), (1, 5, 20, 60, 120)
    eps = {}
    for z in zs:
        led, seen = PrivacyLedger(), {}
        for t in range(1, Ts[-1] + 1):
            led = account_round(led, 0.05, z)
            if t in Ts:
                seen[t] = epsilon_at_delta(led, 1e-5)[0]
        eps[z] = seen
    mono_T = all(eps[z][a] < eps[z][b] for z in zs for a, b in zip(Ts, Ts[1:]))
    mono_z = all(eps[b][t] < eps[a][t] for t in Ts for a, b in zip(zs, zs[1:]))

    # q = 1 closed form at integer orders
    full = dict(zip(DEFAULT_ORDERS, rdp_increment(1.0, 1.7, DEFAULT_ORDERS)))
    q1_dev = max(
        abs(full[a] - a / (2 * 1.7**2)) / (a / (2 * 1.7**2)) for a in (2.0, 16.0, 64.0, 256.0)
    )

    # subsampled curve vs independent oracles
    oracle_dev = 0.0
    for q in (0.02, 0.37):
        for z in (0.8, 2.0):
            inc = dict(zip(DEFAULT_ORDERS, rdp_increment(q, z, DEFAULT_ORDERS)))
            for a in (1.5, 7.25, 64.0):
                oracle_dev = max(
                    oracle_dev, abs(inc[a] - oracles.rdp_subsampled_gaussian_quadrature(q, z, a))
                )
            for a in (2, 16, 256):
                oracle_dev = max(
                    oracle_dev,
                    abs(inc[float(a)] - oracles.rdp_subsampled_gaussian_binomial(q, z, a)),
                )

    # solve-z round trip
    rt_dev = 0.0
    for target in (0.5, 2.0, 8.0):
        z = solve_z(target, 1e-5, 0.02, 100)
        led = PrivacyLedger()
        for _ in range(100):
            led = account_round(led, 0.02, z)
        rt_dev = max(rt_dev, abs(epsilon_at_delta(led, 1e-5)[0] - target))

    ok = (
        additive
        and mono_T
        and mono_z
        and q1_dev <= 1e-12
        and oracle_dev <= 1e-9
        and rt_dev <= 1e-3
    )
    _gate(8, ok, f"additivity exact; eps monotone on 5x5 grid; q=1 dev {q1_dev:.1e} <= 1e-12; oracle dev {oracle_dev:.1e} <= 1e-9; solve-z dev {rt_dev:.1e} <= 1e-3")


def _skewed_cfg(algorithm: Algorithm, r: float, z: float, seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        population=PopulationSpec(
            kind=PopulationKind.LABEL_SHARD,
            n_clients=200,
            rho_np=0.05,
            samples_per_client=20,
            skew_label=7,
            seed=seed,
            # spread 1.0 keeps the classes learnable but leaves server noise
            # with real bite (the default 3.0 saturates every arm at 100%)
            pool=PoolSpec(spread=1.0),
        ),
        algorithm=algorithm,
        feo2=FeO2Config(r=r, z=z, z_b=1.0, S0=1.0, eta=0.5, epochs=1),
        rounds=50,
        master_seed=seed,
    )


def test_criterion_09_skewed_label_shard_benchmark():
    t0 = time.monotonic()
    z, seeds = 48.0, (0, 1, 2)

    def final_metrics(algorithm, r):
        accs, dgs = [], []
        for seed in seeds:
            last = run_experiment(_skewed_cfg(algorithm, r, z, seed)).reports[-1]
            accs.append(last.acc_g)
            dgs.append(last.delta_g)
        return float(np.mean(accs)), float(np.mean(dgs))

    base_acc, _ = final_metrics(Algorithm.DPFEDAVG, 1.0)
    arms = {r: final_metrics(Algorithm.FEO2, r) for r in (0.01, 0.1, 1.0)}
    best_r = max(arms, key=lambda r: arms[r][0])
    best_acc, best_dg = arms[best_r]
    elapsed = time.monotonic() - t0
    ok = best_acc >= base_acc + 1.0 and best_dg > 0.0 and elapsed < 600.0
    _gate(9, ok, f"best r={best_r}: acc {best_acc:.2f} >= {base_acc:.2f}+1 (margin {best_acc - base_acc:+.2f}); delta_g {best_dg:.2f} > 0; {elapsed:.0f}s < 600s")


def test_criterion_10_rerun_is_byte_identical_across_workers(tmp_path):
    cfg_text = """\
population:
  kind: point_estimation
  n_clients: 12
  rho_np: 0.25
  samples_per_client: 6
  tau2: 0.4
  beta2: 1.0
  d: 3
  seed: 9
algorithm: feo2
feo2:
  r: 0.5
  z: 0.7
  z_b: 1.0
  S0: 2.0
ditto:
  lambda_p: 0.6
  lambda_np: 0.3
rounds: 5
cohort_fraction: 0.75
master_seed: 123
"""
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(cfg_text)
    outs = []
    for workers, name in ((1, "serial"), (3, "threaded")):
        out_dir = tmp_path / name
        rc = cli_main(
            ["run", "--config", str(cfg_path), "--out", str(out_dir), "--workers", str(workers)]
        )
        assert rc == 0
        outs.append((out_dir / "rounds.csv").read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    _gate(10, ok, f"rounds.csv identical across --workers 1 vs 3 ({len(outs[0])} bytes)")


def test_criterion_11_simulator_recovers_optimal_ratio():
    # One round of the shipped simulator is the paper's server-side estimator:
    # with eta = 1 and one epoch each delta is the client's sample mean, S0 is far
    # above every update norm so nothing clips, and z*S0/N_p = sqrt(gamma2) puts
    # variance gamma2 on the private mean. So acc_g / d estimates server_variance_at
    # for sigma_c2 = tau2 + beta2/n_s; seeds 0-499 pair the three ratios.
    t0 = time.monotonic()
    n_clients, n_s, tau2, beta2, gamma2, d, S0 = 100, 10, 0.5, 1.0, 0.05, 10, 1e3
    p = AnalyticParams.from_sigma_c2(N=n_clients, N_p=95, sigma_c2=tau2 + beta2 / n_s, gamma2=gamma2, d=d)
    z = math.sqrt(gamma2) * p.N_p / S0
    rstar, seeds = optimal_ratio(p), range(500)
    mse = {}
    for r in (1e-9, rstar, 1.0):
        mse[r] = np.array([
            run_experiment(ExperimentConfig(
                population=PopulationSpec(
                    kind=PopulationKind.POINT_ESTIMATION, n_clients=n_clients, rho_np=0.05,
                    samples_per_client=n_s, tau2=tau2, beta2=beta2, d=d, seed=seed,
                ),
                algorithm=Algorithm.FEO2,
                feo2=FeO2Config(r=r, z=z, S0=S0, eta=1.0, epochs=1),
                rounds=1,
                master_seed=seed,
            )).reports[0].acc_g / d
            for seed in seeds
        ])

    def se(x):
        return float(np.std(x, ddof=1)) / math.sqrt(len(x))

    z_scores = {r: abs(x.mean() - server_variance_at(p, r)) / se(x) for r, x in mse.items()}
    # r* against each end, on the paired per-seed differences
    margins = {r: (x - mse[rstar]).mean() / se(x - mse[rstar]) for r, x in mse.items() if r != rstar}
    elapsed = time.monotonic() - t0
    ok = (
        max(z_scores.values()) <= 4.0          # each point within 4 SE of its closed form
        and min(margins.values()) > 4.0        # r* beats r -> 0 and r = 1 by over 4 SE
        and elapsed < 60.0
    )
    points = ", ".join(
        f"r={r:.3g}: {x.mean():.4f} +- {se(x):.4f} vs {server_variance_at(p, r):.4f}" for r, x in mse.items()
    )
    _gate(11, ok, f"{points}; r* margins {min(margins.values()):.1f} SE > 4; {elapsed:.1f}s < 60s")


def test_criterion_12_simulator_recovers_optimal_tether():
    # Two rounds of the shipped simulator with Ditto are the paper's client-side
    # estimator: round 0 broadcasts the criterion-11 global estimate g (eta = 1,
    # one epoch, nothing clips, variance gamma2 on the private mean), and in round
    # 1 each personal model, stepped once at the default eta_p = 1/(1+lam) from
    # where round 0 left it, lands on (e + lam*g)/(1 + lam) for its clean local
    # mean e. So round 1's acc_l_p / d estimates the tethered loss of a private
    # client at r*; seeds 0-299 pair the three tethers.
    t0 = time.monotonic()
    n_clients, n_s, tau2, beta2, gamma2, d, S0 = 100, 10, 0.5, 2.5, 0.05, 10, 1e3
    p = AnalyticParams(N=n_clients, N_p=95, tau2=tau2, beta2=beta2, gamma2=gamma2, n_s=n_s, d=d)
    z = math.sqrt(gamma2) * p.N_p / S0
    rstar, lstar, seeds = optimal_ratio(p), lambda_star_p(p), range(300)
    a, v = focal_view(p, True, rstar)
    A, B = p.alpha2, a * p.alpha2
    C = (1.0 - a) ** 2 * p.tau2 + a * a * A + v

    def loss(lam):
        return (A + 2.0 * lam * B + lam * lam * C) / (1.0 + lam) ** 2

    mse = {}
    for lam in (0.1, lstar, 3.0):
        mse[lam] = np.array([
            run_experiment(ExperimentConfig(
                population=PopulationSpec(
                    kind=PopulationKind.POINT_ESTIMATION, n_clients=n_clients, rho_np=0.05,
                    samples_per_client=n_s, tau2=tau2, beta2=beta2, d=d, seed=seed,
                ),
                algorithm=Algorithm.FEO2,
                feo2=FeO2Config(r=rstar, z=z, S0=S0, eta=1.0, epochs=1),
                ditto=DittoConfig(lambda_p=lam, lambda_np=lam),
                rounds=2,
                master_seed=seed,
            )).reports[1].acc_l_p / d
            for seed in seeds
        ])

    def se(x):
        return float(np.std(x, ddof=1)) / math.sqrt(len(x))

    z_scores = {lam: abs(x.mean() - loss(lam)) / se(x) for lam, x in mse.items()}
    # lambda* against each end, on the paired per-seed differences
    margins = {lam: (x - mse[lstar]).mean() / se(x - mse[lstar]) for lam, x in mse.items() if lam != lstar}
    elapsed = time.monotonic() - t0
    ok = (
        max(z_scores.values()) <= 4.0          # each point within 4 SE of its closed form
        and min(margins.values()) > 4.0        # lambda* beats 0.1 and 3 by over 4 SE
        and elapsed < 60.0
    )
    points = ", ".join(f"lam={lam:.3g}: {x.mean():.5f} +- {se(x):.5f} vs {loss(lam):.5f}" for lam, x in mse.items())
    _gate(12, ok, f"{points}; lambda* margins {min(margins.values()):.1f} SE > 4; {elapsed:.1f}s < 60s")
