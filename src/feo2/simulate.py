"""Round orchestration and Monte Carlo harnesses.

`run_experiment` executes the full federated loop: cohort sampling, parallel
client updates, two-group aggregation with optional noising, adaptive clip
norm, privacy accounting, and per-round evaluation. Every random draw comes
from a stream keyed on (master_seed, purpose, round, client), so reports are
byte-stable regardless of worker count.

`monte_carlo_server_variance` and `lambda_sweep` sample the estimation model
directly (noise folded to the client side, which is variance-equivalent) to
check the closed forms in `analytic` empirically.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import ClassVar, List, Sequence

import numpy as np

from .accounting import PrivacyLedger, account_round, epsilon_at_delta
from .aggregation import RoundSkipped, apply_update, dp_group_mean, feo2_combine, group_mean
from .analytic import AnalyticParams, optimal_ratio
from .config import Algorithm, ExperimentConfig
from .datagen import Population, build_population
from .models import LabeledExamples, LossKind, _softmax_probs, client_update
from .privacy import update_clip_norm
from .rng import stream


@dataclass(frozen=True)
class RoundReport:
    round: int
    S: float
    N_p_t: int
    N_np_t: int
    acc_g: float
    acc_g_p: float
    acc_g_np: float
    acc_l_p: float
    acc_l_np: float
    delta_g: float
    delta_l: float
    epsilon: float

    CSV_HEADER: ClassVar[str]  # the field names in order; set below the class

    def csv_row(self) -> str:
        vals = (getattr(self, f.name) for f in dataclasses.fields(self))
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in vals)


RoundReport.CSV_HEADER = ",".join(f.name for f in dataclasses.fields(RoundReport))


@dataclass
class ExperimentResult:
    reports: List[RoundReport]
    ledger: PrivacyLedger
    global_model: np.ndarray
    population: Population


def _accuracy(model: np.ndarray, data: LabeledExamples) -> float:
    p = _softmax_probs(model, data.features)
    return 100.0 * float(np.mean(p.argmax(axis=1) == data.labels))


def _squared_error(model: np.ndarray, truth: np.ndarray) -> float:
    return float(np.sum((model - truth) ** 2))


def _group_metric(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else float("nan")


def _evaluate(theta: np.ndarray, pop: Population) -> dict:
    """Per-round metrics. Classification: percent accuracy on test splits.
    Quadratic kinds: squared error against the hidden truths (lower is better).

    A client without a personal model is scored once: its local score is its
    global score."""
    if pop.kind is LossKind.SOFTMAX_CLASSIFICATION:
        score, targets = _accuracy, pop.client_tests
        acc_g = _accuracy(theta, pop.server_test)
    else:
        score, targets = _squared_error, pop.truth_clients
        acc_g = _squared_error(theta, pop.truth_global)
    g_p, g_np, l_p, l_np = [], [], [], []
    for c in pop.clients:
        target = targets[c.id]
        on_global = score(theta, target)
        personal = c.personalized_model
        on_local = on_global if personal is None else score(personal, target)
        (g_p if c.is_private else g_np).append(on_global)
        (l_p if c.is_private else l_np).append(on_local)
    out = {
        "acc_g": acc_g,
        "acc_g_p": _group_metric(g_p),
        "acc_g_np": _group_metric(g_np),
        "acc_l_p": _group_metric(l_p),
        "acc_l_np": _group_metric(l_np),
    }
    out["delta_g"] = out["acc_g_np"] - out["acc_g_p"]
    out["delta_l"] = out["acc_l_np"] - out["acc_l_p"]
    return out


def run_experiment(cfg: ExperimentConfig, workers: int = 1, on_round=None) -> ExperimentResult:
    pop = build_population(cfg.population)
    theta = np.zeros(pop.dim)
    S = cfg.feo2.S0
    z = cfg.feo2.z
    # One aggregation rule for all three algorithms: FedAvg is r = 1 with z = 0
    # (the config enforces z = 0), DP-FedAvg is r = 1 with every client private.
    r = cfg.feo2.r if cfg.algorithm is Algorithm.FEO2 else 1.0
    all_private = cfg.algorithm is Algorithm.DPFEDAVG
    ledger = PrivacyLedger()
    n = len(pop.clients)
    cohort_size = max(1, round(cfg.cohort_fraction * n))
    reports: List[RoundReport] = []

    for t in range(cfg.rounds):
        ids = np.sort(stream(cfg.master_seed, "cohort", t).choice(n, cohort_size, replace=False))
        cohort = [pop.clients[i] for i in ids]

        def one(client):
            rng = stream(cfg.master_seed, "client", t, client.id)
            return client_update(theta, client, S, cfg.feo2, pop.kind, cfg.ditto, rng)

        # Both paths keep cohort order, so results line up with the sorted ids.
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as ex:
                results = list(ex.map(one, cohort))
        else:
            results = [one(c) for c in cohort]

        priv, nonpriv, indicators = [], [], []
        for client, (delta, b) in zip(cohort, results):
            indicators.append(b)
            (priv if client.is_private or all_private else nonpriv).append(delta)

        delta_np = group_mean(nonpriv) if nonpriv else None
        delta_p = (
            dp_group_mean(priv, S, z, stream(cfg.master_seed, "noise", t)) if priv else None
        )
        try:
            combined = feo2_combine(delta_np, delta_p, len(nonpriv), len(priv), r)
            theta = apply_update(theta, combined)
        except RoundSkipped:
            pass  # no usable update; clip norm and accounting still advance

        S = update_clip_norm(S, indicators, cfg.feo2, stream(cfg.master_seed, "clip", t))

        if z > 0 and priv:
            ledger = account_round(ledger, cfg.cohort_fraction, z)
        epsilon = epsilon_at_delta(ledger, cfg.delta)[0] if z > 0 else float("inf")

        metrics = _evaluate(theta, pop)
        report = RoundReport(
            round=t, S=S, N_p_t=len(priv), N_np_t=len(nonpriv), epsilon=epsilon, **metrics
        )
        reports.append(report)
        if on_round is not None:
            on_round(report)
    return ExperimentResult(reports, ledger, theta, pop)


# --- Monte Carlo harnesses --------------------------------------------------


def monte_carlo_server_variance(
    p: AnalyticParams, r: float, trials: int, seed: int
) -> float:
    """Empirical MSE of the two-group estimator of the global truth at ratio r,
    summed over the ``p.d`` coordinates: d times the per-coordinate closed
    forms in `analytic` (`server_variance_at` and the rest).

    Group means are sampled from their exact Gaussian laws (truth at zero by
    location invariance): the opted-out mean has variance sigma_c2/N_np, the
    private mean sigma_c2/N_p + gamma2 per coordinate. Identical seeds reuse
    identical draws, so sweeps over r share common random numbers.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0.0 <= r <= 1.0:
        raise ValueError("r must be in [0, 1]")
    N_np, N_p, d = p.N_np, p.N_p, p.d
    W = N_np + r * N_p
    if W <= 0:
        raise ValueError("estimator undefined: zero total weight")
    rng = stream(seed, "server-variance")
    est = np.zeros((trials, d))
    if N_np > 0:
        est += (N_np / W) * rng.normal(0.0, math.sqrt(p.sigma_c2 / N_np), (trials, d))
    if N_p > 0:
        sd_p = math.sqrt(p.sigma_c2 / N_p + p.gamma2)
        est += (r * N_p / W) * rng.normal(0.0, sd_p, (trials, d))
    return float(np.mean(np.sum(est**2, axis=1)))


def lambda_sweep(
    p: AnalyticParams,
    focal_client_private: bool,
    lambda_grid: Sequence[float],
    trials: int,
    seed: int,
    aggregator: str = "feo2",
) -> List[tuple[float, float]]:
    """MC loss of the tethered personal estimator vs its own truth, per lambda.

    The population counts in ``p`` describe the focal client as private; with
    ``focal_client_private=False`` that client has opted out (totals shift by
    one, the other N-1 clients stay fixed). The focal client's own estimate
    enters the global aggregate clean (it knows its own update), weighted r or
    1 by its class; every other private client carries noise of variance
    N_p*gamma2. ``aggregator`` picks the global estimate: "feo2" uses the
    variance-optimal ratio for the scenario's counts, "fedavg" uses r=1.

    Identical seeds share draws across arms, so comparisons between
    aggregators and between privacy choices are common-random-number paired.
    """
    if len(lambda_grid) == 0:
        raise ValueError("lambda grid must be nonempty")
    if aggregator not in ("feo2", "fedavg"):
        raise ValueError("aggregator must be 'feo2' or 'fedavg'")
    if p.N_p < 1:
        raise ValueError("population must contain at least one private client")
    n_others_p = p.N_p - 1
    m_others_np = p.N_np
    if focal_client_private:
        Np_t, Nnp_t = p.N_p, p.N_np
    else:
        Np_t, Nnp_t = p.N_p - 1, p.N_np + 1
    scenario = dataclasses.replace(p, N_p=Np_t)
    r = 1.0 if aggregator == "fedavg" else optimal_ratio(scenario)
    i_j = r if focal_client_private else 1.0
    W = Nnp_t + r * Np_t
    noise_var = Np_t * p.gamma2  # per private client, giving gamma2 at the mean
    var_others = (m_others_np * p.sigma_c2 + r**2 * n_others_p * (p.sigma_c2 + noise_var)) / W**2

    rng = stream(seed, "lambda-sweep")
    d = p.d
    truth = rng.normal(0.0, math.sqrt(p.tau2), (trials, d))  # focal phi_j (phi at zero)
    own_err = rng.normal(0.0, math.sqrt(p.alpha2), (trials, d))
    others_unit = rng.normal(0.0, 1.0, (trials, d))
    phi_hat = truth + own_err
    theta_g = (i_j / W) * phi_hat + math.sqrt(var_others) * others_unit

    out = []
    for lam in lambda_grid:
        personal = (phi_hat + lam * theta_g) / (1.0 + lam)
        loss = float(np.mean(np.sum((personal - truth) ** 2, axis=1)))
        out.append((float(lam), loss))
    return out
