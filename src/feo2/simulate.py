"""Round orchestration and Monte Carlo harnesses.

`run_experiment` executes the full federated loop: cohort sampling, one batched
client step per round, then each privacy step in one place: the loop clips the
cohort's raw updates to S, aggregates the two groups at the config's ratio r
with the private mean noised, adapts S from the clip bits, and charges the
accountant. It ends the round with evaluation against a per-client score cache
(NaN until a client first trains), of which each round rescores only its
cohort. Every random draw comes from a stream keyed on (master_seed, purpose,
round): a round's mini-batch orders are drawn for the whole sorted cohort
before it is split into chunks, and clients never mix (clipping included), so
reports are byte-stable for any number of workers.

`monte_carlo_server_variance` and `lambda_sweep` sample the estimation model
directly (noise folded to the client side, which is variance-equivalent) to
check the closed forms in `analytic` empirically. Both losses are quadratic
forms over independent Gaussian draws, so both read one cached trial-mean Gram
matrix of those draws (`_gram`) and evaluate every grid point from it: calls
that share seed, trials, dimension and the draws' laws draw once. The Gram
matrix is sampled from its exact Wishart law, not computed from the draws, so
its cost and memory do not depend on the number of trials.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import ClassVar, List, Optional, Sequence

import numpy as np

from .accounting import PrivacyLedger, account_round, epsilon_at_delta
from .aggregation import RoundSkipped, apply_update, dp_group_mean, feo2_combine, group_mean
from .analytic import AnalyticParams, focal_view, optimal_ratio, total_weight
from .config import Algorithm, ExperimentConfig, PopulationKind
from .datagen import Population, build_population
from .models import Cohort, NumericFailure, _logits, client_update
from .privacy import clip_rows, update_clip_norm
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
    """A finished run. ``personal_models`` is None without Ditto; with it, row j
    is client j's personal model, or the final global model for a client that
    was never sampled (the model `_evaluate` scores for it)."""

    reports: List[RoundReport]
    ledger: PrivacyLedger
    global_model: np.ndarray
    population: Population
    personal_models: Optional[np.ndarray]


def _group_metric(values: np.ndarray) -> float:
    return float(np.mean(values)) if len(values) else float("nan")


def _evaluate(theta, pop: Population, personal, ids, local) -> dict:
    """Per-round metrics. Classification: percent accuracy on test splits.
    Quadratic kinds: squared error against the hidden truths (lower is better).

    The global model is scored once, on the pooled server test set split into
    the clients' equal segments. ``local`` (None without Ditto) caches each
    client's personal-model score, NaN until its first training: only the
    cohort rows ``ids``, whose personal models just changed, are rescored, and
    a client not yet trained takes its global score as its local score."""
    is_private, n = pop.private, len(pop.private)
    if pop.kind is PopulationKind.LABEL_SHARD:
        x, labels = pop.server_test
        hits = (_logits(theta, x).argmax(axis=1) == labels).reshape(n, -1)
        acc_g, on_global = 100.0 * float(np.mean(hits)), 100.0 * hits.mean(axis=1)
        if local is not None:
            predicted = _logits(personal[ids], pop.test_x[ids]).argmax(axis=2)
            local[ids] = 100.0 * (predicted == pop.test_y[ids]).mean(axis=1)
    else:
        acc_g = float(np.sum((theta - pop.truth_global) ** 2))
        on_global = np.sum((theta - pop.truth_clients) ** 2, axis=1)
        if local is not None:
            local[ids] = np.sum((personal[ids] - pop.truth_clients[ids]) ** 2, axis=1)
    on_local = on_global if local is None else np.where(np.isnan(local), on_global, local)
    out = {
        "acc_g": acc_g,
        "acc_g_p": _group_metric(on_global[is_private]),
        "acc_g_np": _group_metric(on_global[~is_private]),
        "acc_l_p": _group_metric(on_local[is_private]),
        "acc_l_np": _group_metric(on_local[~is_private]),
    }
    out["delta_g"] = out["acc_g_np"] - out["acc_g_p"]
    out["delta_l"] = out["acc_l_np"] - out["acc_l_p"]
    return out


@contextlib.contextmanager
def _chunk_map(workers: int):
    """A ``map`` over a round's chunks: the builtin when ``workers`` is 1, with no
    pool imported or started, else one thread pool's for the whole run."""
    if workers == 1:
        yield map
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield pool.map


def run_experiment(cfg: ExperimentConfig, workers: int = 1, on_round=None) -> ExperimentResult:
    pop = build_population(cfg.population)
    theta = np.zeros(pop.dim)
    S, z, seed = cfg.feo2.S0, cfg.feo2.z, cfg.master_seed
    # The ledger and its last best order: a round moves that order little, so
    # the next round's epsilon scan starts there.
    ledger, order = PrivacyLedger(), None
    n = len(pop.private)
    # One aggregation rule for all three algorithms: FedAvg is r = 1 with z = 0, and
    # DP-FedAvg r = 1 with every client private (the config enforces both rules).
    in_private_group = np.ones(n, dtype=bool) if cfg.algorithm is Algorithm.DPFEDAVG else pop.private
    cohort_size = max(1, round(cfg.cohort_fraction * n))
    # Ditto state: every client's personal model and its score (see `_evaluate`),
    # both valid where the score is not NaN, that is once the client has trained.
    personal = None if cfg.ditto is None else np.zeros((n, pop.dim))
    local = None if personal is None else np.full(n, np.nan)
    reports: List[RoundReport] = []
    # Mini-batch runs: each epoch's example order per cohort position, shuffled each round.
    n_ex, mini = pop.train_x.shape[1], cfg.feo2.batch_size is not None
    examples = np.tile(np.arange(n_ex), (cfg.feo2.epochs, cohort_size, 1)) if mini else None

    def train(ids, batch_order, theta):
        """The batched client step for the sorted cohort rows ``ids``, with their
        mini-batch example orders ``batch_order`` (None for full batches): their
        raw deltas. A Ditto client starts from its personal model once it has
        trained, from the broadcast ``theta`` before."""
        # Consecutive ids (all clients under full participation) are sliced, not copied.
        rows = slice(ids[0], ids[-1] + 1) if ids[-1] - ids[0] + 1 == len(ids) else ids
        personal_start = None if personal is None else np.where(np.isnan(local[rows, None]), theta, personal[rows])
        y = None if pop.train_y is None else pop.train_y[rows]
        cohort = Cohort(ids, pop.private[rows], pop.train_x[rows], y, personal_start)
        deltas, stepped = client_update(theta, cohort, cfg.feo2, pop.kind, cfg.ditto, batch_order)
        if personal is not None:
            personal[rows] = stepped
        return deltas

    # Threads take contiguous chunks of the sorted cohort.
    with _chunk_map(workers) as run_chunks:
        for t in range(cfg.rounds):
            ids = np.sort(stream(seed, "cohort", t).choice(n, cohort_size, replace=False))
            batch_order = stream(seed, "minibatch", t).permuted(examples, axis=-1) if mini else None
            parts = [p for p in np.array_split(np.arange(len(ids)), workers) if p.size]
            chunks = [(ids[p], None if batch_order is None else batch_order[:, p]) for p in parts]
            try:  # a NumericFailure from a client's training or the clip norm names the round
                raw = np.concatenate(list(run_chunks(lambda c: train(*c, theta), chunks)))
                # Every update, in either group, is clipped to S and releases its clip bit.
                deltas, indicators = clip_rows(raw, S)
                grouped = in_private_group[ids]
                priv, nonpriv = deltas[grouped], deltas[~grouped]
                N_p, N_np = len(priv), len(nonpriv)
                delta_np = group_mean(nonpriv) if N_np else None
                delta_p = dp_group_mean(priv, S, z, stream(seed, "noise", t)) if N_p else None
                del raw, deltas, priv, nonpriv  # not held while the next round trains
                try:
                    combined = feo2_combine(delta_np, delta_p, N_np, N_p, cfg.feo2.r)
                    theta = apply_update(theta, combined)
                except RoundSkipped:
                    pass  # no usable update; clip norm and accounting still advance

                S = update_clip_norm(S, indicators, cfg.feo2, stream(seed, "clip", t))
            except NumericFailure as exc:
                raise NumericFailure(f"{exc} in round {t}") from None

            if z > 0 and N_p:
                ledger = account_round(ledger, cfg.cohort_fraction, z)
            epsilon, order = epsilon_at_delta(ledger, cfg.delta, order) if z > 0 else (math.inf, None)

            metrics = _evaluate(theta, pop, personal, ids, local)
            report = RoundReport(round=t, S=S, N_p_t=N_p, N_np_t=N_np, epsilon=epsilon, **metrics)
            reports.append(report)
            if on_round is not None:
                on_round(report)
    personal_models = None if personal is None else np.where(np.isnan(local)[:, None], theta, personal)
    return ExperimentResult(reports, ledger, theta, pop, personal_models)


# --- Monte Carlo harnesses --------------------------------------------------


@lru_cache(maxsize=32)
def _gram(seed: int, purpose: str, trials: int, d: int, sds: tuple) -> tuple[tuple[float, ...], ...]:
    """Trial-mean Gram matrix <x_i, x_j> of independent N(0, sd_i^2) (trials, d)
    draws x_i, sampled from its exact law instead of computed from the draws.
    An sd of None is an absent group: it is not drawn, and its row and column
    are zero.

    With n = trials*d, the k present groups' matrix is sd_i*sd_j*W_ij/trials
    for W ~ Wishart(I_k, n), sampled by the Bartlett decomposition W = L L^T
    (Odell & Feiveson, JASA 1966): taken in order from the ``purpose`` stream,
    row i of the lower-triangular L gets sqrt(chisquare(n - i)) on its diagonal
    when i < n, then min(i, n) standard normals below it. Rows from n on have
    no diagonal, which is the rank-deficient law when trials*d < k. So a call
    makes k chi-square and at most k(k-1)/2 normal draws, and its cost and
    memory do not depend on ``trials``. Only the floats are kept; every call
    that shares the key reads one draw."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng, n = stream(seed, purpose), trials * d
    present = [i for i, sd in enumerate(sds) if sd is not None]
    rows = []  # L's rows, each cut after its last nonzero entry
    for i in range(len(present)):
        diagonal = [math.sqrt(rng.chisquare(n - i))] if i < n else []
        rows.append(rng.standard_normal(min(i, n)).tolist() + diagonal)
    gram = [[0.0] * len(sds) for _ in sds]
    for (a, i), (b, j) in combinations_with_replacement(enumerate(present), 2):
        w = sum(x * y for x, y in zip(rows[a], rows[b]))
        gram[i][j] = gram[j][i] = sds[i] * sds[j] * w / trials
    return tuple(map(tuple, gram))


def monte_carlo_server_variance(
    p: AnalyticParams, r: float, trials: int, seed: int
) -> float:
    """Empirical MSE of the two-group estimator of the global truth at ratio r,
    summed over the ``p.d`` coordinates: d times the per-coordinate closed
    forms in `analytic` (`server_variance_at` and the rest).

    Group means are sampled from their exact Gaussian laws (truth at zero by
    location invariance): the opted-out mean X has variance sigma_c2/N_np, the
    private mean Y sigma_c2/N_p + gamma2 per coordinate. The estimate is
    a*X + b*Y with a = N_np/W and b = r*N_p/W, so its mean squared norm is
    a^2<X,X> + 2ab<X,Y> + b^2<Y,Y> from the `_gram` of (X, Y), sampled from
    its law on the ``server-variance`` stream. The Gram does not depend on r, so
    a sweep over r draws once and its points share common random numbers.
    """
    N_np, N_p, W = p.N_np, p.N_p, total_weight(p, r)
    sd_np = math.sqrt(p.sigma_c2 / N_np) if N_np > 0 else None
    sd_p = math.sqrt(p.sigma_c2 / N_p + p.gamma2) if N_p > 0 else None
    (xx, xy), (_, yy) = _gram(seed, "server-variance", trials, p.d, (sd_np, sd_p))
    a, b = N_np / W, r * N_p / W
    return a * a * xx + 2.0 * a * b * xy + b * b * yy


def focal_scenario(p: AnalyticParams, focal_private: bool, aggregator: str) -> tuple[AnalyticParams, float]:
    """(scenario, r) for a focal client: ``p`` describes that client as private,
    and an opted-out one leaves the other N-1 clients fixed, so its scenario
    has one private client fewer. "feo2" weights the private group by the
    scenario's variance-optimal ratio, "fedavg" by r = 1."""
    if aggregator not in ("feo2", "fedavg"):
        raise ValueError("aggregator must be 'feo2' or 'fedavg'")
    if p.N_p < 1:
        raise ValueError("population must contain at least one private client")
    scenario = p if focal_private else dataclasses.replace(p, N_p=p.N_p - 1)
    return scenario, 1.0 if aggregator == "fedavg" else optimal_ratio(scenario)


def lambda_sweep(
    p: AnalyticParams,
    focal_client_private: bool,
    lambda_grid: Sequence[float],
    trials: int,
    seed: int,
    aggregator: str = "feo2",
) -> List[tuple[float, float]]:
    """MC loss of the tethered personal estimator vs its own truth, per lambda.

    The scenario and r come from `focal_scenario`, the focal client's weight a
    and its peers' variance v in the global estimate from `analytic.focal_view`
    (its own estimate enters clean: it knows its own update).

    The draws are the focal truth T ~ N(0, tau2) (phi at zero), its own error
    E ~ N(0, alpha2) and its peers' unit noise U ~ N(0, 1). The personal
    estimate's error is (e + lam*g)/(1 + lam), with e = E and the global
    estimate's error g = (a - 1)T + aE + sqrt(v)U, so the loss at every lambda
    is (A + 2*lam*B + lam^2*C)/(1 + lam)^2 with A = <e,e>, B = <e,g>,
    C = <g,g>: quadratic forms over the `_gram` of (T, E, U), sampled from its
    law on the ``lambda-sweep`` stream. That Gram depends only on
    (seed, trials, d, tau2, alpha2), so arms that share those (both focal
    classes, both aggregators) draw once and are common-random-number paired.
    """
    if len(lambda_grid) == 0:
        raise ValueError("lambda grid must be nonempty")
    if min(lambda_grid) < 0:
        raise ValueError("lambda must be >= 0")
    scenario, r = focal_scenario(p, focal_client_private, aggregator)
    a, v = focal_view(scenario, focal_client_private, r)
    gram = np.array(_gram(seed, "lambda-sweep", trials, p.d, (math.sqrt(p.tau2), math.sqrt(p.alpha2), 1.0)))
    e, g = np.array([0.0, 1.0, 0.0]), np.array([a - 1.0, a, math.sqrt(v)])
    A, B, C = (float(x @ gram @ y) for x, y in ((e, e), (e, g), (g, g)))
    return [(lam, (A + 2.0 * lam * B + lam * lam * C) / (1.0 + lam) ** 2) for lam in map(float, lambda_grid)]
