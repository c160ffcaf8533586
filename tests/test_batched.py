"""The batched cohort step keeps clients apart.

Stacking clients must not change any client's bytes: a cohort run as one
stack, one row at a time, or in two chunks gives bitwise equal deltas and
personal models, and clipping those deltas gives bitwise equal clipped deltas
and indicator bits. This is what lets ``--workers`` split a cohort into chunks
without changing a run's outputs.
"""

import numpy as np
import pytest
import yaml

from feo2.cli import main
from feo2.config import DittoConfig, FeO2Config, PoolSpec, PopulationKind, PopulationSpec
from feo2.datagen import build_population
from feo2.models import Cohort, NumericFailure, client_update
from feo2.privacy import clip, clip_rows, row_norms
from feo2.rng import stream

SPECS = {
    "point": PopulationSpec(
        kind=PopulationKind.POINT_ESTIMATION, n_clients=7, rho_np=0.4, samples_per_client=8, d=3, seed=1
    ),
    "point_1d": PopulationSpec(
        kind=PopulationKind.POINT_ESTIMATION, n_clients=7, rho_np=0.4, samples_per_client=9, d=1, seed=2
    ),
    "regression": PopulationSpec(
        kind=PopulationKind.LINEAR_REGRESSION, n_clients=7, rho_np=0.4, samples_per_client=10, d=3, seed=3
    ),
    "label_shard": PopulationSpec(
        kind=PopulationKind.LABEL_SHARD,
        n_clients=7,
        rho_np=0.4,
        samples_per_client=10,
        seed=4,
        pool=PoolSpec(classes=4, per_class=40, feature_dim=5, spread=1.0),
    ),
}


def _step(pop, ids, theta, start, S, cfg, ditto):
    """client_update on the clients ``ids``, with their rows of one mini-batch
    order matrix drawn for every client from one stream, and its deltas clipped
    to ``S``: (clipped deltas, bits, personal models)."""
    order = None
    if cfg.batch_size is not None:
        examples = np.tile(np.arange(pop.train_x.shape[1]), (cfg.epochs, len(pop.private), 1))
        order = stream(9, "minibatch", 0).permuted(examples, axis=-1)[:, ids]
    y = None if pop.train_y is None else pop.train_y[ids]
    personal = None if start is None else start[ids].copy()
    cohort = Cohort(ids, pop.private[ids], pop.train_x[ids], y, personal)
    deltas, stepped = client_update(theta, cohort, cfg, pop.kind, ditto, order)
    return (*clip_rows(deltas, S), stepped)


@pytest.mark.parametrize("with_ditto", [False, True], ids=["plain", "ditto"])
@pytest.mark.parametrize("batch_size", [None, 3], ids=["full_batch", "mini_batch"])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_stack_rows_and_chunks_give_identical_bytes(name, batch_size, with_ditto):
    pop = build_population(SPECS[name])
    rng = stream(5, "batched-test")
    theta = rng.normal(0.0, 0.5, pop.dim)
    cfg = FeO2Config(eta=0.4, epochs=2, batch_size=batch_size)
    ditto = DittoConfig(lambda_p=0.7, lambda_np=0.2) if with_ditto else None
    start = rng.normal(0.0, 0.5, (len(pop.private), pop.dim)) if with_ditto else None
    ids = np.arange(len(pop.private))
    # a clip bound at the median raw norm clips some clients and not others
    S = float(np.median(row_norms(_step(pop, ids, theta, start, 1e9, cfg, ditto)[0])))

    whole = _step(pop, ids, theta, start, S, cfg, ditto)
    rows = [_step(pop, ids[i : i + 1], theta, start, S, cfg, ditto) for i in ids]
    chunks = [_step(pop, part, theta, start, S, cfg, ditto) for part in (ids[:3], ids[3:])]
    for k in range(2 if ditto is None else 3):
        assert np.array_equal(whole[k], np.concatenate([r[k] for r in rows]))
        assert np.array_equal(whole[k], np.concatenate([c[k] for c in chunks]))
    assert 0 < whole[1].sum() < len(ids)


def test_numeric_failure_names_the_first_bad_client_in_cohort_order():
    pop = build_population(SPECS["point"])
    x = pop.train_x.copy()
    x[[3, 5]] = np.inf
    ids = np.array([1, 3, 5])
    cohort = Cohort(ids, np.ones(3, dtype=bool), x[ids], None)
    with np.errstate(invalid="ignore"), pytest.raises(NumericFailure, match="update from client 3$"):
        client_update(np.zeros(pop.dim), cohort, FeO2Config(), pop.kind)


def test_population_datasets_are_views_of_the_stacks():
    # evaluation scores the global model on the pooled server test set and the
    # personal models on the per-client test stack: the same buffer
    pop = build_population(SPECS["label_shard"])
    x, y = pop.server_test
    assert np.shares_memory(x, pop.test_x) and np.shares_memory(y, pop.test_y)
    assert np.array_equal(x.reshape(pop.test_x.shape), pop.test_x)
    assert np.array_equal(y.reshape(pop.test_y.shape), pop.test_y)


def test_row_norms_match_linalg_norm_bitwise():
    rng = stream(11, "row-norms")
    for dim in (1, 2, 7, 16, 170):
        rows = rng.normal(0.0, 1.0, (2_000, dim)) * rng.lognormal(0.0, 2.0, (2_000, 1))
        want = np.array([np.linalg.norm(r) for r in rows])
        assert np.array_equal(row_norms(rows), want)


def test_clip_rows_matches_clip_of_each_row():
    rng = stream(12, "clip-rows")
    rows = rng.normal(0.0, 1.0, (500, 9)) * rng.lognormal(0.0, 1.5, (500, 1))
    out, bits = clip_rows(rows, 1.3)
    for row, got, b in zip(rows, out, bits):
        want, want_b = clip(row, 1.3)
        assert np.array_equal(got, want) and b == want_b


def test_personalized_failure_names_client_and_round(tmp_path, capsys):
    # A cohort of one per round: round 0 samples opted-out client 8, whose
    # lambda is 0; round 1 samples private client 6, whose tether overflows.
    raw = {
        "population": {
            "kind": "point_estimation", "n_clients": 16, "rho_np": 0.5, "samples_per_client": 5,
            "d": 1, "tau2": 0.2, "beta2": 1.0, "seed": 3,
        },
        "algorithm": "fedavg",
        "feo2": {"S0": 0.5, "eta": 0.7, "epochs": 3, "batch_size": 2},
        "ditto": {"lambda_p": 1e308, "lambda_np": 0.0, "eta_p": 1.0},
        "rounds": 6,
        "cohort_fraction": 0.0625,
        "master_seed": 8,
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    last = (tmp_path / "out" / "rounds.csv").read_text().splitlines()[-1]
    assert last == "FAILED,non-finite personalized model from client 6 in round 1"
