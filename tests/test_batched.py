"""The batched cohort step keeps clients apart.

Stacking clients must not change any client's bytes: a cohort run as one
stack, one row at a time, or in two parts gives bitwise equal deltas and
personal models, and clipping those deltas gives bitwise equal clipped deltas
and indicator bits. So a client's outputs do not depend on which clients the
round samples beside it.
"""

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import feo2.models
from feo2.cli import main
from feo2.config import DittoConfig, FeO2Config, PoolSpec, PopulationKind, PopulationSpec
from feo2.datagen import build_population
from feo2.models import Cohort, NumericFailure, _logits, _softmax_probs, client_update, local_gradient
from feo2.privacy import clip, clip_rows, row_norms
from feo2.rng import stream
from feo2.simulate import _hits
from oracles import (
    client_update_two_passes,
    clip_rows_every_row,
    clip_rows_gathering,
    label_shard_gradient_reduced,
    label_shard_gradient_three_index,
    softmax_by_reduction,
)

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


def test_ditto_numeric_failure_names_the_first_bad_client_and_its_model():
    # the global and personal stacks share one gradient pass, but no row reads another's
    pop = build_population(SPECS["point"])
    ids, ditto = np.array([1, 3, 5]), DittoConfig(lambda_p=0.5, lambda_np=0.5)
    x, start = pop.train_x[ids].copy(), np.zeros((3, pop.dim))
    start[1] = np.inf  # client 3's personal model
    for first, want in ((None, "personalized model from client 3"), (1e200, "update norm from client 1")):
        if first is not None:
            x[0] = first  # client 1's delta stays finite, its norm overflows
        cohort = Cohort(ids, np.ones(3, dtype=bool), x, None, start)
        with np.errstate(invalid="ignore"), pytest.raises(NumericFailure, match=f"{want}$"):
            client_update(np.zeros(pop.dim), cohort, FeO2Config(), pop.kind, ditto)


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


def _assert_clips_like_every_row_rescaling(rows, S):
    """clip_rows, into a fresh array and in place, against both plain
    formulations, bit for bit; returns the number of rescale passes."""
    out, bits = clip_rows(rows, S)
    want, want_bits, passes = clip_rows_every_row(rows, S)
    assert out.tobytes() == want.tobytes() and np.array_equal(bits, want_bits)
    gathered, gathered_bits = clip_rows_gathering(rows, S)
    assert out.tobytes() == gathered.tobytes() and np.array_equal(bits, gathered_bits)
    inplace = rows.copy()
    got, got_bits = clip_rows(inplace, S, out=inplace)
    assert got is inplace and got.tobytes() == out.tobytes() and np.array_equal(got_bits, bits)
    return passes


@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 64),
    d=st.sampled_from((1, 2, 5, 17, 170)),
    log_S=st.floats(-3.0, 3.0),
    at_S=st.integers(0, 3),
)
def test_clip_rows_equals_rescaling_every_row_bitwise(seed, k, d, log_S, at_S):
    # About half the rows start above S; a quarter land a few ulps above S after
    # one rescale. The first at_S rows have norm exactly S: sqrt(S * S) == S.
    rng = np.random.default_rng(seed)
    S = float(np.exp(log_S))
    rows = rng.normal(0.0, 1.0, (k, d)) * (S * rng.lognormal(0.0, 1.0, (k, 1)) / np.sqrt(d))
    rows[:at_S] = 0.0
    rows[:at_S, 0] = S * rng.choice((-1.0, 1.0), rows[:at_S].shape[0])
    assert (row_norms(rows[:at_S]) == S).all()
    _assert_clips_like_every_row_rescaling(rows, S)


def test_clip_rows_equals_rescaling_every_row_when_rows_need_three_passes():
    rng = stream(13, "clip-passes")
    rows = rng.normal(0.0, 1.0, (2_000, 170)) * rng.lognormal(0.0, 2.0, (2_000, 1))
    assert _assert_clips_like_every_row_rescaling(rows, 0.37) >= 3


# (clients, examples, classes, features): skewed_shard's full batch, sampled_ditto's
# mini-batch, and small stacks: one client, one example, and fewer than 8 or at
# least 8 examples and classes.
GRADIENT_SHAPES = (
    (200, 16, 10, 16), (50, 4, 10, 16), (50, 4, 10, 10), (1, 1, 2, 1), (7, 5, 3, 4),
    (3, 20, 12, 5), (1, 16, 7, 3), (4, 1, 9, 2), (5, 8, 8, 3),
)


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(GRADIENT_SHAPES),
    scale=st.sampled_from((0.0, 1e-3, 1.0, 40.0)),
    tie=st.booleans(),
    strided_y=st.booleans(),
)
def test_label_shard_gradient_equals_reduction_and_three_index_form_bitwise(
    seed, shape, scale, tie, strided_y
):
    # scale 0 draws signed zeros, so every logit ties at +0 or -0; ``tie`` makes
    # the last class a copy of the first.
    m, n, c, f = shape
    rng = np.random.default_rng(seed)
    w, b = rng.normal(0.0, 1.0, (m, c, f)) * scale, rng.normal(0.0, 1.0, (m, c)) * scale
    if tie:
        w[:, -1], b[:, -1] = w[:, 0], b[:, 0]
    models = np.concatenate([w.reshape(m, c * f), b], axis=1)
    x = rng.normal(0.0, 1.0, (m, n, f))
    y = rng.integers(0, c, (n, m)).T if strided_y else rng.integers(0, c, (m, n))
    got = local_gradient(models, x, y, PopulationKind.LABEL_SHARD)
    assert got.tobytes() == label_shard_gradient_three_index(models, x, y).tobytes()
    assert got.tobytes() == label_shard_gradient_reduced(models, x, y).tobytes()
    assert _softmax_probs(models[0], x[0]).tobytes() == softmax_by_reduction(models[0], x[0]).tobytes()
    # into a used gradient work array
    out = np.full(models.shape, np.nan)
    assert local_gradient(models, x, y, PopulationKind.LABEL_SHARD, out) is out
    assert out.tobytes() == got.tobytes()
    # two stacks on the same data, as Ditto's global and personal models: each as if alone
    other = models[::-1] * 0.5
    pair_out = np.full((2, *models.shape), np.nan)
    pair = local_gradient(np.stack([models, other]), x, y, PopulationKind.LABEL_SHARD, pair_out)
    assert pair is pair_out and pair[0].tobytes() == got.tobytes()
    assert pair[1].tobytes() == local_gradient(other, x, y, PopulationKind.LABEL_SHARD).tobytes()


@settings(max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    N=st.sampled_from((1, 2, 3, 7, 100, 800, 4000)),
    f=st.sampled_from((1, 3, 16, 17)),
    c=st.sampled_from((1, 2, 3, 7, 10, 12)),
    model=st.sampled_from(("drawn", "tie", "one_tie", "zero")),
)
def test_class_major_scoring_equals_logits_and_argmax_bitwise(seed, N, f, c, model):
    # "tie" copies a class's weights and bias onto a later class, so the two tie
    # in every column. "one_tie" gives the two the largest bias and one example
    # all-zero features, so they tie at the top of that column alone. The
    # all-zero model ties every class everywhere. c = 1 is a one-class pool.
    # N = 4000 and 800 are the benchmarks' server test sets.
    rng = np.random.default_rng(seed)
    w, b = rng.normal(0.0, 1.0, (c, f)), rng.normal(0.0, 1.0, c)
    x, labels = rng.normal(0.0, 1.0, (N, f)), rng.integers(0, c, N)
    if model in ("tie", "one_tie") and c > 1:
        first, later = sorted(rng.choice(c, 2, replace=False))
        if model == "tie":
            w[later], b[later] = w[first], b[first]
        else:
            b[first] = b[later] = b.max() + 1.0
            x[rng.integers(N)] = 0.0
    if model == "zero":
        w, b = np.zeros((c, f)), np.zeros(c)
    theta = np.concatenate([w.ravel(), b])
    scores = np.full((c, N), np.nan)  # a used work array
    hits = _hits(theta, x, labels, scores, labels * N + np.arange(N))
    logits = _logits(theta, x)
    assert scores.tobytes() == np.ascontiguousarray(logits.T).tobytes()
    assert np.array_equal(hits, logits.argmax(axis=1) == labels)
    if model == "zero":  # argmax takes the first of the tied classes
        assert np.array_equal(hits, labels == 0)


def _full_cohort(pop, batch_size, with_ditto, rng):
    """Every client of ``pop`` as one cohort, with personal models drawn from
    ``rng`` under Ditto, and a two-epoch mini-batch order: (cohort, order)."""
    (m, n_ex, _), dim = pop.train_x.shape, pop.dim
    order = None
    if batch_size is not None:
        order = stream(9, "minibatch", 0).permuted(np.tile(np.arange(n_ex), (2, m, 1)), axis=-1)
    start = rng.normal(0.0, 0.5, (m, dim)) if with_ditto else None
    return Cohort(np.arange(m), pop.private, pop.train_x, pop.train_y, start), order


@pytest.mark.parametrize("with_ditto", [False, True], ids=["plain", "ditto"])
@pytest.mark.parametrize("batch_size", [None, 3], ids=["full_batch", "mini_batch"])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_client_update_into_work_arrays_equals_fresh_arrays(name, batch_size, with_ditto):
    pop = build_population(SPECS[name])
    rng = stream(6, "work-arrays")
    cfg = FeO2Config(eta=0.4, epochs=2, batch_size=batch_size)
    ditto = DittoConfig(lambda_p=0.7, lambda_np=0.2) if with_ditto else None
    cohort, order = _full_cohort(pop, batch_size, with_ditto, rng)
    m, dim = len(cohort.ids), pop.dim
    theta, other = rng.normal(0.0, 0.5, (2, dim))
    deltas, personal = client_update(theta, cohort, cfg, pop.kind, ditto, order)
    kept = deltas.copy()
    client_update(other, cohort, cfg, pop.kind, ditto, order)  # by default a call owns its arrays
    assert deltas.tobytes() == kept.tobytes()
    # used work arrays (model stack, gradient): a row per client, two with Ditto;
    # a stack sized for a larger cohort uses its first rows
    rows = m if ditto is None else 2 * m
    for size in (rows, rows + 3):
        out = (np.full((size, dim), np.nan), np.full((size, dim), np.nan))
        got, got_personal = client_update(theta, cohort, cfg, pop.kind, ditto, order, out=out)
        assert got.base is out[0] and got.tobytes() == deltas.tobytes()
        assert (got_personal is None) == (personal is None)
        assert personal is None or (got_personal.base is out[0] and got_personal.tobytes() == personal.tobytes())
    # the model stack's personal half as the cohort's start, as a run passes it
    if ditto is not None:
        out = (np.full((rows, dim), np.nan), np.full((rows, dim), np.nan))
        out[0][m:] = cohort.personal
        in_place = Cohort(cohort.ids, cohort.private, cohort.x, cohort.y, out[0][m:])
        got, got_personal = client_update(theta, in_place, cfg, pop.kind, ditto, order, out=out)
        assert got.tobytes() == deltas.tobytes() and got_personal.tobytes() == personal.tobytes()


@pytest.mark.parametrize("with_ditto", [False, True], ids=["plain", "ditto"])
def test_work_arrays_too_small_for_the_cohort_are_rejected(with_ditto):
    pop = build_population(SPECS["label_shard"])
    ditto = DittoConfig(lambda_p=0.7, lambda_np=0.2) if with_ditto else None
    cohort, _ = _full_cohort(pop, None, with_ditto, stream(6, "small-work"))
    m, dim = len(cohort.ids), pop.dim
    rows = m if ditto is None else 2 * m
    for shape in ((rows - 1, dim), (rows, dim - 1), (rows, dim + 1)):
        for out in ((np.zeros(shape), np.zeros((rows, dim))), (np.zeros((rows, dim)), np.zeros(shape))):
            with pytest.raises(ValueError, match=rf"cannot hold the cohort's {rows} rows of {dim} values"):
                client_update(np.zeros(dim), cohort, FeO2Config(), pop.kind, ditto, out=out)
    fortran = np.zeros((rows, dim), order="F")
    with pytest.raises(ValueError, match="cannot hold"):
        client_update(np.zeros(dim), cohort, FeO2Config(), pop.kind, ditto, out=(fortran, np.zeros((rows, dim))))


DITTO_ARMS = {
    "lambda_per_class": DittoConfig(lambda_p=0.7, lambda_np=0.2),
    "lambda_per_class_eta_p": DittoConfig(lambda_p=0.7, lambda_np=0.2, eta_p=0.3),
    "lambda_np_zero_eta_p": DittoConfig(lambda_p=1.5, lambda_np=0.0, eta_p=0.45),
}


@pytest.mark.parametrize("arm", sorted(DITTO_ARMS))
@pytest.mark.parametrize("batch_size", [None, 3], ids=["full_batch", "mini_batch"])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_one_gradient_pass_per_batch_steps_both_stacks_like_two_passes(name, batch_size, arm, monkeypatch):
    pop = build_population(SPECS[name])
    assert 0 < pop.private.sum() < len(pop.private)  # both lambda classes
    rng = stream(7, "two-passes")
    cfg = FeO2Config(eta=0.4, epochs=2, batch_size=batch_size)
    cohort, order = _full_cohort(pop, batch_size, True, rng)
    theta = rng.normal(0.0, 0.5, pop.dim)
    calls = []

    def counting(*args):
        calls.append(args[0].shape)
        return local_gradient(*args)

    monkeypatch.setattr(feo2.models, "local_gradient", counting)
    deltas, personal = client_update(theta, cohort, cfg, pop.kind, DITTO_ARMS[arm], order)
    want_deltas, want_personal = client_update_two_passes(theta, cohort, cfg, pop.kind, DITTO_ARMS[arm], order)
    assert deltas.tobytes() == want_deltas.tobytes()
    assert personal.tobytes() == want_personal.tobytes()
    n_ex = pop.train_x.shape[1]
    batches = cfg.epochs * (1 if batch_size is None else -(-n_ex // batch_size))
    assert calls == [(2, len(cohort.ids), pop.dim)] * batches  # one call per batch, over both stacks
    calls.clear()
    client_update(theta, cohort, cfg, pop.kind, None, order)
    assert calls == [(len(cohort.ids), pop.dim)] * batches


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
