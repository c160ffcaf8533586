"""Losses, gradients, and the client update step.

Gradients are checked against central finite differences (the oracle knows
nothing about the closed forms), and the quadratic families additionally
against their hand-derived expressions. The batched functions are called on
one-client stacks here; tests/test_batched.py checks that stacking changes no
row.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from feo2.config import DittoConfig, FeO2Config, PopulationKind
from feo2.models import Cohort, NumericFailure, client_update, local_gradient
from feo2.privacy import clip_rows
from feo2.rng import stream

from oracles import local_loss, numeric_gradient

finite_floats = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


# One client's data is a pair (x, y): inputs (n, f) and targets (n,), or None
# for point estimation.


def _point(rng, n_s=6, d=3):
    return rng.normal(size=(n_s, d)), None


def _regression(rng, n_s=8, d=3):
    return rng.normal(size=(n_s, d)), rng.normal(size=n_s)


def _labeled(rng, n=12, d=4, classes=3):
    return rng.normal(size=(n, d)), rng.integers(0, classes, size=n)


def _stack(data):
    """One client's (x, y) as a one-client stack."""
    x, y = data
    return x[None], None if y is None else y[None]


def _grad(theta, data, kind):
    """local_gradient of one client."""
    return local_gradient(theta[None], *_stack(data), kind)[0]


def _cohort(data, client_id=0, private=True, personal=None):
    return Cohort(np.array([client_id]), np.array([private]), *_stack(data), personal)


def _update(theta, cohort, cfg, kind, ditto=None, order=None):
    """client_update of a one-client cohort: (raw delta, personal model or None)."""
    deltas, personal = client_update(theta, cohort, cfg, kind, ditto, order)
    return deltas[0], None if personal is None else personal[0]


def test_point_loss_closed_form():
    data = np.array([[1.0, 3.0], [3.0, 5.0]]), None
    theta = np.array([0.0, 0.0])
    # mean is (2, 4); loss = 0.5 * (4 + 16)
    assert local_loss(theta, *data, PopulationKind.POINT_ESTIMATION) == pytest.approx(10.0, abs=1e-14)
    g = _grad(theta, data, PopulationKind.POINT_ESTIMATION)
    assert np.allclose(g, [-2.0, -4.0], atol=1e-14)


def test_regression_loss_normalization():
    rng = stream(5, "t")
    data = _regression(rng, n_s=10, d=2)
    theta = rng.normal(size=2)
    resid = data[0] @ theta - data[1]
    assert local_loss(theta, *data, PopulationKind.LINEAR_REGRESSION) == pytest.approx(
        float(resid @ resid) / 20.0
    )


@pytest.mark.parametrize("kind", list(PopulationKind))
def test_gradient_matches_finite_differences(kind):
    rng = stream(17, "grad", {"point_estimation": 0, "linear_regression": 1, "label_shard": 2}[kind.value])
    if kind is PopulationKind.POINT_ESTIMATION:
        data = _point(rng)
    elif kind is PopulationKind.LINEAR_REGRESSION:
        data = _regression(rng)
    else:
        data = _labeled(rng)
    f = data[0].shape[1]
    theta = rng.normal(size=3 * (f + 1) if kind is PopulationKind.LABEL_SHARD else f)
    got = _grad(theta, data, kind)
    want = numeric_gradient(lambda t: local_loss(t, *data, kind), theta)
    assert np.allclose(got, want, atol=1e-7), np.abs(got - want).max()


def test_softmax_probs_are_probabilities():
    from feo2.models import _softmax_probs

    rng = stream(3, "probs")
    data = _labeled(rng, n=30, d=5, classes=4)
    theta = rng.normal(size=4 * 6) * 50  # large logits stress the shift
    p = _softmax_probs(theta, data[0])
    assert np.all(p >= 0)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_regression_gradient_zero_at_least_squares_solution():
    rng = stream(9, "ls")
    q, r = np.linalg.qr(rng.normal(size=(12, 4)))
    F = np.sqrt(12) * q * np.sign(np.diag(r))
    phi = rng.normal(size=4)
    g = _grad(phi, (F, F @ phi), PopulationKind.LINEAR_REGRESSION)
    assert np.allclose(g, 0.0, atol=1e-12)


@given(
    obs=hnp.arrays(np.float64, (5, 2), elements=finite_floats),
    theta=hnp.arrays(np.float64, (2,), elements=finite_floats),
)
def test_one_step_full_batch_lands_on_sample_mean(obs, theta):
    """eta = 1, one epoch, full batch: the raw point-estimation delta is exactly
    mean(obs) - theta, and a clip bound above its norm keeps it."""
    cohort = _cohort((obs, None))
    cfg = FeO2Config(eta=1.0, epochs=1, batch_size=None)
    delta, _ = _update(theta, cohort, cfg, PopulationKind.POINT_ESTIMATION)
    assert np.allclose(delta, obs.mean(axis=0) - theta, atol=1e-9)
    clipped, bits = clip_rows(delta[None], 1e9)
    assert bits[0] == 1 and np.array_equal(clipped[0], delta)


def test_clip_indicator_reflects_raw_norm():
    cohort = _cohort((np.full((3, 2), 10.0), None))
    cfg = FeO2Config(eta=1.0)
    raw, _ = _update(np.zeros(2), cohort, cfg, PopulationKind.POINT_ESTIMATION)
    delta, bits = clip_rows(raw[None], 0.5)
    assert bits[0] == 0
    assert np.linalg.norm(delta[0]) <= 0.5


def test_minibatches_partition_the_data():
    from feo2.models import _batches

    data = _labeled(stream(11, "b"), n=10, d=3, classes=2)
    order = stream(11, "order").permuted(np.arange(10)[None], axis=1)
    batches = list(_batches(*_stack(data), 4, order))
    assert [yb.shape[1] for _, yb in batches] == [4, 4, 2]
    seen = np.concatenate([xb[0] for xb, _ in batches])
    assert np.allclose(np.sort(seen, axis=0), np.sort(data[0], axis=0))
    assert np.array_equal(seen, data[0][order[0]])


def test_minibatch_order_is_stream_determined():
    data = _point(stream(2, "d"), n_s=9, d=2)
    cfg = FeO2Config(eta=0.3, epochs=2, batch_size=3)
    kind = PopulationKind.POINT_ESTIMATION

    def order():  # (epochs, clients, examples)
        return stream(7, "c").permuted(np.tile(np.arange(9), (2, 1, 1)), axis=-1)

    da, _ = _update(np.zeros(2), _cohort(data), cfg, kind, order=order())
    db, _ = _update(np.zeros(2), _cohort(data), cfg, kind, order=order())
    in_order, _ = _update(np.zeros(2), _cohort(data), cfg, kind, order=np.tile(np.arange(9), (2, 1, 1)))
    assert np.array_equal(da, db)
    assert not np.array_equal(da, in_order)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_divergent_training_raises_numeric_failure():
    cohort = _cohort(_point(stream(1, "nf"), n_s=4, d=2), client_id=3, private=False)
    cfg = FeO2Config(eta=4.0, epochs=3000)  # |1 - eta| > 1 compounds to overflow
    with pytest.raises(NumericFailure, match="client 3"):
        _update(np.zeros(2), cohort, cfg, PopulationKind.POINT_ESTIMATION)


def test_ditto_initializes_personal_model_from_broadcast():
    # the round loop starts a client that has not trained yet from the broadcast
    obs, _ = _point(stream(8, "di"), n_s=5, d=2)
    theta0 = np.array([0.5, -0.25])
    cohort = _cohort((obs, None), personal=theta0[None].copy())
    cfg = FeO2Config(eta=1.0)
    _, personal = _update(theta0, cohort, cfg, PopulationKind.POINT_ESTIMATION, ditto=DittoConfig(1.0, 1.0))
    assert np.array_equal(cohort.personal, theta0[None])  # an input only: the stepped models are returned
    # one proximal step with eta_p = 1/(1+lam) from theta0:
    target = (obs.mean(axis=0) + 1.0 * theta0) / 2.0
    assert np.allclose(personal, target, atol=1e-12)
