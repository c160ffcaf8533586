"""One proximal step with eta_p = 1/(1+lambda) must land exactly on the
tethered quadratic's minimizer, from any starting point — that identity is
what lets the simulator skip an inner optimization loop."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from feo2.config import DittoConfig, PopulationKind
from feo2.personalization import ditto_step
from feo2.rng import stream

from oracles import ditto_closed_form

unit = st.floats(-3, 3, allow_nan=False, allow_infinity=False)


def _step(theta_j, theta_global, x, y, kind, lam, eta_p):
    """ditto_step of one client with inputs ``x`` (n, f) and targets ``y`` (n,) or None."""
    y = None if y is None else y[None]
    return ditto_step(theta_j[None], theta_global, x[None], y, kind, lam, eta_p)[0]


@given(
    start=hnp.arrays(np.float64, (3,), elements=unit),
    ref=hnp.arrays(np.float64, (3,), elements=unit),
    obs=hnp.arrays(np.float64, (4, 3), elements=unit),
    lam=st.floats(0.0, 50.0),
)
def test_one_step_hits_minimizer_from_anywhere(start, ref, obs, lam):
    got = _step(start, ref, obs, None, PopulationKind.POINT_ESTIMATION, lam, 1.0 / (1.0 + lam))
    want = ditto_closed_form(obs.mean(axis=0), ref, lam)
    assert np.allclose(got, want, atol=1e-10)


def test_one_step_hits_minimizer_regression():
    rng = stream(4, "reg")
    q, rr = np.linalg.qr(rng.normal(size=(8, 3)))
    F = np.sqrt(8) * q * np.sign(np.diag(rr))
    x = rng.normal(size=8)
    phi_hat = F.T @ x / 8.0
    ref = rng.normal(size=3)
    lam = 0.7
    got = _step(rng.normal(size=3), ref, F, x, PopulationKind.LINEAR_REGRESSION, lam, 1.0 / (1.0 + lam))
    assert np.allclose(got, ditto_closed_form(phi_hat, ref, lam), atol=1e-12)


def test_closed_form_endpoints():
    phi = np.array([2.0, -1.0])
    ref = np.array([0.0, 4.0])
    assert np.array_equal(ditto_closed_form(phi, ref, 0.0), phi)
    far = ditto_closed_form(phi, ref, 1e12)
    assert np.allclose(far, ref, atol=1e-9)


def test_off_schedule_step_is_not_the_minimizer():
    # with any other step size the exactness breaks — guards against the
    # eta_p default silently changing
    obs = np.array([[1.0], [3.0]])
    ref = np.array([0.0])
    got = _step(np.array([5.0]), ref, obs, None, PopulationKind.POINT_ESTIMATION, 1.0, 0.3)
    want = ditto_closed_form(np.array([2.0]), ref, 1.0)
    assert not np.allclose(got, want, atol=1e-6)


def test_ditto_step_validation():
    obs = np.ones((2, 1))
    with pytest.raises(ValueError):
        _step(np.zeros(1), np.zeros(1), obs, None, PopulationKind.POINT_ESTIMATION, -0.1, 0.5)
    with pytest.raises(ValueError):
        _step(np.zeros(1), np.zeros(1), obs, None, PopulationKind.POINT_ESTIMATION, 0.1, 0.0)


def test_ditto_config_defaults_and_validation():
    cfg = DittoConfig(lambda_p=0.5, lambda_np=2.0)
    assert cfg.eta_p is None
    with pytest.raises(ValueError):
        DittoConfig(lambda_p=-1.0, lambda_np=0.0)
    with pytest.raises(ValueError):
        DittoConfig(lambda_p=1.0, lambda_np=1.0, eta_p=0.0)
