import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from feo2.aggregation import (
    RoundSkipped,
    apply_update,
    dp_group_mean,
    feo2_combine,
    group_mean,
)
from feo2.rng import stream


def test_group_mean_plain():
    got = group_mean([np.array([1.0, 2.0]), np.array([3.0, 4.0])])
    assert np.allclose(got, [2.0, 3.0], atol=0)


def test_group_mean_empty_raises():
    with pytest.raises(RoundSkipped):
        group_mean([])


def test_dp_group_mean_zero_noise_is_plain_mean():
    ups = [np.array([0.5, 0.0]), np.array([0.0, 0.5])]
    got = dp_group_mean(ups, S=1.0, z=0.0, rng=stream(0, "n"))
    assert np.array_equal(got, np.array([0.25, 0.25]))


def test_dp_group_mean_rejects_unclipped_updates():
    ups = [np.array([5.0, 0.0])]
    with pytest.raises(ValueError, match="exceeds clip bound"):
        dp_group_mean(ups, S=1.0, z=1.0, rng=stream(0, "n"))


def test_dp_group_mean_rejects_non_finite_updates():
    # A NaN norm fails "norm > S" as well as "norm <= S"; it must count as out of bound.
    with pytest.raises(ValueError, match="exceeds clip bound"):
        dp_group_mean([np.array([np.nan, 0.0])], S=1.0, z=1.0, rng=stream(0, "n"))


def test_dp_group_mean_noise_scale():
    # empirical std of the injected noise ~ z*S/n
    n, z, S = 4, 2.0, 1.5
    ups = [np.zeros(50_000) for _ in range(n)]
    got = dp_group_mean(ups, S=S, z=z, rng=stream(9, "n"))
    assert abs(got.std() - z * S / n) < 0.02


@given(
    n_np=st.integers(0, 6),
    n_p=st.integers(0, 6),
    r=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_combine_is_the_stated_weighted_mean(n_np, n_p, r, seed):
    rng = stream(seed, "combine")
    d_np = rng.normal(size=3) if n_np else None
    d_p = rng.normal(size=3) if n_p else None
    w = n_np + r * n_p
    if (d_np is None and d_p is None) or w == 0:
        with pytest.raises(RoundSkipped):
            feo2_combine(d_np, d_p, n_np, n_p, r)
        return
    got = feo2_combine(d_np, d_p, n_np, n_p, r)
    num = np.zeros(3)
    if d_np is not None:
        num += n_np * d_np
    if d_p is not None:
        num += r * n_p * d_p
    assert np.allclose(got, num / w, atol=1e-15)


def test_combine_missing_group_renormalizes():
    d_p = np.array([2.0, -2.0])
    got = feo2_combine(None, d_p, 0, 5, 0.3)
    assert np.allclose(got, d_p, atol=0)  # weights renormalize to 1
    d_np = np.array([1.0, 1.0])
    got = feo2_combine(d_np, None, 4, 0, 1.0)
    assert np.allclose(got, d_np, atol=0)


def test_combine_r_zero_drops_private_group():
    d_np = np.array([1.0])
    d_p = np.array([100.0])
    got = feo2_combine(d_np, d_p, 2, 50, 0.0)
    assert np.allclose(got, [1.0], atol=0)


def test_combine_count_validation():
    with pytest.raises(ValueError):
        feo2_combine(np.ones(2), None, -1, 0, 0.5)
    with pytest.raises(ValueError):
        feo2_combine(np.ones(2), np.ones(2), 1, 1, 1.5)


def test_apply_update_leaves_its_input_untouched():
    theta = np.array([1.0, 1.0])
    out = apply_update(theta, np.array([0.5, -0.5]))
    assert np.array_equal(out, [1.5, 0.5])
    assert np.array_equal(theta, [1.0, 1.0])  # input untouched
