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
from feo2.privacy import clip
from feo2.rng import stream


def test_group_mean_plain():
    got = group_mean([np.array([1.0, 2.0]), np.array([3.0, 4.0])])
    assert np.allclose(got, [2.0, 3.0], atol=0)


def test_group_mean_empty_raises():
    with pytest.raises(RoundSkipped):
        group_mean([])


def test_noise_zero_std_is_exactly_zero():
    # std = 0 (z = 0): exactly the group mean, and no draw from the generator
    ups = [np.array([0.5, -0.25]), np.array([0.0, 0.5])]
    rng = stream(0, "n")
    before = rng.bit_generator.state
    got = dp_group_mean(ups, S=1.0, std=0.0, rng=rng)
    assert np.array_equal(got, group_mean(ups))
    assert rng.bit_generator.state == before


def test_dp_group_mean_rejects_unclipped_updates():
    ups = [np.array([5.0, 0.0])]
    with pytest.raises(ValueError, match="exceeds clip bound"):
        dp_group_mean(ups, S=1.0, std=1.0, rng=stream(0, "n"))


def test_dp_group_mean_rejects_non_finite_updates():
    # A NaN norm fails "norm > S" as well as "norm <= S"; it must count as out of bound.
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"^private update norm {bad} is not finite$"):
            dp_group_mean([np.array([bad, 0.0])], S=1.0, std=1.0, rng=stream(0, "n"))


def test_dp_group_mean_bound_scales_with_S():
    # An absolute slack of 1e-9 passed a row of twice the bound at S = 1e-12, a
    # clip norm that adaptive clipping reaches; the slack is now relative to S.
    S = 1e-12
    with pytest.raises(ValueError, match="^private update norm 2e-12 exceeds clip bound 1e-12$"):
        dp_group_mean([np.array([2e-12, 0.0])], S=S, std=0.0, rng=stream(0, "n"))
    clipped = clip(np.array([3e-12, -4e-12]), S)[0]
    assert np.array_equal(dp_group_mean([clipped], S=S, std=0.0, rng=stream(0, "n")), clipped)


def test_noise_std_matches_request():
    # the injected noise over many coordinates: mean ~ 0, std ~ z*S/N_p = 2.5
    n, z, S = 4, 5.0, 2.0
    ups = [np.zeros(200_000) for _ in range(n)]
    got = dp_group_mean(ups, S=S, std=z * S / n, rng=stream(1, "n"))
    assert abs(got.std() - z * S / n) < 0.02
    assert abs(got.mean()) < 0.02


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
