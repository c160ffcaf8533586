import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from feo2.cli import main
from feo2.config import FeO2Config, build_experiment_config
from feo2.models import NumericFailure
from feo2.privacy import clip, update_clip_norm
from feo2.rng import stream

vectors = hnp.arrays(
    np.float64,
    st.integers(1, 12),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@given(v=vectors, S=st.floats(1e-6, 1e3))
def test_clip_bounds_norm_and_reports_fit(v, S):
    out, b = clip(v, S)
    norm_before = np.linalg.norm(v)
    assert np.linalg.norm(out) <= S
    assert b == (1 if norm_before <= S else 0)
    if norm_before <= S:
        assert np.array_equal(out, v)


@given(v=vectors, S=st.floats(1e-6, 1e3))
def test_clip_is_idempotent_bitwise(v, S):
    once, _ = clip(v, S)
    twice, b = clip(once, S)
    assert np.array_equal(once, twice)
    assert b == 1


def test_clip_preserves_direction():
    v = np.array([3.0, 4.0])
    out, b = clip(v, 1.0)
    assert b == 0
    assert np.allclose(out, [0.6, 0.8], atol=1e-12)


def test_clip_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        clip(np.ones(2), 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_clip_rejects_non_finite_input(bad):
    # NaN fails every comparison with S, so an unchecked NaN vector comes back unscaled.
    with pytest.raises(ValueError, match="norm"):
        clip(np.array([bad, 1.0]), 1.0)


def test_clip_norm_update_noiseless_formula():
    cfg = FeO2Config(z=1.0, z_b=0.0, kappa=0.5, eta_b=0.2)
    bits = [1, 1, 1, 0]
    got = update_clip_norm(2.0, bits, cfg, stream(0, "c"))
    assert got == pytest.approx(2.0 * math.exp(-0.2 * (0.75 - 0.5)), abs=1e-15)


def test_clip_norm_update_with_noise_is_reproducible():
    cfg = FeO2Config(z=1.0, z_b=3.0, kappa=0.5, eta_b=0.2)
    a = update_clip_norm(1.0, [1, 0], cfg, stream(5, "c"))
    b = update_clip_norm(1.0, [1, 0], cfg, stream(5, "c"))
    assert a == b
    # manual reconstruction with the same stream
    noise = float(stream(5, "c").normal(0.0, 3.0 / 2.0))
    assert a == pytest.approx(math.exp(-0.2 * (0.5 + noise - 0.5)), abs=1e-15)


def test_clip_norm_update_validates_counts():
    cfg = FeO2Config()
    with pytest.raises(ValueError):
        update_clip_norm(1.0, [], cfg, stream(0, "c"))
    with pytest.raises(ValueError):
        update_clip_norm(-1.0, [1], cfg, stream(0, "c"))


def test_clip_norm_update_outside_zero_to_inf_is_a_numeric_failure():
    cfg = FeO2Config(eta_b=2000.0)  # a step of exp(+-1000)
    with pytest.raises(NumericFailure, match=r"^clip norm update gave S = inf$"):
        update_clip_norm(1.0, [0], cfg, stream(0, "c"))
    with pytest.raises(NumericFailure, match=r"^clip norm update gave S = 0\.0$"):
        update_clip_norm(1.0, [1], cfg, stream(0, "c"))


@pytest.mark.parametrize("seed", range(6))
def test_a_run_whose_clip_norm_leaves_zero_to_inf_fails_naming_the_round(tmp_path, capsys, seed):
    # noisy clip bits at z_b = 1000 over a cohort of one push S to 0 or inf within a few rounds
    raw = {
        "population": {"kind": "point_estimation", "n_clients": 10, "rho_np": 0.5},
        "algorithm": "feo2",
        "feo2": {"r": 0.5, "z": 1, "z_b": 1000, "eta_b": 1},
        "cohort_fraction": 0.1,
        "rounds": 60,
        "master_seed": seed,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    *rows, last = (tmp_path / "out" / "rounds.csv").read_text().splitlines()[1:]
    assert all(0.0 < float(row.split(",")[1]) < math.inf for row in rows)
    failed = f"FAILED,clip norm update gave S = {'inf' if seed in (1, 3, 4, 5) else '0.0'} in round {len(rows)}"
    assert last == failed
    assert f"run failed: {failed[len('FAILED,'):]}" in capsys.readouterr().err


# The DP knobs live on FeO2Config (section "feo2") and delta on ExperimentConfig.
@pytest.mark.parametrize(
    "kwargs",
    [
        dict(feo2=dict(z=-0.1)),
        dict(feo2=dict(z=1.0, z_b=-1.0)),
        dict(feo2=dict(z=1.0, S0=0.0)),
        dict(feo2=dict(z=1.0, kappa=1.5)),
        dict(feo2=dict(z=1.0, eta_b=0.0)),
        dict(delta=0.0),
    ],
)
def test_dp_config_validation(kwargs):
    raw = {"population": {"kind": "point_estimation", "n_clients": 4, "rho_np": 0.5}}
    raw.update(algorithm="feo2", **kwargs)
    bad_key = list(kwargs.get("feo2", kwargs))[-1]
    with pytest.raises(ValueError, match=bad_key):
        build_experiment_config(raw)
