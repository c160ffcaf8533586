import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from feo2.config import PoolSpec, PopulationKind, PopulationSpec
from feo2.datagen import (
    IdxParseError,
    build_population,
    gen_blob_pool,
    gen_label_shard_population,
    load_idx_images,
    load_idx_labels,
    load_idx_pair,
)


def _spec(kind, **kw):
    base = dict(kind=kind, n_clients=20, rho_np=0.25, samples_per_client=10, seed=3)
    base.update(kw)
    return PopulationSpec(**base)


# --- synthetic generators ---------------------------------------------------


def test_point_population_shapes_and_split():
    spec = _spec(PopulationKind.POINT_ESTIMATION, d=3, tau2=0.4, beta2=0.9)
    pop = build_population(spec)
    assert pop.kind is PopulationKind.POINT_ESTIMATION
    assert pop.dim == 3
    assert pop.private.shape == (20,)
    assert int(np.sum(~pop.private)) == 5
    assert pop.truth_global.shape == (3,)
    assert len(pop.truth_clients) == 20
    assert pop.train_x.shape == (20, 10, 3)
    assert pop.train_y is None


def test_point_population_deterministic_in_seed():
    a = build_population(_spec(PopulationKind.POINT_ESTIMATION, seed=9))
    b = build_population(_spec(PopulationKind.POINT_ESTIMATION, seed=9))
    c = build_population(_spec(PopulationKind.POINT_ESTIMATION, seed=10))
    assert np.array_equal(a.truth_global, b.truth_global)
    assert np.array_equal(a.train_x[4], b.train_x[4])
    assert np.array_equal(a.private, b.private)
    assert not np.array_equal(a.truth_global, c.truth_global)


def test_zero_spread_population_shares_the_truth():
    pop = build_population(_spec(PopulationKind.POINT_ESTIMATION, tau2=0.0, d=2))
    for t in pop.truth_clients:
        assert np.array_equal(t, pop.truth_global)


def test_regression_designs_are_orthogonal():
    spec = _spec(PopulationKind.LINEAR_REGRESSION, d=4, samples_per_client=12)
    pop = build_population(spec)
    for F in pop.train_x:
        assert np.allclose(F.T @ F, 12 * np.eye(4), atol=1e-9)


def test_regression_underdetermined_raises():
    with pytest.raises(ValueError, match="samples_per_client >= d"):
        _spec(PopulationKind.LINEAR_REGRESSION, d=11, samples_per_client=10)


def test_kind_mismatch_raises():
    pool = gen_blob_pool(3, 20, 4, 3.0, seed=0)
    with pytest.raises(ValueError, match="spec kind must be label_shard"):
        gen_label_shard_population(_spec(PopulationKind.POINT_ESTIMATION), *pool)


# --- label shards -----------------------------------------------------------


def test_blob_pool_is_balanced_and_deterministic():
    features, labels = gen_blob_pool(n_classes=4, per_class=30, dim=5, spread=2.0, seed=1)
    assert features.shape == (120, 5)
    counts = np.bincount(labels)
    assert list(counts) == [30, 30, 30, 30]
    again, _ = gen_blob_pool(4, 30, 5, 2.0, seed=1)
    assert np.array_equal(features, again)


def test_label_shard_clients_hold_one_label():
    spec = _spec(PopulationKind.LABEL_SHARD, n_clients=30, samples_per_client=10)
    pool = gen_blob_pool(5, 100, 6, 3.0, seed=0)
    pop = gen_label_shard_population(spec, *pool)
    assert pop.kind is PopulationKind.LABEL_SHARD
    assert pop.dim == 5 * 7
    for train_y, test_y in zip(pop.train_y, pop.test_y):
        train_labels = set(train_y.tolist())
        assert len(train_labels) == 1
        assert set(test_y.tolist()) == train_labels
        assert train_y.size == 8  # 80% of 10
        assert test_y.size == 2
    assert pop.server_test[1].size == 30 * 2


def test_label_shard_skew_pins_opted_out_clients():
    spec = _spec(
        PopulationKind.LABEL_SHARD, n_clients=40, rho_np=0.1, samples_per_client=10, skew_label=2
    )
    pool = gen_blob_pool(4, 200, 6, 3.0, seed=5)
    pop = gen_label_shard_population(spec, *pool)
    opted_out = np.flatnonzero(~pop.private)
    assert len(opted_out) == 4
    for j in opted_out:
        assert set(pop.train_y[j].tolist()) == {2}


def test_label_shard_draws_only_labels_the_pool_holds():
    features, labels = gen_blob_pool(8, 30, 3, 3.0, seed=4)
    keep = np.isin(labels, (1, 4, 6))
    pop = gen_label_shard_population(_spec(PopulationKind.LABEL_SHARD), features[keep], labels[keep])
    assert set(pop.train_y.ravel().tolist()) <= {1, 4, 6}
    assert pop.dim == 7 * 4  # classes 0..6: the largest label present plus one


def test_building_a_label_shard_population_does_not_import_numpy_ma():
    probe = (
        "import sys; from feo2.config import PopulationKind, PopulationSpec; "
        "from feo2.datagen import build_population; "
        "build_population(PopulationSpec(kind=PopulationKind.LABEL_SHARD, n_clients=20, rho_np=0.1)); "
        "print('numpy.ma' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_label_shard_insufficient_pool_raises():
    spec = _spec(PopulationKind.LABEL_SHARD, samples_per_client=50)
    pool = gen_blob_pool(3, 20, 4, 3.0, seed=0)
    with pytest.raises(ValueError, match="insufficient pool"):
        gen_label_shard_population(spec, *pool)


def test_label_shard_short_skew_candidates_raise():
    # 2 clients, both must opt out and hold label 0 — nearly impossible with
    # 12 labels, so the clear error matters
    spec = PopulationSpec(
        kind=PopulationKind.LABEL_SHARD,
        n_clients=2,
        rho_np=1.0,
        samples_per_client=5,
        seed=11,
        skew_label=9,
    )
    pool = gen_blob_pool(12, 50, 4, 3.0, seed=2)
    with pytest.raises(ValueError, match="skew label"):
        gen_label_shard_population(spec, *pool)


def test_build_population_dispatch():
    pop = build_population(_spec(PopulationKind.LABEL_SHARD))
    assert pop.kind is PopulationKind.LABEL_SHARD
    pop2 = build_population(_spec(PopulationKind.POINT_ESTIMATION))
    assert pop2.kind is PopulationKind.POINT_ESTIMATION


# --- IDX parsing ------------------------------------------------------------


def _idx_images_bytes(n=3, rows=2, cols=2, pixels=None):
    header = struct.pack(">IIII", 0x00000803, n, rows, cols)
    if pixels is None:
        pixels = bytes(range(n * rows * cols))
    return header + pixels


def _idx_labels_bytes(labels):
    return struct.pack(">II", 0x00000801, len(labels)) + bytes(labels)


def test_idx_images_round_trip(tmp_path):
    path = tmp_path / "imgs.idx"
    path.write_bytes(_idx_images_bytes(n=3, rows=2, cols=2))
    imgs = load_idx_images(str(path))
    assert imgs.shape == (3, 4)
    assert imgs.dtype == np.float64
    assert imgs.min() >= 0.0 and imgs.max() <= 1.0
    assert imgs[0, 1] == pytest.approx(1 / 255)
    assert imgs[2, 3] == pytest.approx(11 / 255)


def test_idx_labels_round_trip(tmp_path):
    path = tmp_path / "labels.idx"
    path.write_bytes(_idx_labels_bytes([0, 9, 4]))
    labels = load_idx_labels(str(path))
    assert labels.tolist() == [0, 9, 4]


def test_idx_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 1, 1) + b"\x00")
    with pytest.raises(IdxParseError, match="bad magic 0xdeadbeef"):
        load_idx_images(str(path))


def test_idx_truncated_payload(tmp_path):
    path = tmp_path / "short.idx"
    path.write_bytes(_idx_images_bytes(n=3)[:-5])
    with pytest.raises(IdxParseError, match="truncated"):
        load_idx_images(str(path))


def test_idx_truncated_header(tmp_path):
    path = tmp_path / "stub.idx"
    path.write_bytes(b"\x00\x00")
    with pytest.raises(IdxParseError, match="truncated header"):
        load_idx_labels(str(path))


def test_idx_label_out_of_range(tmp_path):
    path = tmp_path / "labels.idx"
    path.write_bytes(_idx_labels_bytes([3, 77]))
    with pytest.raises(IdxParseError, match="77"):
        load_idx_labels(str(path))


def test_idx_pair_count_mismatch(tmp_path):
    imgs = tmp_path / "i.idx"
    labs = tmp_path / "l.idx"
    imgs.write_bytes(_idx_images_bytes(n=3))
    labs.write_bytes(_idx_labels_bytes([1, 2]))
    with pytest.raises(IdxParseError, match="mismatch"):
        load_idx_pair(str(imgs), str(labs))


def test_build_population_from_idx_pool(tmp_path):
    # one image per label value so every shard label is available
    n, rows, cols = 40, 3, 3
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=n * rows * cols).astype(np.uint8).tobytes()
    (tmp_path / "i.idx").write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + pixels)
    (tmp_path / "l.idx").write_bytes(_idx_labels_bytes([i % 4 for i in range(n)]))
    spec = PopulationSpec(
        kind=PopulationKind.LABEL_SHARD,
        n_clients=6,
        rho_np=0.0,
        samples_per_client=5,
        seed=0,
        pool=PoolSpec(idx_images=str(tmp_path / "i.idx"), idx_labels=str(tmp_path / "l.idx")),
    )
    pop = build_population(spec)
    assert pop.dim == 4 * 10
    assert pop.server_test[0].shape[1] == 9
