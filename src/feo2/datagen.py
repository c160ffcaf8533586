"""Population generation and IDX ingestion.

`build_population` makes the population a `PopulationSpec` describes, as a
pure function of the spec (its seed included). A `Population` is every
client's data stacked on a leading client axis plus one privacy flag per
client; every client holds the same number of examples. Hidden truths (the
global and per-client parameters behind the synthetic data) sit in their own
fields, which training never reads; only the evaluation in `simulate` does.
Label-shard pools are plain arrays, (n, f) float64 features and (n,) int64
labels, from `gen_blob_pool` or `load_idx_pair`;
`gen_label_shard_population` shards any such pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import PopulationKind, PopulationSpec
from .rng import stream


class IdxParseError(ValueError):
    pass


@dataclass
class Population:
    kind: PopulationKind
    dim: int  # model dimension
    private: np.ndarray  # (clients,) True where the client stays private
    train_x: np.ndarray  # (clients, n, f): observations, designs or features
    train_y: Optional[np.ndarray] = None  # (clients, n): responses or labels; None for points
    # label shard only: each client's test split, (clients, n_test, f) and (clients, n_test)
    test_x: Optional[np.ndarray] = None
    test_y: Optional[np.ndarray] = None
    truth_global: Optional[np.ndarray] = None
    truth_clients: Optional[np.ndarray] = None  # (clients, d)

    @property
    def server_test(self) -> tuple[np.ndarray, np.ndarray]:
        """The client test splits pooled in client order: (clients * n_test, f)
        features and their labels, as views of ``test_x`` and ``test_y``."""
        return self.test_x.reshape(-1, self.test_x.shape[2]), self.test_y.reshape(-1)


def _privacy_flags(n: int, opted_out: np.ndarray) -> np.ndarray:
    """Fixed opt-out assignment: True where the client stays private, False at
    the client ids ``opted_out``."""
    flags = np.ones(n, dtype=bool)
    flags[opted_out] = False
    return flags


def _gaussian_population(spec: PopulationSpec) -> Population:
    """Point or regression clients around Gaussian truths: phi ~ N(0, I) and
    phi_j ~ N(phi, tau2 I). A point client observes phi_j + N(0, beta2 I); a
    regression client holds an orthogonal design F_j with F_j^T F_j = n_s I
    and responses F_j phi_j + N(0, beta2)."""
    rng = stream(spec.seed, "population")
    n, n_s, d = spec.n_clients, spec.samples_per_client, spec.d
    phi = rng.normal(0.0, 1.0, d)
    phi_j = phi + rng.normal(0.0, np.sqrt(spec.tau2), (n, d))
    if spec.kind is PopulationKind.POINT_ESTIMATION:
        x, y = phi_j[:, None, :] + rng.normal(0.0, np.sqrt(spec.beta2), (n, n_s, d)), None
    else:
        x, y = np.empty((n, n_s, d)), np.empty((n, n_s))
        for j in range(n):
            # orthonormal columns scaled by sqrt(n_s) give F^T F = n_s I exactly
            q, rr = np.linalg.qr(rng.normal(size=(n_s, d)))
            x[j] = np.sqrt(n_s) * (q * np.sign(np.diag(rr)))
            y[j] = x[j] @ phi_j[j] + rng.normal(0.0, np.sqrt(spec.beta2), n_s)
    private = _privacy_flags(n, rng.permutation(n)[: spec.n_np])
    return Population(spec.kind, d, private, x, y, truth_global=phi, truth_clients=phi_j)


def gen_blob_pool(
    n_classes: int, per_class: int, dim: int, spread: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian class blobs: (n, dim) features with unit within-class noise
    around seeded centers, and their (n,) labels."""
    rng = stream(seed, "pool")
    centers = rng.normal(0.0, spread, (n_classes, dim))
    labels = np.repeat(np.arange(n_classes), per_class)
    return centers[labels] + rng.normal(0.0, 1.0, (labels.size, dim)), labels


def gen_label_shard_population(spec: PopulationSpec, features: np.ndarray, labels: np.ndarray) -> Population:
    """One label per client, drawn from the per-label subsets of a pool of
    (n, f) float features and their (n,) integer labels.

    Each client's draw is split 80/20 into train/test; the server test set
    pools every client's test split. With a skew label set, all opted-out
    clients are drawn from the clients holding that label.
    """
    if spec.kind is not PopulationKind.LABEL_SHARD:
        raise ValueError("spec kind must be label_shard")
    rng = stream(spec.seed, "population")
    n, n_samp = spec.n_clients, spec.samples_per_client
    labels_present = np.flatnonzero(np.bincount(labels))  # np.unique would import numpy.ma
    by_label = {int(lab): np.flatnonzero(labels == lab) for lab in labels_present}
    for lab, idx in by_label.items():
        if idx.size < n_samp:
            raise ValueError(
                f"insufficient pool: label {lab} has {idx.size} examples, "
                f"need >= {n_samp} per client"
            )
    shard_labels = rng.choice(labels_present, size=n)
    n_test = max(1, round(0.2 * n_samp))
    picked = np.stack([rng.choice(by_label[int(k)], n_samp, replace=False) for k in shard_labels])
    train_idx, test_idx = picked[:, : n_samp - n_test], picked[:, n_samp - n_test :]

    if spec.skew_label is not None:
        candidates = np.flatnonzero(shard_labels == spec.skew_label)
        if candidates.size < spec.n_np:
            raise ValueError(
                f"only {candidates.size} clients hold skew label {spec.skew_label}, "
                f"need {spec.n_np} opted-out clients"
            )
        opted_out = rng.choice(candidates, size=spec.n_np, replace=False)
    else:
        opted_out = rng.permutation(n)[: spec.n_np]

    n_classes = int(labels_present.max()) + 1
    return Population(
        kind=spec.kind,
        dim=n_classes * (features.shape[1] + 1),
        private=_privacy_flags(n, opted_out),
        train_x=features[train_idx],
        train_y=labels[train_idx],
        test_x=features[test_idx],
        test_y=labels[test_idx],
    )


def build_population(spec: PopulationSpec) -> Population:
    """The population ``spec`` describes: Gaussian clients for the point and
    regression kinds, label shards of a blob or IDX pool for ``label_shard``."""
    if spec.kind is not PopulationKind.LABEL_SHARD:
        return _gaussian_population(spec)
    pool = spec.pool
    if pool.idx_images is not None:
        source = load_idx_pair(pool.idx_images, pool.idx_labels)
    else:
        source = gen_blob_pool(pool.classes, pool.per_class, pool.feature_dim, pool.spread, spec.seed)
    return gen_label_shard_population(spec, *source)


# --- IDX binary container -------------------------------------------------

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def _read_u32(data: bytes, offset: int, path: str) -> int:
    if len(data) < offset + 4:
        raise IdxParseError(f"{path}: truncated header at byte {len(data)}")
    return int.from_bytes(data[offset : offset + 4], "big")


def _read_idx(path: str, magic: int, n_dims: int) -> tuple[bytes, list[int]]:
    """Bytes and header dimensions of an IDX file whose magic and length check out."""
    with open(path, "rb") as fh:
        data = fh.read()
    found = _read_u32(data, 0, path)
    if found != magic:
        raise IdxParseError(f"{path}: bad magic 0x{found:08x} at byte 0")
    dims = [_read_u32(data, 4 * (i + 1), path) for i in range(n_dims)]
    expected = 4 * (n_dims + 1) + math.prod(dims)
    if len(data) < expected:
        raise IdxParseError(
            f"{path}: truncated at byte {len(data)}, expected {expected} bytes"
        )
    return data, dims


def load_idx_images(path: str) -> np.ndarray:
    """Images from an IDX file as float rows in [0, 1], shape (n, rows*cols)."""
    data, (n, rows, cols) = _read_idx(path, _IDX_IMAGES_MAGIC, 3)
    pixels = np.frombuffer(data, dtype=np.uint8, count=n * rows * cols, offset=16)
    return pixels.reshape(n, rows * cols).astype(np.float64) / 255.0


def load_idx_labels(path: str) -> np.ndarray:
    data, (n,) = _read_idx(path, _IDX_LABELS_MAGIC, 1)
    labels = np.frombuffer(data, dtype=np.uint8, count=n, offset=8).astype(np.int64)
    if labels.size and labels.max() > 9:
        raise IdxParseError(f"{path}: label {labels.max()} outside [0, 9]")
    return labels


def load_idx_pair(images_path: str, labels_path: str) -> tuple[np.ndarray, np.ndarray]:
    """(n, rows*cols) images and their (n,) labels from a pair of IDX files."""
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxParseError(
            f"image/label count mismatch: {images.shape[0]} images, {labels.size} labels"
        )
    return images, labels
