"""Golden digests of run outputs: the shipped example configs, and three inline
configs that cover mini-batches with an uneven last batch, several epochs,
Ditto, sampled cohorts, every algorithm and every model kind.

Every change to the simulator must leave ``rounds.csv`` and ``summary.json``
byte-identical for these configs, or say why they moved.
"""

import hashlib
import json
from pathlib import Path

import pytest

from feo2.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# SHA-256 of (rounds.csv, summary.json) per shipped config.
GOLDEN = {
    "point_demo.yaml": (
        "e760bcff758ddc837756c1f755c4cd3ecc2b7fb6249d262bd798dceca3cc3e68",
        "de7dc999bcb1d292016f5e53d3c34111d930bac540c5a00c8ba06e5efeb396eb",
    ),
    "skewed_label_shard.yaml": (
        "c3eb074dd1ff812b127d250a1515a05e1c045f666c17cc2bfa559ea9940bd10a",
        "711099d74c69adb4e63ab4a35aa7dd64c611b2213378670eaab7c9879ff8941b",
    ),
}


# (config, SHA-256 of rounds.csv, SHA-256 of summary.json), run from a JSON file.
# Each leaves delta at its default 1e-5.
INLINE = {
    "label_shard_minibatch_ditto": (
        {
            "population": {
                "kind": "label_shard", "n_clients": 120, "rho_np": 0.1, "samples_per_client": 20,
                "seed": 4, "pool": {"classes": 10, "per_class": 200, "feature_dim": 8, "spread": 1.0},
            },
            "algorithm": "feo2",
            "feo2": {"r": 0.2, "z": 1.0, "z_b": 5.0, "S0": 1.0, "eta": 0.5, "epochs": 2, "batch_size": 3},
            "ditto": {"lambda_p": 0.5, "lambda_np": 0.2},
            "rounds": 15,
            "cohort_fraction": 0.1,
            "master_seed": 11,
        },
        "4019e996e5524925c4d9f69e02bac31193d5df32b8421fa471134466043052e1",
        "a6362f6631a3f2ad2038e75124b0bfe24dc8d82cc0d635674b838c522f4d1ffa",
    ),
    "regression_dpfedavg_minibatch": (
        {
            "population": {
                "kind": "linear_regression", "n_clients": 30, "rho_np": 0.3, "samples_per_client": 10,
                "d": 4, "tau2": 0.3, "beta2": 0.5, "seed": 2,
            },
            "algorithm": "dpfedavg",
            "feo2": {"z": 0.5, "z_b": 1.0, "S0": 1.0, "eta": 0.3, "epochs": 2, "batch_size": 4},
            "ditto": {"lambda_p": 1.0, "lambda_np": 0.0, "eta_p": 0.4},
            "rounds": 8,
            "cohort_fraction": 0.5,
            "master_seed": 5,
        },
        "db03f904aa4a2455fa6b6a7caec97c4ac7ee7fcb07c2738a2fa42b5a479d0416",
        "920119e160b18f603d519b8dd3a0009704bea0bcd42779a3bd7d407c287be9dc",
    ),
    "point_1d_fedavg_minibatch": (
        {
            "population": {
                "kind": "point_estimation", "n_clients": 16, "rho_np": 0.5, "samples_per_client": 5,
                "d": 1, "tau2": 0.2, "beta2": 1.0, "seed": 3,
            },
            "algorithm": "fedavg",
            "feo2": {"S0": 0.5, "eta": 0.7, "epochs": 3, "batch_size": 2},
            "rounds": 6,
            "cohort_fraction": 0.75,
            "master_seed": 8,
        },
        "349cad1df04bcea4a4b8ac28c0b693c83e81da5ccbb62172042b9837efccce56",
        "708d7a2f0cd325a46e3b7cb85cd4346660bda3b38e8b7c632f0d3877f7e42ae5",
    ),
}


def _digests(config_path, out):
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    return tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("rounds.csv", "summary.json")
    )


_ON_CHANGE = "If the change is intended, update the digests here and give the reason in CHANGES.md."


@pytest.mark.parametrize("config", sorted(GOLDEN))
def test_shipped_config_outputs_are_unchanged(config, tmp_path, capsys):
    got = _digests(CONFIGS / config, tmp_path / "out")
    assert got == GOLDEN[config], (
        f"{config}: run outputs changed (rounds.csv, summary.json digests {got}). {_ON_CHANGE}"
    )


@pytest.mark.parametrize("name", sorted(INLINE))
def test_inline_config_outputs_are_unchanged(name, tmp_path, capsys):
    raw, *want = INLINE[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    got = _digests(path, tmp_path / "out")
    assert got == tuple(want), (
        f"{name}: run outputs changed (rounds.csv, summary.json digests {got}). {_ON_CHANGE}"
    )
