"""Golden digests of the shipped example configs' run outputs.

Every change to the simulator must leave ``rounds.csv`` and ``summary.json``
byte-identical for these configs, or say why they moved.
"""

import hashlib
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


@pytest.mark.parametrize("config", sorted(GOLDEN))
def test_shipped_config_outputs_are_unchanged(config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(CONFIGS / config), "--out", str(out)]) == 0
    got = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("rounds.csv", "summary.json")
    )
    assert got == GOLDEN[config], (
        f"{config}: run outputs changed (rounds.csv, summary.json digests {got}). "
        "If the change is intended, update GOLDEN here and give the reason in CHANGES.md."
    )
