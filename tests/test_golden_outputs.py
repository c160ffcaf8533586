"""Golden digests of run outputs: the shipped example configs, three inline
configs that cover mini-batches with an uneven last batch, several epochs,
Ditto, sampled cohorts, every algorithm and every model kind, and the analysis
plan's printed answers.

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
        "c8b507ab43d417582c2580e135a31ad2b61df94886a16888ca0c77d694845bc7",
        "05053b15f8031d63f43a4f255bb484683b375a20f6af1834c717e38ac836b2b9",
    ),
    "skewed_label_shard.yaml": (
        "cc741ec34cf2de59f1273ae0b03526b865b55e82f40747dbcf702b68f121fe83",
        "f821a1bc50698a7ad66168273f47b97fdc98dd6943309ef84d233378a3fa0dff",
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
        "04997ffb448ae977629d96cef519ec69285b3dc064d94135b98690e0a3cf104d",
        "aa78fb82eb3e92ff9f0dd45fd48def9b9505d9ef16c526d2ec9de0116c0ce213",
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
        "bc4a18e6ddc93031fd2d52483d145971c72534ce7300ee38cd5b0ac47b5d1c3d",
        "7da7795cfe9264b506ad1de6ff8f5ab1c79615df665161ded8d8133bc39fabd2",
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
        "04acbcfb61f39e451f9f8afe0c45686e7d6f8081fcc2ba8c849725abd9b2a0db",
        "b4cb3f48f8a14c869e1496ab08649db3d4a412480ac8e8419d5fb3fc98ce2991",
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


_SERVER = ["--N", "100", "--N-p", "95", "--sigma-c2", "1.0", "--gamma2", "0.01"]
_TETHER = ["--N", "100", "--N-p", "95", "--tau2", "0.5", "--beta2", "0.25", "--gamma2", "1.0"]
_MC = ["--trials", "200000", "--seed", "0"]

# The analysis plan, in two parts: the closed forms and four solve-z targets,
# then its Monte Carlo checks, a d = 10 r-sweep and the four lambda-sweep arms,
# all at the CLI. A change to the Monte Carlo draws moves only the second digest.
PLAN = {
    "closed forms and solve-z": [
        ["analytic", "ratio", *_SERVER],
        ["analytic", "gaps", *_SERVER],
        ["analytic", "lambdas", *_TETHER],
        ["solve-z", "--epsilon", "2.0", "--delta", "1e-05", "--q", "0.02", "--rounds", "100"],
        ["solve-z", "--epsilon", "1.0", "--delta", "1e-05", "--q", "0.05", "--rounds", "200"],
        ["solve-z", "--epsilon", "4.0", "--delta", "1e-05", "--q", "0.01", "--rounds", "1000"],
        ["solve-z", "--epsilon", "8.0", "--delta", "1e-05", "--q", "0.1", "--rounds", "50"],
    ],
    "Monte Carlo": [
        ["analytic", "r-sweep", *_SERVER, "--dim", "10", "--step", "0.05", *_MC],
        *(
            ["analytic", "lambda-sweep", *_TETHER, "--focal", focal, "--aggregator", aggregator, *_MC]
            for focal in ("private", "opted-out")
            for aggregator in ("feo2", "fedavg")
        ),
    ],
}

# SHA-256 of each part's stdout, every call's JSON in order.
PLAN_SHA256 = {
    "closed forms and solve-z": "357fa1e53cc66dc02bd27a888e234a405bd645724ac0e55eb3fd34bc75c044a5",
    "Monte Carlo": "be42bbf4bb803f5badf61c700617007b2eb6d45e420968371868f2710a7e2ed1",
}


def test_analysis_plan_outputs_are_unchanged(capsys):
    # Twice in one process: the second pass reuses the parser and the Monte Carlo
    # caches, and must print the same bytes.
    for _ in range(2):
        for part, argvs in PLAN.items():
            capsys.readouterr()
            for argv in argvs:
                assert main(argv) == 0, argv
            got = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
            assert got == PLAN_SHA256[part], (
                f"analysis plan's {part} outputs changed (stdout digest {got}). {_ON_CHANGE}"
            )
