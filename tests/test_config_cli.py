"""Config parsing (strictness, round-trips) and the command-line surface
(verbs, artifacts, exit codes)."""

import csv
import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import pytest
import yaml

from feo2.analytic import (
    AnalyticParams,
    server_variance_at,
    server_variance_dpfedavg,
    server_variance_fedavg,
    server_variance_opt,
)
from feo2.cli import main
from feo2.config import (
    Algorithm,
    DittoConfig,
    ExperimentConfig,
    FeO2Config,
    PoolSpec,
    PopulationKind,
    PopulationSpec,
    build_experiment_config,
    config_to_dict,
    manifest_hash,
    parse_config,
)
from feo2.privacy import Mechanism
from feo2.simulate import run_experiment

GOOD = {
    "population": {
        "kind": "point_estimation",
        "n_clients": 12,
        "rho_np": 0.25,
        "samples_per_client": 5,
        "tau2": 0.2,
        "beta2": 1.0,
        "d": 2,
        "seed": 4,
    },
    "algorithm": "feo2",
    "feo2": {"r": 0.5, "z": 0.7, "S0": 2.0},
    "ditto": {"lambda_p": 0.4, "lambda_np": 0.6},
    "rounds": 3,
    "master_seed": 21,
}


def _write(tmp_path, mapping, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(mapping), encoding="utf-8")
    return str(path)


# --- parsing ----------------------------------------------------------------


def test_full_config_parses(tmp_path):
    cfg = parse_config(_write(tmp_path, GOOD))
    assert cfg.algorithm is Algorithm.FEO2
    assert cfg.population.kind is PopulationKind.POINT_ESTIMATION
    assert cfg.population.n_clients - cfg.population.n_np == 9
    assert cfg.feo2.r == 0.5
    assert cfg.ditto.lambda_np == 0.6
    assert cfg.rounds == 3


def test_floats_without_a_dot_load_as_floats(tmp_path):
    # json.dumps writes 1e-5 as "1e-05"; YAML 1.1 reads both forms as strings.
    as_json = tmp_path / "cfg.json"
    as_json.write_text(json.dumps(dict(GOOD, delta=1e-5)), encoding="utf-8")
    as_yaml = tmp_path / "cfg.yaml"
    as_yaml.write_text(yaml.safe_dump(GOOD) + "delta: 1e-5\n", encoding="utf-8")
    for path in (as_json, as_yaml):
        assert parse_config(str(path)).delta == 1e-5


def test_config_round_trips_through_plain_dict():
    cfg = build_experiment_config(GOOD)
    again = build_experiment_config(config_to_dict(cfg))
    assert again == cfg
    assert manifest_hash(again) == manifest_hash(cfg)


def test_manifest_hash_tracks_content():
    a = build_experiment_config(GOOD)
    changed = dict(GOOD, rounds=4)
    assert manifest_hash(a) != manifest_hash(build_experiment_config(changed))


def test_unknown_key_is_named():
    bad = dict(GOOD, feo2={"r": 0.5, "momentum": 0.9})
    with pytest.raises(ValueError, match="momentum"):
        build_experiment_config(bad)
    with pytest.raises(ValueError, match="config root"):
        build_experiment_config(dict(GOOD, extra=1))
    # YAML keys need not be strings, and an int and a str key do not sort together
    with pytest.raises(ValueError, match="^unknown key '1' in section 'feo2'$"):
        build_experiment_config(dict(GOOD, feo2={1: 0.5, "momentum": 0.9}))


def test_bad_enum_values_are_reported():
    with pytest.raises(ValueError, match="algorithm must be one of"):
        build_experiment_config(dict(GOOD, algorithm="sgd"))
    pop = dict(GOOD["population"], kind="images")
    with pytest.raises(ValueError, match="kind must be one of"):
        build_experiment_config(dict(GOOD, population=pop))


def test_missing_sections_are_reported():
    with pytest.raises(ValueError, match="population"):
        build_experiment_config({"algorithm": "feo2"})
    with pytest.raises(ValueError, match="algorithm"):
        build_experiment_config({"population": GOOD["population"]})
    # named by key and section, not by Python's "missing positional arguments" text
    with pytest.raises(ValueError, match="^missing required key 'n_clients' in section 'population'$"):
        build_experiment_config(dict(GOOD, population={"kind": "point_estimation"}))
    with pytest.raises(ValueError, match="^missing required key 'lambda_p' in section 'ditto'$"):
        build_experiment_config(dict(GOOD, ditto={}))


@pytest.mark.parametrize(
    "section, value",
    [("population", 5), ("population", [1, 2]), ("population", "abc"), ("population", None),
     ("feo2", None)],  # feo2 may be left out (all defaults), but a null feo2 is not a mapping
)
def test_population_section_must_be_a_mapping(section, value):
    with pytest.raises(ValueError, match=f"section '{section}' must be a mapping"):
        build_experiment_config(dict(GOOD, **{section: value}))


def test_fedavg_requires_zero_noise():
    with pytest.raises(ValueError, match="z = 0"):
        build_experiment_config(dict(GOOD, algorithm="fedavg"))


BASELINE_RATIO_CASES = [  # GOOD has r = 0.5
    ("dpfedavg", {"r": 0.5, "z": 0.7, "S0": 2.0}),
    ("fedavg", {"r": 0.5, "z": 0.0, "S0": 2.0}),
]


@pytest.mark.parametrize("algorithm, feo2", BASELINE_RATIO_CASES, ids=[a for a, _ in BASELINE_RATIO_CASES])
@pytest.mark.parametrize("verb", ["validate", "run"])
def test_baselines_reject_a_ratio_other_than_1_with_exit_2(tmp_path, capsys, verb, algorithm, feo2):
    # the baselines weight both groups alike, so no r other than 1 has a meaning there
    raw = dict(GOOD, algorithm=algorithm, feo2=feo2)
    flags = ["--out", str(tmp_path / "out")] if verb == "run" else []
    assert main([verb, "--config", _write(tmp_path, raw), *flags]) == 2
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr().err == f"config error: {algorithm} must run with r = 1\n"
    assert build_experiment_config(dict(raw, feo2=dict(feo2, r=1.0))).feo2.r == 1.0


def test_value_range_checks():
    with pytest.raises(ValueError, match=r"r must be in \[0, 1\]"):
        FeO2Config(r=1.2)
    with pytest.raises(ValueError):
        PopulationSpec(kind=PopulationKind.POINT_ESTIMATION, n_clients=0, rho_np=0.5)
    with pytest.raises(ValueError):
        ExperimentConfig(
            population=PopulationSpec(
                kind=PopulationKind.POINT_ESTIMATION, n_clients=2, rho_np=0.5
            ),
            algorithm=Algorithm.FEO2,
            cohort_fraction=0.0,
        )


def test_skew_label_restricted_to_shard_populations():
    with pytest.raises(ValueError, match="skew_label"):
        PopulationSpec(
            kind=PopulationKind.POINT_ESTIMATION, n_clients=4, rho_np=0.5, skew_label=3
        )


POINT = PopulationSpec(kind=PopulationKind.POINT_ESTIMATION, n_clients=4, rho_np=0.5)
LABEL_SHARD = PopulationSpec(kind=PopulationKind.LABEL_SHARD, n_clients=4, rho_np=0.5, skew_label=0)
VALID = [  # one valid instance of each config object
    PoolSpec(),
    LABEL_SHARD,
    FeO2Config(),
    DittoConfig(lambda_p=0.5, lambda_np=0.5),
    ExperimentConfig(population=POINT, algorithm=Algorithm.FEO2),
    AnalyticParams(N=10, N_p=1, tau2=0.5, beta2=1.0, gamma2=0.1),
]


@pytest.mark.parametrize("valid", VALID, ids=[type(v).__name__ for v in VALID])
def test_every_annotated_field_rejects_values_its_type_does_not_admit(valid):
    hints = typing.get_type_hints(type(valid))
    for field in dataclasses.fields(valid):
        optional = type(None) in typing.get_args(hints[field.name])
        kind = typing.get_args(hints[field.name])[0] if optional else hints[field.name]
        bad = {int: [float("nan"), True, 2.5], float: [float("nan"), True, 10**400], str: [0, True]}.get(kind, [])
        for value in bad + ([] if optional else [None]):
            with pytest.raises(ValueError, match=f"^{field.name} must be "):
                dataclasses.replace(valid, **{field.name: value})


# Every bounded field, with its range as its error message reads it.
RANGES = {
    PoolSpec: {"classes": ">= 2", "per_class": ">= 1", "feature_dim": ">= 1", "spread": ">= 0"},
    PopulationSpec: {
        "n_clients": ">= 1", "rho_np": "in [0, 1]", "samples_per_client": ">= 1", "seed": ">= 0",
        "tau2": ">= 0", "beta2": ">= 0", "d": ">= 1", "skew_label": ">= 0",
    },
    FeO2Config: {
        "r": "in [0, 1]", "z": "in [0, 1e+100]", "z_b": ">= 0", "S0": "> 0", "kappa": "in [0, 1]",
        "eta_b": "> 0", "eta": "> 0", "epochs": ">= 1", "batch_size": ">= 1",
    },
    DittoConfig: {"lambda_p": ">= 0", "lambda_np": ">= 0", "eta_p": "> 0"},
    ExperimentConfig: {"rounds": ">= 0", "cohort_fraction": "in (0, 1]", "master_seed": ">= 0", "delta": "in (0, 1)"},
    AnalyticParams: {
        "N": ">= 1", "N_p": ">= 0", "tau2": ">= 0", "beta2": ">= 0", "gamma2": ">= 0", "n_s": ">= 1", "d": ">= 1",
    },
}


def _ends(text):
    """(value, closed, direction outward) for each finite end of a range as its message reads it."""
    if text.startswith(">"):
        return [(float(text.split()[-1]), text.startswith(">="), -1)]
    lo, hi = text[4:-1].split(", ")
    return [(float(lo), text[3] == "[", -1), (float(hi), text[-1] == "]", 1)]


def _without(ranges, *names):
    return {name: text for name, text in ranges.items() if name not in names}


# (instance, the ranges it checks): each instance is valid at every end of those
# ranges. A label shard takes no tau2, beta2 or d, and needs samples_per_client
# >= 2 (a cross-field rule), and the Gaussian kinds take no skew_label, so the
# PopulationSpec ranges are split between the two kinds.
RANGE_CASES = {
    **{type(v).__name__: (v, RANGES[type(v)]) for v in VALID if v is not LABEL_SHARD},
    "PopulationSpec": (LABEL_SHARD, _without(RANGES[PopulationSpec], "tau2", "beta2", "d", "samples_per_client")),
    "PopulationSpec-point_estimation": (POINT, _without(RANGES[PopulationSpec], "skew_label")),
}


@pytest.mark.parametrize("valid, ranges", RANGE_CASES.values(), ids=list(RANGE_CASES))
def test_every_declared_range_admits_its_closed_ends_and_nothing_past_them(valid, ranges):
    hints = typing.get_type_hints(type(valid), include_extras=True)
    declared = {name for name, hint in hints.items() if getattr(hint, "__metadata__", ())}
    assert declared == set(RANGES[type(valid)])
    assert declared == set().union(*(r for v, r in RANGE_CASES.values() if type(v) is type(valid)))
    for name, text in ranges.items():
        inner = typing.get_args(hints[name])[0]  # the type the Range annotates
        is_int = int in (inner, *typing.get_args(inner))
        refused = f"^{re.escape(f'{name} must be {text}')}$"
        for end, closed, outward in _ends(text):
            past = int(end) + outward if is_int else math.nextafter(end, outward * math.inf)
            at = int(end) if is_int else end
            if closed:
                assert getattr(dataclasses.replace(valid, **{name: at}), name) == at
            else:
                with pytest.raises(ValueError, match=refused):
                    dataclasses.replace(valid, **{name: at})
            with pytest.raises(ValueError, match=refused):
                dataclasses.replace(valid, **{name: past})


# --- CLI --------------------------------------------------------------------


def test_run_writes_the_three_artifacts(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--config", _write(tmp_path, GOOD), "--out", str(out)])
    assert rc == 0
    rows = (out / "rounds.csv").read_text().splitlines()
    assert rows[0] == (
        "round,S,N_p_t,N_np_t,acc_g,acc_g_p,acc_g_np,acc_l_p,acc_l_np,delta_g,delta_l,epsilon"
    )
    assert len(rows) == 1 + 3
    parsed = list(csv.DictReader(rows))
    assert [int(r["round"]) for r in parsed] == [0, 1, 2]
    assert all(int(r["N_p_t"]) + int(r["N_np_t"]) == 12 for r in parsed)

    summary = json.loads((out / "summary.json").read_text())
    assert summary["rounds_completed"] == 3
    assert summary["final_round"]["round"] == 2

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["config"]["rounds"] == 3
    assert len(manifest["config_sha256"]) == 64
    assert manifest["mechanism"] == Mechanism.from_config(build_experiment_config(GOOD)).to_dict()
    assert manifest["mechanism"] == {
        "q": 1.0, "cohort_size": 12, "z": 0.7, "z_b": 0.0, "sampling": "fixed-size without replacement",
        "noise_denominator": "realised count", "clip_bits_charged": False,
    }

    fedavg = _with(_with(GOOD, "algorithm", "fedavg"), "feo2", {"S0": 2.0})
    assert main(["run", "--config", _write(tmp_path, fedavg, "fedavg.yaml"), "--out", str(tmp_path / "fedavg")]) == 0
    assert json.loads((tmp_path / "fedavg" / "manifest.json").read_text())["mechanism"]["z"] == 0


def test_run_seed_flag_overrides_master_seed(tmp_path):
    cfg = _write(tmp_path, GOOD)
    main(["run", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "5"])
    main(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "5"])
    main(["run", "--config", cfg, "--out", str(tmp_path / "c"), "--seed", "6"])
    a = (tmp_path / "a/rounds.csv").read_bytes()
    assert a == (tmp_path / "b/rounds.csv").read_bytes()
    assert a != (tmp_path / "c/rounds.csv").read_bytes()
    assert json.loads((tmp_path / "a/manifest.json").read_text())["config"]["master_seed"] == 5


def test_run_failure_flushes_partial_csv_and_exits_1(tmp_path, capsys):
    # IDX files that exist but do not parse: validate builds the population and
    # rejects them, while run reports the failure in its outputs
    for name in ("i.idx", "l.idx"):
        (tmp_path / name).write_text("garbage")
    bad = _with(_with(SHARD, "population.pool.idx_images", str(tmp_path / "i.idx")),
                "population.pool.idx_labels", str(tmp_path / "l.idx"))
    cfg = _write(tmp_path, bad)
    assert main(["validate", "--config", cfg]) == 2
    assert "bad magic" in capsys.readouterr().err
    out = tmp_path / "out"
    rc = main(["run", "--config", cfg, "--out", str(out)])
    assert rc == 1
    lines = (out / "rounds.csv").read_text().splitlines()
    assert lines[-1].startswith("FAILED,")
    assert "bad magic" in lines[-1]
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"
    assert "run failed" in capsys.readouterr().err


def test_config_errors_exit_2(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "none.yaml"), "--out", str(tmp_path / "o")])
    assert rc == 2
    bad = _write(tmp_path, dict(GOOD, feo2={"zz": 1}), name="bad.yaml")
    rc = main(["validate", "--config", bad])
    assert rc == 2
    assert "zz" in capsys.readouterr().err
    # an underdetermined regression design is a config error at both verbs
    short = _write(tmp_path, _with(_with(GOOD, "population.kind", "linear_regression"), "population.d", 9))
    assert main(["validate", "--config", short]) == 2
    assert main(["run", "--config", short, "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    assert capsys.readouterr().err.count("samples_per_client >= d") == 2
    # a label shard keeps at least one example per client for test, so one is too few
    single = _write(tmp_path, _with(SHARD, "population.samples_per_client", 1), name="single.yaml")
    assert main(["validate", "--config", single]) == 2
    assert main(["run", "--config", single, "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    assert capsys.readouterr().err.count("config error: label_shard needs samples_per_client >= 2") == 2


def test_malformed_yaml_is_a_config_error_with_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("population: [1, 2\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["validate", "--config", str(bad)]) == 2
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("config error: while parsing a flow sequence") == 2
    assert "expected ',' or ']'" in err


# A key given twice in one mapping used to keep its last value silently: a private
# run's `z: 1.0` followed by `z: 0.0` trained with no noise.
@pytest.mark.parametrize(
    "name, text, key, line",
    [
        ("cfg.yaml", yaml.safe_dump(GOOD).replace("  z: 0.7\n", "  z: 1.0\n  z: 0.0\n"), "z", 9),
        ("cfg.json", json.dumps(GOOD, indent=1).replace('"rounds": 3', '"rounds": 2,\n "rounds": 3'), "rounds", 23),
    ],
    ids=["yaml", "json"],
)
def test_a_key_given_twice_is_a_config_error_with_exit_2(tmp_path, capsys, name, text, key, line):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["validate", "--config", str(path)]) == 2
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count(f"config error: duplicate key '{key}'") == 2
    assert err.count(f", line {line}, column ") == 2


def test_a_key_that_overrides_a_yaml_merge_key_is_not_a_duplicate(tmp_path):
    text = yaml.safe_dump({k: v for k, v in GOOD.items() if k != "feo2"}) + "feo2:\n  <<: {r: 0.5, z: 0.7}\n  z: 0.9\n"
    path = tmp_path / "cfg.yaml"
    path.write_text(text, encoding="utf-8")
    assert (parse_config(str(path)).feo2.r, parse_config(str(path)).feo2.z) == (0.5, 0.9)


def test_an_unusable_out_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg = _write(tmp_path, GOOD)
    (tmp_path / "file").write_text("", encoding="utf-8")
    dest = tmp_path / "file" / "x.json"
    solve = ["solve-z", "--epsilon", "2", "--delta", "1e-5", "--q", "0.02", "--rounds", "100"]
    for argv in (solve, ["run", "--config", cfg]):
        assert main([*argv, "--out", str(dest)]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith(f"output error: {dest}: "), captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml", "file"]
    assert (tmp_path / "file").read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("name", ["manifest.json", "summary.json"])
def test_an_unwritable_manifest_or_summary_exits_2_after_a_complete_csv(tmp_path, capsys, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)  # was an IsADirectoryError traceback with exit 1
    assert main(["run", "--config", _write(tmp_path, GOOD), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"output error: {out / name}: "), err
    assert "Traceback" not in err
    rows = list(csv.DictReader((out / "rounds.csv").read_text().splitlines()))
    assert [int(r["round"]) for r in rows] == [0, 1, 2]


SRC = Path(__file__).resolve().parents[1] / "src"

# Runs verbs in a fresh interpreter and prints, as its last line, whether PyYAML
# and the thread pool module were loaded after each stage.
_IMPORT_PROBE = """
import json, sys
from feo2.cli import main
cfg, out = sys.argv[1:]
seen = {}
def stage(name, *argvs):
    for argv in argvs:
        assert main(argv) == 0, argv
    seen[name] = {m: m in sys.modules for m in ("yaml", "concurrent.futures")}
stage("import")
stage(
    "analysis",
    ["solve-z", "--epsilon", "2", "--delta", "1e-5", "--q", "0.02", "--rounds", "100"],
    ["analytic", "ratio", "--N", "100", "--N-p", "95", "--sigma-c2", "1.0", "--gamma2", "0.01"],
)
stage("validate", ["validate", "--config", cfg])
stage("run", ["run", "--config", cfg, "--out", out, "--workers", "1"])
print(json.dumps(seen))
"""


def test_each_verb_imports_only_what_it_uses(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, _write(tmp_path, GOOD), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True,
    )
    seen = json.loads(proc.stdout.splitlines()[-1])
    no = {"yaml": False, "concurrent.futures": False}
    assert seen["import"] == no
    assert seen["analysis"] == no
    assert seen["validate"] == {"yaml": True, "concurrent.futures": False}  # the probe sees an import
    assert seen["run"]["concurrent.futures"] is False
    assert (tmp_path / "out" / "rounds.csv").exists()


def _with(mapping, dotted, value):
    """A deep copy of ``mapping`` with the dotted key set to ``value``."""
    out = json.loads(json.dumps(mapping))
    *path, last = dotted.split(".")
    node = out
    for key in path:
        node = node.setdefault(key, {})
    node[last] = value
    return out


# GOOD as a label-shard run, without the Gaussian kinds' tau2 and d, which a label shard refuses
SHARD = _with(GOOD, "population", {
    **{k: v for k, v in GOOD["population"].items() if k not in ("tau2", "d")}, "kind": "label_shard",
})


INTEGER_FIELD_CASES = [  # (config, key, value, extra run flags)
    (GOOD, "rounds", 2.5, []),
    (GOOD, "rounds", True, []),
    (GOOD, "feo2.epochs", 1.5, []),
    (GOOD, "feo2.batch_size", 2.5, []),
    (GOOD, "master_seed", -1, []),
    (GOOD, "master_seed", 1.5, []),
    (GOOD, "population.seed", -3, []),
    (GOOD, "population.n_clients", 12.0, []),
    (GOOD, "master_seed", 21, ["--seed", "-1"]),
    (SHARD, "population.skew_label", True, []),
    (SHARD, "population.skew_label", -1, []),  # was a run failure: exit 1 and a FAILED row
    (SHARD, "population.pool.per_class", 2.5, []),
]


@pytest.mark.parametrize(
    "base, key, value, flags",
    INTEGER_FIELD_CASES,
    ids=["=".join(flags) or f"{key}={value}" for _, key, value, flags in INTEGER_FIELD_CASES],
)
def test_integer_fields_reject_other_values_with_exit_2(tmp_path, capsys, base, key, value, flags):
    out = tmp_path / "out"
    cfg = _write(tmp_path, _with(base, key, value))
    assert main(["run", "--config", cfg, "--out", str(out), *flags]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "config error" in err and key.split(".")[-1] in err


NAN, INF = float("nan"), float("inf")
FLOAT_FIELD_CASES = [  # (config, key, value)
    (GOOD, "feo2.z_b", NAN),  # was exit 0: the clip bits were released with no noise
    (GOOD, "feo2.r", True),  # was exit 0 with r = 1
    (GOOD, "cohort_fraction", True),
    (GOOD, "feo2.z", INF),
    (GOOD, "feo2.eta", INF),
    (GOOD, "feo2.S0", INF),
    (GOOD, "feo2.eta_b", INF),
    (GOOD, "population.tau2", NAN),
    (GOOD, "population.beta2", INF),
    (GOOD, "ditto.lambda_p", NAN),
    (GOOD, "ditto.lambda_np", NAN),
    (GOOD, "ditto.eta_p", NAN),
    (SHARD, "population.pool.spread", NAN),
    (SHARD, "population.pool.spread", -1.0),
]


@pytest.mark.parametrize(
    "base, key, value", FLOAT_FIELD_CASES, ids=[f"{key}={value}" for _, key, value in FLOAT_FIELD_CASES]
)
def test_float_fields_reject_non_finite_bool_and_negative_values_with_exit_2(
    tmp_path, capsys, base, key, value
):
    out = tmp_path / "out"
    cfg = _write(tmp_path, _with(base, key, value))
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "config error" in err and key.split(".")[-1] in err


NULL_FIELD_CASES = [  # (config, key, whether the key may be null)
    (GOOD, "rounds", False),
    (GOOD, "master_seed", False),
    (GOOD, "delta", False),
    (GOOD, "cohort_fraction", False),
    (GOOD, "feo2.z", False),
    (GOOD, "feo2.eta", False),
    (GOOD, "population.n_clients", False),
    (GOOD, "population.rho_np", False),
    (GOOD, "population.tau2", False),
    (GOOD, "population.samples_per_client", False),
    (GOOD, "feo2.batch_size", True),
    (SHARD, "population.skew_label", True),
    (GOOD, "ditto.eta_p", True),
]


@pytest.mark.parametrize(
    "base, key, optional", NULL_FIELD_CASES, ids=[key for _, key, _ in NULL_FIELD_CASES]
)
def test_null_numeric_field_is_a_named_error_unless_optional(tmp_path, capsys, base, key, optional):
    rc = main(["validate", "--config", _write(tmp_path, _with(base, key, None))])
    err = capsys.readouterr().err
    if optional:
        assert rc == 0, err
    else:
        assert rc == 2
        assert "config error" in err and key.split(".")[-1] in err and "NoneType" not in err


IDX_PATH_CASES = [  # (value, message)
    (0, "idx_images must be a string"),  # open() takes an int as a file descriptor: 0 is stdin
    (True, "idx_images must be a string"),  # and True is stdout
    ("/nonexistent/images.idx", "idx_images must name an existing file"),  # a run would fail mid-way
]


@pytest.mark.parametrize("value, message", IDX_PATH_CASES, ids=["0", "True", "missing"])
@pytest.mark.parametrize("verb", ["validate", "run"])
def test_idx_paths_must_be_strings_with_exit_2(tmp_path, capsys, verb, value, message):
    raw = _with(_with(SHARD, "population.pool.idx_images", value), "population.pool.idx_labels", value)
    flags = ["--out", str(tmp_path / "out")] if verb == "run" else []
    assert main([verb, "--config", _write(tmp_path, raw), *flags]) == 2
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert "config error" in err and message in err


def test_idx_pools_reject_out_of_range_blob_fields(tmp_path):
    # the blob fields are declared once, so an IDX pool is held to their ranges too
    for name in ("i.idx", "l.idx"):
        (tmp_path / name).write_bytes(b"")
    idx = {"idx_images": str(tmp_path / "i.idx"), "idx_labels": str(tmp_path / "l.idx")}
    for key, value, text in (("classes", 1, ">= 2"), ("per_class", 0, ">= 1"), ("feature_dim", 0, ">= 1")):
        with pytest.raises(ValueError, match=f"^{key} must be {text}$"):
            PoolSpec(**idx, **{key: value})
    with pytest.raises(ValueError, match="^idx_images and idx_labels must be given together$"):
        PoolSpec(idx_images=idx["idx_images"])


def test_a_pool_on_a_quadratic_population_is_a_config_error(tmp_path, capsys):
    raw = _with(GOOD, "population.pool", {"classes": 3})
    assert main(["validate", "--config", _write(tmp_path, raw)]) == 2
    assert capsys.readouterr().err == "config error: pool only applies to label_shard populations\n"


@pytest.mark.parametrize("key, value", [("tau2", 0.2), ("beta2", 2.0), ("d", 7)])
def test_a_label_shard_refuses_the_gaussian_fields(tmp_path, capsys, key, value):
    # the label-shard builder reads none of them, so a config that set one would
    # hash differently from the run it describes
    raw = _with(SHARD, f"population.{key}", value)
    assert main(["validate", "--config", _write(tmp_path, raw)]) == 2
    want = f"config error: {key} only applies to point_estimation and linear_regression populations\n"
    assert capsys.readouterr().err == want


@pytest.mark.parametrize("key, value", [("classes", 3), ("per_class", 50), ("feature_dim", 4), ("spread", 1.0)])
def test_an_idx_pool_refuses_the_blob_fields(tmp_path, capsys, key, value):
    for name in ("i.idx", "l.idx"):
        (tmp_path / name).write_bytes(b"")
    idx = {"idx_images": str(tmp_path / "i.idx"), "idx_labels": str(tmp_path / "l.idx")}
    raw = _with(SHARD, "population.pool", {**idx, key: value})
    assert main(["validate", "--config", _write(tmp_path, raw)]) == 2
    assert capsys.readouterr().err == f"config error: {key} only applies to synthetic pools, not beside idx_images\n"


def test_fields_a_kind_does_not_read_are_accepted_at_their_defaults(tmp_path):
    spec = PopulationSpec(kind=PopulationKind.LABEL_SHARD, n_clients=4, rho_np=0.5, tau2=0.0, beta2=1, d=1)
    assert spec == PopulationSpec(kind=PopulationKind.LABEL_SHARD, n_clients=4, rho_np=0.5)
    for name in ("i.idx", "l.idx"):
        (tmp_path / name).write_bytes(b"")
    idx = {"idx_images": str(tmp_path / "i.idx"), "idx_labels": str(tmp_path / "l.idx")}
    assert PoolSpec(**idx, classes=10, per_class=200, feature_dim=16, spread=3.0) == PoolSpec(**idx)


def test_float_fields_take_integer_literals():
    raw = _with(_with(GOOD, "feo2.S0", 2), "ditto.lambda_np", 1)
    cfg = build_experiment_config(raw)
    assert (cfg.feo2.S0, cfg.ditto.lambda_np) == (2, 1)
    assert build_experiment_config(config_to_dict(cfg)) == cfg


def test_an_integer_literal_in_a_float_field_is_stored_as_its_float(tmp_path):
    # z: 1 and z: 1.0 are one config: one hash, one mapping, and 1.0 in every output
    cfgs = [build_experiment_config(_with(GOOD, "feo2.z", z)) for z in (1, 1.0)]
    assert type(cfgs[0].feo2.z) is float
    assert len({manifest_hash(cfg) for cfg in cfgs}) == 1
    assert len({json.dumps(config_to_dict(cfg), sort_keys=True) for cfg in cfgs}) == 1
    for name, z in (("int", 1), ("float", 1.0)):
        out, path = tmp_path / name, _write(tmp_path, _with(GOOD, "feo2.z", z), f"{name}.yaml")
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        summary = json.loads((out / "summary.json").read_text())
        assert manifest["config_sha256"] == manifest_hash(cfgs[1])
        zs = (manifest["config"]["feo2"]["z"], manifest["mechanism"]["z"], summary["privacy"]["charged"][0]["z"])
        assert [repr(z) for z in zs] == ["1.0"] * 3


def test_validate_prints_resolved_config(tmp_path, capsys):
    rc = main(["validate", "--config", _write(tmp_path, GOOD)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["algorithm"] == "feo2"
    assert payload["config"]["feo2"]["z"] == 0.7
    assert len(payload["config_sha256"]) == 64


def test_solve_z_verb_roundtrip(tmp_path, capsys):
    rc = main(["solve-z", "--epsilon", "4.0", "--delta", "1e-5", "--q", "0.05", "--rounds", "30"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    z = payload["z"]
    from feo2.accounting import PrivacyLedger, account_round, epsilon_at_delta

    ledger = PrivacyLedger()
    for _ in range(30):
        ledger = account_round(ledger, 0.05, z)
    assert epsilon_at_delta(ledger, 1e-5)[0] == pytest.approx(4.0, abs=1e-3)
    assert (payload["achieved_epsilon"], payload["order"]) == epsilon_at_delta(ledger, 1e-5)


def test_a_fully_charged_run_ends_at_the_achieved_epsilon(capsys):
    argv = ["solve-z", "--epsilon", "2", "--delta", "1e-5", "--q", "0.02", "--rounds", "100"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    # DP-FedAvg: every client is private, so each round's cohort of 2 is charged.
    raw = {
        "population": {"kind": "point_estimation", "n_clients": 100, "rho_np": 0.5},
        "algorithm": "dpfedavg",
        "feo2": {"z": payload["z"]},
        "rounds": 100,
        "cohort_fraction": 0.02,
        "delta": 1e-5,
    }
    result = run_experiment(build_experiment_config(raw))
    assert sum(c for *_, c in result.ledger.counts) == 100
    assert result.reports[-1].epsilon == payload["achieved_epsilon"]


def test_solve_z_needs_a_round(capsys):
    assert main(["solve-z", "--epsilon", "2", "--delta", "1e-5", "--q", "0.02", "--rounds", "0"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "config error: rounds must be >= 1\n"


def test_solve_z_unreachable_exits_2(capsys):
    rc = main(["solve-z", "--epsilon", "1e-12", "--delta", "1e-5", "--q", "1.0", "--rounds", "1000"])
    assert rc == 2
    assert "reachable" in capsys.readouterr().err


def test_analytic_ratio_and_gaps(capsys):
    rc = main(
        ["analytic", "ratio", "--N", "100", "--N-p", "95", "--sigma-c2", "1.0", "--gamma2", "0.01"]
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["r_star"] == pytest.approx(0.512821, abs=1e-6)

    rc = main(
        ["analytic", "gaps", "--N", "100", "--N-p", "95", "--sigma-c2", "1.0", "--gamma2", "0.01"]
    )
    assert rc == 0
    gaps = json.loads(capsys.readouterr().out)
    assert gaps["gap_fedavg"] >= 0 and gaps["gap_dpfedavg"] >= 0


def test_analytic_lambdas_reports_unbounded_as_inf(capsys):
    rc = main(
        ["analytic", "lambdas", "--N", "10", "--N-p", "5", "--sigma-c2", "1.0", "--gamma2", "0.1"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda_opted_out"] == "inf"  # tau2 = 0 under the lumped parameterization


TETHER_FLAGS = ["--N", "100", "--N-p", "95", "--tau2", "0.5", "--beta2", "0.25", "--gamma2", "1.0"]
EXACT_FLAGS = ["--N", "100", "--N-p", "95", "--tau2", "0.5", "--beta2", "0", "--gamma2", "1.0"]


def test_an_exact_own_estimate_gets_a_zero_tether_in_every_form(capsys):
    # beta2 = 0 makes alpha2 = 0: the closed forms, their --r form and the sweep all say 0
    assert main(["analytic", "lambdas", *EXACT_FLAGS, "--r", "0.3"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "lambda_opted_out": 0.0,
        "lambda_private": 0.0,
        "at_r": {"r": 0.3, "lambda_private": 0.0, "lambda_opted_out": 0.0},
    }
    assert main(["analytic", "lambda-sweep", *EXACT_FLAGS, "--trials", "10", "--step", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["lambda_star"] == 0.0


ALL_PRIVATE = ["--N", "10", "--N-p", "10", "--sigma-c2", "1.0", "--gamma2", "0.1"]
ZERO_WEIGHT_CASES = [
    ("variance", [*ALL_PRIVATE, "--r", "0"]),  # printed "inf" before
    ("lambdas", [*ALL_PRIVATE, "--r", "0"]),
    ("r-sweep", [*ALL_PRIVATE, "--trials", "10", "--step", "0.5"]),
]


@pytest.mark.parametrize("verb, flags", ZERO_WEIGHT_CASES, ids=[v for v, _ in ZERO_WEIGHT_CASES])
def test_zero_total_weight_is_a_named_error_with_exit_2(verb, flags, capsys):
    assert main(["analytic", verb, *flags]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "config error: estimator undefined: zero total weight\n"


def test_variance_at_r_reports_the_closed_form(capsys):
    assert main(["analytic", "variance", *TETHER_FLAGS, "--r", "0.3"]) == 0
    p = AnalyticParams(N=100, N_p=95, tau2=0.5, beta2=0.25, gamma2=1.0)
    assert json.loads(capsys.readouterr().out)["at_r"] == {"r": 0.3, "variance": server_variance_at(p, 0.3)}
ANALYTIC_VALUE_CASES = [  # (verb, flags, the name the error must give)
    ("ratio", ["--N", "100", "--N-p", "95", "--sigma-c2", "nan", "--gamma2", "0.01"], "sigma_c2"),
    ("ratio", ["--N", "100", "--N-p", "95", "--sigma-c2", "1.0", "--gamma2", "inf"], "gamma2"),
    ("gaps", ["--N", "inf", "--N-p", "95", "--sigma-c2", "1.0", "--gamma2", "0.01"], "N must"),
    ("gaps", ["--N", "100", "--N-p", "nan", "--sigma-c2", "1.0", "--gamma2", "0.01"], "N_p must"),
    ("gaps", ["--N", "100", "--N-p", "95", "--tau2", "nan", "--beta2", "0.25", "--gamma2", "1"], "tau2"),
    ("gaps", ["--N", "100", "--N-p", "95", "--tau2", "0.5", "--beta2", "inf", "--gamma2", "1"], "beta2"),
    ("lambdas", [*TETHER_FLAGS, "--r", "2.5"], "r must"),  # was exit 0 with lambda -0.2166
    ("lambdas", [*TETHER_FLAGS, "--r", "-0.1"], "r must"),
    ("lambdas", [*TETHER_FLAGS, "--r", "nan"], "r must"),
]


@pytest.mark.parametrize(
    "verb, flags, name", ANALYTIC_VALUE_CASES, ids=[" ".join(c[1]) for c in ANALYTIC_VALUE_CASES]
)
def test_analytic_verbs_reject_non_finite_and_out_of_range_values_with_exit_2(verb, flags, name, capsys):
    assert main(["analytic", verb, *flags]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "config error" in out.err and name in out.err


@pytest.mark.parametrize("focal", ["private", "opted-out"])
def test_lambdas_at_r_1_equals_the_fedavg_sweeps_lambda_star(focal, capsys):
    # one focal convention: --N-p counts the focal client as private in both verbs
    assert main(["analytic", "lambdas", *TETHER_FLAGS, "--r", "1"]) == 0
    at_r = json.loads(capsys.readouterr().out)["at_r"]
    argv = ["analytic", "lambda-sweep", *TETHER_FLAGS, "--trials", "10", "--seed", "0"]
    assert main([*argv, "--focal", focal, "--aggregator", "fedavg"]) == 0
    sweep = json.loads(capsys.readouterr().out)
    assert at_r["lambda_" + focal.replace("-", "_")] == sweep["lambda_star"]


@pytest.mark.parametrize("focal", ["private", "opted-out"])
@pytest.mark.parametrize("aggregator", ["feo2", "fedavg"])
def test_lambda_star_is_the_sweeps_argmin_under_either_aggregator(focal, aggregator, capsys):
    # README's tether parameters at 200k trials on the default 0.05 grid
    argv = ["analytic", "lambda-sweep", *TETHER_FLAGS, "--trials", "200000", "--seed", "0"]
    assert main([*argv, "--focal", focal, "--aggregator", aggregator]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda_star"] >= 0.0
    assert abs(payload["lambda_star"] - payload["mc_argmin"]) <= 0.05 + 1e-9


ZERO_VARIANCE = ["--N", "100", "--N-p", "95", "--sigma-c2", "0", "--gamma2", "0"]
ZERO = {"opt": 0.0, "fedavg": 0.0, "dpfedavg": 0.0}
ZERO_GAPS = {"gap_fedavg": 0.0, "gap_dpfedavg": 0.0}
# sigma_c2 = 0 and rho_np*N_p*gamma2 = 0: the closed forms read 0/0, but every rule
# has the same variance there, so the optimum is sigma_p2/N and both gaps are 0.
COINCIDENT_OPTIMUM_CASES = [
    ("variance", ZERO_VARIANCE, ZERO),
    ("gaps", ZERO_VARIANCE, ZERO_GAPS),
    ("rho-sweep", [*ZERO_VARIANCE, "--step", "0.5"], {"rows": [{"rho_np": rho, **ZERO} for rho in (0.0, 0.5, 1.0)]}),
    ("gaps", ["--N", "100", "--N-p", "0", "--sigma-c2", "0", "--gamma2", "0.1"], ZERO_GAPS),
    # every client private at rho_np = 0: all three rules read sigma_p2/N = 100*0.1/100
    (
        "rho-sweep",
        ["--N", "100", "--N-p", "95", "--sigma-c2", "0", "--gamma2", "0.1", "--step", "0.5"],
        {
            "rows": [
                {"rho_np": 0.0, "opt": 0.1, "fedavg": 0.1, "dpfedavg": 0.1},
                {"rho_np": 0.5, "opt": 0.0, "fedavg": 0.025, "dpfedavg": 0.05},
                {"rho_np": 1.0, **ZERO},
            ]
        },
    ),
]


@pytest.mark.parametrize(
    "verb, flags, want", COINCIDENT_OPTIMUM_CASES, ids=[f"{v} {' '.join(f)}" for v, f, _ in COINCIDENT_OPTIMUM_CASES]
)
def test_a_coincident_optimum_is_sigma_p2_over_n_with_zero_gaps(verb, flags, want, capsys):
    assert main(["analytic", verb, *flags]) == 0
    assert json.loads(capsys.readouterr().out) == want


@pytest.mark.parametrize("verb, extra", [("ratio", []), ("r-sweep", ["--trials", "10"])])
def test_an_undefined_ratio_is_a_named_error_with_exit_2(verb, extra, capsys):
    # with every variance zero, every r gives variance 0: r* is not unique
    assert main(["analytic", verb, *ZERO_VARIANCE, *extra]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "config error: undefined ratio: all variances are zero\n"


def test_noise_free_clients_give_zero_variance_at_the_optimum(capsys):
    argv = ["analytic", "variance", "--N", "100", "--N-p", "95", "--sigma-c2", "0", "--gamma2", "0.1"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["opt"] == 0.0


def test_analytic_parameterization_conflict_exits_2(capsys):
    rc = main(
        [
            "analytic", "ratio", "--N", "10", "--N-p", "5", "--gamma2", "0.1",
            "--sigma-c2", "1.0", "--tau2", "0.5",
        ]
    )
    assert rc == 2
    assert "not both" in capsys.readouterr().err


def test_n_s_is_refused_beside_sigma_c2(capsys):
    # --sigma-c2 lumps alpha2 = beta2/n_s already, so an --n-s there would be ignored
    argv = ["analytic", "lambdas", "--N", "100", "--N-p", "95", "--sigma-c2", "1", "--gamma2", "1", "--n-s", "5"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "config error: give either --sigma-c2 or the --tau2/--beta2/--n-s split, not both\n"


def test_the_split_needs_both_tau2_and_beta2(capsys):
    assert main(["analytic", "ratio", "--N", "10", "--N-p", "5", "--gamma2", "0.1", "--tau2", "0.5"]) == 2
    assert capsys.readouterr().err == "config error: need --sigma-c2, or both --tau2 and --beta2\n"


def test_analytic_r_sweep_argmin(capsys):
    rc = main(
        [
            "analytic", "r-sweep", "--N", "100", "--N-p", "95", "--sigma-c2", "1.0",
            "--gamma2", "0.01", "--trials", "20000", "--seed", "1",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 22  # 21 grid points + inserted r*
    rs = [row["r"] for row in payload["rows"]]
    assert rs == sorted(rs)
    assert payload["r_star"] in rs


@pytest.mark.parametrize("step", ["0", "-0.1"])
@pytest.mark.parametrize("verb", ["r-sweep", "lambda-sweep", "rho-sweep"])
def test_analytic_sweeps_reject_a_step_that_is_not_positive(verb, step, capsys):
    rc = main(
        [
            "analytic", verb, "--N", "100", "--N-p", "95", "--sigma-c2", "1.0",
            "--gamma2", "0.01", "--step", step,
        ]
    )
    assert rc == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--step" in out.err


def test_analytic_rho_sweep_rows_match_the_closed_forms(capsys):
    rc = main(
        [
            "analytic", "rho-sweep", "--N", "100", "--N-p", "95", "--sigma-c2", "1",
            "--gamma2", "0.01", "--step", "0.5",
        ]
    )
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["rho_np"] for row in rows] == [0.0, 0.5, 1.0]
    base = AnalyticParams.from_sigma_c2(N=100.0, N_p=95.0, sigma_c2=1.0, gamma2=0.01)
    for row in rows:
        p = dataclasses.replace(base, N_p=base.N - row["rho_np"] * base.N)
        assert row["opt"] == server_variance_opt(p)
        assert row["fedavg"] == server_variance_fedavg(p)
        assert row["dpfedavg"] == server_variance_dpfedavg(p)
    # all private (rho 0) or none private (rho 1): the three rules coincide
    for row, value in ((rows[0], 0.02), (rows[-1], 0.01)):
        assert row["opt"] == row["fedavg"] == row["dpfedavg"] == pytest.approx(value, rel=1e-12)
    for row in rows[1:-1]:
        assert row["opt"] <= row["fedavg"] and row["opt"] <= row["dpfedavg"]


def test_analytic_out_flag_writes_file(tmp_path, capsys):
    dest = tmp_path / "ratio.json"
    main(
        [
            "analytic", "ratio", "--N", "100", "--N-p", "95", "--sigma-c2", "1.0",
            "--gamma2", "0.01", "--out", str(dest),
        ]
    )
    capsys.readouterr()
    assert json.loads(dest.read_text())["r_star"] == pytest.approx(0.512821, abs=1e-6)


@pytest.mark.parametrize("cohort_fraction", [0.1, 1.0], ids=["subsampled", "full_batch"])
@pytest.mark.parametrize("z", [1e-300, 1e-160, 1e-60, 1e160, 1e300])
def test_a_run_at_an_extreme_noise_multiplier_ends_defined_or_is_refused(tmp_path, capsys, z, cohort_fraction):
    # These runs trained round 0, then the accountant raised a bare arithmetic
    # error (exit 1). A tiny z now charges its true, huge or infinite, epsilon;
    # a z whose noise overflows the model's squares is refused before round 0.
    cfg = {
        **GOOD, "population": {**GOOD["population"], "n_clients": 20},
        "feo2": {**GOOD["feo2"], "z": z}, "cohort_fraction": cohort_fraction,
    }
    out = tmp_path / "out"
    rc = main(["run", "--config", _write(tmp_path, cfg), "--out", str(out)])
    err = capsys.readouterr().err
    if z > 1e100:
        assert (rc, err, out.exists()) == (2, "config error: z must be in [0, 1e+100]\n", False)
        return
    assert (rc, err) == (0, "")
    eps = [float(row["epsilon"]) for row in csv.DictReader((out / "rounds.csv").read_text().splitlines())]
    assert len(eps) == 3 and eps == sorted(eps) and not any(map(math.isnan, eps))
    charged = json.loads((out / "summary.json").read_text())["privacy"]["charged"]
    assert eps[-1] >= sum(c["rounds"] for c in charged) * 0.625 / z / z  # order 1.25's a/(2z²)


def _run_recording_warnings(tmp_path, cfg):
    """(exit code, rounds.csv lines, warnings raised) of one `run` of ``cfg``."""
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["run", "--config", _write(tmp_path, cfg), "--out", str(out)])
    return rc, (out / "rounds.csv").read_text().splitlines(), caught


OVERFLOW_CASES = [  # (shipped config, overrides, the failure)
    # The noised round-0 model is finite, but its squared error is not. This run
    # wrote a round-0 row with acc_g inf and delta_g nan after numpy overflow
    # warnings, then failed to clip round 1's updates without naming the round.
    ("point_demo.yaml", {"S0": 1.0e60}, {}, "non-finite squared error of the global model in round 0"),
    # The noise std z·S/N_p overflows to inf, so round 0's global model is not
    # finite. This run scored that model after numpy matmul warnings, wrote a
    # round-0 row with finite accuracies, and then blamed client 0 in round 1.
    ("skewed_label_shard.yaml", {"S0": 1.0e250}, {"rounds": 3}, "non-finite global model in round 0"),
]


@pytest.mark.parametrize("config, feo2, rest, failed", OVERFLOW_CASES, ids=["squares", "model"])
def test_a_run_whose_global_model_overflows_fails_naming_the_round(tmp_path, capsys, config, feo2, rest, failed):
    shipped = yaml.safe_load((Path(__file__).resolve().parents[1] / "configs" / config).read_text())
    cfg = {**shipped, "feo2": {**shipped["feo2"], "z": 1.0e100, **feo2}, **rest}
    rc, lines, caught = _run_recording_warnings(tmp_path, cfg)
    assert (rc, lines[1:], caught) == (1, [f"FAILED,{failed}"], [])
    assert capsys.readouterr().err == f"run failed: {failed}\n"


DIVERGENT_STEP_CASES = [  # (feo2 overrides, ditto, the failure)
    ({"eta": 3.0}, None, "non-finite update norm from client 4 in round 0"),
    ({"eta": 0.5}, {"lambda_p": 0.0, "lambda_np": 0.0, "eta_p": 3.0},
     "non-finite squared error of client 4's personal model in round 0"),
]


@pytest.mark.parametrize("feo2, ditto, failed", DIVERGENT_STEP_CASES, ids=["update", "personal_model"])
def test_a_run_whose_client_norms_overflow_fails_naming_the_client_and_round(tmp_path, capsys, feo2, ditto, failed):
    # A step of 3 doubles a model's distance to its client's data mean, so after
    # 511 steps every model is finite, but those of clients 4, 10 and 11, whose
    # means lie farther than about 2 from the start, have squared norms above
    # the largest float: the global step's updates, or Ditto's personal models.
    pop = {**GOOD["population"], "seed": 14}
    cfg = {**GOOD, "population": pop, "feo2": {**GOOD["feo2"], "epochs": 511, **feo2}, "ditto": ditto}
    rc, lines, caught = _run_recording_warnings(tmp_path, cfg)
    assert (rc, lines[1:], caught) == (1, [f"FAILED,{failed}"], [])
    assert capsys.readouterr().err == f"run failed: {failed}\n"


def test_workers_flag_validation(tmp_path, capsys):
    # a round trains its cohort in one step, so the flag takes only 1, and it
    # fails before any output is written
    for workers in ("0", "2"):
        out = tmp_path / f"o{workers}"
        rc = main(["run", "--config", _write(tmp_path, GOOD), "--out", str(out), "--workers", workers])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: --workers must be 1, got {workers}\n"
        assert not out.exists()
    for out, flag in (("o1", ["--workers", "1"]), ("o", [])):
        assert main(["run", "--config", _write(tmp_path, GOOD), "--out", str(tmp_path / out), *flag]) == 0
    assert (tmp_path / "o1" / "rounds.csv").read_bytes() == (tmp_path / "o" / "rounds.csv").read_bytes()
    assert "workers" not in json.loads((tmp_path / "o1" / "manifest.json").read_text())


# --- README -----------------------------------------------------------------


def _readme_commands() -> list:
    """Each `feo2 ...` command in README's bash blocks, with backslash
    continuations joined; a command that reads a shell variable is left out."""
    commands, in_bash, line = [], False, ""
    for raw in (SRC.parent / "README.md").read_text(encoding="utf-8").splitlines():
        if raw.startswith("```"):
            in_bash = raw == "```bash"
        elif in_bash:
            line += raw.strip()
            if line.endswith("\\"):
                line = line[:-1]
                continue
            if line.startswith("feo2 ") and "$" not in line:
                commands.append(line)
            line = ""
    return commands


README_COMMANDS = _readme_commands()


def test_the_readme_shows_every_top_level_verb():
    assert {"run", "analytic", "solve-z"} <= {command.split()[1] for command in README_COMMANDS}


@pytest.mark.parametrize("command", README_COMMANDS)
def test_each_readme_command_runs(command, tmp_path, monkeypatch, capsys):
    argv = shlex.split(command, comments=True)[1:]
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / Path(argv[at]).name)
    monkeypatch.chdir(SRC.parent)  # README paths are relative to the repository root
    assert main(argv) == 0, capsys.readouterr().err
