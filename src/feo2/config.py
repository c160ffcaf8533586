"""Experiment configuration: dataclasses, file parsing, validation, hashing.

Config files are YAML (JSON is a YAML subset, so plain JSON files load too;
floats follow YAML 1.2, so ``1e-5`` and JSON's ``1e-05`` are numbers).
Parsing is strict: unknown keys and out-of-range values are rejected with the
offending key named, and a parsed config serializes back to the exact mapping
that reproduces it (`config_to_dict` / `build_experiment_config` round-trip).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import yaml

from .personalization import DittoConfig


class Algorithm(str, Enum):
    FEDAVG = "fedavg"
    DPFEDAVG = "dpfedavg"
    FEO2 = "feo2"


class PopulationKind(str, Enum):
    POINT_ESTIMATION = "point_estimation"
    LINEAR_REGRESSION = "linear_regression"
    LABEL_SHARD = "label_shard"


def _require_ints(obj, *names: str) -> None:
    """Reject a field of ``names`` that is not a Python int (bools are ints to
    Python, but ``rounds: true`` is not a count). None passes only for a field
    that defaults to None (``batch_size``, ``skew_label``)."""
    for name in names:
        value = getattr(obj, name)
        unset = value is None and obj.__dataclass_fields__[name].default is None
        if not unset and (isinstance(value, bool) or not isinstance(value, int)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _require_floats(obj, *names: str) -> None:
    """Reject a field of ``names`` that is not a finite int or float (NaN passes
    every range check, and ``r: true`` is not a ratio). None passes only for a
    field that defaults to None (``eta_p``)."""
    for name in names:
        value = getattr(obj, name)
        unset = value is None and obj.__dataclass_fields__[name].default is None
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
        if not unset and not ok:
            raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class PoolSpec:
    """Where label-shard sample pools come from: synthetic class blobs by
    default, or a pair of IDX files."""

    classes: int = 10
    per_class: int = 200
    feature_dim: int = 16
    spread: float = 3.0
    idx_images: Optional[str] = None
    idx_labels: Optional[str] = None

    def __post_init__(self):
        _require_ints(self, "classes", "per_class", "feature_dim")
        _require_floats(self, "spread")
        if self.spread < 0:
            raise ValueError("spread must be >= 0")
        if (self.idx_images is None) != (self.idx_labels is None):
            raise ValueError("idx_images and idx_labels must be given together")
        if self.idx_images is None:
            if self.classes < 2:
                raise ValueError("classes must be >= 2")
            if self.per_class < 1 or self.feature_dim < 1:
                raise ValueError("per_class and feature_dim must be >= 1")


@dataclass(frozen=True)
class PopulationSpec:
    kind: PopulationKind
    n_clients: int
    rho_np: float
    samples_per_client: int = 20
    seed: int = 0
    tau2: float = 0.0
    beta2: float = 1.0
    d: int = 1
    skew_label: Optional[int] = None
    pool: Optional[PoolSpec] = None

    def __post_init__(self):
        _require_ints(self, "n_clients", "samples_per_client", "seed", "d", "skew_label")
        _require_floats(self, "rho_np", "tau2", "beta2")
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if not 0.0 <= self.rho_np <= 1.0:
            raise ValueError("rho_np must be in [0, 1]")
        if self.samples_per_client < 1:
            raise ValueError("samples_per_client must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.tau2 < 0 or self.beta2 < 0:
            raise ValueError("tau2 and beta2 must be >= 0")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.skew_label is not None and self.kind is not PopulationKind.LABEL_SHARD:
            raise ValueError("skew_label only applies to label_shard populations")
        if self.pool is not None and self.kind is not PopulationKind.LABEL_SHARD:
            raise ValueError("pool only applies to label_shard populations")
        if self.kind is PopulationKind.LABEL_SHARD and self.pool is None:
            object.__setattr__(self, "pool", PoolSpec())

    @property
    def n_np(self) -> int:
        return round(self.rho_np * self.n_clients)

    @property
    def n_p(self) -> int:
        return self.n_clients - self.n_np


@dataclass(frozen=True)
class FeO2Config:
    """Algorithm mechanics: aggregation ratio r, noise multipliers, clip-norm
    tracking, and the local training loop."""

    r: float = 1.0
    z: float = 0.0
    z_b: float = 0.0
    S0: float = 1.0
    kappa: float = 0.5
    eta_b: float = 0.2
    eta: float = 1.0
    epochs: int = 1
    batch_size: Optional[int] = None

    def __post_init__(self):
        _require_ints(self, "epochs", "batch_size")
        _require_floats(self, "r", "z", "z_b", "S0", "kappa", "eta_b", "eta")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError("r must be in [0, 1]")
        if self.z < 0 or self.z_b < 0:
            raise ValueError("z and z_b must be >= 0")
        if self.S0 <= 0:
            raise ValueError("S0 must be > 0")
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError("kappa must be in [0, 1]")
        if self.eta_b <= 0:
            raise ValueError("eta_b must be > 0")
        if self.eta <= 0:
            raise ValueError("eta must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1 when given")


@dataclass(frozen=True)
class ExperimentConfig:
    population: PopulationSpec
    algorithm: Algorithm
    feo2: FeO2Config = FeO2Config()
    ditto: Optional[DittoConfig] = None
    rounds: int = 1
    cohort_fraction: float = 1.0
    master_seed: int = 0
    delta: float = 1e-5

    def __post_init__(self):
        _require_ints(self, "rounds", "master_seed")
        _require_floats(self, "cohort_fraction", "delta")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if not 0.0 < self.cohort_fraction <= 1.0:
            raise ValueError("cohort_fraction must be in (0, 1]")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.algorithm is Algorithm.FEDAVG and self.feo2.z != 0.0:
            raise ValueError("fedavg must run with z = 0")


def _from_mapping(cls, mapping, section: str):
    if not isinstance(mapping, dict):
        raise ValueError(f"section '{section}' must be a mapping")
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(mapping) - allowed
    if unknown:
        raise ValueError(f"unknown key '{sorted(unknown)[0]}' in section '{section}'")
    return cls(**mapping)


def build_experiment_config(raw: dict) -> ExperimentConfig:
    """Validate a plain mapping (parsed YAML/JSON) into an ExperimentConfig."""
    if not isinstance(raw, dict):
        raise ValueError("config root must be a mapping")
    if "population" not in raw:
        raise ValueError("missing required section 'population'")
    if "algorithm" not in raw:
        raise ValueError("missing required key 'algorithm'")

    if not isinstance(raw["population"], dict):
        raise ValueError("section 'population' must be a mapping")
    pop_raw = dict(raw["population"])
    if "kind" not in pop_raw:
        raise ValueError("missing required key 'kind' in section 'population'")
    try:
        pop_raw["kind"] = PopulationKind(pop_raw["kind"])
    except ValueError:
        raise ValueError(
            f"kind must be one of {[k.value for k in PopulationKind]}, got {pop_raw['kind']!r}"
        ) from None
    if pop_raw.get("pool") is not None:
        pop_raw["pool"] = _from_mapping(PoolSpec, pop_raw["pool"], "population.pool")
    population = _from_mapping(PopulationSpec, pop_raw, "population")

    try:
        algorithm = Algorithm(raw["algorithm"])
    except ValueError:
        raise ValueError(
            f"algorithm must be one of {[a.value for a in Algorithm]}, got {raw['algorithm']!r}"
        ) from None

    feo2 = _from_mapping(FeO2Config, raw.get("feo2", {}), "feo2")
    ditto = None
    if raw.get("ditto") is not None:
        ditto = _from_mapping(DittoConfig, raw["ditto"], "ditto")

    sections = dict(population=population, algorithm=algorithm, feo2=feo2, ditto=ditto)
    return _from_mapping(ExperimentConfig, dict(raw, **sections), "config root")


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 floats, which need no dot: ``1e-5``
    and JSON's ``1e-05`` are strings to YAML 1.1."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+.0123456789"),
)


def parse_config(path: str) -> ExperimentConfig:
    """Read and validate a config file (YAML or JSON)."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.load(fh, Loader=_Loader)
    return build_experiment_config(raw)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Plain-type mapping that `build_experiment_config` maps back to cfg."""

    def scrub(obj):
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return {k: scrub(v) for k, v in dataclasses.asdict(obj).items()}
        if isinstance(obj, Enum):
            return obj.value
        if isinstance(obj, dict):
            return {k: scrub(v) for k, v in obj.items()}
        return obj

    return scrub(cfg)


def manifest_hash(cfg: ExperimentConfig) -> str:
    """Content hash of the fully resolved config."""
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
