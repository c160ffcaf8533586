"""Experiment configuration: dataclasses, file parsing, validation, hashing.

Config files are YAML (JSON is a YAML subset, so plain JSON files load too;
floats follow YAML 1.2, so ``1e-5`` and JSON's ``1e-05`` are numbers).
Parsing is strict: unknown keys and out-of-range values are rejected with the
offending key named, and a parsed config serializes back to the exact mapping
that reproduces it (`config_to_dict` / `build_experiment_config` round-trip).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import re
import sys
import typing
from dataclasses import dataclass
from enum import Enum
from typing import Optional


class Algorithm(str, Enum):
    FEDAVG = "fedavg"
    DPFEDAVG = "dpfedavg"
    FEO2 = "feo2"


class PopulationKind(str, Enum):
    POINT_ESTIMATION = "point_estimation"
    LINEAR_REGRESSION = "linear_regression"
    LABEL_SHARD = "label_shard"


@functools.cache
def _field_types(cls) -> tuple:
    """(name, type, optional, required) for each field of the dataclass ``cls``,
    read from its resolved annotations; ``type`` drops the ``Optional``."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        optional = type(None) in typing.get_args(hint)  # Optional[X] has args (X, NoneType)
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        out.append((f.name, typing.get_args(hint)[0] if optional else hint, optional, required))
    return tuple(out)


def check_field_types(obj) -> None:
    """Reject a field of the dataclass ``obj`` whose value its annotation does not
    admit: an int takes a Python int, a float an int or float within the finite float
    range (NaN passes every range check), a str a string, any other type an instance
    of it. A bool is never accepted, and None only where the annotation is ``Optional``."""
    for name, kind, optional, _ in _field_types(type(obj)):
        value = getattr(obj, name)
        if value is None and optional:
            continue
        if kind is float:
            ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
        else:
            ok = isinstance(value, kind)
        if isinstance(value, bool) or not ok:
            what = {int: "an integer", float: "a finite number", str: "a string"}.get(
                kind, f"an instance of {kind.__name__}"
            )
            raise ValueError(f"{name} must be {what}, got {value!r}")


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
        check_field_types(self)
        if self.spread < 0:
            raise ValueError("spread must be >= 0")
        if (self.idx_images is None) != (self.idx_labels is None):
            raise ValueError("idx_images and idx_labels must be given together")
        for key in ("idx_images", "idx_labels"):
            path = getattr(self, key)
            if path is not None and not os.path.isfile(path):
                raise ValueError(f"{key} must name an existing file, got {path!r}")
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
        check_field_types(self)
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
        if self.kind is PopulationKind.LINEAR_REGRESSION and self.samples_per_client < self.d:
            raise ValueError(
                f"infeasible design: need samples_per_client >= d, got {self.samples_per_client} < {self.d}"
            )
        if self.skew_label is not None and self.kind is not PopulationKind.LABEL_SHARD:
            raise ValueError("skew_label only applies to label_shard populations")
        if self.pool is not None and self.kind is not PopulationKind.LABEL_SHARD:
            raise ValueError("pool only applies to label_shard populations")
        if self.kind is PopulationKind.LABEL_SHARD and self.pool is None:
            object.__setattr__(self, "pool", PoolSpec())

    @property
    def n_np(self) -> int:
        return round(self.rho_np * self.n_clients)


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
        check_field_types(self)
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
class DittoConfig:
    """Ditto's proximal tether: one strength per class, and the personal step
    size (None: ``1/(1+lambda)`` per class)."""

    lambda_p: float
    lambda_np: float
    eta_p: Optional[float] = None

    def __post_init__(self):
        check_field_types(self)
        if self.lambda_p < 0 or self.lambda_np < 0:
            raise ValueError("lambdas must be >= 0")
        if self.eta_p is not None and self.eta_p <= 0:
            raise ValueError("eta_p must be > 0")


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
        check_field_types(self)
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


def _from_mapping(cls, mapping, section: str = ""):
    """Build the config object ``cls`` from a parsed section, named by its dotted
    path (empty at the root): enum fields take their values, and config-object
    fields are read as sub-sections."""
    if not isinstance(mapping, dict):
        raise ValueError(f"section '{section}' must be a mapping" if section else "config root must be a mapping")
    fields = _field_types(cls)
    unknown = set(mapping).difference(name for name, *_ in fields)
    if unknown:
        raise ValueError(f"unknown key '{min(unknown, key=str)}' in section '{section or 'config root'}'")
    kwargs = {}
    for name, kind, optional, required in fields:
        child = f"{section}.{name}" if section else name
        if name not in mapping:
            if dataclasses.is_dataclass(kind) and required:
                raise ValueError(f"missing required section '{child}'")
            if required:
                raise ValueError(f"missing required key '{name}'" + (f" in section '{section}'" if section else ""))
            continue
        value = mapping[name]
        if issubclass(kind, Enum):
            try:
                value = kind(value)
            except ValueError:
                raise ValueError(f"{name} must be one of {[k.value for k in kind]}, got {value!r}") from None
        elif dataclasses.is_dataclass(kind) and not (value is None and optional):
            value = _from_mapping(kind, value, child)
        kwargs[name] = value
    return cls(**kwargs)


def build_experiment_config(raw: dict) -> ExperimentConfig:
    """Validate a plain mapping (parsed YAML/JSON) into an ExperimentConfig."""
    return _from_mapping(ExperimentConfig, raw)


@functools.cache
def _yaml_loader():
    """SafeLoader that also reads YAML 1.2 floats, which need no dot: ``1e-5``
    and JSON's ``1e-05`` are strings to YAML 1.1."""
    import yaml

    class _Loader(yaml.SafeLoader):
        pass

    _Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
        list("-+.0123456789"),
    )
    return _Loader


def parse_config(path: str) -> ExperimentConfig:
    """Read and validate a config file (YAML or JSON). Malformed YAML raises a
    ValueError with the parser's message."""
    import yaml  # here, not at the top: a process that reads no config never loads PyYAML

    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=_yaml_loader())
        except yaml.YAMLError as exc:
            raise ValueError(str(exc)) from exc
    return build_experiment_config(raw)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Plain-type mapping that `build_experiment_config` maps back to cfg."""
    return dataclasses.asdict(
        cfg, dict_factory=lambda items: {k: v.value if isinstance(v, Enum) else v for k, v in items}
    )


def manifest_hash(cfg: ExperimentConfig) -> str:
    """Content hash of the fully resolved config."""
    import hashlib

    canonical = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
