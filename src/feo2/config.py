"""Experiment configuration: dataclasses, file parsing, validation, hashing.

Config files are YAML (JSON is a YAML subset, so plain JSON files load too;
floats follow YAML 1.2, so ``1e-5`` and JSON's ``1e-05`` are numbers).
Each field declares its type and, for a bounded number, its `Range` once, in
its annotation; `check_field_types` enforces both, with one message format
(``"{name} must be {range}"``), and ``__post_init__`` keeps only the rules that
span several fields. Parsing is strict: unknown keys and out-of-range values
are rejected with the offending key named, and a parsed config serializes back
to the exact mapping that reproduces it (`config_to_dict` /
`build_experiment_config` round-trip).
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
from typing import Annotated, Optional


class Algorithm(str, Enum):
    FEDAVG = "fedavg"
    DPFEDAVG = "dpfedavg"
    FEO2 = "feo2"


class PopulationKind(str, Enum):
    POINT_ESTIMATION = "point_estimation"
    LINEAR_REGRESSION = "linear_regression"
    LABEL_SHARD = "label_shard"


@dataclass(frozen=True)
class Range:
    """A numeric field's valid interval, declared beside its type in the
    annotation: ``r: Annotated[float, Range(0, 1)]``. Each end is closed unless
    marked open, and no ``hi`` leaves the interval unbounded above."""

    lo: float
    hi: Optional[float] = None
    lo_open: bool = False
    hi_open: bool = False

    def __contains__(self, value) -> bool:
        above = self.lo < value if self.lo_open else self.lo <= value
        below = self.hi is None or (value < self.hi if self.hi_open else value <= self.hi)
        return above and below

    def __str__(self) -> str:
        if self.hi is None:
            return f"{'>' if self.lo_open else '>='} {self.lo}"
        return f"in {'(' if self.lo_open else '['}{self.lo}, {self.hi}{')' if self.hi_open else ']'}"


@functools.cache
def _field_types(cls) -> tuple:
    """(name, type, optional, required, range) for each field of the dataclass
    ``cls``, read from its resolved annotations; ``type`` drops the ``Optional``,
    and ``range`` is the `Range` the annotation declares, or None."""
    hints = typing.get_type_hints(cls, include_extras=True)
    out = []
    for f in dataclasses.fields(cls):
        hint, bounds = hints[f.name], None
        if typing.get_origin(hint) is Annotated:
            hint, bounds = typing.get_args(hint)
        optional = type(None) in typing.get_args(hint)  # Optional[X] has args (X, NoneType)
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        out.append((f.name, typing.get_args(hint)[0] if optional else hint, optional, required, bounds))
    return tuple(out)


def check_field_types(obj) -> None:
    """Reject a field of the dataclass ``obj`` whose value its annotation does not
    admit: an int takes a Python int, a float an int or float within the finite float
    range, a str a string, any other type an instance of it. A bool is never accepted,
    and None only where the annotation is ``Optional``. A value that passes must then
    lie in the field's declared `Range`, if it has one."""
    for name, kind, optional, _, bounds in _field_types(type(obj)):
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
        if bounds is not None and value not in bounds:
            raise ValueError(f"{name} must be {bounds}")


def _set_away_from_default(obj, names) -> list:
    """The fields among ``names`` that the dataclass ``obj`` sets to other than their defaults."""
    defaults = {f.name: f.default for f in dataclasses.fields(obj)}
    return [name for name in names if getattr(obj, name) != defaults[name]]


@dataclass(frozen=True)
class PoolSpec:
    """Where label-shard sample pools come from: synthetic class blobs by
    default, or a pair of IDX files."""

    classes: Annotated[int, Range(2)] = 10
    per_class: Annotated[int, Range(1)] = 200
    feature_dim: Annotated[int, Range(1)] = 16
    spread: Annotated[float, Range(0)] = 3.0
    idx_images: Optional[str] = None
    idx_labels: Optional[str] = None

    def __post_init__(self):
        check_field_types(self)
        if (self.idx_images is None) != (self.idx_labels is None):
            raise ValueError("idx_images and idx_labels must be given together")
        blob = _set_away_from_default(self, ("classes", "per_class", "feature_dim", "spread"))
        if blob and self.idx_images is not None:
            raise ValueError(f"{blob[0]} only applies to synthetic pools, not beside idx_images")
        for key in ("idx_images", "idx_labels"):
            path = getattr(self, key)
            if path is not None and not os.path.isfile(path):
                raise ValueError(f"{key} must name an existing file, got {path!r}")


@dataclass(frozen=True)
class PopulationSpec:
    kind: PopulationKind
    n_clients: Annotated[int, Range(1)]
    rho_np: Annotated[float, Range(0, 1)]
    samples_per_client: Annotated[int, Range(1)] = 20
    seed: Annotated[int, Range(0)] = 0
    tau2: Annotated[float, Range(0)] = 0.0
    beta2: Annotated[float, Range(0)] = 1.0
    d: Annotated[int, Range(1)] = 1
    skew_label: Annotated[Optional[int], Range(0)] = None
    pool: Optional[PoolSpec] = None

    def __post_init__(self):
        check_field_types(self)
        if self.kind is PopulationKind.LINEAR_REGRESSION and self.samples_per_client < self.d:
            raise ValueError(
                f"infeasible design: need samples_per_client >= d, got {self.samples_per_client} < {self.d}"
            )
        if self.kind is PopulationKind.LABEL_SHARD and self.samples_per_client < 2:
            raise ValueError("label_shard needs samples_per_client >= 2 (a train and a test example)")
        if self.skew_label is not None and self.kind is not PopulationKind.LABEL_SHARD:
            raise ValueError("skew_label only applies to label_shard populations")
        if self.pool is not None and self.kind is not PopulationKind.LABEL_SHARD:
            raise ValueError("pool only applies to label_shard populations")
        gaussian = _set_away_from_default(self, ("tau2", "beta2", "d"))
        if gaussian and self.kind is PopulationKind.LABEL_SHARD:
            raise ValueError(f"{gaussian[0]} only applies to point_estimation and linear_regression populations")
        if self.kind is PopulationKind.LABEL_SHARD and self.pool is None:
            object.__setattr__(self, "pool", PoolSpec())

    @property
    def n_np(self) -> int:
        return round(self.rho_np * self.n_clients)


@dataclass(frozen=True)
class FeO2Config:
    """Algorithm mechanics: aggregation ratio r, noise multipliers, clip-norm
    tracking, and the local training loop."""

    r: Annotated[float, Range(0, 1)] = 1.0
    z: Annotated[float, Range(0)] = 0.0
    z_b: Annotated[float, Range(0)] = 0.0
    S0: Annotated[float, Range(0, lo_open=True)] = 1.0
    kappa: Annotated[float, Range(0, 1)] = 0.5
    eta_b: Annotated[float, Range(0, lo_open=True)] = 0.2
    eta: Annotated[float, Range(0, lo_open=True)] = 1.0
    epochs: Annotated[int, Range(1)] = 1
    batch_size: Annotated[Optional[int], Range(1)] = None

    def __post_init__(self):
        check_field_types(self)


@dataclass(frozen=True)
class DittoConfig:
    """Ditto's proximal tether: one strength per class, and the personal step
    size (None: ``1/(1+lambda)`` per class)."""

    lambda_p: Annotated[float, Range(0)]
    lambda_np: Annotated[float, Range(0)]
    eta_p: Annotated[Optional[float], Range(0, lo_open=True)] = None

    def __post_init__(self):
        check_field_types(self)


@dataclass(frozen=True)
class ExperimentConfig:
    population: PopulationSpec
    algorithm: Algorithm
    feo2: FeO2Config = FeO2Config()
    ditto: Optional[DittoConfig] = None
    rounds: Annotated[int, Range(0)] = 1
    cohort_fraction: Annotated[float, Range(0, 1, lo_open=True)] = 1.0
    master_seed: Annotated[int, Range(0)] = 0
    delta: Annotated[float, Range(0, 1, lo_open=True, hi_open=True)] = 1e-5

    def __post_init__(self):
        check_field_types(self)
        if self.algorithm is Algorithm.FEDAVG and self.feo2.z != 0.0:
            raise ValueError("fedavg must run with z = 0")
        if self.algorithm is not Algorithm.FEO2 and self.feo2.r != 1.0:
            raise ValueError(f"{self.algorithm.value} must run with r = 1")


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
    for name, kind, optional, required, _ in fields:
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
