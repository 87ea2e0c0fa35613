"""Experiment configuration: one JSON tree covering every pipeline stage.

Any subset of keys may appear in a config file; missing values take the
defaults below.  Each section is a frozen dataclass, defined in the module
that reads it, that checks its own values.  Seeds left as null are derived
from the master seed so a single ``--seed`` reproduces the whole experiment.
The resolved tree is serialized next to every artifact for provenance.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from . import storage
from .errors import DataError
from .frontend import FrontendConfig
from .gmm import BackendConfig
from .labeling import TclConfig
from .metrics import DcfParams
from .network import DnnConfig, NetworkArch


# (section, key, offset from the master seed) of every seed left to derive
_DERIVED_SEEDS = (
    ("tcl", "shuffle_seed", 101),
    ("dnn", "init_seed", 201),
    ("dnn", "shuffle_seed", 202),
    ("backend", "init_seed", 301),
)


@dataclass(frozen=True)
class BnConfig:
    layer: str = "L2"
    pca_dim: int = 57


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 1234
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    tcl: TclConfig = field(default_factory=TclConfig)
    dnn: DnnConfig = field(default_factory=DnnConfig)
    bn: BnConfig = field(default_factory=BnConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)
    dcf: DcfParams = field(default_factory=DcfParams)

    def __post_init__(self):
        # Each section checks its own values; these checks span sections.
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise DataError(f"seed must be an integer, got {self.seed!r}")
        layer = NetworkArch(
            input_dim=1, hidden_layers=self.dnn.hidden_layers, output_heads=(("tcl", 1),)
        ).layer_index(self.bn.layer)
        width = self.dnn.hidden_layers[layer]
        if not 1 <= self.bn.pca_dim <= width:
            raise DataError(
                f"bn.pca_dim must be in 1..{width}, the width of {self.bn.layer},"
                f" got {self.bn.pca_dim}"
            )

    def resolved(self, seed_override: int | None = None) -> "ExperimentConfig":
        """Fill derived seeds from the master seed; apply a CLI seed override.

        Raises :class:`DataError` if any stage seed resolves below 0.
        """
        seed = self.seed if seed_override is None else seed_override
        sections = {"tcl": self.tcl, "dnn": self.dnn, "backend": self.backend}
        for name, key, offset in _DERIVED_SEEDS:
            value = getattr(sections[name], key)
            if value is None:
                value = seed + offset
            if value < 0:
                raise DataError(
                    f"{name}.{key} resolves to {value} (master seed {seed}); seeds must be >= 0"
                )
            sections[name] = replace(sections[name], **{key: value})
        return replace(self, seed=seed, **sections)

    def to_json(self) -> str:
        """Canonical JSON; identical configs serialize to identical bytes."""
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


# The JSON values a field accepts, and how to name them, by the type of its default.
_ACCEPTED = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a finite number"),
    str: ((str,), "a string"),
    type(None): ((int, type(None)), "an integer or null"),
}


def _build(section_cls, data: dict, section: str):
    defaults = {f.name: f.default for f in fields(section_cls)}
    bad = sorted(set(data) - set(defaults))
    if bad:
        raise DataError(f"{section}.{bad[0]}: unknown key")
    converted = {}
    for key, value in data.items():
        default = defaults[key]
        if isinstance(default, tuple):
            ok = type(value) is list and all(type(v) is int for v in value)
            kind = "a list of integers"
        else:
            types, kind = _ACCEPTED[type(default)]
            # Python's json reads NaN and Infinity, which JSON itself does not have
            ok = type(value) in types and (type(value) is not float or math.isfinite(value))
        if not ok:
            raise DataError(f"{section}.{key} must be {kind}, got {value!r}")
        converted[key] = tuple(value) if isinstance(value, list) else value
    return section_cls(**converted)


def load_config(path: str | Path | None) -> ExperimentConfig:
    """Load a JSON config file; ``None`` gives the defaults.  Every error names the file."""
    if path is None:
        return ExperimentConfig()
    text = storage.read_text(path)
    try:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise DataError("config root must be an object")
        sections = {f.name: f.default_factory for f in fields(ExperimentConfig) if f.name != "seed"}
        kwargs = {}
        for key, value in data.items():
            if key == "seed":
                kwargs[key] = value
            elif key == "workers":
                pass  # ignored: old snapshots and the benchmark's generated configs still set it
            elif key in sections:
                if not isinstance(value, dict):
                    raise DataError(f"section {key!r} must be an object")
                kwargs[key] = _build(sections[key], value, key)
            else:
                raise DataError(f"unknown config section {key!r}")
        return ExperimentConfig(**kwargs)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise DataError(f"{path}: invalid JSON ({exc})") from None
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def write_snapshot(path: str | Path, config: ExperimentConfig) -> None:
    storage.atomic_write_text(path, config.to_json())
