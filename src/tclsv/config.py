"""Experiment configuration: one JSON tree covering every pipeline stage.

Any subset of keys may appear in a config file; missing values take the
defaults below.  Seeds left as null are derived from the master seed so a
single ``--seed`` reproduces the whole experiment.  The resolved tree is
serialized next to every artifact for provenance.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import storage
from .errors import DataError
from .frontend import FrontendConfig
from .gmm import MapConfig
from .labeling import TclConfig
from .metrics import DcfParams
from .network import NetworkArch, TrainConfig

DNN_TARGETS = ("tcl", "speaker", "speaker+phrase")


@dataclass(frozen=True)
class DnnConfig:
    targets: str = "tcl"
    hidden_layers: tuple[int, ...] = (1024,) * 6
    context_left: int = 5
    context_right: int = 5
    learning_rate: float = 0.008
    epochs: int = 20
    minibatch_size: int = 256
    init_seed: int | None = None
    shuffle_seed: int | None = None

    def __post_init__(self):
        if self.targets not in DNN_TARGETS:
            raise DataError(f"dnn.targets must be one of {DNN_TARGETS}")


@dataclass(frozen=True)
class BnConfig:
    layer: str = "L2"
    pca_dim: int = 57
    fit_split: str = "ubm-train"


@dataclass(frozen=True)
class BackendConfig:
    feature_source: str = "bn"
    num_mixtures: int = 512
    em_iterations: int = 10
    init_seed: int | None = None
    relevance_factor: float = 10.0
    map_iterations: int = 3

    def __post_init__(self):
        if self.feature_source not in ("bn", "mfcc"):
            raise DataError("backend.feature_source must be 'bn' or 'mfcc'")


@dataclass(frozen=True)
class TclSection:
    mode: str = "utterance"
    num_classes: int = 10
    frames_per_segment: int = 6
    shuffle_seed: int | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 1234
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    tcl: TclSection = field(default_factory=TclSection)
    dnn: DnnConfig = field(default_factory=DnnConfig)
    bn: BnConfig = field(default_factory=BnConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)
    dcf: DcfParams = field(default_factory=DcfParams)

    def __post_init__(self):
        # Fail at load time, not several stages in: build what the stages build
        # so their own checks run now.  The head is a placeholder.
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise DataError(f"seed must be an integer, got {self.seed!r}")
        self.tcl_config()
        self.train_config(1)
        self.map_config()
        NetworkArch(
            input_dim=1, hidden_layers=self.dnn.hidden_layers, output_heads=(("tcl", 1),)
        ).layer_index(self.bn.layer)

    def resolved(self, seed_override: int | None = None) -> "ExperimentConfig":
        """Fill derived seeds from the master seed; apply a CLI seed override."""
        seed = self.seed if seed_override is None else seed_override
        tcl = self.tcl
        if tcl.shuffle_seed is None:
            tcl = replace(tcl, shuffle_seed=seed + 101)
        dnn = self.dnn
        if dnn.init_seed is None:
            dnn = replace(dnn, init_seed=seed + 201)
        if dnn.shuffle_seed is None:
            dnn = replace(dnn, shuffle_seed=seed + 202)
        backend = self.backend
        if backend.init_seed is None:
            backend = replace(backend, init_seed=seed + 301)
        return replace(self, seed=seed, tcl=tcl, dnn=dnn, backend=backend)

    def tcl_config(self) -> TclConfig:
        return TclConfig(
            num_classes=self.tcl.num_classes,
            frames_per_segment=self.tcl.frames_per_segment,
            mode=self.tcl.mode,
            shuffle_seed=self.tcl.shuffle_seed or 0,
        )

    def train_config(self, num_heads: int) -> TrainConfig:
        weights = (1.0,) if num_heads == 1 else (1.0 / num_heads,) * num_heads
        return TrainConfig(
            learning_rate=self.dnn.learning_rate,
            epochs=self.dnn.epochs,
            minibatch_size=self.dnn.minibatch_size,
            shuffle_seed=self.dnn.shuffle_seed or 0,
            init_seed=self.dnn.init_seed or 0,
            task_weights=weights,
        )

    def map_config(self) -> MapConfig:
        return MapConfig(
            relevance_factor=self.backend.relevance_factor,
            iterations=self.backend.map_iterations,
        )

    def to_json(self) -> str:
        """Canonical JSON; identical configs serialize to identical bytes."""
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def _build(section_cls, data: dict, path: str):
    known = {f.name for f in section_cls.__dataclass_fields__.values()}
    bad = set(data) - known
    if bad:
        raise DataError(f"config: unknown keys {sorted(bad)} in {path!r}")
    converted = {}
    for key, value in data.items():
        if isinstance(value, list):
            value = tuple(value)
        converted[key] = value
    return section_cls(**converted)


def load_config(path: str | Path | None) -> ExperimentConfig:
    """Load a JSON config file; ``None`` gives the defaults."""
    if path is None:
        return ExperimentConfig()
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: config file does not exist")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise DataError(f"{path}: config root must be an object")
    sections = {
        "frontend": FrontendConfig,
        "tcl": TclSection,
        "dnn": DnnConfig,
        "bn": BnConfig,
        "backend": BackendConfig,
        "dcf": DcfParams,
    }
    kwargs = {}
    for key, value in data.items():
        if key == "seed":
            kwargs[key] = value
        elif key == "workers":
            pass  # ignored: old snapshots and the benchmark's generated configs still set it
        elif key in sections:
            if not isinstance(value, dict):
                raise DataError(f"{path}: section {key!r} must be an object")
            kwargs[key] = _build(sections[key], value, key)
        else:
            raise DataError(f"{path}: unknown config section {key!r}")
    return ExperimentConfig(**kwargs)


def write_snapshot(path: str | Path, config: ExperimentConfig) -> None:
    storage.atomic_write_text(path, config.to_json())
