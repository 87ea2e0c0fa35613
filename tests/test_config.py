"""Configuration loading, seed derivation, and snapshot serialization tests."""

import json

import pytest

from tclsv.config import (
    BackendConfig,
    DnnConfig,
    ExperimentConfig,
    load_config,
    write_snapshot,
)
from tclsv.errors import DataError


def test_none_path_gives_defaults():
    config = load_config(None)
    assert config == ExperimentConfig()
    assert config.seed == 1234
    assert config.dnn.targets == "tcl"
    assert config.backend.feature_source == "bn"


def test_partial_file_overrides_only_named_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "seed": 7,
                "dnn": {"hidden_layers": [64, 64], "epochs": 3},
                "backend": {"num_mixtures": 8},
            }
        ),
        encoding="utf-8",
    )
    config = load_config(path)
    assert config.seed == 7
    assert config.dnn.hidden_layers == (64, 64)  # JSON list becomes tuple
    assert config.dnn.epochs == 3
    assert config.dnn.learning_rate == DnnConfig().learning_rate
    assert config.backend.num_mixtures == 8
    assert config.backend.em_iterations == BackendConfig().em_iterations


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"ubm": {"num_mixtures": 8}}', encoding="utf-8")
    with pytest.raises(DataError, match="unknown config section"):
        load_config(path)


def test_unknown_key_in_section_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"dnn": {"epoch": 3}}', encoding="utf-8")
    with pytest.raises(DataError, match="unknown keys"):
        load_config(path)


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataError, match="invalid JSON"):
        load_config(path)


def test_non_object_root_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(DataError, match="root"):
        load_config(path)


def test_non_object_section_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"dnn": 3}', encoding="utf-8")
    with pytest.raises(DataError, match="must be an object"):
        load_config(path)


def test_dnn_targets_validated():
    with pytest.raises(DataError):
        DnnConfig(targets="phones")


def test_backend_source_validated():
    with pytest.raises(DataError):
        BackendConfig(feature_source="plp")


@pytest.mark.parametrize(
    "data, message",
    [
        ({"tcl": {"mode": "chunk"}, "backend": {"relevance_factor": -1}, "bn": {"layer": "L9"}},
         "unknown TCL mode"),
        ({"tcl": {"mode": "chunk"}}, "unknown TCL mode"),
        ({"tcl": {"num_classes": 1}}, "num_classes"),
        ({"dnn": {"learning_rate": -0.1}}, "learning_rate"),
        ({"dnn": {"epochs": 0}}, "epochs"),
        ({"backend": {"relevance_factor": -1}}, "relevance_factor"),
        ({"backend": {"map_iterations": 0}}, "iterations"),
        ({"bn": {"layer": "L9"}}, "no hidden layer 'L9'"),
        ({"dnn": {"hidden_layers": [64, 64]}, "bn": {"layer": "L3"}}, r"L1\.\.L2"),
        ({"bn": {"layer": "fc1"}}, "no hidden layer"),
        ({"seed": "abc"}, "seed must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"backend": {"num_mixtures": 0}}, "num_mixtures"),
        ({"backend": {"em_iterations": -1}}, "em_iterations"),
        ({"bn": {"fit_split": "nope"}}, "fit_split"),
        ({"dnn": {"context_left": -3}}, "context_left"),
        ({"dnn": {"context_right": -1}}, "context_right"),
        ({"bn": {"pca_dim": 0}}, "pca_dim"),
        ({"dnn": {"hidden_layers": [64, 32]}, "bn": {"layer": "L2", "pca_dim": 33}}, r"1\.\.32"),
    ],
)
def test_invalid_values_rejected_at_load(tmp_path, data, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(DataError, match=message):
        load_config(path)


def test_workers_key_is_accepted_and_ignored(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"seed": 3, "workers": 2}', encoding="utf-8")
    assert load_config(path) == ExperimentConfig(seed=3)


def test_resolved_derives_stage_seeds_from_master():
    config = ExperimentConfig(seed=1000).resolved()
    assert config.tcl.shuffle_seed == 1101
    assert config.dnn.init_seed == 1201
    assert config.dnn.shuffle_seed == 1202
    assert config.backend.init_seed == 1301


def test_resolved_seed_override():
    config = ExperimentConfig(seed=1000).resolved(seed_override=5)
    assert config.seed == 5
    assert config.tcl.shuffle_seed == 106
    assert config.dnn.init_seed == 206
    assert config.dnn.shuffle_seed == 207
    assert config.backend.init_seed == 306


def test_resolved_keeps_explicit_seeds(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"seed": 9, "dnn": {"init_seed": 77}}', encoding="utf-8")
    config = load_config(path).resolved()
    assert config.dnn.init_seed == 77  # explicit value wins over derivation
    assert config.dnn.shuffle_seed == 9 + 202


def test_resolved_is_idempotent():
    once = ExperimentConfig(seed=3).resolved()
    assert once.resolved() == once


def test_section_adapters():
    config = ExperimentConfig(seed=0).resolved()
    tcl = config.tcl_config()
    assert tcl.num_classes == config.tcl.num_classes
    assert tcl.shuffle_seed == config.tcl.shuffle_seed
    train = config.train_config(num_heads=1)
    assert train.task_weights == (1.0,)
    train2 = config.train_config(num_heads=2)
    assert train2.task_weights == (0.5, 0.5)
    map_cfg = config.map_config()
    assert map_cfg.relevance_factor == config.backend.relevance_factor
    assert map_cfg.iterations == config.backend.map_iterations


def test_to_json_is_canonical(tmp_path):
    a = ExperimentConfig(seed=42).resolved()
    b = ExperimentConfig(seed=42).resolved()
    assert a.to_json() == b.to_json()
    text = a.to_json()
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert list(parsed) == sorted(parsed)  # keys sorted at the top level
    assert parsed["seed"] == 42


def test_snapshot_roundtrips_through_loader(tmp_path):
    original = ExperimentConfig(seed=9).resolved()
    path = tmp_path / "snapshot.json"
    write_snapshot(path, original)
    reloaded = load_config(path)
    assert reloaded == original
    assert reloaded.to_json() == original.to_json()
