"""Configuration loading, seed derivation, and snapshot serialization tests."""

import hashlib
import json

import pytest

from tclsv.config import ExperimentConfig, load_config, write_snapshot
from tclsv.errors import DataError
from tclsv.gmm import BackendConfig
from tclsv.network import DnnConfig


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
        # wrong JSON types, named by section.key
        ({"dnn": {"epochs": 1.5}}, r"dnn\.epochs must be an integer"),
        ({"dnn": {"epochs": True}}, r"dnn\.epochs must be an integer"),
        ({"backend": {"num_mixtures": 2.5}}, r"backend\.num_mixtures must be an integer"),
        ({"tcl": {"num_classes": 4.5}}, r"tcl\.num_classes must be an integer"),
        ({"dnn": {"hidden_layers": 64}}, r"dnn\.hidden_layers must be a list of integers"),
        ({"dnn": {"hidden_layers": [64, 32.0]}}, r"dnn\.hidden_layers must be a list of integers"),
        ({"bn": {"layer": 2}}, r"bn\.layer must be a string"),
        ({"dnn": {"learning_rate": "x"}}, r"dnn\.learning_rate must be a finite number"),
        ({"dnn": {"learning_rate": False}}, r"dnn\.learning_rate must be a finite number"),
        ({"dnn": {"learning_rate": float("nan")}}, r"dnn\.learning_rate must be a finite number"),
        ({"backend": {"relevance_factor": float("inf")}}, r"backend\.relevance_factor must be a finite"),
        ({"frontend": {"rasta_enabled": "no"}}, r"frontend\.rasta_enabled must be true or false"),
        ({"frontend": {"rasta_enabled": 0}}, r"frontend\.rasta_enabled must be true or false"),
        ({"dnn": {"init_seed": 1.5}}, r"dnn\.init_seed must be an integer or null"),
        ({"tcl": {"shuffle_seed": "7"}}, r"tcl\.shuffle_seed must be an integer or null"),
    ],
)
def test_invalid_values_rejected_at_load(tmp_path, data, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(DataError, match=message):
        load_config(path)


def test_workers_key_is_accepted_and_ignored(tmp_path):
    # perfbench/run.py writes "workers" into every workload's config
    path = tmp_path / "config.json"
    path.write_text('{"seed": 3, "dnn": {"epochs": 1}}', encoding="utf-8")
    expected = load_config(path).to_json()
    for workers in (1, 2):
        path.write_text(f'{{"seed": 3, "workers": {workers}, "dnn": {{"epochs": 1}}}}', encoding="utf-8")
        assert load_config(path).to_json() == expected
    assert load_config(path) == ExperimentConfig(seed=3, dnn=DnnConfig(epochs=1))


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


@pytest.mark.parametrize(
    "data, override, message",
    [
        ({"seed": 3}, -1000, r"tcl\.shuffle_seed resolves to -899"),
        ({"seed": 3, "tcl": {"shuffle_seed": 0}}, -250, r"dnn\.init_seed resolves to -49"),
        ({"seed": 3, "backend": {"init_seed": -1}}, None, r"backend\.init_seed resolves to -1"),
    ],
)
def test_negative_resolved_seed_rejected(tmp_path, data, override, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(DataError, match=message):
        load_config(path).resolved(override)


def test_small_negative_master_seed_still_resolves():
    config = ExperimentConfig().resolved(-50)
    assert config.seed == -50
    assert config.tcl.shuffle_seed == 51
    assert config.backend.init_seed == 251


# SHA-256 of to_json() for the two configs below, as each entry's config.json
# snapshot holds them; a change here changes every run directory.
PINNED_DEFAULTS_SHA256 = "63bf02fd9c30c263b5b0cc43863e0d017787065e88eef0b2a29de830f0a9d26e"
PINNED_EVERY_SECTION_SHA256 = "f6f02417be6828b8657699eb6bf046cbe2316136beea14a098102f74d114dfc8"
EVERY_SECTION = {
    "seed": 5,
    "frontend": {"vad_threshold_db": 25.0, "rasta_enabled": False},
    "tcl": {"mode": "stream", "num_classes": 15, "frames_per_segment": 4, "shuffle_seed": None},
    "dnn": {"hidden_layers": [64, 64], "epochs": 3, "learning_rate": 0.05, "init_seed": 9},
    "bn": {"layer": "L1", "pca_dim": 12},
    "backend": {"num_mixtures": 8, "relevance_factor": 16, "map_iterations": 2},
    "dcf": {"p_target": 0.05},
}


def test_snapshot_bytes_are_pinned(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(EVERY_SECTION), encoding="utf-8")
    for config, pinned in [
        (load_config(None).resolved(None), PINNED_DEFAULTS_SHA256),
        (load_config(path).resolved(None), PINNED_EVERY_SECTION_SHA256),
    ]:
        assert hashlib.sha256(config.to_json().encode()).hexdigest() == pinned


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
