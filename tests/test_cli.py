"""End-to-end CLI tests: exit codes, artifact layout, failure isolation,
and rerun determinism on a tiny synthetic corpus.
"""

import hashlib
import json
import logging
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tclsv
from tclsv import cli, frontend, gmm, labeling, network, pipeline, storage
from tclsv.config import load_config
from tclsv.manifest import read_manifest
from tclsv.synthcorpus import CorpusSpec, generate_corpus

TINY_CONFIG = {
    "seed": 11,
    "tcl": {"mode": "utterance", "num_classes": 6},
    "dnn": {"hidden_layers": [16, 16], "epochs": 2, "learning_rate": 0.05,
            "context_left": 2, "context_right": 2, "minibatch_size": 64},
    "bn": {"layer": "L1", "pca_dim": 8},
    "backend": {"num_mixtures": 4, "em_iterations": 3},
}


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    spec = CorpusSpec(num_speakers=3, takes_per_phrase=2, seed=5)
    manifest_path, trials_path = generate_corpus(root, spec)
    return Path(manifest_path), Path(trials_path)


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    return path


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


# --- usage errors (exit 1) ---


def test_no_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli()
    assert exc.value.code == 1


def test_unknown_subcommand_exits_1():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate", "--out", "x")
    assert exc.value.code == 1


def test_missing_required_out_exits_1():
    with pytest.raises(SystemExit) as exc:
        run_cli("extract-features", "--manifest", "m.tsv")
    assert exc.value.code == 1


def test_score_requires_trials():
    with pytest.raises(SystemExit) as exc:
        run_cli("score", "--manifest", "m.tsv", "--out", "x")
    assert exc.value.code == 1


# --- data errors (exit 2) ---


def test_missing_manifest_exits_2(tmp_path, capsys):
    code = run_cli("extract-features", "--manifest", tmp_path / "nope.tsv", "--out", tmp_path)
    assert code == 2
    assert "does not exist" in capsys.readouterr().err


def test_missing_config_exits_2(tiny_corpus, tmp_path, capsys):
    manifest, _ = tiny_corpus
    code = run_cli(
        "extract-features", "--manifest", manifest,
        "--config", tmp_path / "nope.json", "--out", tmp_path,
    )
    assert code == 2


def test_bad_config_key_exits_2(tiny_corpus, tmp_path, capsys):
    manifest, _ = tiny_corpus
    bad = tmp_path / "bad.json"
    bad.write_text('{"dnn": {"epoch": 3}}', encoding="utf-8")
    code = run_cli("extract-features", "--manifest", manifest, "--config", bad, "--out", tmp_path)
    assert code == 2
    assert "unknown keys" in capsys.readouterr().err


def test_non_integer_seed_exits_2(tiny_corpus, tmp_path, capsys):
    manifest, _ = tiny_corpus
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": "abc"}', encoding="utf-8")
    code = run_cli("extract-features", "--manifest", manifest, "--config", bad, "--out", tmp_path)
    assert code == 2
    assert "seed must be an integer" in capsys.readouterr().err


def test_invalid_value_stops_run_before_any_stage(tiny_corpus, tmp_path, capsys):
    manifest, trials = tiny_corpus
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY_CONFIG, "backend": {"relevance_factor": -1}}), encoding="utf-8")
    out = tmp_path / "run"
    code = run_cli("run", "--manifest", manifest, "--trials", trials, "--config", bad, "--out", out)
    assert code == 2
    assert "relevance_factor" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_before_score_exits_2(tmp_path, capsys):
    code = run_cli("evaluate", "--out", tmp_path)
    assert code == 2
    assert "run score first" in capsys.readouterr().err


# --- internal errors (exit 3) ---


def test_unexpected_exception_exits_3(tiny_corpus, tmp_path, monkeypatch, capsys):
    manifest, _ = tiny_corpus

    def boom(*args, **kwargs):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(pipeline, "run_extract_features", boom)
    code = run_cli("extract-features", "--manifest", manifest, "--out", tmp_path)
    assert code == 3
    assert "wires crossed" in capsys.readouterr().err


# --- corpus generation ---


def test_make_corpus_layout(tmp_path):
    code = run_cli("make-corpus", "--out", tmp_path / "c", "--speakers", 2, "--takes", 2)
    assert code == 0
    assert (tmp_path / "c" / "manifest.tsv").exists()
    assert (tmp_path / "c" / "trials.tsv").exists()
    wavs = list((tmp_path / "c" / "wavs").glob("*.wav"))
    assert len(wavs) == 2 * 5 * 2  # speakers x phrases x takes


# SHA-256 of the corpus below as written before scipy became a lazy import of
# make-corpus; every benchmark corpus is generated by the same code.
PINNED_CORPUS_SHA256 = "72ef9b59862c1b913c5c069a7ebb06f01e90f2d6b13edeec0b05fa371caa1bfe"


def test_make_corpus_bytes_are_pinned(tmp_path):
    out = tmp_path / "c"
    assert run_cli("make-corpus", "--out", out, "--speakers", 2, "--takes", 2, "--seed", 3) == 0
    wavs = sorted(f"wavs/{p.name}" for p in (out / "wavs").glob("*.wav"))
    digest = hashlib.sha256()
    for rel in ["manifest.tsv", "trials.tsv", *wavs]:
        digest.update(rel.encode() + b"\0" + (out / rel).read_bytes())
    assert digest.hexdigest() == PINNED_CORPUS_SHA256


def test_stages_never_import_scipy(tiny_corpus, config_path, tmp_path):
    # scipy costs most of a process's start-up and only make-corpus uses it.
    manifest, trials = tiny_corpus
    script = (
        "import sys\n"
        "from tclsv import cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "code = cli.main(sys.argv[1:])\n"
        "assert code == 0, code\n"
        "assert 'scipy' not in sys.modules, 'run'\n"
    )
    src = str(Path(tclsv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["run", "--manifest", manifest, "--trials", trials, "--config", config_path, "--out", tmp_path / "run"]
    result = subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


# --- stage behavior ---


def test_extract_features_writes_archives_and_snapshot(tiny_corpus, config_path, tmp_path, capsys):
    manifest, _ = tiny_corpus
    out = tmp_path / "run"
    code = run_cli("extract-features", "--manifest", manifest, "--config", config_path, "--out", out)
    assert code == 0
    assert "0 failure(s)" in capsys.readouterr().out
    archives = list((out / "features").glob("*.tclf"))
    assert len(archives) == 3 * 5 * 2
    assert (out / "features" / "failures.tsv").read_text(encoding="utf-8") == ""
    snapshot = json.loads((out / "config" / "extract-features.json").read_text(encoding="utf-8"))
    assert snapshot["seed"] == 11
    assert snapshot["tcl"]["shuffle_seed"] == 11 + 101  # resolved before the snapshot


def test_feature_archives_do_not_depend_on_the_filterbank_cache(tiny_corpus, config_path, tmp_path, monkeypatch):
    manifest, _ = tiny_corpus
    cached, fresh = tmp_path / "cached", tmp_path / "fresh"
    assert run_cli("extract-features", "--manifest", manifest, "--config", config_path, "--out", cached) == 0
    # rebuild the filterbank for every utterance, as before it was cached
    monkeypatch.setattr(frontend, "mel_filterbank", frontend.mel_filterbank.__wrapped__)
    assert run_cli("extract-features", "--manifest", manifest, "--config", config_path, "--out", fresh) == 0
    archives = sorted(p.name for p in (cached / "features").glob("*.tclf"))
    assert len(archives) == 3 * 5 * 2
    assert archives == sorted(p.name for p in (fresh / "features").glob("*.tclf"))
    for name in archives:
        assert (cached / "features" / name).read_bytes() == (fresh / "features" / name).read_bytes(), name


def test_corrupt_wav_is_isolated(tmp_path, config_path, capsys):
    corpus = tmp_path / "corpus"
    manifest_path, _ = generate_corpus(corpus, CorpusSpec(num_speakers=2, takes_per_phrase=2, seed=3))
    victim = sorted((corpus / "wavs").glob("*.wav"))[0]
    victim.write_bytes(b"this is not a wav file")
    out = tmp_path / "run"
    code = run_cli("extract-features", "--manifest", manifest_path, "--config", config_path, "--out", out)
    assert code == 0  # one bad file must not abort the stage
    assert "1 failure(s)" in capsys.readouterr().out
    failures = (out / "features" / "failures.tsv").read_text(encoding="utf-8")
    assert victim.stem in failures
    archives = list((out / "features").glob("*.tclf"))
    assert len(archives) == 2 * 5 * 2 - 1


def test_full_run_and_report(tiny_corpus, config_path, tmp_path, capsys):
    manifest, trials = tiny_corpus
    out = tmp_path / "run"
    code = run_cli(
        "run", "--manifest", manifest, "--trials", trials,
        "--config", config_path, "--out", out, "--deterministic",
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "average" in text
    for sub in ("features", "labels", "dnn", "bn", "ubm", "models", "scores", "report"):
        assert (out / sub).is_dir(), sub
    report = json.loads((out / "report" / "report.json").read_text(encoding="utf-8"))
    assert set(report["per_type"]) <= {"target-wrong", "impostor-correct", "impostor-wrong"}
    assert 0.0 <= report["average"]["eer_pct"] <= 100.0
    # one resolved-config snapshot per executed stage
    stages = {p.stem for p in (out / "config").glob("*.json")}
    assert {"extract-features", "make-labels", "train-dnn", "extract-bn",
            "train-ubm", "enroll", "score", "evaluate"} <= stages


def test_staged_run_matches_single_run(tiny_corpus, config_path, tmp_path, capsys):
    manifest, trials = tiny_corpus
    whole = tmp_path / "whole"
    staged = tmp_path / "staged"
    assert run_cli("run", "--manifest", manifest, "--trials", trials,
                   "--config", config_path, "--out", whole, "--deterministic") == 0
    for stage in ("extract-features", "make-labels", "train-dnn", "extract-bn",
                  "train-ubm", "enroll"):
        assert run_cli(stage, "--manifest", manifest, "--config", config_path,
                       "--out", staged, "--deterministic") == 0
    assert run_cli("score", "--manifest", manifest, "--trials", trials,
                   "--config", config_path, "--out", staged, "--deterministic") == 0
    assert run_cli("evaluate", "--config", config_path, "--out", staged, "--deterministic") == 0
    assert (staged / "scores" / "scores.tsv").read_bytes() == (whole / "scores" / "scores.tsv").read_bytes()
    assert (staged / "report" / "report.json").read_bytes() == (whole / "report" / "report.json").read_bytes()


def test_rerun_is_byte_identical(tiny_corpus, config_path, tmp_path, capsys):
    manifest, trials = tiny_corpus
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run_cli("run", "--manifest", manifest, "--trials", trials,
                       "--config", config_path, "--out", out, "--deterministic") == 0
    a, b = outs
    compared = 0
    for path_a in sorted(a.rglob("*")):
        if path_a.is_dir():
            continue
        path_b = b / path_a.relative_to(a)
        assert path_b.exists(), path_b
        assert path_a.read_bytes() == path_b.read_bytes(), path_a
        compared += 1
    assert compared > 10


@pytest.mark.parametrize("epochs", [1, 3])
def test_loss_trace_has_one_line_per_epoch(tiny_corpus, tmp_path, capsys, caplog, epochs):
    manifest, _ = tiny_corpus
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**TINY_CONFIG, "dnn": {**TINY_CONFIG["dnn"], "epochs": epochs}}),
                           encoding="utf-8")
    out = tmp_path / "run"
    for stage in ("extract-features", "make-labels"):
        assert run_cli(stage, "--manifest", manifest, "--config", config_path, "--out", out) == 0
    capsys.readouterr()
    caplog.set_level(logging.INFO, logger="tclsv.pipeline")
    assert run_cli("train-dnn", "--manifest", manifest, "--config", config_path, "--out", out) == 0
    lines = (out / "dnn" / "loss_trace.txt").read_text(encoding="utf-8").splitlines()
    assert len(lines) == epochs
    first, last = (f"{float(v):.6f}" for v in (lines[0], lines[-1]))
    want = f"{first} over 1 epoch" if epochs == 1 else f"{first} -> {last} over {epochs} epochs"
    assert capsys.readouterr().out == f"training loss {want}\n"
    assert f"dnn loss {want}" in caplog.messages


def test_seed_override_changes_models(tiny_corpus, config_path, tmp_path, capsys):
    manifest, _ = tiny_corpus
    outs = {}
    for seed in (1, 2):
        out = tmp_path / f"s{seed}"
        for stage in ("extract-features", "make-labels", "train-dnn"):
            assert run_cli(stage, "--manifest", manifest, "--config", config_path,
                           "--out", out, "--seed", seed, "--deterministic") == 0
        outs[seed] = (out / "dnn" / "model.tcln").read_bytes()
    assert outs[1] != outs[2]


def test_score_missing_model_names_it(tiny_corpus, config_path, tmp_path, capsys):
    manifest, trials = tiny_corpus
    out = tmp_path / "run"
    for stage in ("extract-features", "make-labels", "train-dnn", "extract-bn", "train-ubm"):
        assert run_cli(stage, "--manifest", manifest, "--config", config_path,
                       "--out", out, "--deterministic") == 0
    # skip enroll, then score: the first trial's model is missing
    code = run_cli("score", "--manifest", manifest, "--trials", trials,
                   "--config", config_path, "--out", out, "--deterministic")
    assert code == 2
    err = capsys.readouterr().err
    assert "no enrolled model for 's00'" in err  # the offending model id is named


def test_score_matches_per_trial_score_llr_bitwise(tiny_corpus, config_path, tmp_path, monkeypatch):
    manifest, trials = tiny_corpus
    out = tmp_path / "run"
    for stage in ("extract-features", "make-labels", "train-dnn", "extract-bn",
                  "train-ubm", "enroll"):
        assert run_cli(stage, "--manifest", manifest, "--config", config_path,
                       "--out", out, "--deterministic") == 0
    real_log_likelihoods = gmm.log_likelihoods
    calls = []

    def counting(model, frames):
        calls.append(model)
        return real_log_likelihoods(model, frames)

    monkeypatch.setattr(gmm, "log_likelihoods", counting)
    score_set = pipeline.run_score(manifest, load_config(config_path).resolved(None), out, trials)
    monkeypatch.setattr(gmm, "log_likelihoods", real_log_likelihoods)

    test_ids = {t.test_utterance_id for t in score_set.trials}
    assert len(calls) == len(score_set.trials) + len(test_ids)  # one UBM pass per test utterance
    ubm = storage.read_gmm(out / "ubm" / "ubm.tclg")
    expected = [
        gmm.score_llr(
            storage.read_gmm(out / "models" / f"{t.model_id}.tclg"),
            ubm,
            storage.read_feature_archive(out / "bn" / f"{t.test_utterance_id}.tclf"),
        )
        for t in score_set.trials
    ]
    assert np.array_equal(score_set.scores, np.array(expected))


@pytest.mark.parametrize("mode", ["utterance", "stream"])
def test_make_labels_reads_archive_headers_only(tiny_corpus, config_path, tmp_path, monkeypatch, mode):
    manifest, _ = tiny_corpus
    out = tmp_path / "run"
    assert run_cli("extract-features", "--manifest", manifest, "--config", config_path,
                   "--out", out) == 0
    config = load_config(config_path).resolved(None)
    config = replace(config, tcl=replace(config.tcl, mode=mode))
    full_reads = []
    real_read = storage.read_feature_archive
    monkeypatch.setattr(storage, "read_feature_archive",
                        lambda *a, **k: full_reads.append(a) or real_read(*a, **k))
    pipeline.run_make_labels(manifest, config, out)
    assert full_reads == []

    # the same labels as labeling the fully read archives
    entries = [e for e in read_manifest(manifest) if e.split == "dnn-train"]
    utterances = [real_read(out / "features" / f"{e.utterance_id}.tclf", e.utterance_id)
                  for e in entries]
    expected = tmp_path / "expected.tsv"
    labeling.write_label_archive(
        expected, labeling.labels_by_utterance(labeling.label_utterances(utterances, config.tcl_config()))
    )
    assert (out / "labels" / "labels.tsv").read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("targets", ["tcl", "speaker"])
def test_dnn_stages_compute_in_float32(tiny_corpus, config_path, tmp_path, monkeypatch, targets):
    manifest, _ = tiny_corpus
    out = tmp_path / "run"
    for stage in ("extract-features", "make-labels"):
        assert run_cli(stage, "--manifest", manifest, "--config", config_path, "--out", out) == 0
    config = load_config(config_path).resolved(None)
    config = replace(config, dnn=replace(config.dnn, targets=targets))
    dtypes = set()
    real_backward, real_extract = network.backward, network.extract_deep_features

    def checked_backward(params, batch, task_weights=None):
        grads = real_backward(params, batch, task_weights)
        for arrays in (params.weights, params.biases, grads.weights, grads.head_biases):
            dtypes.update(a.dtype for a in arrays)
        return grads

    def checked_extract(params, inputs, layer="L2"):
        deep = real_extract(params, inputs, layer)
        dtypes.update(a.dtype for a in (inputs, deep, *params.weights, *params.biases))
        return deep

    monkeypatch.setattr(network, "backward", checked_backward)
    monkeypatch.setattr(network, "extract_deep_features", checked_extract)
    params, _ = pipeline.run_train_dnn(manifest, config, out)
    pipeline.run_extract_bn(manifest, config, out)
    assert dtypes == {np.dtype(np.float32)}

    # the model file keeps its float64 format; the upcast loses nothing
    stored = storage.read_network(out / "dnn" / "model.tcln")
    for got, trained in zip(stored.weights + stored.head_biases, params.weights + params.head_biases):
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, trained)
