"""End-to-end CLI tests: exit codes, artifact layout, failure isolation,
and rerun determinism on a tiny synthetic corpus.
"""

import builtins
import contextlib
import hashlib
import io
import json
import logging
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tclsv
from tclsv import blas, cli, frontend, gmm, labeling, metrics, network, pca, pipeline, storage
from tclsv.config import ExperimentConfig, load_config
from tclsv.errors import DataError
from tclsv.manifest import ManifestEntry, read_manifest, write_manifest
from tclsv.synthcorpus import CorpusSpec, generate_corpus

TINY_CONFIG = {
    "seed": 11,
    "tcl": {"mode": "utterance", "num_classes": 6},
    "dnn": {"hidden_layers": [16, 16], "epochs": 2, "learning_rate": 0.05,
            "context_left": 2, "context_right": 2, "minibatch_size": 64},
    "bn": {"layer": "L1", "pca_dim": 8},
    "backend": {"num_mixtures": 4, "em_iterations": 3},
}
MFCC_CONFIG = {**TINY_CONFIG, "backend": {**TINY_CONFIG["backend"], "feature_source": "mfcc"}}
SPEAKER_CONFIG = {**TINY_CONFIG, "dnn": {**TINY_CONFIG["dnn"], "targets": "speaker"}}


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


def stage_argv(command, manifest, trials, config_path, out):
    """The argv that runs ``command`` on ``manifest`` (and ``trials`` for score and run) into ``out``."""
    return [command, "--manifest", manifest, "--config", config_path, "--out", out,
            *(["--trials", trials] if command in ("score", "run") else [])]


def run_stages(stages, manifest, trials, config_path, out, capsys):
    """Run each subcommand in turn, asserting exit 0; returns their stdout lines."""
    capsys.readouterr()
    for stage in stages:
        assert run_cli(*stage_argv(stage, manifest, trials, config_path, out)) == 0, stage
    return capsys.readouterr().out.splitlines()


def run_stage_function(name, manifest, trials, config, out):
    """What ``pipeline.run_<name>`` returns, its entry committed as the CLI commits it, bar the config snapshot."""
    stage = next(s for s in pipeline.STAGES if s.name == name)
    with storage.entry(out / stage.writes) as into:
        return getattr(pipeline, "run_" + name.replace("-", "_"))(manifest, trials, config, out, into)


def break_wavs(manifest, utterance_ids, tmp_path):
    """A copy of ``manifest`` whose listed utterances point at garbage WAVs."""
    broken = tmp_path / "broken"
    broken.mkdir()
    entries = []
    for e in read_manifest(manifest):
        if e.utterance_id in utterance_ids:
            e = replace(e, wav_path=broken / e.wav_path.name)
            e.wav_path.write_bytes(b"this is not a wav file")
        entries.append(e)
    path = tmp_path / "manifest.tsv"
    write_manifest(path, entries)
    return path


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


# Each input a stage reads: where it sits ("out" is the run directory), and the
# subcommand that reads it.
STAGE_INPUTS = {
    "manifest": ("in/manifest.tsv", ["extract-features", "--manifest", "{bad}"]),
    "config": ("in/config.json", ["extract-features", "--manifest", "{manifest}", "--config", "{bad}"]),
    "trials": ("in/trials.tsv", ["score", "--manifest", "{manifest}", "--trials", "{bad}"]),
    "labels": ("out/labels/labels.tsv", ["train-dnn", "--manifest", "{manifest}", "--config", "{config}"]),
    "scores": ("out/scores/scores.tsv", ["evaluate"]),
    "ubm": ("out/ubm/ubm.tclg", ["enroll", "--manifest", "{manifest}"]),
}
UNREADABLE = {
    "missing": lambda path: None,
    "directory": lambda path: path.mkdir(),
    "not-utf8": lambda path: path.write_bytes(b"s00\t\xff\xfe\n"),
}


@pytest.mark.parametrize(
    "name, how",
    [(n, h) for n in STAGE_INPUTS for h in UNREADABLE if not (n == "ubm" and h == "not-utf8")],
)
def test_unreadable_input_exits_2_naming_it(tiny_corpus, config_path, tmp_path, capsys, name, how):
    where, template = STAGE_INPUTS[name]
    bad = tmp_path / where
    bad.parent.mkdir(parents=True, exist_ok=True)
    UNREADABLE[how](bad)
    if name == "trials":  # score reads the UBM before the trial list
        (tmp_path / "out" / "ubm").mkdir(parents=True)
        storage.write_gmm(tmp_path / "out" / "ubm" / "ubm.tclg",
                          gmm.GmmModel(np.ones(1), np.zeros((1, 2)), np.ones((1, 2))))
    argv = [a.format(bad=bad, manifest=tiny_corpus[0], config=config_path) for a in template]
    code = run_cli(*argv, "--out", tmp_path / "out")
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: ") and str(bad) in err


WRITING_FIRST = ("make-corpus",)  # fails making a directory in --out; a stage checks --out before it runs


@pytest.mark.parametrize("command", [*WRITING_FIRST, "run", *(s.name for s in pipeline.STAGES)])
def test_out_naming_a_file_exits_2(tiny_corpus, config_path, tmp_path, capsys, command):
    manifest, trials = tiny_corpus
    out = tmp_path / "out"
    out.write_text("a file\n", encoding="utf-8")
    argv = {
        "run": ["--manifest", manifest, "--trials", trials, "--config", config_path],
        "make-corpus": ["--speakers", 2, "--takes", 2],
        "score": ["--manifest", manifest, "--trials", trials, "--config", config_path],
        "evaluate": ["--config", config_path],
    }.get(command, ["--manifest", manifest, "--config", config_path])
    code = run_cli(command, *argv, "--out", out)
    err = capsys.readouterr().err
    assert code == 2, err
    if command in WRITING_FIRST:
        assert err.startswith("error: ") and f"{out}/" in err and "cannot make directory" in err
    else:  # names --out, not a stage to run first; run names its first stage
        stage = pipeline.STAGES[0].name if command == "run" else command
        assert err.startswith(f"error: {stage}: {out}: --out is not a directory"), err
    assert out.read_text(encoding="utf-8") == "a file\n"


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


def test_negative_resolved_seed_exits_2_before_any_stage(tiny_corpus, config_path, tmp_path, capsys):
    manifest, trials = tiny_corpus
    out = tmp_path / "run"
    code = run_cli("run", "--manifest", manifest, "--trials", trials, "--config", config_path,
                   "--out", out, "--seed", -1000)
    assert code == 2
    assert "tcl.shuffle_seed resolves to -899" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("frontend_config, key", [
    ({"frame_shift_ms": 0}, "frontend.frame_shift_ms"),
    ({"frame_shift_ms": -10, "frame_length_ms": -5}, "frontend.frame_shift_ms"),
    ({"num_mel_filters": 0, "num_static_ceps": -1}, "frontend.num_static_ceps"),
])
def test_invalid_frontend_value_exits_2_naming_it(tiny_corpus, tmp_path, capsys, frontend_config, key):
    manifest, trials = tiny_corpus
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY_CONFIG, "frontend": frontend_config}), encoding="utf-8")
    out = tmp_path / "run"
    code = run_cli("run", "--manifest", manifest, "--trials", trials, "--config", bad, "--out", out)
    assert code == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, values, key", [
    ("frontend", {"frame_length_ms": 5.0}, "frontend.frame_length_ms"),
    ("frontend", {"num_static_ceps": 24}, "frontend.num_static_ceps"),
    ("frontend", {"preemphasis_coeff": 1.0}, "frontend.preemphasis_coeff"),
    ("frontend", {"window": "hann"}, "frontend.window"),
    ("frontend", {"delta_window": 0}, "frontend.delta_window"),
    ("tcl", {"mode": "x"}, "tcl.mode"),
    ("dcf", {"p_target": 1.0}, "dcf.p_target"),
    ("dcf", {"cost_miss": 0}, "dcf.cost_miss"),
    ("bn", {"layer": "L9"}, "bn.layer"),
    ("dnn", {"hidden_layers": []}, "dnn.hidden_layers"),
])
def test_every_invalid_config_value_exits_2_naming_its_key(tiny_corpus, tmp_path, capsys, section, values, key):
    manifest, trials = tiny_corpus
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY_CONFIG, section: values}), encoding="utf-8")
    out = tmp_path / "run"
    code = run_cli("run", "--manifest", manifest, "--trials", trials, "--config", bad, "--out", out)
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: {key}")
    assert not out.exists()


def test_deeply_nested_config_exits_2(tiny_corpus, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[" * 100_000, encoding="utf-8")
    code = run_cli("extract-features", "--manifest", tiny_corpus[0], "--config", bad, "--out", tmp_path / "run")
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: invalid JSON (")


def test_nul_byte_in_a_wav_path_exits_2_naming_the_line(tmp_path, capsys):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_bytes(b"utterance_id\twav_path\tspeaker_id\tphrase_id\tsplit\nu1\ta\x00b.wav\ts1\tp1\tenroll\n")
    code = run_cli("extract-features", "--manifest", manifest, "--out", tmp_path / "run")
    assert code == 2
    assert capsys.readouterr().err == f"error: extract-features: {manifest}:2: NUL byte in wav_path 'a\\x00b.wav'\n"


def assert_every_utterance_fails_extraction(tiny_corpus, tmp_path, capsys, frontend_config, message):
    """``run`` records every utterance as failed with ``message``, then exits 2 at make-labels."""
    manifest, trials = tiny_corpus
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY_CONFIG, "frontend": frontend_config}), encoding="utf-8")
    out = tmp_path / "run"
    code = run_cli("run", "--manifest", manifest, "--trials", trials, "--config", bad, "--out", out)
    assert code == 2
    assert capsys.readouterr().err == "error: make-labels: manifest has no usable dnn-train utterances\n"
    failures = (out / "features" / "failures.tsv").read_text(encoding="utf-8").splitlines()
    assert len(failures) == len(read_manifest(manifest))
    assert {line.split("\t")[1] for line in failures} == {message}


def test_frame_shift_under_one_sample_is_recorded_per_utterance(tiny_corpus, tmp_path, capsys):
    # 0.01 ms is 0.16 samples at 16 kHz: valid as a number, but no frame fits
    assert_every_utterance_fails_extraction(
        tiny_corpus, tmp_path, capsys, {"frame_shift_ms": 0.01, "frame_length_ms": 0.01},
        "frontend.frame_shift_ms 0.01 is under one sample at 16000 Hz",
    )


def test_frame_too_short_for_the_mel_filters_is_recorded_per_utterance(tiny_corpus, tmp_path, capsys):
    # 0.0625 ms is one sample at 16 kHz: one FFT bin, so no mel filter gets one
    assert_every_utterance_fails_extraction(
        tiny_corpus, tmp_path, capsys, {"frame_shift_ms": 0.0625, "frame_length_ms": 0.0625},
        "frontend.frame_length_ms is too short for 24 mel filters at 16000 Hz:"
        " its 1-point FFT leaves 24 filter(s) without a bin",
    )


def test_evaluate_before_score_exits_2(tmp_path, capsys):
    code = run_cli("evaluate", "--out", tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert "run score first" in err
    assert err.startswith("error: evaluate: ")


def test_stage_error_names_the_stage_that_raised_it(tiny_corpus, tmp_path, capsys):
    # _usable's error carries no stage name of its own; run names train-ubm
    manifest, trials = tiny_corpus
    ubm_ids = {e.utterance_id for e in read_manifest(manifest) if e.split == "ubm-train"}
    manifest = break_wavs(manifest, ubm_ids, tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(MFCC_CONFIG), encoding="utf-8")
    out = tmp_path / "run"
    code = run_cli("run", "--manifest", manifest, "--trials", trials, "--config", config_path, "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: train-ubm: manifest has no usable ubm-train utterances\n"
    # extract-features records its per-utterance errors as they were raised
    failures = (out / "features" / "failures.tsv").read_text(encoding="utf-8").splitlines()
    assert sorted(line.split("\t")[0] for line in failures) == sorted(ubm_ids)
    assert all(line.split("\t")[1].startswith(str(tmp_path / "broken")) for line in failures)


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


# SHA-256 of make-corpus's output, as written when scipy.signal.lfilter filtered
# the sources; every benchmark corpus is generated by the same code, and
# (seed 1, 10 speakers x 4 takes) is paper-1epoch's.
@pytest.mark.parametrize(
    "seed, speakers, takes, sha256",
    [
        (3, 2, 2, "72ef9b59862c1b913c5c069a7ebb06f01e90f2d6b13edeec0b05fa371caa1bfe"),
        (1, 10, 4, "0c06f76332e78af37c32318203e4a35d877fa89b50bf042e0e042e4b29bd827c"),
    ],
    ids=["seed3-2x2", "seed1-10x4"],
)
def test_make_corpus_bytes_are_pinned(tmp_path, monkeypatch, seed, speakers, takes, sha256):
    monkeypatch.setitem(sys.modules, "scipy", None)  # numpy is the only runtime dependency
    monkeypatch.setitem(sys.modules, "scipy.signal", None)
    out = tmp_path / "c"
    assert run_cli("make-corpus", "--out", out, "--speakers", speakers, "--takes", takes, "--seed", seed) == 0
    wavs = sorted(f"wavs/{p.name}" for p in (out / "wavs").glob("*.wav"))
    digest = hashlib.sha256()
    for rel in ["manifest.tsv", "trials.tsv", *wavs]:
        digest.update(rel.encode() + b"\0" + (out / rel).read_bytes())
    assert digest.hexdigest() == sha256


@pytest.mark.parametrize(
    "flag, value",
    [("--seed", -1), ("--takes", 1), ("--takes", 0), ("--speakers", 0), ("--speakers", -2), ("--speakers", 44)],
)
def test_make_corpus_rejects_bad_sizes_and_seeds(tmp_path, capsys, flag, value):
    # 44 speakers: the last one's second resonance, with its jitter, would pass the 8 kHz Nyquist frequency
    out = tmp_path / "c"
    code = run_cli("make-corpus", "--out", out, "--speakers", 2, "--takes", 2, flag, value)
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(f"error: {flag} ")
    assert not out.exists()


def test_make_corpus_accepts_the_sizes_at_its_bounds():
    CorpusSpec(num_speakers=1, takes_per_phrase=2, seed=0)
    CorpusSpec(num_speakers=43, takes_per_phrase=2, seed=0)  # the most speakers that do not alias at 16 kHz


def assert_cli_and_run_never_import(modules, tiny_corpus, config_path, tmp_path):
    """Neither ``import tclsv.cli`` nor a whole tiny ``run`` on 3 usable CPUs loads any of ``modules``."""
    manifest, trials = tiny_corpus
    script = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: set(range(3))\n"
        "modules = sys.argv[1].split(',')\n"
        "from tclsv import cli\n"
        "assert not sys.modules.keys() & modules, 'import'\n"
        "code = cli.main(sys.argv[2:])\n"
        "assert code == 0, code\n"
        "assert not sys.modules.keys() & modules, 'run'\n"
    )
    src = str(Path(tclsv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [",".join(modules), "run", "--manifest", manifest, "--trials", trials, "--config", config_path,
            "--out", tmp_path / "run"]
    result = subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_stages_never_import_scipy(tiny_corpus, config_path, tmp_path):
    # scipy costs most of a process's start-up and only make-corpus uses it.
    assert_cli_and_run_never_import(["scipy"], tiny_corpus, config_path, tmp_path)


def test_stages_never_import_multiprocessing(tiny_corpus, config_path, tmp_path):
    # extract-features and score fork their workers with os.fork.  Importing
    # multiprocessing takes about 11 ms (-X importtime, 2-core x86-64), which
    # every tclsv process would pay before its stage starts.  A thread pool
    # from concurrent.futures would be a second way to spread work.
    assert_cli_and_run_never_import(["multiprocessing", "concurrent.futures"], tiny_corpus, config_path, tmp_path)


TRACED_SPANS = ("network.train", "gmm.map_adapt", "labeling.label_utterances")


def test_benchmark_tracer_runs_and_sees_every_stage(tiny_corpus, config_path, tmp_path):
    # perfbench/tracer.py wraps functions by module attribute name and reads
    # attributes of their results; a rename would break the traced benchmark
    # without failing any other test.
    manifest, trials = tiny_corpus
    root = Path(__file__).resolve().parents[1]
    src = str(Path(tclsv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    spans = tmp_path / "spans.json"
    argv = [root / "perfbench" / "tracer.py", spans, "run", "--manifest", manifest, "--trials", trials,
            "--config", config_path, "--out", tmp_path / "run"]
    result = subprocess.run(
        [sys.executable, *map(str, argv)], env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    traced = json.loads(spans.read_text())
    stages = pipeline.stages_for_run(load_config(config_path).resolved(None))
    expected = {"pipeline." + stage.replace("-", "_") for stage in stages} | set(TRACED_SPANS)
    names = {span[0] for span in traced["spans"]}
    assert expected <= names, sorted(expected - names)
    assert traced["counters"]["frontend.frames_in"] > 0
    assert traced["counters"]["labeling.frames_labeled"] > 0


def test_run_calls_the_functions_the_benchmark_tracer_wraps(tiny_corpus, config_path, tmp_path, monkeypatch):
    # perfbench/tracer.py times and counts these by module attribute: SGD steps
    # through network.backward (its flop count reads args[1].inputs), the PCA
    # fit through pca.fit_pca, and scoring through gmm.score_llr, which
    # evaluates the UBM once per test utterance.  Code that routes around
    # them would zero those metrics without failing anything else.
    manifest, trials = tiny_corpus
    calls: dict[str, list] = {}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.setdefault(name, []).append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((network, "train"), (network, "backward"), (pca, "fit_pca"),
                         (gmm, "score_llr"), (gmm, "log_likelihoods")):
        count(module, name)
    usable_cpus(monkeypatch, 1)  # calls in a forked worker would not be counted here
    out = tmp_path / "run"
    assert run_cli("run", "--manifest", manifest, "--trials", trials, "--config", config_path,
                   "--out", out) == 0

    [(dataset, _, dnn)] = calls["train"]
    minibatches = dnn.epochs * -(-dataset.num_rows // dnn.minibatch_size)
    assert len(calls["backward"]) == minibatches
    assert all(isinstance(args[1], network.LabeledDataset) for args in calls["backward"])
    assert sum(len(args[1].inputs) for args in calls["backward"]) == dnn.epochs * dataset.num_rows
    assert len(calls["fit_pca"]) == 1
    trial_list = metrics.read_trials(trials)
    test_ids = {t.test_utterance_id for t in trial_list}
    assert len(calls["score_llr"]) == len(test_ids)
    assert len(calls["log_likelihoods"]) == len(trial_list) + len(test_ids)
    ubm = calls["score_llr"][0][1]
    assert all(args[1] is ubm for args in calls["score_llr"])
    assert sum(args[0] is ubm for args in calls["log_likelihoods"]) == len(test_ids)


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
    snapshot = json.loads((out / "features" / "config.json").read_text(encoding="utf-8"))
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


def test_failure_message_holding_a_line_break_stays_on_one_line(tmp_path, config_path, capsys):
    # the manifest's directory, and so the WAV path in the message, holds a newline
    corpus = tmp_path / "a\nb"
    corpus.mkdir()
    wav = corpus / "x.wav"
    wav.write_bytes(b"this is not a wav file")
    manifest = corpus / "manifest.tsv"
    write_manifest(manifest, [ManifestEntry("u1", wav, "s00", "p0", "enroll")])
    out = tmp_path / "run"
    assert run_cli("extract-features", "--manifest", manifest, "--config", config_path, "--out", out) == 0
    failures = (out / "features" / "failures.tsv").read_text(encoding="utf-8")
    escaped = str(wav).replace("\n", "\\n")
    assert failures == f"u1\t{escaped}: not a valid WAV file (file does not start with RIFF id)\n"
    assert pipeline._failed_ids(out) == {"u1"}


def test_failure_message_holding_a_tab_keeps_two_fields(tmp_path, config_path, capsys):
    # the manifest's directory, and so the WAV path in the message, holds a tab
    manifest, _ = generate_corpus(tmp_path / "a\tb", CorpusSpec(num_speakers=2, takes_per_phrase=2, seed=3))
    victim = next(e for e in read_manifest(manifest) if e.split == "dnn-train")
    victim.wav_path.write_bytes(b"this is not a wav file")
    out = tmp_path / "run"
    for stage in ("extract-features", "make-labels"):
        assert run_cli(stage, "--manifest", manifest, "--config", config_path, "--out", out) == 0
    failures = (out / "features" / "failures.tsv").read_text(encoding="utf-8")
    escaped = str(victim.wav_path).replace("\t", "\\t")
    assert failures.rstrip("\n").split("\t") == [
        victim.utterance_id, f"{escaped}: not a valid WAV file (file does not start with RIFF id)"
    ]
    labels = labeling.read_label_archive(out / "labels" / "labels.tsv")
    assert labels and victim.utterance_id not in labels


def test_wav_shorter_than_its_header_is_recorded(tiny_corpus, tmp_path, config_path, capsys):
    manifest, _ = tiny_corpus
    victim = read_manifest(manifest)[0].utterance_id
    manifest = break_wavs(manifest, {victim}, tmp_path)
    wav = tmp_path / "broken" / f"{victim}.wav"
    wav.write_bytes(b"garbage")  # 7 bytes: the RIFF header alone takes 12
    out = tmp_path / "run"
    code = run_cli("extract-features", "--manifest", manifest, "--config", config_path, "--out", out)
    assert code == 0
    assert "1 failure(s)" in capsys.readouterr().out
    failures = (out / "features" / "failures.tsv").read_text(encoding="utf-8")
    assert failures == f"{victim}\t{wav}: not a valid WAV file (truncated header)\n"


def test_wav_cut_anywhere_is_extracted_or_recorded(tiny_corpus, tmp_path, config_path, capsys):
    manifest, _ = tiny_corpus
    source = read_manifest(manifest)[0]
    data = source.wav_path.read_bytes()
    cut_dir = tmp_path / "cuts"
    cut_dir.mkdir()
    # every byte through the 44-byte header and into the data, and the last samples
    lengths = [*range(0, 120), len(data) - 3, len(data) - 2, len(data) - 1, len(data)]
    entries = []
    for n in lengths:
        wav = cut_dir / f"cut{n:05d}.wav"
        wav.write_bytes(data[:n])
        entries.append(replace(source, utterance_id=wav.stem, wav_path=wav))
    cut_manifest = tmp_path / "manifest.tsv"
    write_manifest(cut_manifest, entries)
    out = tmp_path / "run"
    code = run_cli("extract-features", "--manifest", cut_manifest, "--config", config_path, "--out", out)
    assert code == 0  # no cut aborts the stage
    lines = (out / "features" / "failures.tsv").read_text(encoding="utf-8").splitlines()
    failed = dict(line.split("\t") for line in lines)
    extracted = {p.stem for p in (out / "features").glob("*.tclf")}
    assert not failed.keys() & extracted
    assert failed.keys() | extracted == {e.utterance_id for e in entries}
    for n in (45, 63, len(data) - 3, len(data) - 1):  # a data chunk that ends mid-sample
        wav = cut_dir / f"cut{n:05d}.wav"
        assert failed[wav.stem] == f"{wav}: not a valid WAV file (data chunk ends mid-sample)"
    assert {f"cut{len(data) - 2:05d}", f"cut{len(data):05d}"} <= extracted
    for utt, message in failed.items():
        # read_wav names the file; a whole WAV too short for one frame fails in framing
        n = int(utt[len("cut"):])
        short = f"signal has {(n - 44) // 2} samples, need at least 320 for one frame"
        assert message.startswith(f"{cut_dir / utt}.wav: ") or (n > 44 and message == short), message


def _fmt_chunk(rate: int) -> bytes:
    """A RIFF/WAVE header through the fmt chunk of mono 16-bit PCM at ``rate``."""
    fmt = struct.pack("<HHLLHH", 1, 1, rate, 2 * rate % 2**32, 2, 16)
    return b"RIFF\xff\xff\xff\xffWAVEfmt " + struct.pack("<L", len(fmt)) + fmt


@settings(derandomize=True, deadline=None, max_examples=150)
@example(prefix=b"", body=b"")
@example(prefix=_fmt_chunk(0) + b"data\xff\xff\xff\xff", body=bytes(640))
@given(
    prefix=st.one_of(
        st.just(b""),
        st.just(b"RIFF\xff\xff\xff\xffWAVE"),  # random chunks
        # random samples at any rate, up to the end of the file
        st.one_of(st.integers(0, 2**32 - 1), st.sampled_from([8000, 16000])).map(
            lambda rate: _fmt_chunk(rate) + b"data\xff\xff\xff\xff"),
    ),
    body=st.one_of(st.binary(max_size=64), st.binary(min_size=640, max_size=4096)),
)
def test_random_bytes_as_a_wav_are_recorded_naming_the_file(tiny_corpus, prefix, body):
    with tempfile.TemporaryDirectory() as tmp:
        wav = Path(tmp, "fuzz.wav")
        wav.write_bytes(prefix + body)
        entry = replace(read_manifest(tiny_corpus[0])[0], utterance_id="fuzz", wav_path=wav)
        write_manifest(Path(tmp, "manifest.tsv"), [entry])
        out = Path(tmp, "run")
        assert run_cli("extract-features", "--manifest", Path(tmp, "manifest.tsv"), "--out", out) == 0
        failures = (out / "features" / "failures.tsv").read_text(encoding="utf-8")
        extracted = (out / "features" / "fuzz.tclf").exists()
        assert extracted != bool(failures)
        if failures:
            utt, message = failures.rstrip("\n").split("\t")
            assert utt == "fuzz"
            try:
                frontend.read_wav(wav)
            except DataError as exc:  # every failure to read the file names it
                assert message == str(exc) and message.startswith(f"{wav}: ")


@pytest.fixture(scope="module")
def finished_run(tiny_corpus, tmp_path_factory):
    """A run directory after ``run`` on the tiny corpus, and the config it used."""
    root = tmp_path_factory.mktemp("finished")
    config = root / "config.json"
    config.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    manifest, trials = tiny_corpus
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli("run", "--manifest", manifest, "--trials", trials, "--config", config,
                       "--out", root / "run") == 0
    return root / "run", config


# Each text input: the file the fuzz writes (in a fresh input directory or in a
# copy of the finished run directory) and the subcommand that reads it.
TEXT_INPUTS = {
    "manifest": ("in/manifest.tsv", ["extract-features", "--manifest", "{bad}", "--out", "{fresh}"]),
    "config": ("in/config.json", ["extract-features", "--manifest", "{manifest}", "--config", "{bad}",
                                  "--out", "{fresh}"]),
    "trials": ("in/trials.tsv", ["score", "--manifest", "{manifest}", "--trials", "{bad}"]),
    "labels": ("run/labels/labels.tsv", ["train-dnn", "--manifest", "{manifest}"]),
    "scores": ("run/scores/scores.tsv", ["evaluate"]),
    "failures": ("run/features/failures.tsv", ["make-labels", "--manifest", "{manifest}"]),
}


def _mutate(text: str, mutations) -> bytes:
    """``text`` with each (line, position, kind, piece) mutation applied in turn."""
    lines = text.splitlines() or [""]
    for line_pick, pos_pick, kind, piece in mutations:
        i = line_pick % len(lines)
        line = lines[i]
        pos = pos_pick % (len(line) + 1)
        if kind == "duplicate":
            lines.insert(i, line)
        elif kind == "drop" and len(lines) > 1:
            del lines[i]
        else:
            end = pos + (kind != "insert")
            lines[i] = line[:pos] + (piece if kind != "delete" else "") + line[end:]
    return ("\n".join(lines) + "\n").encode("utf-8")


_PIECES = ["\t", "\x00", " ", ".", "/", "..", "-", "_", "0", "1", "9", "x", "Z", "\u00e9", "\n",
           "nan", "inf", "-1", "1e999", "{", "[", "]", "\"", ":", ","]
_MUTATION = st.tuples(
    st.integers(0, 2**16), st.integers(0, 2**16),
    st.sampled_from(["replace", "insert", "delete", "duplicate", "drop"]), st.sampled_from(_PIECES),
)


@pytest.mark.parametrize("name", list(TEXT_INPUTS))
@settings(derandomize=True, deadline=None, max_examples=40)
@example(content=("bytes", b""))
@given(content=st.one_of(
    st.tuples(st.just("bytes"), st.binary(max_size=300)),
    st.tuples(st.just("mutate"), st.lists(_MUTATION, min_size=1, max_size=4)),
))
def test_malformed_text_input_exits_2_naming_it_or_is_recorded(tiny_corpus, finished_run, name, content):
    run_dir, config = finished_run
    where, template = TEXT_INPUTS[name]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "in").mkdir()
        shutil.copytree(run_dir, tmp / "run")
        if name == "manifest":  # absolute WAV paths, so the copy need not sit next to wavs/
            write_manifest(tmp / where, read_manifest(tiny_corpus[0]))
        elif name == "config":
            (tmp / where).write_text(ExperimentConfig().to_json(), encoding="utf-8")
        elif name == "trials":
            shutil.copy(tiny_corpus[1], tmp / where)
        bad = tmp / where
        kind, value = content
        bad.write_bytes(value if kind == "bytes" else _mutate(bad.read_text(encoding="utf-8"), value))
        argv = [a.format(bad=bad, manifest=tiny_corpus[0], fresh=tmp / "fresh") for a in template]
        if "--out" not in argv:
            argv += ["--config", config, "--out", tmp / "run"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_cli(*argv)
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert str(bad) in err.getvalue(), err.getvalue()


def test_full_run_and_report(tiny_corpus, config_path, tmp_path, capsys):
    manifest, trials = tiny_corpus
    out = tmp_path / "run"
    code = run_cli(
        "run", "--manifest", manifest, "--trials", trials,
        "--config", config_path, "--out", out,
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "average" in text
    for sub in ("features", "labels", "dnn", "bn", "ubm", "models", "scores", "report"):
        assert (out / sub).is_dir(), sub
    report = json.loads((out / "report" / "report.json").read_text(encoding="utf-8"))
    assert set(report["per_type"]) <= {"target-wrong", "impostor-correct", "impostor-wrong"}
    assert 0.0 <= report["average"]["eer_pct"] <= 100.0
    # one resolved-config snapshot per executed stage, in its entry
    assert {p.parent.name for p in out.glob("*/config.json")} == {p.name for p in out.iterdir()}


def assert_run_matches_stages(stages, tiny_corpus, config_path, tmp_path, capsys):
    """``run`` prints the stages' lines in order and writes their scores and report."""
    manifest, trials = tiny_corpus
    whole = tmp_path / "whole"
    staged = tmp_path / "staged"
    run_lines = run_stages(["run"], manifest, trials, config_path, whole, capsys)
    staged_lines = run_stages(stages, manifest, trials, config_path, staged, capsys)
    # only the --out path in the score line differs
    assert [line.replace(str(whole), str(staged)) for line in run_lines] == staged_lines
    assert (staged / "scores" / "scores.tsv").read_bytes() == (whole / "scores" / "scores.tsv").read_bytes()
    assert (staged / "report" / "report.json").read_bytes() == (whole / "report" / "report.json").read_bytes()
    return whole


def test_staged_run_matches_single_run(tiny_corpus, config_path, tmp_path, capsys):
    stages = ("extract-features", "make-labels", "train-dnn", "extract-bn",
              "train-ubm", "enroll", "score", "evaluate")
    assert_run_matches_stages(stages, tiny_corpus, config_path, tmp_path, capsys)


@pytest.mark.parametrize("config, stages, absent", [
    (MFCC_CONFIG, ("extract-features", "train-ubm", "enroll", "score", "evaluate"), ("labels", "dnn", "bn")),
    # only the tcl head reads labels/
    (SPEAKER_CONFIG, ("extract-features", "train-dnn", "extract-bn", "train-ubm", "enroll", "score",
                      "evaluate"), ("labels",)),
], ids=["mfcc", "speaker"])
def test_run_skips_the_stages_nothing_reads(tiny_corpus, tmp_path, capsys, config, stages, absent):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    whole = assert_run_matches_stages(stages, tiny_corpus, config_path, tmp_path, capsys)
    for sub in absent:
        assert not (whole / sub).exists(), sub
    entries = {s.writes for s in pipeline.STAGES if s.name in stages}
    assert {p.parent.name for p in whole.glob("*/config.json")} == {p.name for p in whole.iterdir()} == entries


def test_run_writes_only_archives_a_later_stage_reads(tiny_corpus, config_path, tmp_path, capsys, monkeypatch):
    manifest, trials = tiny_corpus
    out = tmp_path / "run"
    record = tmp_path / "reads.txt"  # a file, so that it sees the reads of score's forked workers
    real_read = storage.read_feature_archive

    def recording(path, *args, **kwargs):
        with open(record, "a", encoding="utf-8") as lines:
            lines.write(f"{Path(path).resolve()}\n")
        return real_read(path, *args, **kwargs)

    monkeypatch.setattr(storage, "read_feature_archive", recording)
    run_stages(["run"], manifest, trials, config_path, out, capsys)
    read = {Path(line) for line in record.read_text(encoding="utf-8").splitlines()}
    written = {p.resolve() for sub in ("features", "bn") for p in (out / sub).glob("*.tclf")}
    assert len(written) > len(read_manifest(manifest))
    assert written == read
    dnn_train = {e.utterance_id for e in read_manifest(manifest) if e.split == "dnn-train"}
    assert {p.stem for p in (out / "bn").glob("*.tclf")}.isdisjoint(dnn_train)


# The stage list and rule ``run`` used before pipeline.STAGES, kept verbatim as the reference.
HAND_WRITTEN_STAGES = ("extract-features", "make-labels", "train-dnn", "extract-bn",
                       "train-ubm", "enroll", "score", "evaluate", "run")
HAND_WRITTEN_DNN_STAGES = ("make-labels", "train-dnn", "extract-bn")


def hand_written_run_stages(config):
    skipped = ("run", *HAND_WRITTEN_DNN_STAGES) if config.backend.feature_source == "mfcc" else ("run",)
    if "tcl" not in config.dnn.targets.split("+"):
        skipped += ("make-labels",)  # only the tcl head reads labels.tsv
    return [name for name in HAND_WRITTEN_STAGES if name not in skipped]


@pytest.mark.parametrize("feature_source", ["bn", "mfcc"])
@pytest.mark.parametrize("targets", network.DNN_TARGETS)
def test_stages_for_run_matches_the_hand_written_rule(feature_source, targets):
    config = ExperimentConfig()
    config = replace(config, dnn=replace(config.dnn, targets=targets),
                     backend=replace(config.backend, feature_source=feature_source))
    assert pipeline.stages_for_run(config) == hand_written_run_stages(config)


@pytest.mark.parametrize("config", [TINY_CONFIG, SPEAKER_CONFIG, MFCC_CONFIG], ids=["tcl", "speaker", "mfcc"])
def test_each_stage_reads_what_the_stage_table_declares(tiny_corpus, tmp_path, capsys, monkeypatch, config):
    manifest, trials = tiny_corpus
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "run"
    root = out.resolve()
    opened = set()  # top-level <out>/ entries opened for reading

    def recording(real_open):
        def open_(file, mode="r", *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and not set(mode) & set("wax+"):
                path = Path(file).resolve()
                if path.is_relative_to(root):
                    opened.add(path.relative_to(root).parts[0])
            return real_open(file, mode, *args, **kwargs)
        return open_

    monkeypatch.setattr(builtins, "open", recording(builtins.open))
    monkeypatch.setattr(Path, "open", recording(Path.open))
    resolved = load_config(config_path).resolved(None)
    for stage in pipeline.STAGES:  # every stage, including those run leaves out
        opened.clear()
        run_stages([stage.name], manifest, trials, config_path, out, capsys)
        assert opened == stage.reads(resolved), stage.name


def test_readme_cli_table_lists_the_stage_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| subcommand | writes |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = [line.split(" | ", 1) for line in table.splitlines()]
    assert [name.strip("| `") for name, _ in rows] == [s.name for s in pipeline.STAGES] + ["run", "make-corpus"]
    for stage, (_, writes) in zip(pipeline.STAGES, rows):
        assert writes.startswith(f"`{stage.writes}/"), stage.name


def test_readme_config_block_matches_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Configuration\n", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == json.loads(ExperimentConfig().to_json())


def test_an_empty_manifest_is_logged_as_a_warning(tmp_path, capsys, caplog, recwarn):
    manifest = tmp_path / "manifest.tsv"
    write_manifest(manifest, [])
    caplog.set_level(logging.WARNING, logger="tclsv.pipeline")
    assert run_cli("extract-features", "--manifest", manifest, "--out", tmp_path / "run") == 0
    assert capsys.readouterr().out == "feature extraction finished with 0 failure(s)\n"
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (logging.WARNING, "manifest has no entries; nothing to extract")
    ]
    assert len(recwarn) == 0
    assert (tmp_path / "run" / "features" / "failures.tsv").read_text(encoding="utf-8") == ""


def test_each_stage_warns_once_about_failed_utterances(tiny_corpus, config_path, tmp_path, capsys, caplog):
    manifest, trials = tiny_corpus
    # one dnn-train and one ubm-train utterance; enroll and test stay whole
    manifest = break_wavs(manifest, {"s00_p0_t0", "s00_p2_t0"}, tmp_path)
    out = tmp_path / "run"
    caplog.set_level(logging.WARNING, logger="tclsv.pipeline")
    run_stages(["run"], manifest, trials, config_path, out, capsys)
    failures = out / "features" / "failures.tsv"
    warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert [m.split(":")[0] for m in warned[:2]] == [
        "extraction failed for s00_p0_t0", "extraction failed for s00_p2_t0"
    ]
    # make-labels, train-dnn, extract-bn (not dnn-train), train-ubm; enroll reads neither
    assert warned[2:] == [f"skipping {n} utterance(s) listed in {failures}" for n in (1, 1, 1, 1)]


def test_rerun_is_byte_identical(tiny_corpus, config_path, tmp_path, capsys):
    manifest, trials = tiny_corpus
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run_cli("run", "--manifest", manifest, "--trials", trials,
                       "--config", config_path, "--out", out) == 0
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


# --- each stage replaces its run-directory entry whole ---


def files_under(path):
    """The bytes of every file under ``path``, by path relative to it."""
    return {p.relative_to(path): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


def copy_of_finished_run(finished_run, tmp_path, **changes):
    """A copy of the finished run directory, and its config with each section of ``changes`` updated."""
    out, config = finished_run
    shutil.copytree(out, tmp_path / "run")
    tree = json.loads(config.read_text(encoding="utf-8"))
    for section, values in changes.items():
        tree[section] = {**tree.get(section, {}), **values}
    (tmp_path / "config.json").write_text(json.dumps(tree), encoding="utf-8")
    return tmp_path / "run", tmp_path / "config.json"


@pytest.mark.parametrize("stage", ["enroll", "extract-features"])
def test_a_rerun_leaves_no_file_of_what_the_manifest_dropped(tiny_corpus, finished_run, tmp_path, capsys, stage):
    manifest, trials = tiny_corpus
    out, config = copy_of_finished_run(finished_run, tmp_path)
    entries = read_manifest(manifest)
    if stage == "enroll":
        dropped = {e.utterance_id for e in entries if e.split == "enroll" and e.speaker_id == "s00"}
        gone = out / "models" / "s00.tclg"
    else:
        dropped = {entries[-1].utterance_id}
        gone = out / "features" / f"{entries[-1].utterance_id}.tclf"
    assert dropped and gone.exists()
    kept = [e for e in entries if e.utterance_id not in dropped]
    write_manifest(tmp_path / "manifest.tsv", kept)
    assert run_cli(stage, "--manifest", tmp_path / "manifest.tsv", "--config", config, "--out", out) == 0
    assert not gone.exists()
    if stage == "extract-features":
        archives = {p.name for p in (out / "features").glob("*.tclf")}
        assert archives == {f"{e.utterance_id}.tclf" for e in kept}
    else:  # the trials of s00 now find no model, as after a fresh run on this manifest
        capsys.readouterr()
        assert run_cli("score", "--manifest", tmp_path / "manifest.tsv", "--trials", trials,
                       "--config", config, "--out", out) == 2
        err = capsys.readouterr().err
        assert "no enrolled model for 's00': the manifest has no enroll utterance for it" in err


def raise_on_call(monkeypatch, module, name, nth=None, stem=None):
    """Make ``module.name`` raise OSError on its ``nth`` call in a process, or on a path named ``stem``."""
    real, calls = getattr(module, name), []

    def failing(*args, **kwargs):
        calls.append(args[0])
        if len(calls) == nth or (stem is not None and Path(args[0]).stem == stem):
            raise OSError("disk on fire")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, failing)


@pytest.mark.parametrize("case, stage, entry, changes", [
    pytest.param("enroll", "enroll", "models", {}, id="enroll"),
    pytest.param("extract-bn", "extract-bn", "bn", {"bn": {"pca_dim": 6}}, id="extract-bn"),
    pytest.param("extract-features", "extract-features", "features", {"frontend": {"preemphasis_coeff": 0.9}},
                 id="extract-features"),
    pytest.param("leftovers", "enroll", "models", {}, id="leftovers"),
])
def test_a_failed_stage_leaves_the_previous_entry_intact(
    tiny_corpus, finished_run, tmp_path, monkeypatch, case, stage, entry, changes
):
    manifest, _ = tiny_corpus
    out, config = copy_of_finished_run(finished_run, tmp_path, **changes)
    before = files_under(out / entry)
    if case == "enroll":
        raise_on_call(monkeypatch, gmm, "map_adapt", nth=2)
    elif case == "extract-bn":
        raise_on_call(monkeypatch, storage, "write_feature_archive", nth=3)
    elif case == "extract-features":  # in a forked worker's share
        usable_cpus(monkeypatch, 3)
        victim = extract_shares(read_manifest(manifest))[2][0].utterance_id
        raise_on_call(monkeypatch, storage, "write_feature_archive", stem=victim)
    else:  # what a killed enroll leaves behind
        (out / ".models.new").mkdir()
        (out / ".models.new" / "junk").write_bytes(b"junk")
        (out / ".models.old").mkdir()
        (out / ".models.old" / "s99.tclg").write_bytes(b"stale")
    code = run_cli(stage, "--manifest", manifest, "--config", config, "--out", out)
    assert code == (0 if case == "leftovers" else 3)
    assert files_under(out / entry) == before
    assert list(out.glob(".*")) == []


@pytest.mark.parametrize("stage", [s.name for s in pipeline.STAGES])
def test_a_failed_config_snapshot_leaves_the_previous_entry_and_prints_nothing(
    tiny_corpus, finished_run, tmp_path, capsys, monkeypatch, stage
):
    manifest, trials = tiny_corpus
    out, config = copy_of_finished_run(finished_run, tmp_path)
    entry = next(s.writes for s in pipeline.STAGES if s.name == stage)
    before = files_under(out / entry)

    def failing(path, config):
        raise DataError(f"{path}: disk full")

    monkeypatch.setattr(cli, "write_snapshot", failing)
    capsys.readouterr()
    assert run_cli(*stage_argv(stage, manifest, trials, config, out)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {stage}: {out / f'.{entry}.new' / 'config.json'}: disk full")
    assert captured.out == ""
    assert files_under(out / entry) == before
    assert list(out.glob(".*")) == []


@pytest.mark.parametrize("stage", [s.name for s in pipeline.STAGES])
def test_a_stage_changes_only_its_own_entry(tiny_corpus, finished_run, tmp_path, capsys, stage):
    manifest, trials = tiny_corpus
    source, config = finished_run
    resolved = load_config(config).resolved(None)
    writes, reads = next((s.writes, s.reads(resolved)) for s in pipeline.STAGES if s.name == stage)
    out = tmp_path / "run"
    out.mkdir()
    for name in reads:  # the upstream entries alone
        shutil.copytree(source / name, out / name)
    before = files_under(out)
    run_stages([stage], manifest, trials, config, out, capsys)
    assert sorted(p.name for p in out.iterdir()) == sorted(reads | {writes})
    assert {p: b for p, b in files_under(out).items() if p.parts[0] != writes} == before
    assert (out / writes / "config.json").read_text(encoding="utf-8") == resolved.to_json()


@pytest.mark.parametrize("link", ["hard", "symbolic"])
def test_a_rerun_in_a_linked_copy_leaves_the_source_entry_alone(tiny_corpus, finished_run, tmp_path, capsys, link):
    # a hard-linked features/ lets other back ends reuse one extraction
    manifest, trials = tiny_corpus
    source, config = copy_of_finished_run(finished_run, tmp_path / "source")
    out = tmp_path / "run"
    if link == "hard":
        shutil.copytree(source / "features", out / "features", copy_function=os.link)
    else:
        out.mkdir()
        (out / "features").symlink_to(source / "features")
    before = files_under(source / "features")
    later = [stage.name for stage in pipeline.STAGES[1:]]
    run_stages(later, manifest, trials, config, out, capsys)
    assert files_under(out / "report") == files_under(source / "report")
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps({**TINY_CONFIG, "frontend": {"preemphasis_coeff": 0.9}}), encoding="utf-8")
    run_stages(["extract-features"], manifest, trials, changed, out, capsys)
    assert files_under(source / "features") == before
    assert not (out / "features").is_symlink()
    after = files_under(out / "features")
    assert after.keys() == before.keys() and after != before
    assert list(out.glob(".*")) == []


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
                           "--out", out, "--seed", seed) == 0
        outs[seed] = (out / "dnn" / "model.tcln").read_bytes()
    assert outs[1] != outs[2]


@pytest.mark.parametrize("cause", ["not-enrolled", "no-enroll-row", "enroll-failed"])
def test_score_missing_model_names_it(tiny_corpus, config_path, tmp_path, capsys, cause):
    manifest, trials = tiny_corpus
    stages = ["extract-features", "make-labels", "train-dnn", "extract-bn", "train-ubm", "enroll"]
    if cause == "not-enrolled":
        stages.remove("enroll")
    elif cause == "no-enroll-row":
        entries = [e for e in read_manifest(manifest) if e.utterance_id != "s00_p3_t0"]
        manifest = tmp_path / "manifest.tsv"
        write_manifest(manifest, entries)
    else:
        manifest = break_wavs(manifest, {"s00_p3_t0"}, tmp_path)
    out = tmp_path / "run"
    run_stages(stages, manifest, trials, config_path, out, capsys)
    # the first trial's model is missing
    code = run_cli("score", "--manifest", manifest, "--trials", trials,
                   "--config", config_path, "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert "no enrolled model for 's00'" in err  # the offending model id is named
    want = {
        "not-enrolled": "run enroll first",
        "no-enroll-row": "the manifest has no enroll utterance for it",
        "enroll-failed": f"all 1 of its enroll utterance(s) are listed in {out / 'features' / 'failures.tsv'}",
    }[cause]
    assert want in err
    assert cause == "not-enrolled" or "run enroll first" not in err


def test_score_rejects_a_model_id_that_is_no_file_name(tiny_corpus, config_path, tmp_path, capsys):
    manifest, trials = tiny_corpus
    out = tmp_path / "run"
    run_through("enroll", tiny_corpus, config_path, out, capsys)
    bad = tmp_path / "trials.tsv"
    test_id = metrics.read_trials(trials)[0].test_utterance_id
    bad.write_text(f"s00\t{test_id}\ttarget\n../ubm/ubm\t{test_id}\ttarget\n", encoding="utf-8")
    code = run_cli("score", "--manifest", manifest, "--trials", bad, "--config", config_path, "--out", out)
    assert code == 2
    assert capsys.readouterr().err == f"error: score: {bad}:2: bad model_id '../ubm/ubm'\n"
    assert not (out / "scores").exists()


def test_score_matches_per_trial_score_llr_bitwise(tiny_corpus, config_path, tmp_path, monkeypatch):
    manifest, trials = tiny_corpus
    out = tmp_path / "run"
    for stage in ("extract-features", "make-labels", "train-dnn", "extract-bn",
                  "train-ubm", "enroll"):
        assert run_cli(stage, "--manifest", manifest, "--config", config_path,
                       "--out", out) == 0
    real_log_likelihoods = gmm.log_likelihoods
    calls = []

    def counting(model, frames, var_term=None):
        calls.append(model)
        return real_log_likelihoods(model, frames, var_term)

    monkeypatch.setattr(gmm, "log_likelihoods", counting)
    usable_cpus(monkeypatch, 1)  # calls in a forked worker would not be counted here
    score_set = run_stage_function("score", manifest, trials, load_config(config_path).resolved(None), out)
    monkeypatch.setattr(gmm, "log_likelihoods", real_log_likelihoods)

    test_ids = {t.test_utterance_id for t in score_set.trials}
    assert len(calls) == len(score_set.trials) + len(test_ids)  # one UBM pass per test utterance
    ubm = storage.read_gmm(out / "ubm" / "ubm.tclg")
    expected = [
        gmm.score_llr(
            [storage.read_gmm(out / "models" / f"{t.model_id}.tclg")],
            ubm,
            storage.read_feature_archive(out / "bn" / f"{t.test_utterance_id}.tclf"),
        )[0]
        for t in score_set.trials
    ]
    assert np.array_equal(score_set.scores, np.array(expected))


def test_score_caches_each_model_on_the_ubms_arrays(tiny_corpus, config_path, tmp_path, capsys, monkeypatch):
    manifest, trials = tiny_corpus
    out = tmp_path / "run"
    run_through("enroll", tiny_corpus, config_path, out, capsys)
    real_log_likelihoods = gmm.log_likelihoods
    models = []

    def recording(model, frames, var_term=None):
        models.append(model)
        return real_log_likelihoods(model, frames, var_term)

    monkeypatch.setattr(gmm, "log_likelihoods", recording)
    usable_cpus(monkeypatch, 1)  # models in a forked worker would not be recorded here
    run_stage_function("score", manifest, trials, load_config(config_path).resolved(None), out)
    ubm = models[0]  # each test utterance is scored against the UBM first
    speaker_models = {id(m): m for m in models if m is not ubm}.values()
    assert len(speaker_models) == len(list((out / "models").glob("*.tclg")))
    for model in speaker_models:
        assert model.weights is ubm.weights and model.variances is ubm.variances
        # beyond the shared arrays, only its means and the offset and scaled
        # means cached from them: no copy of the UBM's arrays or variance factor
        cached = [v for value in vars(model).values()
                  for v in (value if isinstance(value, tuple) else (value,))]
        own = [a for a in cached if a is not ubm.weights and a is not ubm.variances]
        assert sum(a.nbytes for a in own) == 2 * model.means.nbytes + model.weights.nbytes


def usable_cpus(monkeypatch, cpus):
    """Make ``cpus`` CPUs usable to ``extract-features`` and ``score``."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def record_score_processes(monkeypatch, record):
    """Append the pid of each ``gmm.score_llr`` call to the file ``record``, from whichever process makes it."""
    real_score_llr = gmm.score_llr

    def recording(*args):
        with open(record, "a", encoding="utf-8") as lines:
            lines.write(f"{os.getpid()}\n")
        return real_score_llr(*args)

    monkeypatch.setattr(gmm, "score_llr", recording)


def test_score_gives_the_same_bits_on_any_cpu_count(tiny_corpus, config_path, tmp_path, monkeypatch):
    manifest, trials = tiny_corpus
    config = load_config(config_path).resolved(None)
    outs, scores, pids = {}, {}, {}
    for cpus in (1, 3):  # 3 is more than the processes a 2-core machine runs at once
        usable_cpus(monkeypatch, cpus)
        out = outs[cpus] = tmp_path / f"cpus{cpus}"
        record = tmp_path / f"score_llr{cpus}.txt"
        record_score_processes(monkeypatch, record)
        assert run_cli("run", "--manifest", manifest, "--trials", trials, "--config", config_path,
                       "--out", out) == 0
        pids[cpus] = set(record.read_text(encoding="utf-8").split())
        scores[cpus] = run_stage_function("score", manifest, trials, config, out).scores
    assert pids[1] == {str(os.getpid())}
    assert len(pids[3]) > 1  # the test exercises the forked workers
    assert np.array_equal(scores[1], scores[3])
    files = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(outs[3]) for p in outs[3].rglob("*") if p.is_file())
    for name in files:
        assert (outs[1] / name).read_bytes() == (outs[3] / name).read_bytes(), name


def test_score_of_no_trials_writes_an_empty_score_file(tiny_corpus, config_path, tmp_path, capsys, monkeypatch):
    manifest, _ = tiny_corpus
    out = tmp_path / "run"
    run_through("enroll", tiny_corpus, config_path, out, capsys)
    usable_cpus(monkeypatch, 3)
    empty = tmp_path / "trials.tsv"
    empty.write_text("", encoding="utf-8")
    threads = threading.active_count()
    assert run_cli("score", "--manifest", manifest, "--trials", empty, "--config", config_path, "--out", out) == 0
    assert threading.active_count() == threads
    assert (out / "scores" / "scores.tsv").read_bytes() == b""


@pytest.mark.parametrize("first", ["frames", "model"])
def test_score_raises_the_first_fault_in_trial_order_on_any_cpu_count(tiny_corpus, tmp_path, capsys,
                                                                      monkeypatch, first):
    manifest, trials = tiny_corpus
    test_ids = list(dict.fromkeys(t.test_utterance_id for t in metrics.read_trials(trials)))
    poisoned, other = test_ids[0], test_ids[-1]
    config_path, out = poison_backend_archive("score", "bn", tiny_corpus, tmp_path, capsys, poisoned)
    lines = [f"s00\t{poisoned}\ttarget", f"s99\t{other}\ttarget"]  # s99 has no model
    if first == "model":
        lines.reverse()
    faulty = tmp_path / "trials.tsv"
    faulty.write_text("\n".join(lines) + "\n", encoding="utf-8")
    errors = {}
    for cpus in (1, 3):
        usable_cpus(monkeypatch, cpus)
        threads = threading.active_count()
        code = run_cli("score", "--manifest", manifest, "--trials", faulty, "--config", config_path, "--out", out)
        assert code == 2
        assert threading.active_count() == threads
        errors[cpus] = capsys.readouterr().err
    assert errors[3] == errors[1]
    if first == "frames":
        assert errors[1] == f"error: score: {poisoned!r}: non-finite frames in bn/\n"
    else:
        assert errors[1].startswith(f"error: score: {faulty}: no enrolled model for 's99'")
    assert not (out / "scores").exists()


@pytest.mark.parametrize("fault", [None, DataError, OSError])
def test_no_worker_outlives_score(tiny_corpus, config_path, tmp_path, capsys, monkeypatch, fault):
    manifest, trials = tiny_corpus
    out = tmp_path / "run"
    run_through("enroll", tiny_corpus, config_path, out, capsys)
    score = ["score", "--manifest", manifest, "--trials", trials, "--config", config_path, "--out", out]
    real_load_frames = pipeline._load_frames
    record = tmp_path / "loads.txt"

    def recording(out_dir, entry, *args):
        with open(record, "a", encoding="utf-8") as lines:
            lines.write(f"{os.getpid()}\t{entry.utterance_id}\n")
        return real_load_frames(out_dir, entry, *args)

    usable_cpus(monkeypatch, 3)
    monkeypatch.setattr(pipeline, "_load_frames", recording)
    assert run_cli(*score) == 0
    loads = [line.split("\t") for line in record.read_text(encoding="utf-8").splitlines()]
    victim = next(utt for pid, utt in loads if pid != str(os.getpid()))  # in a worker's share

    def load_frames(out_dir, entry, *args):
        if fault is not None and entry.utterance_id == victim:
            raise fault(f"{victim}: disk on fire")
        return real_load_frames(out_dir, entry, *args)

    monkeypatch.setattr(pipeline, "_load_frames", load_frames)
    errors = {}
    for cpus in (1, 3):
        usable_cpus(monkeypatch, cpus)
        capsys.readouterr()
        assert run_cli(*score) == {None: 0, DataError: 2, OSError: 3}[fault]
        errors[cpus] = capsys.readouterr().err
        with pytest.raises(ChildProcessError):  # no child, running or unreaped
            os.waitpid(-1, os.WNOHANG)
    if fault is DataError:
        assert errors[3] == errors[1] == f"error: score: {victim}: disk on fire\n"
    elif fault is OSError:
        # a worker's traceback goes to its copy of the captured stderr, so only the worker's exit shows here
        assert "score worker" in errors[3]


def test_every_file_is_written_from_the_main_thread(tiny_corpus, config_path, tmp_path, monkeypatch):
    # Every run-directory file is written through storage._atomic_file, so its
    # calls are every write.  extract-features writes from forked workers too,
    # which an in-memory record would miss, so each write appends its process
    # and thread to a file.
    manifest, trials = tiny_corpus
    usable_cpus(monkeypatch, 3)
    real_atomic_file = storage._atomic_file
    record = tmp_path / "writes.txt"

    def recording(path):
        with open(record, "a", encoding="utf-8") as lines:
            lines.write(f"{os.getpid()}\t{threading.current_thread() is threading.main_thread()}\n")
        return real_atomic_file(path)

    monkeypatch.setattr(storage, "_atomic_file", recording)
    assert run_cli("run", "--manifest", manifest, "--trials", trials, "--config", config_path,
                   "--out", tmp_path / "run") == 0
    writes = [line.split("\t") for line in record.read_text(encoding="utf-8").splitlines()]
    assert len(writes) == sum(1 for p in (tmp_path / "run").rglob("*") if p.is_file())
    assert all(on_main == "True" for _, on_main in writes)
    assert len({pid for pid, _ in writes}) == 3  # the record sees the workers' writes


# --- the fork runner ---


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_the_fork_runner_gives_the_serial_loops_results(monkeypatch, cpus):
    usable_cpus(monkeypatch, cpus)

    def fn(x):
        return x, x * x, f"item {x}"

    items = list(range(7))
    assert pipeline._run_shares(fn, items, "test") == json.loads(json.dumps([fn(x) for x in items]))


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("earlier", ["in a worker's share", "in this process's share"])
def test_the_fork_runner_raises_the_serial_loops_first_error(tmp_path, monkeypatch, cpus, earlier):
    usable_cpus(monkeypatch, cpus)
    # item i is in share i % cpus, and share 0 is this process's
    failing = {"in a worker's share": (1, 2 * cpus), "in this process's share": (cpus, cpus + 1)}[earlier]
    record = tmp_path / "calls.txt"

    def fn(x):
        with open(record, "a", encoding="utf-8") as calls:
            calls.write(f"{x}\n")
        if x in failing:
            raise DataError(f"item {x} is bad")
        return x

    items = list(range(7))
    with pytest.raises(DataError, match=f"^item {min(failing)} is bad$"):
        pipeline._run_shares(fn, items, "test")
    # each share stops at its first failure
    expected = []
    for i in range(cpus):
        for x in items[i::cpus]:
            expected.append(x)
            if x in failing:
                break
    assert sorted(int(x) for x in record.read_text(encoding="utf-8").split()) == sorted(expected)
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_the_fork_runner_forks_nothing_for_no_items(monkeypatch, cpus):
    usable_cpus(monkeypatch, cpus)
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    assert pipeline._run_shares(lambda x: x, [], "test") == []
    assert forks == []
    with pytest.raises(ChildProcessError):  # no child, running or unreaped
        os.waitpid(-1, os.WNOHANG)


# --- extract-features on several CPUs ---


def extract_shares(entries):
    """``entries`` dealt as ``extract-features`` deals them on 3 CPUs."""
    return [entries[i::3] for i in range(3)]


def odd_wavs_in_a_workers_share(tiny_corpus, tmp_path):
    """A copy of the tiny manifest with one corrupt and one silent WAV, both in a forked worker's share of 3."""
    manifest, _ = tiny_corpus
    entries = read_manifest(manifest)
    odd = tmp_path / "odd"
    odd.mkdir()
    corrupt, silent = entries[1], entries[2]
    entries[1] = replace(corrupt, wav_path=odd / "corrupt.wav")
    entries[1].wav_path.write_bytes(b"this is not a wav file")
    entries[2] = replace(silent, wav_path=odd / "silent.wav")
    signal = frontend.read_wav(silent.wav_path)
    frontend.write_wav(entries[2].wav_path, replace(signal, samples=np.zeros_like(signal.samples)))
    path = tmp_path / "manifest.tsv"
    write_manifest(path, entries)
    first_share = {e.utterance_id for e in extract_shares(entries)[0]}
    assert not first_share & {corrupt.utterance_id, silent.utterance_id}
    return path


def run_extract_features_process(cpus, manifest, config_path, out, fail=""):
    """``extract-features`` in a fresh interpreter that sees ``cpus`` usable CPUs.

    With ``fail``, reading that utterance's WAV raises OSError.  Before the
    stage the script prints a line that stays in stdout's buffer, so a
    process that flushed a copy of it would print it twice.
    """
    script = (
        "import os, sys\n"
        "from pathlib import Path\n"
        "cpus, fail = int(sys.argv[1]), sys.argv[2]\n"
        "os.sched_getaffinity = lambda pid: set(range(cpus))\n"
        "from tclsv import cli, pipeline\n"
        "real_read_wav = pipeline.read_wav\n"
        "def read_wav(path):\n"
        "    if Path(path).stem == fail:\n"
        "        raise OSError('disk on fire')\n"
        "    return real_read_wav(path)\n"
        "pipeline.read_wav = read_wav\n"
        "print('before the stage')\n"
        "sys.exit(cli.main(sys.argv[3:]))\n"
    )
    src = str(Path(tclsv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe is then block-buffered
    argv = [cpus, fail, "extract-features", "--manifest", manifest, "--config", config_path, "--out", out]
    return subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_extract_features_gives_the_same_bytes_on_any_cpu_count(tiny_corpus, config_path, tmp_path):
    manifest = odd_wavs_in_a_workers_share(tiny_corpus, tmp_path)
    outs, stdouts, counts = {}, {}, {}
    for cpus in (1, 3):
        outs[cpus] = tmp_path / f"cpus{cpus}"
        result = run_extract_features_process(cpus, manifest, config_path, outs[cpus])
        assert result.returncode == 0, result.stderr
        stdouts[cpus] = result.stdout
        # the INFO line sums the workers' counts
        [counts[cpus]] = [line for line in result.stderr.splitlines() if line.startswith("INFO")]
        assert f"extracted 29 utterance(s) in {cpus} process(es), 1 failed;" in counts[cpus]
    assert stdouts[1] == stdouts[3] == "before the stage\nfeature extraction finished with 1 failure(s)\n"
    assert counts[1].split(";")[1] == counts[3].split(";")[1]
    failures = (outs[1] / "features" / "failures.tsv").read_text(encoding="utf-8")
    assert failures.startswith(read_manifest(manifest)[1].utterance_id + "\t")
    files = sorted(p.relative_to(outs[1]) for p in (outs[1] / "features").iterdir())
    assert len(files) == 3 * 5 * 2 + 1  # 29 archives, failures.tsv and config.json
    assert files == sorted(p.relative_to(outs[3]) for p in (outs[3] / "features").iterdir())
    for name in files:
        assert (outs[1] / name).read_bytes() == (outs[3] / name).read_bytes(), name


def test_an_error_in_a_worker_exits_3_before_any_stage_output(tiny_corpus, config_path, tmp_path):
    manifest, _ = tiny_corpus
    victim = extract_shares(read_manifest(manifest))[1][0].utterance_id
    out = tmp_path / "run"
    result = run_extract_features_process(3, manifest, config_path, out, fail=victim)
    assert result.returncode == 3
    assert result.stdout == "before the stage\n"
    assert "OSError: disk on fire" in result.stderr
    assert "feature extraction worker" in result.stderr
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("fault", [None, "in the first share", "in a worker's share"])
def test_no_worker_outlives_extract_features(tiny_corpus, config_path, tmp_path, capsys, monkeypatch, fault):
    manifest, _ = tiny_corpus
    usable_cpus(monkeypatch, 3)
    shares = extract_shares(read_manifest(manifest))
    victim = {None: None, "in the first share": shares[0][-1], "in a worker's share": shares[2][-1]}[fault]
    real_read_wav = pipeline.read_wav

    def read_wav(path):
        if victim is not None and Path(path) == victim.wav_path:
            raise OSError("disk on fire")
        return real_read_wav(path)

    monkeypatch.setattr(pipeline, "read_wav", read_wav)
    code = run_cli("extract-features", "--manifest", manifest, "--config", config_path, "--out", tmp_path / "run")
    assert code == (0 if fault is None else 3)
    with pytest.raises(ChildProcessError):  # no child, running or unreaped
        os.waitpid(-1, os.WNOHANG)
    if fault is not None:
        # a worker's traceback goes to its copy of the captured stderr, so only the worker's exit shows here
        expected = "disk on fire" if fault == "in the first share" else "feature extraction worker"
        assert expected in capsys.readouterr().err


def test_workers_run_on_one_blas_thread(tiny_corpus, tmp_path, monkeypatch, blas_threads):
    # 40 ms frames take 513 FFT bins, whose mel product rounds differently on
    # two OpenBLAS threads than on one (2-core x86-64, OpenBLAS 0.3.31)
    manifest, _ = tiny_corpus
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**TINY_CONFIG, "frontend": {"frame_length_ms": 40.0}}), encoding="utf-8")
    outs = {}
    for cpus in (1, 3):
        usable_cpus(monkeypatch, cpus)
        outs[cpus] = tmp_path / f"cpus{cpus}"
        assert run_cli("extract-features", "--manifest", manifest, "--config", config_path,
                       "--out", outs[cpus]) == 0
    assert blas_threads() == 2
    names = sorted(p.name for p in (outs[1] / "features").iterdir())
    assert len(names) == 3 * 5 * 2 + 2  # the archives, failures.tsv and config.json
    for name in names:
        assert (outs[1] / "features" / name).read_bytes() == (outs[3] / "features" / name).read_bytes(), name


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
    run_stage_function("make-labels", manifest, None, config, out)
    assert full_reads == []

    # the same labels as labeling the fully read archives
    entries = [e for e in read_manifest(manifest) if e.split == "dnn-train"]
    utterances = [
        labeling.FrameCount(e.utterance_id, len(real_read(out / "features" / f"{e.utterance_id}.tclf")))
        for e in entries
    ]
    expected = tmp_path / "expected.tsv"
    labeling.write_label_archive(
        expected, labeling.labels_by_utterance(labeling.label_utterances(utterances, config.tcl))
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

    def checked_backward(params, batch, learning_rate):
        picked = real_backward(params, batch, learning_rate)
        for arrays in ([batch.inputs], params.weights, params.biases, params.head_weights, picked):
            dtypes.update(a.dtype for a in arrays)
        return picked

    def checked_extract(params, inputs, layer="L2"):
        deep = real_extract(params, inputs, layer)
        dtypes.update(a.dtype for a in (inputs, deep, *params.weights, *params.biases))
        return deep

    monkeypatch.setattr(network, "backward", checked_backward)
    monkeypatch.setattr(network, "extract_deep_features", checked_extract)
    params, _ = run_stage_function("train-dnn", manifest, None, config, out)
    run_stage_function("extract-bn", manifest, None, config, out)
    assert dtypes == {np.dtype(np.float32)}

    # the model file keeps its float64 format; the upcast loses nothing
    stored = storage.read_network(out / "dnn" / "model.tcln")
    for got, trained in zip(stored.weights + stored.head_biases, params.weights + params.head_biases):
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, trained)


# --- the DNN training set ---

# The builder as it was before one label path served every head, kept verbatim
# (renamed) as the reference for the current one.
_require = pipeline._require


def _load_features(out_dir, entry):
    """``entry``'s checked features/ frames, wrapped as the reference builder reads them."""
    return frontend.FeatureMatrix(pipeline._load_frames(out_dir, entry), entry.utterance_id)


def reference_build_training_dataset(
    train_entries: list[ManifestEntry], config: ExperimentConfig, out_dir: Path
) -> tuple[network.LabeledDataset, network.NetworkArch]:
    """Context-stacked frames of the dnn-train entries plus per-head labels per config.dnn.targets.

    The frames are cast to float32 once, here, so the network trains in float32.
    """
    left, right = config.dnn.context_left, config.dnn.context_right

    utterances: list[tuple[np.ndarray, int]] = []  # (frames, rows kept)
    if config.dnn.targets == "tcl":
        archived = labeling.read_label_archive(
            _require(out_dir / "labels" / "labels.tsv")
        )
        label_parts = []
        for entry in train_entries:
            vec = archived.get(entry.utterance_id)
            if vec is None or len(vec) == 0:
                continue  # skipped as too short, or truncated away in stream mode
            feats = _load_features(out_dir, entry)
            # stream mode may label only a prefix; anything else must match exactly
            too_long = len(vec) > feats.num_frames
            if too_long or (config.tcl.mode == "utterance" and len(vec) != feats.num_frames):
                raise DataError(
                    f"{entry.utterance_id}: {len(vec)} labels for {feats.num_frames} frames"
                )
            if int(vec.max()) >= config.tcl.num_classes:
                raise DataError(
                    f"{entry.utterance_id}: label {int(vec.max())} out of range for"
                    f" {config.tcl.num_classes} classes"
                )
            utterances.append((feats.frames.astype(np.float32), len(vec)))
            label_parts.append(vec)
        if not utterances:
            raise DataError("no labeled training frames; check labels.tsv")
        labels = {"tcl": np.concatenate(label_parts)}
        heads = (("tcl", config.tcl.num_classes),)
    else:
        want_speaker = config.dnn.targets in ("speaker", "speaker+phrase")
        want_phrase = config.dnn.targets in ("phrase", "speaker+phrase")
        if want_phrase and any(e.phrase_id is None for e in train_entries):
            raise DataError(
                f"dnn.targets {config.dnn.targets!r} needs phrase_id on every dnn-train row"
            )
        speakers = sorted({e.speaker_id for e in train_entries})
        speaker_index = {s: i for i, s in enumerate(speakers)}
        phrases = sorted({e.phrase_id for e in train_entries}) if want_phrase else []
        phrase_index = {p: i for i, p in enumerate(phrases)}
        speaker_parts, phrase_parts = [], []
        for entry in train_entries:
            feats = _load_features(out_dir, entry)
            utterances.append((feats.frames.astype(np.float32), feats.num_frames))
            speaker_parts.append(np.full(feats.num_frames, speaker_index[entry.speaker_id]))
            if want_phrase:
                phrase_parts.append(np.full(feats.num_frames, phrase_index[entry.phrase_id]))
        labels, heads = {}, ()
        if want_speaker:
            labels["speaker"] = np.concatenate(speaker_parts)
            heads += (("speaker", len(speakers)),)
        if want_phrase:
            labels["phrase"] = np.concatenate(phrase_parts)
            heads += (("phrase", len(phrases)),)

    inputs = network.context_windows(utterances, left, right)
    arch = network.NetworkArch(
        input_dim=inputs.shape[1],
        hidden_layers=config.dnn.hidden_layers,
        output_heads=heads,
    )
    return network.LabeledDataset(inputs=inputs, labels=labels), arch


def dnn_train_entries(manifest):
    return [e for e in read_manifest(manifest) if e.split == "dnn-train"]


def num_frames(out, entry):
    return storage.read_feature_shape(out / "features" / f"{entry.utterance_id}.tclf")[0]


@pytest.mark.parametrize("case", ["tcl-utterance", "tcl-stream", "speaker", "phrase", "speaker+phrase"])
def test_training_dataset_matches_the_reference_builder(tiny_corpus, config_path, tmp_path, case):
    manifest, _ = tiny_corpus
    out = tmp_path / "run"
    assert run_cli("extract-features", "--manifest", manifest, "--config", config_path, "--out", out) == 0
    config = load_config(config_path).resolved(None)
    entries = dnn_train_entries(manifest)
    labels_path = out / "labels" / "labels.tsv"
    if case == "tcl-utterance":
        run_stage_function("make-labels", manifest, None, config, out)
        rows = labeling.read_label_archive(labels_path)
        del rows[entries[1].utterance_id]  # skipped, as if too short to label
        labeling.write_label_archive(labels_path, rows)
    elif case == "tcl-stream":
        config = replace(config, tcl=replace(config.tcl, mode="stream"))
        rng = np.random.default_rng(3)
        # prefixes cut short by 0, 5 or 10 frames, one empty row, one utterance without a row
        rows = {
            e.utterance_id: rng.integers(0, config.tcl.num_classes, num_frames(out, e) - i % 3 * 5)
            for i, e in enumerate(entries[1:])
        }
        rows[entries[2].utterance_id] = np.zeros(0, dtype=np.int64)
        labels_path.parent.mkdir()
        labeling.write_label_archive(labels_path, rows)
    else:
        config = replace(config, dnn=replace(config.dnn, targets=case))

    got, got_arch = pipeline._build_training_dataset(entries, config, out)
    want, want_arch = reference_build_training_dataset(entries, config, out)
    heads = ["tcl"] if case.startswith("tcl") else case.split("+")
    assert [head for head, _ in got_arch.output_heads] == list(got.labels) == heads
    assert got_arch == want_arch
    got_inputs, want_inputs = got.inputs[:], want.inputs[:]
    assert got_inputs.dtype == want_inputs.dtype == np.float32
    assert np.array_equal(got_inputs, want_inputs)
    assert list(want.labels) == heads
    for head, want_labels in want.labels.items():
        assert got.labels[head].dtype == want_labels.dtype, head
        assert np.array_equal(got.labels[head], want_labels), head


def test_six_sigmoid_layers_learn_the_tiny_corpus_labels(tiny_corpus, tmp_path):
    # The learning gate: at the paper's depth, 6 x 64 at lr 0.5 for 20 epochs
    # on the default TCL labels (10 classes) ends at most 0.8 ln(classes).
    # With Glorot & Bengio's tanh init range the loss stays at chance (1.009
    # ln 10); with their sigmoid range, 4 times wider, it ends at 0.645 ln 10.
    manifest, _ = tiny_corpus
    config_path = tmp_path / "config.json"
    config_path.write_text("{}", encoding="utf-8")
    out = tmp_path / "run"
    for stage in ("extract-features", "make-labels"):
        assert run_cli(stage, "--manifest", manifest, "--config", config_path, "--out", out) == 0
    config = load_config(config_path).resolved(None)
    dnn = replace(config.dnn, hidden_layers=(64,) * 6, learning_rate=0.5, epochs=20)
    config = replace(config, dnn=dnn)
    dataset, arch = pipeline._build_training_dataset(dnn_train_entries(manifest), config, out)
    (_, num_classes), = arch.output_heads
    _, trace = network.train(dataset, arch, dnn)
    assert trace[-1] <= 0.8 * np.log(num_classes)


@pytest.mark.parametrize(
    "fault", ["no-labels", "too-long", "too-short", "out-of-range", "negative", "non-integer", "no-phrase"]
)
def test_train_dnn_rejects_bad_labels(tiny_corpus, config_path, tmp_path, capsys, fault):
    manifest, _ = tiny_corpus
    out = tmp_path / "run"
    victim = dnn_train_entries(manifest)[1]
    if fault == "no-phrase":
        entries = [replace(e, phrase_id=None) if e == victim else e for e in read_manifest(manifest)]
        manifest = tmp_path / "manifest.tsv"
        write_manifest(manifest, entries)
        config = {**TINY_CONFIG, "dnn": {**TINY_CONFIG["dnn"], "targets": "speaker+phrase"}}
        config_path.write_text(json.dumps(config), encoding="utf-8")
    stages = ["extract-features"] if fault in ("no-labels", "no-phrase") else ["extract-features", "make-labels"]
    for stage in stages:
        assert run_cli(stage, "--manifest", manifest, "--config", config_path, "--out", out) == 0
    labels_path, lineno = out / "labels" / "labels.tsv", None  # lineno: the victim's row in it
    if fault in ("too-long", "too-short", "out-of-range", "negative"):
        rows = labeling.read_label_archive(labels_path)
        vec = rows[victim.utterance_id]
        rows[victim.utterance_id] = {
            "too-long": np.append(vec, 0),
            "too-short": vec[:-1],
            "out-of-range": np.r_[vec[:3], TINY_CONFIG["tcl"]["num_classes"], vec[4:]],
            "negative": np.r_[vec[:3], -1, vec[4:]],
        }[fault]
        labeling.write_label_archive(labels_path, rows)
    elif fault == "non-integer":
        lines = labels_path.read_text(encoding="utf-8").splitlines()
        lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(f"{victim.utterance_id}\t"))
        lines[lineno - 1] += " x"
        labels_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("train-dnn", "--manifest", manifest, "--config", config_path, "--out", out) == 2
    err = capsys.readouterr().err
    want = {
        "no-labels": f"{labels_path}: run make-labels first",
        "too-long": f"{victim.utterance_id}: {num_frames(out, victim) + 1} labels for",
        "too-short": f"{victim.utterance_id}: {num_frames(out, victim) - 1} labels for",
        "out-of-range": f"{victim.utterance_id}: label 6 out of range for 6 classes",
        "negative": f"{victim.utterance_id}: label -1 out of range for 6 classes",
        "non-integer": f"{labels_path}:{lineno}: labels of {victim.utterance_id!r}: invalid literal",
        "no-phrase": "needs phrase_id on every dnn-train row",
    }[fault]
    assert want in err
    assert not (out / "dnn").exists()


UP_TO_ENROLL = ["extract-features", "make-labels", "train-dnn", "extract-bn", "train-ubm", "enroll"]


def run_through(stage, tiny_corpus, config_path, out, capsys):
    """Run the stages up to and including ``stage``, asserting exit 0."""
    manifest, trials = tiny_corpus
    run_stages(UP_TO_ENROLL[: UP_TO_ENROLL.index(stage) + 1], manifest, trials, config_path, out, capsys)


# the default batches several utterances per call; 40 rows splits each utterance
@pytest.mark.parametrize("batch_rows, batched", [(pipeline.BN_BATCH_ROWS, True), (40, False)])
def test_extract_bn_matches_per_utterance_reference(
    tiny_corpus, config_path, tmp_path, capsys, monkeypatch, batch_rows, batched
):
    manifest, _ = tiny_corpus
    out = tmp_path / "run"
    run_through("train-dnn", tiny_corpus, config_path, out, capsys)
    config = load_config(config_path).resolved(None)
    monkeypatch.setattr(pipeline, "BN_BATCH_ROWS", batch_rows)
    rows_seen = []
    real_extract = network.extract_deep_features

    def counting(params, inputs, layer="L2"):
        rows_seen.append(len(inputs))
        return real_extract(params, inputs, layer)

    monkeypatch.setattr(network, "extract_deep_features", counting)
    projection = run_stage_function("extract-bn", manifest, None, config, out)
    monkeypatch.setattr(network, "extract_deep_features", real_extract)

    entries = read_manifest(manifest)
    params = storage.read_network(out / "dnn" / "model.tcln", np.float32)

    def reference(entry):
        frames = storage.read_feature_archive(out / "features" / f"{entry.utterance_id}.tclf")
        context = network.stack_context(frames.astype(np.float32), config.dnn.context_left,
                                        config.dnn.context_right)
        deep = real_extract(params, context, config.bn.layer).astype(np.float64)
        return frontend.cmvn(deep)

    fit = np.vstack([reference(e) for e in entries if e.split == config.bn.fit_split])
    want = pca.fit_pca(*pca.covariance(fit, config.bn.pca_dim), config.bn.pca_dim)
    for got_array, want_array in zip(
        (projection.mean, projection.basis, projection.eigenvalues), (want.mean, want.basis, want.eigenvalues)
    ):
        assert np.array_equal(got_array, want_array)
    kept = [e for e in entries if e.split != "dnn-train"]
    assert sorted(p.stem for p in (out / "bn").glob("*.tclf")) == sorted(e.utterance_id for e in kept)
    for entry in kept:
        got = storage.read_feature_archive(out / "bn" / f"{entry.utterance_id}.tclf")
        assert np.array_equal(got, pca.project(want, reference(entry))), entry.utterance_id

    # every kept utterance goes through the network once, and the fit split
    # once more to fit the PCA, in calls of at most batch_rows rows
    assert max(rows_seen) <= batch_rows
    fit_entries = [e for e in entries if e.split == config.bn.fit_split]
    total = sum(storage.read_feature_shape(out / "features" / f"{e.utterance_id}.tclf")[0]
                for e in kept + fit_entries)
    assert sum(rows_seen) == total
    if batched:
        assert len(rows_seen) < len(kept)
    else:
        assert len(rows_seen) > len(kept)


def test_extract_bn_rejects_non_finite_deep_features(tiny_corpus, config_path, tmp_path, capsys):
    manifest, _ = tiny_corpus
    out = tmp_path / "run"
    run_through("train-dnn", tiny_corpus, config_path, out, capsys)
    params = storage.read_network(out / "dnn" / "model.tcln")
    params.weights[0][0, 0] = np.nan
    storage.write_network(out / "dnn" / "model.tcln", params)
    assert run_cli("extract-bn", "--manifest", manifest, "--config", config_path, "--out", out) == 2
    first_fit = next(e for e in read_manifest(manifest) if e.split == "ubm-train").utterance_id
    err = capsys.readouterr().err
    assert err.startswith("error: extract-bn: ") and repr(first_fit) in err and "non-finite" in err
    # raised before the PCA fit and before any archive
    assert not (out / "bn").exists()


def poison_backend_archive(stage, backend, tiny_corpus, tmp_path, capsys, victim, subdir=None):
    """Run the stages ``run`` needs before ``stage`` under ``backend``, then put a NaN
    in ``victim``'s archive in ``subdir`` (by default the back-end's); returns (config
    path, run directory)."""
    manifest, trials = tiny_corpus
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(TINY_CONFIG if backend == "bn" else MFCC_CONFIG), encoding="utf-8")
    out = tmp_path / "run"
    needed = pipeline.stages_for_run(load_config(config_path).resolved(None))
    before = needed[: needed.index(stage)]
    run_stages(before, manifest, trials, config_path, out, capsys)
    path = out / (subdir or ("bn" if backend == "bn" else "features")) / f"{victim}.tclf"
    frames = storage.read_feature_archive(path)
    frames[3, 2] = np.nan
    storage.write_feature_archive(path, frames)
    return config_path, out


# train-dnn reads features/ of dnn-train, train-ubm the back-end's archives of ubm-train
@pytest.mark.parametrize("stage, subdir, split", [
    ("train-dnn", "features", "dnn-train"),
    ("train-ubm", "bn", "ubm-train"),
], ids=["train-dnn", "train-ubm"])
def test_training_rejects_non_finite_frames(tiny_corpus, tmp_path, capsys, stage, subdir, split):
    manifest, _ = tiny_corpus
    victim = [e for e in read_manifest(manifest) if e.split == split][1].utterance_id
    config_path, out = poison_backend_archive(stage, "bn", tiny_corpus, tmp_path, capsys, victim, subdir)
    assert run_cli(stage, "--manifest", manifest, "--config", config_path, "--out", out) == 2
    assert capsys.readouterr().err == f"error: {stage}: {victim!r}: non-finite frames in {subdir}/\n"
    assert not (out / {"train-dnn": "dnn", "train-ubm": "ubm"}[stage]).exists()


@pytest.mark.parametrize("backend", ["bn", "mfcc"])
def test_enroll_rejects_non_finite_frames(tiny_corpus, tmp_path, capsys, backend):
    manifest, _ = tiny_corpus
    enroll = [e for e in read_manifest(manifest) if e.split == "enroll"]
    # an utterance of the speaker adapted last, after every other speaker's model
    victim = [e for e in enroll if e.speaker_id == max(e.speaker_id for e in enroll)][-1]
    config_path, out = poison_backend_archive("enroll", backend, tiny_corpus, tmp_path, capsys,
                                              victim.utterance_id)
    assert run_cli("enroll", "--manifest", manifest, "--config", config_path, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: enroll: ") and repr(victim.utterance_id) in err and "non-finite" in err
    # no speaker's model is written unless every speaker adapts
    assert not list((out / "models").glob("*.tclg"))


@pytest.mark.parametrize("backend", ["bn", "mfcc"])
def test_score_rejects_non_finite_frames(tiny_corpus, tmp_path, capsys, backend):
    manifest, trials = tiny_corpus
    victim = trials.read_text(encoding="utf-8").splitlines()[-1].split("\t")[1]
    config_path, out = poison_backend_archive("score", backend, tiny_corpus, tmp_path, capsys, victim)
    code = run_cli("score", "--manifest", manifest, "--trials", trials, "--config", config_path, "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: score: ") and repr(victim) in err and "non-finite" in err
    assert not (out / "scores").exists()


@pytest.mark.parametrize("backend", ["bn", "mfcc"])
def test_score_rejects_a_dnn_train_test_utterance(tiny_corpus, tmp_path, capsys, backend):
    manifest, trials = tiny_corpus
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(TINY_CONFIG if backend == "bn" else MFCC_CONFIG), encoding="utf-8")
    out = tmp_path / "run"
    stages = [s for s in UP_TO_ENROLL if s in pipeline.stages_for_run(load_config(config_path).resolved(None))]
    run_stages(stages, manifest, trials, config_path, out, capsys)
    victim = next(e for e in read_manifest(manifest) if e.split == "dnn-train").utterance_id
    lines = trials.read_text(encoding="utf-8").splitlines()
    model_id, _, kind = lines[-1].split("\t")
    bad_trials = tmp_path / "trials.tsv"
    bad_trials.write_text("\n".join(lines + [f"{model_id}\t{victim}\t{kind}"]) + "\n", encoding="utf-8")
    code = run_cli("score", "--manifest", manifest, "--trials", bad_trials,
                   "--config", config_path, "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert repr(victim) in err and "dnn-train" in err
    assert not (out / "scores").exists()


@pytest.mark.parametrize("case", ["retrained-ubm", "other-variances"])
def test_score_rejects_a_model_not_adapted_from_the_ubm(tiny_corpus, config_path, tmp_path, capsys, case):
    manifest, trials = tiny_corpus
    out = tmp_path / "run"
    if case == "retrained-ubm":  # K = 8 models, then a K = 4 UBM
        k8_path = tmp_path / "k8.json"
        k8 = {**TINY_CONFIG, "backend": {**TINY_CONFIG["backend"], "num_mixtures": 8}}
        k8_path.write_text(json.dumps(k8), encoding="utf-8")
        run_through("enroll", tiny_corpus, k8_path, out, capsys)
        run_stages(["train-ubm"], manifest, trials, config_path, out, capsys)
        model_id = trials.read_text(encoding="utf-8").split("\t", 1)[0]  # the first trial's
    else:
        run_through("enroll", tiny_corpus, config_path, out, capsys)
        model_id = "s01"
        path = out / "models" / "s01.tclg"
        model = storage.read_gmm(path)
        storage.write_gmm(path, gmm.GmmModel(model.weights, model.means, model.variances * 1.5))
    code = run_cli("score", "--manifest", manifest, "--trials", trials, "--config", config_path, "--out", out)
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: score: {out / 'models' / f'{model_id}.tclg'}: weights or variances differ from"
        f" {out / 'ubm' / 'ubm.tclg'}; run enroll again\n"
    )
    assert not (out / "scores").exists()


@pytest.mark.parametrize("stage", ["enroll", "score"])
def test_backend_frames_of_another_dimension_exit_2(tiny_corpus, config_path, tmp_path, capsys, stage):
    # the UBM and models were trained on 8-dim bn/ archives; the config now reads 57-dim features/
    manifest, trials = tiny_corpus
    out = tmp_path / "run"
    run_through("enroll", tiny_corpus, config_path, out, capsys)
    mfcc_path = tmp_path / "mfcc.json"
    mfcc_path.write_text(json.dumps(MFCC_CONFIG), encoding="utf-8")
    trials_args = ["--trials", trials] if stage == "score" else []
    code = run_cli(stage, "--manifest", manifest, *trials_args, "--config", mfcc_path, "--out", out)
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {stage}: {out / 'features'}/ holds 57-dim frames but {out / 'ubm' / 'ubm.tclg'}"
        f" expects 8; run train-ubm again\n"
    )


# --- BLAS threads per stage ---


@pytest.fixture()
def blas_threads():
    """OpenBLAS's thread-count getter, with the count set to 2 for the test and restored after."""
    found = blas.controls()
    if found is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread controls")
    get, set_ = found
    previous = get()
    set_(2)  # so that one thread differs from the caller's count on any machine
    yield get
    set_(previous)


def test_only_the_stage_tables_blas_stages_keep_the_threads(
    tiny_corpus, config_path, tmp_path, capsys, monkeypatch, blas_threads
):
    manifest, trials = tiny_corpus
    seen = {}
    for stage in pipeline.STAGES:
        attr = "run_" + stage.name.replace("-", "_")

        def probe(*args, _real=getattr(pipeline, attr), _name=stage.name, **kwargs):
            seen[_name] = blas_threads()
            return _real(*args, **kwargs)

        monkeypatch.setattr(pipeline, attr, probe)
    run_stages(["run"], manifest, trials, config_path, tmp_path / "run", capsys)
    assert seen == {stage.name: 2 if stage.blas_threads else 1 for stage in pipeline.STAGES}
    assert {name for name, count in seen.items() if count == 2} == {"train-dnn", "extract-bn", "train-ubm"}
    assert blas_threads() == 2


def test_blas_threads_are_restored_after_a_stage_fails(
    tiny_corpus, config_path, tmp_path, monkeypatch, blas_threads
):
    manifest, trials = tiny_corpus
    seen = []

    def failing(*args, **kwargs):
        seen.append(blas_threads())
        raise DataError("no scores today")

    monkeypatch.setattr(pipeline, "run_score", failing)
    code = run_cli("score", "--manifest", manifest, "--trials", trials,
                   "--config", config_path, "--out", tmp_path / "run")
    assert code == 2 and seen == [1]
    assert blas_threads() == 2
