"""End-to-end and per-layer benchmark of ``tclsv run``.

    python3 perfbench/run.py --workload paper-1epoch --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each run generates a synthetic corpus with
``tclsv make-corpus`` from ``--seed``, times fresh-interpreter set-up, then
runs ``tclsv run`` in a child process, one pipeline at a time (a closed loop
with one client), for about ``--seconds`` seconds.  Every pipeline run is
checked against the independent oracles in ``oracles.py``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` pairs each
untraced pipeline run with one under ``tracer.py`` and reports the per-layer
metrics.  Metric names, units and directions come from ``BENCHMARK.json``.
The last line of standard output is one JSON object.  ``--workload all``
runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import oracles
import selftest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

# Each child must finish well inside the 180 s a whole benchmark run may take.
CHILD_TIMEOUT_S = 150.0
SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3
LLR_SAMPLE = 10
TAKES_PER_PHRASE = 4
IMPORT_MODULES = ("tclsv.cli", "numpy", "scipy.fft", "scipy.signal")
STAGES = ("extract_features", "make_labels", "train_dnn", "extract_bn",
          "train_ubm", "enroll", "score", "evaluate")
# Spans whose self time is reported as ``<name>.s`` (stages report wall time).
SELF_TIMED = (
    "frontend.extract_features", "frontend.read_wav", "labeling.label_utterances",
    "network.train", "network.forward", "network.backward", "network.extract_deep_features",
    "network.stack_context", "pca.fit_pca", "pca.project", "gmm.init_gmm", "gmm.em_step",
    "gmm.map_adapt", "gmm.score_llr", "metrics.evaluate", "metrics.write_scores",
    "storage.read", "storage.write",
)
CALLS = ("network.backward", "gmm.em_step", "gmm.map_adapt", "gmm.score_llr", "gmm.log_likelihoods")
COUNTS = ("frontend.frames_in", "frontend.frames_out", "labeling.frames_labeled",
          "network.stack_context.bytes", "storage.bytes_read", "storage.bytes_written")

# name -> (speakers in the synthetic corpus, config on top of the defaults)
WORKLOADS = {
    # Paper defaults (6x1024 DNN, K=512) on the bundled corpus, one epoch.
    "paper-1epoch": (10, {"workers": 1, "dnn": {"epochs": 1}}),
    # MFCC straight into a K=512 backend; the DNN is a token [32] net.
    "mfcc-k512": (20, {
        "workers": 1,
        "dnn": {"hidden_layers": [32], "epochs": 1},
        "bn": {"layer": "L1", "pca_dim": 16},
        "backend": {"feature_source": "mfcc", "num_mixtures": 512},
    }),
    # The README quick-start models with stream labels and the two-worker extraction pool.
    "smoke-stream": (20, {
        "workers": 2,
        "tcl": {"mode": "stream", "num_classes": 15, "frames_per_segment": 6},
        "dnn": {"hidden_layers": [64, 64], "epochs": 3, "learning_rate": 0.05},
        "bn": {"layer": "L1", "pca_dim": 12},
        "backend": {"num_mixtures": 8, "em_iterations": 5},
    }),
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def spawn(argv: list[str], log_dir: Path, name: str) -> tuple[float, resource.struct_rusage, int]:
    """Run a child to completion; returns (wall seconds, its rusage, exit code)."""
    with open(log_dir / f"{name}.out", "wb") as out, open(log_dir / f"{name}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if proc.returncode is None:  # interrupted while waiting
                proc.kill()
                proc.wait()
    return wall, usage, proc.returncode


def tail(path: Path, lines: int = 15) -> str:
    return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])


def setup_snippet(config_path: Path) -> str:
    return ("import tclsv.cli\nfrom tclsv.config import load_config\n"
            f"load_config({str(config_path)!r}).resolved(None)\n")


def measure_setup(config_path: Path, log_dir: Path) -> list[float]:
    times = []
    for i in range(SETUP_SAMPLES):
        wall, _, code = spawn([sys.executable, "-c", setup_snippet(config_path)], log_dir, f"setup{i}")
        if code != 0:
            raise BenchError(f"set-up sample exited {code}:\n{tail(log_dir / f'setup{i}.err')}")
        times.append(wall)
    return times


def measure_imports(config_path: Path, log_dir: Path) -> dict[str, float]:
    """Median ``-X importtime`` figures: cumulative time of IMPORT_MODULES, self time of tclsv.*"""
    samples: dict[str, list[float]] = {}
    for i in range(IMPORTTIME_SAMPLES):
        name = f"importtime{i}"
        _, _, code = spawn([sys.executable, "-X", "importtime", "-c", setup_snippet(config_path)], log_dir, name)
        if code != 0:
            raise BenchError(f"importtime sample exited {code}")
        found = dict.fromkeys(IMPORT_MODULES, 0.0)
        own = 0.0
        for line in (log_dir / f"{name}.err").read_text().splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, module = line[len("import time:"):].split("|")
            if not self_us.strip().isdigit():
                continue  # the header line
            module = module.strip()
            if module in found:
                found[module] = int(cumulative_us) / 1e6
            if module == "tclsv" or module.startswith("tclsv."):
                own += int(self_us) / 1e6
        found["tclsv_self"] = own
        for module, value in found.items():
            samples.setdefault(f"setup.import.{module}_s", []).append(value)
    return {key: statistics.median(values) for key, values in samples.items()}


def self_times(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Summed (wall, self) time per span name; self excludes the union of child intervals."""
    children: dict[int, list[int]] = {}
    for i, (_, _, _, parent) in enumerate(spans):
        children.setdefault(parent, []).append(i)
    wall: dict[str, float] = {}
    own: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        wall[name] = wall.get(name, 0.0) + end - start
        own[name] = own.get(name, 0.0) + end - start - covered
    return wall, own


def layer_metrics(trace: dict, corpus: dict) -> dict[str, float]:
    wall, own = self_times(trace["spans"])
    counters = trace["counters"]
    out: dict[str, float] = {}
    for stage in STAGES:
        out[f"pipeline.{stage}.s"] = wall.get(f"pipeline.{stage}", 0.0)
        out[f"pipeline.{stage}.rss_mb"] = counters.get(f"pipeline.{stage}.rss_mb", 0.0)
    for name in SELF_TIMED:
        out[f"{name}.s"] = own.get(name, 0.0)
    for name in CALLS:
        out[f"{name}.calls"] = counters.get(f"{name}.calls", 0)
    for name in COUNTS:
        out[name] = counters.get(name, 0)
    gflop = counters.get("network.train.flop", 0) / 1e9
    out["network.train.gflop"] = gflop
    out["network.train.gflop_per_s"] = gflop / wall["network.train"] if wall.get("network.train") else 0.0
    score_s = wall.get("pipeline.score", 0.0)
    out["gmm.score.trials_per_s"] = corpus["trials"] / score_s if score_s else 0.0
    out["gmm.ubm_evals_per_test_utterance"] = counters.get("gmm.ubm_evals", 0) / corpus["test_utterances"]
    out["storage.feature_reads_per_utterance"] = counters.get("storage.feature_reads", 0) / corpus["utterances"]
    out["trace.stages_s"] = sum(wall.get(f"pipeline.{s}", 0.0) for s in STAGES)
    out["trace.stage_self_s"] = sum(own.get(f"pipeline.{s}", 0.0) for s in STAGES)
    return out


def make_corpus(work: Path, speakers: int, seed: int) -> dict:
    corpus_dir = work / "corpus"
    argv = [sys.executable, "-m", "tclsv.cli", "make-corpus", "--out", str(corpus_dir),
            "--seed", str(seed), "--speakers", str(speakers), "--takes", str(TAKES_PER_PHRASE)]
    _, _, code = spawn(argv, work, "make-corpus")
    if code != 0:
        raise BenchError(f"make-corpus exited {code}:\n{tail(work / 'make-corpus.err')}")
    manifest = oracles.read_tsv(corpus_dir / "manifest.tsv")[1:]
    trials = oracles.read_tsv(corpus_dir / "trials.tsv")
    return {
        "manifest": corpus_dir / "manifest.tsv",
        "trials_path": corpus_dir / "trials.tsv",
        "utterances": len(manifest),
        "trials": len(trials),
        "test_utterances": len({row[1] for row in trials}),
    }


class Round:
    """One pipeline run in a child process, checked by the oracles."""

    def __init__(self, work: Path, corpus: dict, config_path: Path, config: dict, rng, index: int, traced: bool):
        self.out = work / f"run{index}{'t' if traced else ''}"
        self.out.mkdir()
        run_args = ["run", "--manifest", str(corpus["manifest"]), "--trials", str(corpus["trials_path"]),
                    "--config", str(config_path), "--out", str(self.out)]
        spans = self.out / "spans.json"
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), *run_args]
        else:
            argv = [sys.executable, "-m", "tclsv.cli", *run_args]
        self.wall, usage, code = spawn(argv, self.out, "tclsv")
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.trace = json.loads(spans.read_text()) if traced and code == 0 else None
        ops = corpus["utterances"] + corpus["trials"]
        if code != 0:
            print(f"tclsv run exited {code}:\n{tail(self.out / 'tclsv.err')}", file=sys.stderr)
            self.attempted, self.failed, self.report = ops, ops, None
            return
        feature_dir = "features" if config.get("backend", {}).get("feature_source") == "mfcc" else "bn"
        try:
            result = oracles.check_run(self.out, corpus["trials_path"], corpus["utterances"], feature_dir,
                                       config.get("dcf", {}), LLR_SAMPLE, rng)
        except (oracles.CheckFailed, OSError, ValueError) as exc:
            print(f"output check failed: {exc}", file=sys.stderr)
            self.attempted, self.failed, self.report = ops, ops, None
            return
        for failure in result["failures"]:
            print(f"check failed: {failure}", file=sys.stderr)
        self.attempted, self.failed, self.report = result["attempted"], result["failed"], result["report"]


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    speakers, overrides = WORKLOADS[name]
    config = {**overrides, "seed": seed}
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True))
    corpus = make_corpus(work, speakers, seed)
    rng = np.random.default_rng(seed)

    setup = measure_setup(config_path, work)
    start = time.perf_counter()
    rounds: list[tuple[Round, Round | None]] = []
    last = 0.0
    # Closed loop: start another round only if it should end within --seconds.
    while not rounds or time.perf_counter() - start + last <= seconds:
        round_start = time.perf_counter()
        plain = Round(work, corpus, config_path, config, rng, len(rounds), traced=False)
        traced = Round(work, corpus, config_path, config, rng, len(rounds), traced=True) if trace else None
        rounds.append((plain, traced))
        last = time.perf_counter() - round_start
        print(f"{name} round {len(rounds)}: run_s {plain.wall:.3f}, peak_rss_mb {plain.rss_mb:.1f}"
              + (f", traced run_s {traced.wall:.3f}" if traced else ""), file=sys.stderr)
        if plain.report is None or (traced and traced.trace is None):
            break
    done = [r for pair in rounds for r in pair if r is not None]
    result = {
        "correct": all(r.failed == 0 and r.report is not None for r in done),
        "attempted": sum(r.attempted for r in done),
        "failed": sum(r.failed for r in done),
        "rounds": len(rounds),
    }
    plain_runs = [p for p, _ in rounds]
    setup_s = statistics.median(setup)
    if not trace:
        result["metrics"] = {
            "run_s": statistics.median(r.wall for r in plain_runs),
            "run_cpu_s": statistics.median(r.cpu for r in plain_runs),
            "peak_rss_mb": statistics.median(r.rss_mb for r in plain_runs),
            "setup_s": setup_s,
        }
        return result
    if any(t.trace is None or t.report is None for _, t in rounds):
        raise BenchError("a traced run failed or its report did not match the oracle")
    per_round = []
    for plain, traced in rounds:
        m = layer_metrics(traced.trace, corpus)
        m["trace.run_s"] = traced.wall
        m["trace.untraced_run_s"] = plain.wall
        m["trace.overhead_s"] = traced.wall - plain.wall
        m["trace.setup_s"] = setup_s
        m["trace.unstaged_s"] = traced.wall - setup_s - m["trace.stages_s"]
        report = traced.report
        m["report.eer_pct"] = report["average"]["eer_pct"]
        m["report.mindcf_x100"] = report["average"]["mindcf_x100"]
        m["report.impostor_correct_eer_pct"] = report["per_type"]["impostor-correct"]["eer_pct"]
        per_round.append(m)
    result["metrics"] = {key: statistics.median(m[key] for m in per_round) for key in per_round[0]}
    result["metrics"].update(measure_imports(config_path, work))
    return result


def with_units(metrics: dict[str, float], declared: list[dict], prefix: str = "") -> dict:
    names = {m["name"] for m in declared}
    if set(metrics) != names:
        raise BenchError(f"measured metrics differ from BENCHMARK.json: "
                         f"extra {sorted(set(metrics) - names)}, missing {sorted(names - set(metrics))}")
    return {prefix + m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the child being waited on is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "tclsv" / "cli.py").is_file():
        print(f"error: no tclsv sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    selftest.run_all()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
        try:
            result = run_workload(name, args.seed, seconds, bool(args.trace), work)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        metrics = with_units(result["metrics"], declared, f"{name}/" if len(names) > 1 else "")
        total["metrics"].update(metrics)
        print(f"# {name}: {result['rounds']} round(s), attempted {result['attempted']},"
              f" failed {result['failed']}, correct {result['correct']}")
        for key, metric in metrics.items():
            print(f"{key:<48} {metric['value']:>14.6g} {metric['unit']}")
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
