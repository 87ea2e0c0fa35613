"""Command-line entry point: one subcommand per pipeline stage.

Exit codes: 0 success, 1 usage error, 2 data error (bad inputs, missing
artifacts), 3 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import sys
import traceback
from pathlib import Path

from . import blas, labeling, metrics, pipeline, storage
from .config import ExperimentConfig, load_config, write_snapshot
from .errors import DataError


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2 (reserved for data errors)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tclsv", description="Text-dependent speaker verification pipeline")
    sub = parser.add_subparsers(dest="command", required=True, metavar="<subcommand>")

    stages = [(stage.name, stage.help) for stage in pipeline.STAGES]
    for name, help_text in [*stages, ("run", "every stage whose output a later stage reads, in order")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--manifest", required=name != "evaluate", help="manifest TSV")
        p.add_argument("--config", default=None, help="JSON config file (defaults when omitted)")
        p.add_argument("--out", required=True, help="run directory for artifacts")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        if name in ("score", "run"):
            p.add_argument("--trials", required=True, help="trial list TSV")

    p = sub.add_parser("make-corpus", help="generate the bundled synthetic corpus")
    p.add_argument("--out", required=True, help="corpus directory")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--speakers", type=int, default=10)
    p.add_argument("--takes", type=int, default=4, help="takes per (speaker, phrase)")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "make-corpus":
        from .synthcorpus import CorpusSpec, generate_corpus  # no stage needs it, so none pays its import

        spec = CorpusSpec(num_speakers=args.speakers, takes_per_phrase=args.takes, seed=args.seed)
        manifest_path, trials_path = generate_corpus(args.out, spec)
        print(f"wrote {manifest_path} and {trials_path}")
        return 0

    config = load_config(args.config).resolved(args.seed)
    stages = pipeline.stages_for_run(config) if args.command == "run" else [args.command]
    for stage in stages:
        _run_stage(stage, args, config, Path(args.out))
    return 0


def _run_stage(stage: str, args: argparse.Namespace, config: ExperimentConfig, out: Path) -> None:
    """Run one stage, print its summary and snapshot the resolved config to config/<stage>.json.

    The stage runs on one OpenBLAS thread unless its ``Stage.blas_threads`` is set.
    A DataError from the stage is raised again with the stage's name in front.
    """
    keeps_threads = next(s.blas_threads for s in pipeline.STAGES if s.name == stage)
    try:
        with contextlib.nullcontext() if keeps_threads else blas.single_thread():
            if stage == "extract-features":
                failures = pipeline.run_extract_features(args.manifest, config, out)
                print(f"feature extraction finished with {len(failures)} failure(s)")
            elif stage == "make-labels":
                labeled = pipeline.run_make_labels(args.manifest, config, out)
                counts = labeling.summarize_label_distribution(labeled, config.tcl.num_classes)
                print(f"labeled {len(labeled.labels)} frames over {len(labeled.utterance_ids)} utterances")
                print("frames per class: " + " ".join(str(counts[c]) for c in sorted(counts)))
            elif stage == "train-dnn":
                _, trace = pipeline.run_train_dnn(args.manifest, config, out)
                print(f"training loss {pipeline.loss_trace_summary(trace)}")
            elif stage == "extract-bn":
                projection = pipeline.run_extract_bn(args.manifest, config, out)
                print(f"projection {projection.input_dim} -> {projection.output_dim} dims")
            elif stage == "train-ubm":
                _, trace = pipeline.run_train_ubm(args.manifest, config, out)
                print(f"UBM log-likelihood {trace[0]:.6g} -> {trace[-1]:.6g}")
            elif stage == "enroll":
                speakers = pipeline.run_enroll(args.manifest, config, out)
                print(f"enrolled {len(speakers)} speaker(s)")
            elif stage == "score":
                score_set = pipeline.run_score(args.manifest, config, out, args.trials)
                print(f"scored {len(score_set.trials)} trial(s) -> {out / 'scores' / 'scores.tsv'}")
            elif stage == "evaluate":
                report = pipeline.run_evaluate(config, out)
                print(metrics.format_report(report))
    except DataError as exc:
        raise DataError(f"{stage}: {exc}") from exc
    write_snapshot(storage.make_dir(out / "config") / f"{stage}.json", config)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        return _dispatch(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 - map anything unexpected to exit code 3
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
