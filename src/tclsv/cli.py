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
from collections.abc import Callable
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
    names = pipeline.stages_for_run(config) if args.command == "run" else [args.command]
    for name in names:
        _run_stage(next(s for s in pipeline.STAGES if s.name == name), args, config, Path(args.out))
    return 0


def _labels_summary(labeled: labeling.LabeledFrames, config: ExperimentConfig, out: Path) -> str:
    counts = labeling.summarize_label_distribution(labeled, config.tcl.num_classes)
    return (f"labeled {len(labeled.labels)} frames over {len(labeled.utterance_ids)} utterances\n"
            "frames per class: " + " ".join(str(counts[c]) for c in sorted(counts)))


# Each stage's summary on stdout: (what its run_<name> returned, the config, --out) -> lines.
_SUMMARIES: dict[str, Callable[[object, ExperimentConfig, Path], str]] = {
    "extract-features": lambda failures, *_: f"feature extraction finished with {len(failures)} failure(s)",
    "make-labels": _labels_summary,
    "train-dnn": lambda result, *_: f"training loss {pipeline.loss_trace_summary(result[1])}",
    "extract-bn": lambda projection, *_: f"projection {projection.input_dim} -> {projection.output_dim} dims",
    "train-ubm": lambda result, *_: f"UBM log-likelihood {result[1][0]:.6g} -> {result[1][-1]:.6g}",
    "enroll": lambda speakers, *_: f"enrolled {len(speakers)} speaker(s)",
    "score": lambda scored, _, out: f"scored {len(scored.trials)} trial(s) -> {out / 'scores' / 'scores.tsv'}",
    "evaluate": lambda report, *_: metrics.format_report(report),
}


def _run_stage(stage: pipeline.Stage, args: argparse.Namespace, config: ExperimentConfig, out: Path) -> None:
    """Run one stage into a new ``<out>/<stage.writes>`` entry, then print its summary.

    ``pipeline.run_<name>`` writes the entry's files, and the resolved config
    goes beside them as ``config.json``; only then does the new entry replace
    the old one.  A stage that fails leaves the old entry as it was and
    prints nothing.  The stage runs on one OpenBLAS thread unless its
    ``Stage.blas_threads`` is set.  A DataError, ``--out`` naming a file
    included, is raised again with the stage's name in front.
    """
    run = getattr(pipeline, "run_" + stage.name.replace("-", "_"))  # looked up now: a tracer may wrap it
    try:
        if out.exists() and not out.is_dir():
            raise DataError(f"{out}: --out is not a directory")
        with contextlib.nullcontext() if stage.blas_threads else blas.single_thread():
            with storage.entry(out / stage.writes) as into:
                result = run(args.manifest, getattr(args, "trials", None), config, out, into)
                write_snapshot(into / "config.json", config)
    except DataError as exc:
        raise DataError(f"{stage.name}: {exc}") from exc
    print(_SUMMARIES[stage.name](result, config, out))


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
