"""Trial scoring metrics: miss/false-alarm curves, EER, minDCF, per-type reports.

A verification trial is accepted when its score is >= the decision threshold,
so all tied trials flip together.  Reports follow the usual convention of
EER in percent and minDCF scaled by 100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import storage
from .errors import DataError
from .manifest import ID_PATTERN

TARGET = "target"
NON_TARGET_TYPES = ("target-wrong", "impostor-correct", "impostor-wrong")
TRIAL_TYPES = (TARGET,) + NON_TARGET_TYPES


@dataclass(frozen=True)
class Trial:
    model_id: str
    test_utterance_id: str
    ground_truth: str

    def __post_init__(self):
        for name in ("model_id", "test_utterance_id"):  # the manifest's id rule: score opens models by id
            if not ID_PATTERN.match(getattr(self, name)):
                raise DataError(f"bad {name} {getattr(self, name)!r}")
        if self.ground_truth not in TRIAL_TYPES:
            raise DataError(
                f"unknown trial type {self.ground_truth!r}; expected one of {TRIAL_TYPES}"
            )


@dataclass(frozen=True)
class TrialScoreSet:
    trials: list[Trial]
    scores: np.ndarray

    def __post_init__(self):
        if len(self.trials) != len(self.scores):
            raise DataError("trials and scores must have the same length")
        if not np.all(np.isfinite(self.scores)):
            raise DataError("scores must be finite")


@dataclass(frozen=True)
class DcfParams:
    p_target: float = 0.01
    cost_miss: float = 10.0
    cost_fa: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.p_target < 1.0:
            raise DataError("dcf.p_target must be in (0, 1)")
        if self.cost_miss <= 0 or self.cost_fa <= 0:
            raise DataError("dcf.cost_miss and dcf.cost_fa must be positive")


@dataclass(frozen=True)
class ErrorCurve:
    """Operating points sorted by increasing threshold.

    P_miss is non-decreasing and P_fa non-increasing along the curve; the
    final point (threshold +inf, reject everything) is always present.
    """

    thresholds: np.ndarray
    p_miss: np.ndarray
    p_fa: np.ndarray


def compute_error_curve(target_scores, nontarget_scores) -> ErrorCurve:
    """Evaluate P_miss and P_fa at every distinct score threshold."""
    targets = np.sort(np.asarray(target_scores, dtype=np.float64))
    nontargets = np.sort(np.asarray(nontarget_scores, dtype=np.float64))
    if len(targets) == 0 or len(nontargets) == 0:
        raise DataError("need at least one target and one non-target score")
    thresholds = np.unique(np.concatenate([targets, nontargets, [np.inf]]))
    p_miss = np.searchsorted(targets, thresholds, side="left") / len(targets)
    p_fa = 1.0 - np.searchsorted(nontargets, thresholds, side="left") / len(nontargets)
    return ErrorCurve(thresholds=thresholds, p_miss=p_miss, p_fa=p_fa)


def compute_eer(curve: ErrorCurve) -> float:
    """Equal error rate at the P_miss/P_fa crossing, linearly interpolated."""
    diff = curve.p_miss - curve.p_fa
    cross = int(np.argmax(diff >= 0))
    if diff[cross] == 0:
        return float(curve.p_miss[cross])
    if cross == 0:
        return float(curve.p_miss[0])
    d0, d1 = diff[cross - 1], diff[cross]
    t = -d0 / (d1 - d0)
    return float(curve.p_miss[cross - 1] + t * (curve.p_miss[cross] - curve.p_miss[cross - 1]))


def compute_mindcf(curve: ErrorCurve, params: DcfParams) -> float:
    """Minimum normalized detection cost over all operating points."""
    cost = (
        params.cost_miss * curve.p_miss * params.p_target
        + params.cost_fa * curve.p_fa * (1.0 - params.p_target)
    )
    normalizer = min(params.cost_miss * params.p_target, params.cost_fa * (1.0 - params.p_target))
    return float(cost.min() / normalizer)


@dataclass(frozen=True)
class TypeResult:
    eer: float
    min_dcf: float
    num_trials: int


@dataclass(frozen=True)
class EvaluationReport:
    per_type: dict[str, TypeResult]
    average_eer: float
    average_min_dcf: float
    num_target_trials: int

    def to_dict(self) -> dict:
        return {
            "num_target_trials": self.num_target_trials,
            "per_type": {
                name: {
                    "eer_pct": result.eer * 100.0,
                    "mindcf_x100": result.min_dcf * 100.0,
                    "num_trials": result.num_trials,
                }
                for name, result in self.per_type.items()
            },
            "average": {
                "eer_pct": self.average_eer * 100.0,
                "mindcf_x100": self.average_min_dcf * 100.0,
            },
        }


def evaluate(score_set: TrialScoreSet, params: DcfParams = DcfParams(), source="score set") -> EvaluationReport:
    """EER and minDCF per non-target type, plus the unweighted cross-type mean.

    Each non-target type is paired against the same target trials.  Errors name
    ``source``, where the scores came from.
    """
    scores = np.asarray(score_set.scores, dtype=np.float64)
    by_type = {name: [] for name in TRIAL_TYPES}
    for trial, score in zip(score_set.trials, scores):
        by_type[trial.ground_truth].append(score)
    target_scores = np.array(by_type[TARGET])
    if len(target_scores) == 0:
        raise DataError(f"{source} contains no target trials")

    per_type = {}
    for name in NON_TARGET_TYPES:
        if not by_type[name]:
            continue
        curve = compute_error_curve(target_scores, by_type[name])
        per_type[name] = TypeResult(
            eer=compute_eer(curve),
            min_dcf=compute_mindcf(curve, params),
            num_trials=len(by_type[name]),
        )
    if not per_type:
        raise DataError(f"{source} contains no non-target trials")
    return EvaluationReport(
        per_type=per_type,
        average_eer=float(np.mean([r.eer for r in per_type.values()])),
        average_min_dcf=float(np.mean([r.min_dcf for r in per_type.values()])),
        num_target_trials=len(target_scores),
    )


def format_report(report: EvaluationReport) -> str:
    """Plain-text table: one row per non-target type plus the average."""
    lines = [
        f"{'non-target type':<20} {'EER%':>8} {'minDCFx100':>12} {'trials':>8}",
    ]
    for name, result in report.per_type.items():
        lines.append(
            f"{name:<20} {result.eer * 100.0:>8.2f} {result.min_dcf * 100.0:>12.3f}"
            f" {result.num_trials:>8d}"
        )
    lines.append(
        f"{'average':<20} {report.average_eer * 100.0:>8.2f}"
        f" {report.average_min_dcf * 100.0:>12.3f} {report.num_target_trials:>8d}"
    )
    return "\n".join(lines)


def read_trials(path: str | Path) -> list[Trial]:
    """Trial list: one ``<model_id>\\t<test_utterance_id>\\t<type>`` per line."""
    return [_read_trial(path, lineno, fields) for lineno, fields in storage.read_rows(path, 3)]


def _read_trial(path: str | Path, lineno: int, fields: list[str]) -> Trial:
    """The trial on line ``lineno`` of ``path``; DataError naming both if it is bad."""
    try:
        return Trial(*fields)
    except DataError as exc:
        raise DataError(f"{path}:{lineno}: {exc}") from None


def write_trials(path: str | Path, trials: list[Trial]) -> None:
    """The trial list :func:`read_trials` reads."""
    storage.write_rows(path, [(t.model_id, t.test_utterance_id, t.ground_truth) for t in trials])


def write_scores(path: str | Path, score_set: TrialScoreSet) -> None:
    """Score file: the trial's fields plus a fourth, the score."""
    storage.write_rows(path, [
        (t.model_id, t.test_utterance_id, t.ground_truth, f"{s:.12g}")
        for t, s in zip(score_set.trials, score_set.scores)
    ])


def read_scores(path: str | Path) -> TrialScoreSet:
    trials, scores = [], []
    for lineno, fields in storage.read_rows(path, 4):
        trials.append(_read_trial(path, lineno, fields[:3]))
        try:
            scores.append(float(fields[3]))
            if not math.isfinite(scores[-1]):
                raise ValueError
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad score {fields[3]!r}") from None
    return TrialScoreSet(trials=trials, scores=np.array(scores, dtype=np.float64))
