"""Output checks for a finished ``tclsv run`` that share no code with tclsv.

Every check here reads the run directory's files directly (its own parsers
for the TSV and binary formats) and recomputes the quantity from its
definition, so a fault in ``tclsv.metrics``, ``tclsv.gmm`` or
``tclsv.storage`` cannot hide itself by agreeing with its own output.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

NON_TARGET_TYPES = ("target-wrong", "impostor-correct", "impostor-wrong")
REPORT_TOL = 1e-9
LLR_TOL = 1e-8
# ll_trace.txt holds 12 significant digits; allow that rounding and no more.
TRACE_REL_TOL = 1e-11
IMPOSTOR_CORRECT_EER_MAX_PCT = 40.0


class CheckFailed(Exception):
    """An output disagrees with the independent recomputation."""


# --- file readers -----------------------------------------------------------

def read_tsv(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def read_scores(path: Path) -> tuple[list[tuple[str, str, str]], np.ndarray]:
    trials, scores = [], []
    for row in read_tsv(path):
        if len(row) != 4:
            raise CheckFailed(f"{path}: expected 4 fields, got {row!r}")
        trials.append((row[0], row[1], row[2]))
        scores.append(float(row[3]))
    return trials, np.array(scores, dtype=np.float64)


def _read_binary(path: Path, magic: bytes) -> tuple[bytes, int]:
    buf = path.read_bytes()
    if buf[:4] != magic:
        raise CheckFailed(f"{path}: magic {buf[:4]!r}, expected {magic!r}")
    return buf, 8  # magic + u32 version


def read_gmm(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """TCLG: K, D, then weights, means, variances as little-endian float64."""
    buf, pos = _read_binary(path, b"TCLG")
    k, d = struct.unpack_from("<II", buf, pos)
    data = np.frombuffer(buf, dtype="<f8", offset=pos + 8)
    if data.size != k + 2 * k * d:
        raise CheckFailed(f"{path}: {data.size} values for K={k}, D={d}")
    return data[:k], data[k : k + k * d].reshape(k, d), data[k + k * d :].reshape(k, d)


def read_features(path: Path) -> np.ndarray:
    """TCLF: T, D, then the T x D frames as little-endian float64."""
    buf, pos = _read_binary(path, b"TCLF")
    t, d = struct.unpack_from("<II", buf, pos)
    data = np.frombuffer(buf, dtype="<f8", offset=pos + 8)
    if data.size != t * d:
        raise CheckFailed(f"{path}: {data.size} values for T={t}, D={d}")
    return data.reshape(t, d)


# --- EER / minDCF by brute-force threshold sweep ----------------------------

def sweep(target: np.ndarray, nontarget: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_miss and P_fa at every distinct score and at +inf (accept iff score >= threshold)."""
    thresholds = np.array(sorted(set(target.tolist()) | set(nontarget.tolist())) + [math.inf])
    p_miss = (target[None, :] < thresholds[:, None]).mean(axis=1)
    p_fa = (nontarget[None, :] >= thresholds[:, None]).mean(axis=1)
    return p_miss, p_fa


def eer(target, nontarget) -> float:
    """P_miss at the first point where P_miss >= P_fa, linearly interpolated from the point before."""
    p_miss, p_fa = sweep(np.asarray(target, float), np.asarray(nontarget, float))
    for i in range(len(p_miss)):
        d1 = p_miss[i] - p_fa[i]
        if d1 < 0:
            continue
        if d1 == 0 or i == 0:
            return float(p_miss[i])
        d0 = p_miss[i - 1] - p_fa[i - 1]
        frac = -d0 / (d1 - d0)
        return float(p_miss[i - 1] + frac * (p_miss[i] - p_miss[i - 1]))
    raise AssertionError("the +inf threshold always has P_miss = 1 >= P_fa = 0")


def min_dcf(target, nontarget, p_target=0.01, cost_miss=10.0, cost_fa=1.0) -> float:
    p_miss, p_fa = sweep(np.asarray(target, float), np.asarray(nontarget, float))
    best = min(cost_miss * pm * p_target + cost_fa * pf * (1.0 - p_target) for pm, pf in zip(p_miss, p_fa))
    return best / min(cost_miss * p_target, cost_fa * (1.0 - p_target))


def expected_report(trials, scores, dcf: dict) -> dict:
    """report.json as its documented definition says it should read."""
    by_type: dict[str, list[float]] = {}
    for (_, _, kind), score in zip(trials, scores):
        by_type.setdefault(kind, []).append(float(score))
    target = by_type.get("target", [])
    per_type = {}
    for kind in NON_TARGET_TYPES:
        if by_type.get(kind):
            per_type[kind] = {
                "eer_pct": 100.0 * eer(target, by_type[kind]),
                "mindcf_x100": 100.0 * min_dcf(target, by_type[kind], **dcf),
                "num_trials": len(by_type[kind]),
            }
    return {
        "num_target_trials": len(target),
        "per_type": per_type,
        "average": {
            "eer_pct": float(np.mean([r["eer_pct"] for r in per_type.values()])),
            "mindcf_x100": float(np.mean([r["mindcf_x100"] for r in per_type.values()])),
        },
    }


def check_report(trials, scores, report: dict, dcf: dict) -> dict:
    """Raise unless every figure in ``report`` matches the sweep to REPORT_TOL; return the sweep."""
    if not np.all(np.isfinite(scores)):
        raise CheckFailed("non-finite scores have no place on the error curve")
    want = expected_report(trials, scores, dcf)
    if report.get("num_target_trials") != want["num_target_trials"]:
        raise CheckFailed(f"num_target_trials {report.get('num_target_trials')} != {want['num_target_trials']}")
    if set(report.get("per_type", {})) != set(want["per_type"]):
        raise CheckFailed(f"report types {sorted(report.get('per_type', {}))} != {sorted(want['per_type'])}")
    pairs = [(("average", key), report["average"][key], want["average"][key]) for key in ("eer_pct", "mindcf_x100")]
    for kind, row in want["per_type"].items():
        if report["per_type"][kind]["num_trials"] != row["num_trials"]:
            raise CheckFailed(f"{kind}: num_trials {report['per_type'][kind]['num_trials']} != {row['num_trials']}")
        for key in ("eer_pct", "mindcf_x100"):
            pairs.append(((kind, key), report["per_type"][kind][key], row[key]))
    for where, got, expect in pairs:
        if not abs(got - expect) <= REPORT_TOL:
            raise CheckFailed(f"report {where}: {got!r}, sweep gives {expect!r}")
    return want


# --- GMM log-likelihood ratio, one component at a time ----------------------

def naive_log_likelihoods(weights, means, variances, frames) -> np.ndarray:
    """Per-frame log sum_k w_k N(x; mu_k, diag var_k), summing (x - mu)^2 / var directly."""
    x = np.atleast_2d(frames)
    comp = np.empty((x.shape[0], len(weights)))
    for k in range(len(weights)):
        diff = x - means[k]
        comp[:, k] = math.log(weights[k]) - 0.5 * np.sum(
            np.log(2.0 * math.pi * variances[k]) + diff * diff / variances[k], axis=1
        )
    peak = comp.max(axis=1)
    return peak + np.log(np.exp(comp - peak[:, None]).sum(axis=1))


def naive_llr(model, ubm, frames) -> float:
    return float(np.mean(naive_log_likelihoods(*model, frames) - naive_log_likelihoods(*ubm, frames)))


# --- whole-run checks -------------------------------------------------------

def check_trace_monotone(values) -> None:
    for i in range(1, len(values)):
        if values[i] < values[i - 1] - TRACE_REL_TOL * abs(values[i - 1]):
            raise CheckFailed(f"ll_trace decreases at step {i}: {values[i - 1]!r} -> {values[i]!r}")


def check_run(out_dir: Path, trials_path: Path, num_utterances: int, feature_dir: str,
              dcf: dict, llr_sample: int, rng: np.random.Generator) -> dict:
    """Check one run directory; returns counts of operations and the recomputed report.

    Operations: every manifest utterance extracted, every trial scored, and
    every check made.  A failed check is recorded, not raised, so one bad
    figure does not hide the others.
    """
    failures: list[str] = []
    checks = 0

    def check(fn, *args):
        nonlocal checks
        checks += 1
        try:
            return fn(*args)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            failures.append(f"{fn.__name__}: {exc}")
            return None

    failed_utts = len(read_tsv(out_dir / "features" / "failures.tsv"))
    listed = [tuple(row) for row in read_tsv(trials_path)]
    trials, scores = read_scores(out_dir / "scores" / "scores.tsv")
    if trials != listed:
        raise CheckFailed(f"scores.tsv lists {len(trials)} trials, trials.tsv {len(listed)}, or the order differs")
    failed_trials = int(np.count_nonzero(~np.isfinite(scores)))

    def scores_finite():
        if failed_trials:
            raise CheckFailed(f"{failed_trials} non-finite scores")

    def report_matches():
        report = json.loads((out_dir / "report" / "report.json").read_text(encoding="utf-8"))
        return check_report(trials, scores, report, dcf)

    def ubm_em_monotone():
        check_trace_monotone([float(v) for v in (out_dir / "ubm" / "ll_trace.txt").read_text().split()])

    def impostor_correct_eer():
        if recomputed is None:
            raise CheckFailed("report.json did not match, so there is no trusted EER")
        got = recomputed["per_type"]["impostor-correct"]["eer_pct"]
        if not got < IMPOSTOR_CORRECT_EER_MAX_PCT:
            raise CheckFailed(f"impostor-correct EER {got:.2f}% is not below {IMPOSTOR_CORRECT_EER_MAX_PCT}%")

    check(scores_finite)
    recomputed = check(report_matches)
    check(ubm_em_monotone)
    check(impostor_correct_eer)

    ubm = read_gmm(out_dir / "ubm" / "ubm.tclg")
    for i in sorted(rng.choice(len(trials), size=min(llr_sample, len(trials)), replace=False)):
        model_id, utt, _ = trials[i]

        def llr_matches():
            model = read_gmm(out_dir / "models" / f"{model_id}.tclg")
            want = naive_llr(model, ubm, read_features(out_dir / feature_dir / f"{utt}.tclf"))
            if not abs(scores[i] - want) <= LLR_TOL:
                raise CheckFailed(f"trial {model_id}/{utt}: scores.tsv {scores[i]!r}, naive LLR {want!r}")

        check(llr_matches)

    return {
        "attempted": num_utterances + len(trials) + checks,
        "failed": failed_utts + failed_trials + len(failures),
        "failures": failures,
        "report": recomputed,
    }
