"""Self-test of the benchmark's oracles; run.py calls it before every run.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

import oracles


def _close(got: float, want: float, tol: float = 1e-12) -> None:
    if not abs(got - want) <= tol:
        raise AssertionError(f"got {got!r}, want {want!r}")


def test_toy_scores() -> None:
    # Targets {1, 3}, non-targets {2, 4, 5}; thresholds 1,2,3,4,5,inf give
    # P_miss 0,.5,.5,1,1,1 and P_fa 1,1,2/3,2/3,1/3,0.  P_miss - P_fa first
    # turns non-negative at threshold 4 (-1/6 -> 1/3), a third of the way,
    # so EER = 1/2 + (1/3)(1 - 1/2) = 2/3.  With the default costs the
    # normalized cost .1 P_miss + .99 P_fa is smallest (0.1) at +inf: minDCF 1.
    _close(oracles.eer([1.0, 3.0], [2.0, 4.0, 5.0]), 2.0 / 3.0)
    _close(oracles.min_dcf([1.0, 3.0], [2.0, 4.0, 5.0]), 1.0)
    # Targets {3, 5, 6}, non-targets {1, 2, 4}: the curves meet exactly at
    # threshold 4 (P_miss = P_fa = 1/3).  With p_target .5 and unit costs the
    # cost is (P_miss + P_fa)/2 over a normalizer of 1/2, smallest at 3 or 5.
    _close(oracles.eer([3.0, 5.0, 6.0], [1.0, 2.0, 4.0]), 1.0 / 3.0)
    _close(oracles.min_dcf([3.0, 5.0, 6.0], [1.0, 2.0, 4.0], p_target=0.5, cost_miss=1.0, cost_fa=1.0), 1.0 / 3.0)


def test_closed_form_llr() -> None:
    # One frame x = 1, one dimension, two components.
    weights, variances = np.array([0.3, 0.7]), np.array([[1.0], [4.0]])
    ubm = (weights, np.array([[0.0], [2.0]]), variances)
    model = (weights, np.array([[0.5], [1.0]]), variances)

    def density(mean, var):
        return math.exp(-0.5 * (1.0 - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)

    ll_ubm = math.log(0.3 * density(0.0, 1.0) + 0.7 * density(2.0, 4.0))
    ll_model = math.log(0.3 * density(0.5, 1.0) + 0.7 * density(1.0, 4.0))
    _close(oracles.naive_log_likelihoods(*ubm, np.array([[1.0]]))[0], ll_ubm)
    _close(oracles.naive_llr(model, ubm, np.array([[1.0]])), ll_model - ll_ubm)


def _expect_failure(fn, *args) -> None:
    try:
        fn(*args)
    except oracles.CheckFailed:
        return
    raise AssertionError(f"{fn.__name__} accepted corrupted input")


def test_corrupted_scores_rejected() -> None:
    rng = np.random.default_rng(0)
    trials = [("m", f"u{i}", kind) for i, kind in enumerate(["target"] * 6 + ["impostor-correct"] * 10)]
    scores = np.concatenate([rng.normal(2.0, 1.0, 6), rng.normal(0.0, 1.0, 10)])
    dcf = {}
    report = oracles.expected_report(trials, scores, dcf)
    oracles.check_report(trials, scores, json.loads(json.dumps(report)), dcf)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scores.tsv"
        lines = [f"{m}\t{u}\t{k}\t{s:.12g}" for (m, u, k), s in zip(trials, scores)]
        # One target score pushed below every non-target changes the EER.
        bad = lines.copy()
        bad[0] = "m\tu0\ttarget\t-100"
        path.write_text("\n".join(bad) + "\n")
        _expect_failure(oracles.check_report, *oracles.read_scores(path), report, dcf)
        # A trial type swapped changes the trial counts.
        bad = lines.copy()
        bad[7] = bad[7].replace("impostor-correct", "target-wrong")
        path.write_text("\n".join(bad) + "\n")
        _expect_failure(oracles.check_report, *oracles.read_scores(path), report, dcf)
        # A non-finite score cannot match any finite figure.
        bad = lines.copy()
        bad[3] = "m\tu3\ttarget\tnan"
        path.write_text("\n".join(bad) + "\n")
        _expect_failure(oracles.check_report, *oracles.read_scores(path), report, dcf)
        # A truncated line is refused by the reader.
        path.write_text("\n".join(lines[:-1] + ["m\tu15\timpostor-correct"]) + "\n")
        _expect_failure(oracles.read_scores, path)
    _expect_failure(oracles.check_trace_monotone, [-10.0, -9.0, -9.5])


def run_all() -> None:
    test_toy_scores()
    test_closed_form_llr()
    test_corrupted_scores_rejected()


if __name__ == "__main__":
    run_all()
    print("oracle self-test passed")
    sys.exit(0)
