"""Metric tests built around a brute-force threshold-sweep oracle.

The oracle counts misses and false alarms with plain Python loops at every
candidate threshold, independently of the vectorized implementation.
"""

import math

import numpy as np
import pytest

from tclsv.errors import DataError
from tclsv.metrics import (
    DcfParams,
    ErrorCurve,
    Trial,
    TrialScoreSet,
    compute_eer,
    compute_error_curve,
    compute_mindcf,
    evaluate,
    format_report,
    read_scores,
    read_trials,
    write_scores,
)


def oracle_rates(targets, nontargets, threshold):
    miss = sum(1 for s in targets if s < threshold) / len(targets)
    fa = sum(1 for s in nontargets if s >= threshold) / len(nontargets)
    return miss, fa


def oracle_thresholds(targets, nontargets):
    return sorted(set(targets) | set(nontargets)) + [math.inf]


def oracle_eer(targets, nontargets):
    prev = None
    for th in oracle_thresholds(targets, nontargets):
        miss, fa = oracle_rates(targets, nontargets, th)
        if miss >= fa:
            if miss == fa or prev is None:
                return miss
            pm, pf = prev
            t = (pf - pm) / ((pf - pm) + (miss - fa))
            return pm + t * (miss - pm)
        prev = (miss, fa)
    return 1.0


def oracle_mindcf(targets, nontargets, params):
    best = math.inf
    for th in oracle_thresholds(targets, nontargets):
        miss, fa = oracle_rates(targets, nontargets, th)
        cost = (
            params.cost_miss * miss * params.p_target
            + params.cost_fa * fa * (1.0 - params.p_target)
        )
        best = min(best, cost)
    return best / min(params.cost_miss * params.p_target, params.cost_fa * (1.0 - params.p_target))


def random_scores(rng, num_targets=20, num_nontargets=30, discrete=False):
    if discrete:
        # integer scores force heavy ties across both classes
        targets = rng.integers(0, 6, num_targets).astype(float)
        nontargets = rng.integers(-2, 4, num_nontargets).astype(float)
    else:
        targets = rng.normal(1.0, 1.0, num_targets)
        nontargets = rng.normal(-1.0, 1.0, num_nontargets)
    return list(targets), list(nontargets)


# --- error curve ---


def test_curve_separable_has_perfect_operating_point():
    curve = compute_error_curve([1.0, 2.0], [-1.0, -2.0])
    both_zero = (curve.p_miss == 0) & (curve.p_fa == 0)
    assert both_zero.any()


def test_curve_all_scores_tied_is_degenerate():
    curve = compute_error_curve([3.0, 3.0], [3.0, 3.0])
    # only the tie point (accept everything) and the reject-everything endpoint
    np.testing.assert_array_equal(curve.thresholds, [3.0, np.inf])
    np.testing.assert_array_equal(curve.p_miss, [0.0, 1.0])
    np.testing.assert_array_equal(curve.p_fa, [1.0, 0.0])


@pytest.mark.parametrize("discrete", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_curve_matches_loop_oracle(seed, discrete):
    rng = np.random.default_rng(seed)
    targets, nontargets = random_scores(rng, discrete=discrete)
    curve = compute_error_curve(targets, nontargets)
    expected_thresholds = oracle_thresholds(targets, nontargets)
    np.testing.assert_array_equal(curve.thresholds, expected_thresholds)
    for i, th in enumerate(expected_thresholds):
        miss, fa = oracle_rates(targets, nontargets, th)
        assert curve.p_miss[i] == pytest.approx(miss, abs=1e-12)
        assert curve.p_fa[i] == pytest.approx(fa, abs=1e-12)


def test_curve_monotone_along_thresholds():
    rng = np.random.default_rng(5)
    for _ in range(10):
        targets, nontargets = random_scores(rng, discrete=True)
        curve = compute_error_curve(targets, nontargets)
        assert np.all(np.diff(curve.p_miss) >= 0)
        assert np.all(np.diff(curve.p_fa) <= 0)


def test_curve_endpoints():
    rng = np.random.default_rng(6)
    targets, nontargets = random_scores(rng)
    curve = compute_error_curve(targets, nontargets)
    # lowest threshold accepts everything; +inf rejects everything
    assert curve.p_miss[0] == 0.0 and curve.p_fa[0] == 1.0
    assert curve.p_miss[-1] == 1.0 and curve.p_fa[-1] == 0.0


def test_curve_rejects_empty_lists():
    with pytest.raises(DataError, match="need at least one target and one non-target score"):
        compute_error_curve([], [1.0])
    with pytest.raises(DataError, match="need at least one target and one non-target score"):
        compute_error_curve([1.0], [])


# --- EER ---


def test_eer_perfectly_separated_is_zero():
    curve = compute_error_curve([5.0, 6.0, 7.0], [1.0, 2.0, 3.0])
    assert compute_eer(curve) == 0.0


def test_eer_identical_distributions_is_half():
    scores = [0.1, 0.4, 0.7, 0.9]
    curve = compute_error_curve(scores, scores)
    assert compute_eer(curve) == pytest.approx(0.5, abs=1e-12)
    odd = [0.1, 0.4, 0.9]
    assert compute_eer(compute_error_curve(odd, odd)) == pytest.approx(0.5, abs=1e-12)


def test_eer_three_versus_three_example():
    curve = compute_error_curve([0.9, 0.8, 0.2], [0.7, 0.1, 0.05])
    assert compute_eer(curve) == pytest.approx(1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("discrete", [False, True])
@pytest.mark.parametrize("seed", range(10))
def test_eer_matches_sweep_oracle(seed, discrete):
    rng = np.random.default_rng(100 + seed)
    targets, nontargets = random_scores(rng, discrete=discrete)
    got = compute_eer(compute_error_curve(targets, nontargets))
    assert 0.0 <= got <= 1.0
    assert got == pytest.approx(oracle_eer(targets, nontargets), abs=1e-10)


def test_eer_invariant_under_increasing_transform():
    rng = np.random.default_rng(7)
    targets, nontargets = random_scores(rng)
    base = compute_eer(compute_error_curve(targets, nontargets))
    warped = compute_eer(
        compute_error_curve(np.exp(targets), np.exp(nontargets))
    )
    assert warped == pytest.approx(base, abs=1e-12)


# --- minDCF ---


def test_mindcf_perfectly_separated_is_zero():
    curve = compute_error_curve([5.0, 6.0], [1.0, 2.0])
    assert compute_mindcf(curve, DcfParams()) == 0.0


def test_mindcf_two_point_curve_formula():
    params = DcfParams()
    curve = ErrorCurve(
        thresholds=np.array([0.0, np.inf]),
        p_miss=np.array([0.0, 1.0]),
        p_fa=np.array([1.0, 0.0]),
    )
    normalizer = min(params.cost_miss * params.p_target, params.cost_fa * (1 - params.p_target))
    expected = min(1.0, params.cost_fa * (1 - params.p_target) / normalizer)
    assert compute_mindcf(curve, params) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("discrete", [False, True])
@pytest.mark.parametrize("seed", range(10))
def test_mindcf_matches_sweep_oracle(seed, discrete):
    rng = np.random.default_rng(200 + seed)
    targets, nontargets = random_scores(rng, discrete=discrete)
    params = DcfParams()
    got = compute_mindcf(compute_error_curve(targets, nontargets), params)
    assert 0.0 <= got <= 1.0 + 1e-12
    assert got == pytest.approx(oracle_mindcf(targets, nontargets, params), abs=1e-10)


def test_mindcf_invariant_under_increasing_transform():
    rng = np.random.default_rng(8)
    targets, nontargets = random_scores(rng)
    params = DcfParams()
    base = compute_mindcf(compute_error_curve(targets, nontargets), params)
    warped = compute_mindcf(
        compute_error_curve(2.0 * np.asarray(targets) + 1.0, 2.0 * np.asarray(nontargets) + 1.0),
        params,
    )
    assert warped == pytest.approx(base, abs=1e-12)


def test_dcf_params_validation():
    with pytest.raises(DataError):
        DcfParams(p_target=0.0)
    with pytest.raises(DataError):
        DcfParams(p_target=1.0)
    with pytest.raises(DataError):
        DcfParams(cost_miss=0.0)


# --- per-type evaluation ---


def make_score_set(target_scores, per_type):
    trials, scores = [], []
    for i, s in enumerate(target_scores):
        trials.append(Trial("m", f"t{i}", "target"))
        scores.append(s)
    for kind, values in per_type.items():
        for i, s in enumerate(values):
            trials.append(Trial("m", f"{kind}{i}", kind))
            scores.append(s)
    return TrialScoreSet(trials=trials, scores=np.array(scores))


def test_evaluate_each_type_paired_with_same_targets():
    targets = [0.9, 0.8, 0.2]
    per_type = {
        "target-wrong": [0.7, 0.1, 0.05],  # EER 1/3 by enumeration
        "impostor-correct": [0.15, 0.1, 0.01],  # separable, EER 0
        "impostor-wrong": [0.9, 0.8, 0.2],  # identical to targets, EER 1/2
    }
    report = evaluate(make_score_set(targets, per_type))
    assert report.per_type["target-wrong"].eer == pytest.approx(1 / 3, abs=1e-12)
    assert report.per_type["impostor-correct"].eer == 0.0
    assert report.per_type["impostor-wrong"].eer == pytest.approx(0.5, abs=1e-12)
    assert report.num_target_trials == 3
    for kind, values in per_type.items():
        assert report.per_type[kind].num_trials == len(values)
        expected = compute_eer(compute_error_curve(targets, values))
        assert report.per_type[kind].eer == pytest.approx(expected, abs=1e-15)


def test_evaluate_average_is_exact_unweighted_mean():
    targets = [0.9, 0.8, 0.2]
    per_type = {
        "target-wrong": [0.7, 0.1, 0.05],
        "impostor-correct": [0.15, 0.1, 0.01],
        "impostor-wrong": [0.9, 0.8, 0.2],
    }
    report = evaluate(make_score_set(targets, per_type))
    eers = [report.per_type[k].eer for k in per_type]
    dcfs = [report.per_type[k].min_dcf for k in per_type]
    assert report.average_eer == np.mean(eers)
    assert report.average_min_dcf == np.mean(dcfs)


def test_reported_average_convention_matches_published_rows():
    # the row average is the unweighted mean of the three per-type values
    assert round(np.mean([4.33, 3.02, 1.14]), 2) == 2.83
    assert round(np.mean([1.88, 3.14, 0.64]), 2) == 1.89


def test_evaluate_single_type_average_is_that_type():
    targets = [0.9, 0.8, 0.2]
    report = evaluate(make_score_set(targets, {"impostor-correct": [0.7, 0.1, 0.05]}))
    assert set(report.per_type) == {"impostor-correct"}
    assert report.average_eer == report.per_type["impostor-correct"].eer
    assert report.average_min_dcf == report.per_type["impostor-correct"].min_dcf


def test_evaluate_missing_targets():
    with pytest.raises(DataError, match="score set contains no target trials"):
        evaluate(make_score_set([], {"impostor-correct": [0.1, 0.2]}))


def test_evaluate_missing_nontargets():
    with pytest.raises(DataError, match="score set contains no non-target trials"):
        evaluate(make_score_set([0.5, 0.6], {}))


def test_report_to_dict_uses_percent_and_x100():
    targets = [0.9, 0.8, 0.2]
    report = evaluate(make_score_set(targets, {"target-wrong": [0.7, 0.1, 0.05]}))
    d = report.to_dict()
    assert d["per_type"]["target-wrong"]["eer_pct"] == pytest.approx(100 / 3, abs=1e-9)
    assert d["average"]["eer_pct"] == pytest.approx(100 / 3, abs=1e-9)
    assert d["num_target_trials"] == 3


def test_format_report_contains_rows():
    targets = [0.9, 0.8, 0.2]
    report = evaluate(make_score_set(targets, {"target-wrong": [0.7, 0.1, 0.05]}))
    text = format_report(report)
    assert "target-wrong" in text
    assert "average" in text
    assert "33.33" in text


# --- trial and score files ---


def test_trial_rejects_unknown_type():
    with pytest.raises(DataError):
        Trial("m", "u", "genuine")


def test_score_set_validation():
    with pytest.raises(DataError):
        TrialScoreSet(trials=[Trial("m", "u", "target")], scores=np.array([1.0, 2.0]))
    with pytest.raises(DataError):
        TrialScoreSet(trials=[Trial("m", "u", "target")], scores=np.array([np.nan]))


def test_trials_file_roundtrip(tmp_path):
    path = tmp_path / "trials.tsv"
    path.write_text(
        "spk1\tutt1\ttarget\n"
        "spk1\tutt2\ttarget-wrong\n"
        "\n"
        "spk2\tutt3\timpostor-correct\n",
        encoding="utf-8",
    )
    trials = read_trials(path)
    assert len(trials) == 3
    assert trials[0] == Trial("spk1", "utt1", "target")
    assert trials[2].ground_truth == "impostor-correct"


def test_trials_file_rejects_bad_lines(tmp_path):
    path = tmp_path / "trials.tsv"
    path.write_text("spk1\tutt1\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_trials(path)
    path.write_text("spk1\tutt1\tgenuine\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_trials(path)


def test_scores_file_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    trials = [Trial("m", f"u{i}", "target") for i in range(5)]
    trials += [Trial("m", f"v{i}", "impostor-wrong") for i in range(5)]
    original = TrialScoreSet(trials=trials, scores=rng.normal(0, 3, 10))
    path = tmp_path / "scores.tsv"
    write_scores(path, original)
    loaded = read_scores(path)
    assert loaded.trials == original.trials
    np.testing.assert_allclose(loaded.scores, original.scores, rtol=1e-11)


def test_scores_file_rejects_bad_score(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text("m\tu\ttarget\tnot-a-number\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_scores(path)
