"""Labeling tests: forced small examples plus property checks of the
segment-index rules (stream: class(f) = floor(f/d) mod N; utterance: N
contiguous near-equal segments with leading segments absorbing the remainder).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tclsv.errors import DataError
from tclsv.labeling import (
    FrameCount,
    LabeledFrames,
    TclConfig,
    assign_stream_labels,
    assign_utterance_labels,
    label_utterances,
    labels_by_utterance,
    read_label_archive,
    summarize_label_distribution,
    write_label_archive,
)


def make_utt(num_frames: int, utt_id: str = "u") -> FrameCount:
    return FrameCount(utt_id, num_frames)


# --- stream-wise ---


def test_stream_36_frames_d6_n3_cycles_twice():
    labeled = assign_stream_labels(
        [make_utt(36)], TclConfig(num_classes=3, frames_per_segment=6, mode="stream")
    )
    expected = np.repeat([0, 1, 2, 0, 1, 2], 6)
    np.testing.assert_array_equal(labeled.labels, expected)


def test_stream_drops_trailing_partial_segment():
    labeled = assign_stream_labels(
        [make_utt(8)], TclConfig(num_classes=2, frames_per_segment=6, mode="stream")
    )
    np.testing.assert_array_equal(labeled.labels, np.zeros(6, dtype=np.int64))


def test_stream_exact_division_balances_classes():
    k = 4
    config = TclConfig(num_classes=3, frames_per_segment=6, mode="stream")
    labeled = assign_stream_labels([make_utt(6 * 3 * k)], config)
    counts = summarize_label_distribution(labeled, config.num_classes)
    assert counts == {0: 6 * k, 1: 6 * k, 2: 6 * k}


def test_stream_too_few_frames():
    with pytest.raises(DataError, match="stream has 5 frames, need at least 6"):
        assign_stream_labels(
            [make_utt(5)], TclConfig(num_classes=2, frames_per_segment=6, mode="stream")
        )


def test_stream_shuffles_utterance_order_but_not_frames():
    config = TclConfig(num_classes=4, frames_per_segment=2, mode="stream", shuffle_seed=123)
    utts = [make_utt(4, f"u{i}") for i in range(6)]
    labeled = assign_stream_labels(utts, config)

    order = np.random.default_rng(123).permutation(6)
    assert labeled.utterance_ids == [f"u{i}" for i in order]


def test_stream_reproducible_and_seed_sensitive():
    utts = [make_utt(5, f"u{i}") for i in range(8)]
    config = TclConfig(num_classes=3, frames_per_segment=4, mode="stream", shuffle_seed=7)
    a = assign_stream_labels(utts, config)
    b = assign_stream_labels(utts, config)
    assert np.array_equal(a.labels, b.labels) and a.utterance_ids == b.utterance_ids
    other = assign_stream_labels(
        utts, TclConfig(num_classes=3, frames_per_segment=4, mode="stream", shuffle_seed=8)
    )
    assert other.utterance_ids != a.utterance_ids  # 8! orders, collision practically impossible


@settings(deadline=None, max_examples=60)
@given(
    total=st.integers(min_value=1, max_value=400),
    d=st.integers(min_value=1, max_value=12),
    n=st.integers(min_value=2, max_value=9),
)
def test_stream_label_rule_property(total, d, n):
    config = TclConfig(num_classes=n, frames_per_segment=d, mode="stream")
    utt = make_utt(total)
    if total < d:
        with pytest.raises(DataError, match=rf"stream has {total} frames, need at least {d}"):
            assign_stream_labels([utt], config)
        return
    labeled = assign_stream_labels([utt], config)
    assert labeled.num_frames == (total // d) * d
    for f in range(labeled.num_frames):
        assert labeled.labels[f] == (f // d) % n


# --- utterance-wise ---


def test_utterance_exact_division():
    labeled = assign_utterance_labels(make_utt(30), 10)
    assert labeled.labels[0] == 0 and labeled.labels[29] == 9
    np.testing.assert_array_equal(labeled.labels, np.repeat(np.arange(10), 3))


def test_utterance_remainder_rule():
    labeled = assign_utterance_labels(make_utt(32), 10)
    lengths = [int(np.sum(labeled.labels == c)) for c in range(10)]
    assert lengths == [4, 4, 3, 3, 3, 3, 3, 3, 3, 3]


def test_utterance_one_frame_per_class_at_boundary():
    labeled = assign_utterance_labels(make_utt(10), 10)
    np.testing.assert_array_equal(labeled.labels, np.arange(10))


def test_utterance_too_short():
    with pytest.raises(DataError, match="has 9 frames, need >= 10"):
        assign_utterance_labels(make_utt(9), 10)


@settings(deadline=None, max_examples=80)
@given(t=st.integers(min_value=2, max_value=500), n=st.integers(min_value=2, max_value=20))
def test_utterance_segment_properties(t, n):
    if t < n:
        with pytest.raises(DataError, match=f"has {t} frames, need >= {n}"):
            assign_utterance_labels(make_utt(t), n)
        return
    labeled = assign_utterance_labels(make_utt(t), n)
    assert labeled.num_frames == t
    assert np.all(np.diff(labeled.labels) >= 0)  # non-decreasing
    lengths = np.bincount(labeled.labels, minlength=n)
    assert len(np.unique(labeled.labels)) == n
    assert lengths.max() - lengths.min() <= 1
    # leading segments absorb the remainder
    assert np.all(np.diff(lengths) <= 0)


def test_equal_length_utterances_get_identical_labelings():
    a = assign_utterance_labels(make_utt(47, "a"), 10)
    b = assign_utterance_labels(make_utt(47, "b"), 10)
    np.testing.assert_array_equal(a.labels, b.labels)


# --- dataset-level driver ---


def test_label_utterances_skips_short_ones_with_warning(caplog):
    config = TclConfig(num_classes=10, mode="utterance")
    utts = [make_utt(15, "long"), make_utt(4, "short"), make_utt(12, "long2")]
    with caplog.at_level("WARNING"):
        labeled = label_utterances(utts, config)
    assert labeled.utterance_ids == ["long", "long2"]
    assert labeled.num_frames == 27
    assert any("short" in rec.message for rec in caplog.records)


def test_label_utterances_all_short_raises():
    config = TclConfig(num_classes=10, mode="utterance")
    with pytest.raises(DataError, match="no utterance was long enough to label"):
        label_utterances([make_utt(3, "a"), make_utt(2, "b")], config)


def test_label_utterances_stream_mode_delegates():
    config = TclConfig(num_classes=3, frames_per_segment=2, mode="stream", shuffle_seed=0)
    direct = assign_stream_labels([make_utt(10, "x")], config)
    routed = label_utterances([make_utt(10, "x")], config)
    np.testing.assert_array_equal(direct.labels, routed.labels)


def test_labels_by_utterance_slices_correctly():
    config = TclConfig(num_classes=5, mode="utterance")
    labeled = label_utterances([make_utt(10, "a"), make_utt(7, "b")], config)
    per_utt = labels_by_utterance(labeled)
    assert set(per_utt) == {"a", "b"}
    assert len(per_utt["a"]) == 10 and len(per_utt["b"]) == 7
    np.testing.assert_array_equal(np.concatenate([per_utt["a"], per_utt["b"]]), labeled.labels)


# --- distribution summary ---


def test_distribution_sums_to_frame_count():
    labeled = assign_utterance_labels(make_utt(32), 10)
    counts = summarize_label_distribution(labeled, 10)
    assert sum(counts.values()) == 32
    assert counts[0] == 4 and counts[1] == 4 and counts[9] == 3


def test_distribution_of_empty_is_all_zeros():
    empty = LabeledFrames(
        labels=np.zeros(0, dtype=np.int64),
        utterance_boundaries=[0],
        utterance_ids=[],
    )
    assert summarize_label_distribution(empty, num_classes=4) == {0: 0, 1: 0, 2: 0, 3: 0}


# --- archive I/O ---


def test_label_archive_roundtrip(tmp_path):
    path = tmp_path / "labels.tsv"
    data = {"u1": np.array([0, 1, 2]), "u2": np.array([3], dtype=np.int64), "u3": np.array([], dtype=np.int64)}
    write_label_archive(path, data)
    back = read_label_archive(path)
    assert list(back) == ["u1", "u2", "u3"]
    np.testing.assert_array_equal(back["u1"], [0, 1, 2])
    np.testing.assert_array_equal(back["u2"], [3])
    assert len(back["u3"]) == 0


def test_label_archive_rejects_malformed(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text("u1\t1 2\textra\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_label_archive(path)


def test_config_validation():
    with pytest.raises(DataError):
        TclConfig(num_classes=1)
    with pytest.raises(DataError):
        TclConfig(frames_per_segment=0)
    with pytest.raises(DataError):
        TclConfig(mode="chunk")
