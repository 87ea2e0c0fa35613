"""Frontend tests: every numeric stage is checked against an independent
re-implementation (explicit loops / direct formula evaluation) on small inputs.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tclsv import blas, frontend
from tclsv.errors import DataError
from tclsv.frontend import (
    LOG_FLOOR,
    AudioSignal,
    FeatureMatrix,
    FrontendConfig,
    append_deltas,
    apply_rasta,
    apply_vad,
    cmvn,
    compute_mfcc,
    count_frames,
    dct_matrix,
    extract_features,
    frame_signal,
    mel_filterbank,
    read_wav,
    write_wav,
)

RATE = 16000


def tone(freq_hz: float, seconds: float = 0.2, rate: int = RATE) -> AudioSignal:
    t = np.arange(int(seconds * rate)) / rate
    return AudioSignal(samples=0.5 * np.sin(2 * np.pi * freq_hz * t), sample_rate_hz=rate)


def noise_signal(seconds: float = 0.3, seed: int = 0, rate: int = RATE) -> AudioSignal:
    rng = np.random.default_rng(seed)
    return AudioSignal(samples=0.1 * rng.standard_normal(int(seconds * rate)), sample_rate_hz=rate)


# --- framing ---


@pytest.mark.parametrize("num_samples", [320, 321, 479, 480, 481, 1600, 16000])
def test_frame_count_formula(num_samples):
    signal = AudioSignal(samples=np.ones(num_samples) * 0.1, sample_rate_hz=RATE)
    frames, energies = frame_signal(signal, FrontendConfig())
    expected = 1 + (num_samples - 320) // 160
    assert frames.shape == (expected, 320)
    assert energies.shape == (expected,)
    assert count_frames(signal, FrontendConfig()) == expected


def test_too_short_signal_raises():
    signal = AudioSignal(samples=np.ones(319) * 0.1, sample_rate_hz=RATE)
    with pytest.raises(DataError, match="need at least 320 for one frame"):
        frame_signal(signal, FrontendConfig())
    assert count_frames(signal, FrontendConfig()) == 0


def test_framing_matches_loop_oracle():
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.5, 0.5, 1000)
    signal = AudioSignal(samples=x, sample_rate_hz=RATE)
    config = FrontendConfig()
    frames, energies = frame_signal(signal, config)

    pre = np.empty_like(x)
    pre[0] = x[0]
    for t in range(1, len(x)):
        pre[t] = x[t] - config.preemphasis_coeff * x[t - 1]
    n = 320
    window = 0.54 - 0.46 * np.cos(2 * np.pi * np.arange(n) / (n - 1))
    for f in range((len(x) - 320) // 160 + 1):
        seg = pre[f * 160 : f * 160 + 320]
        np.testing.assert_allclose(frames[f], seg * window, atol=1e-12)
        expected_energy = np.log(max(np.sum(seg**2), LOG_FLOOR))
        assert energies[f] == pytest.approx(expected_energy, abs=1e-12)


def test_energy_floor_on_silence():
    signal = AudioSignal(samples=np.zeros(640), sample_rate_hz=RATE)
    _, energies = frame_signal(signal, FrontendConfig())
    np.testing.assert_allclose(energies, np.log(LOG_FLOOR))


# --- mel filterbank ---


def test_mel_filterbank_shape_and_coverage():
    fbank = mel_filterbank(24, 512, RATE)
    assert fbank.shape == (24, 257)
    assert np.all(fbank >= 0)
    assert np.all(fbank.sum(axis=1) > 0)
    # interior bins between the first and last filter peak are covered
    peaks = fbank.argmax(axis=1)
    covered = fbank.sum(axis=0)
    assert np.all(covered[peaks[0] : peaks[-1] + 1] > 0)
    # centers are strictly increasing on the mel scale
    assert np.all(np.diff(peaks) >= 1)


def test_mel_filterbank_matches_formula_oracle():
    num_filters, n_fft = 24, 512
    fbank = mel_filterbank(num_filters, n_fft, RATE)

    def mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def melinv(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    edges = melinv(np.linspace(0.0, mel(RATE / 2.0), num_filters + 2))
    bins = np.arange(n_fft // 2 + 1) * RATE / n_fft
    for m in range(num_filters):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        for j, f in enumerate(bins):
            if lo <= f <= mid:
                expected = (f - lo) / (mid - lo)
            elif mid < f <= hi:
                expected = (hi - f) / (hi - mid)
            else:
                expected = 0.0
            assert fbank[m, j] == pytest.approx(expected, abs=1e-12)


def test_mel_filterbank_is_cached_read_only_and_equal_to_a_fresh_build():
    fbank = mel_filterbank(24, 512, RATE)
    assert mel_filterbank(24, 512, RATE) is fbank
    assert not fbank.flags.writeable
    with pytest.raises(ValueError):
        fbank[0, 0] = 1.0
    fresh = mel_filterbank.__wrapped__(24, 512, RATE)
    assert fresh is not fbank
    assert np.array_equal(fbank, fresh)
    # each key gets its own matrix
    assert mel_filterbank(40, 512, RATE).shape == (40, 257)
    assert mel_filterbank(24, 1024, RATE).shape == (24, 513)
    assert not np.array_equal(mel_filterbank(24, 512, 2 * RATE), fbank)


# --- MFCC ---


def cosine_sum_dct(x: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II of a vector by its cosine-sum definition."""
    N = len(x)
    out = np.empty(N)
    for k in range(N):
        scale = np.sqrt(1.0 / N) if k == 0 else np.sqrt(2.0 / N)
        out[k] = scale * sum(x[n] * np.cos(np.pi * (2 * n + 1) * k / (2 * N)) for n in range(N))
    return out


def test_mfcc_matches_direct_evaluation_oracle():
    """Whole MFCC stage vs an explicit-formula oracle (direct DFT, literal
    triangle weights, cosine-sum DCT) on a 1 kHz tone, to 1e-6."""
    config = FrontendConfig(rasta_enabled=False)
    signal = tone(1000.0, seconds=0.06)
    windowed, _ = frame_signal(signal, config)
    got = compute_mfcc(windowed, config, RATE)

    n_fft = 512
    num_filters = config.num_mel_filters
    fbank = mel_filterbank(num_filters, n_fft, RATE)
    for f in range(min(3, windowed.shape[0])):
        frame = windowed[f]
        spectrum = np.empty(n_fft // 2 + 1)
        for k in range(n_fft // 2 + 1):
            acc = 0.0 + 0.0j
            for n in range(len(frame)):
                acc += frame[n] * np.exp(-2j * np.pi * k * n / n_fft)
            spectrum[k] = abs(acc)
        log_mel = np.log(np.maximum(fbank @ spectrum, LOG_FLOOR))
        np.testing.assert_allclose(got[f], cosine_sum_dct(log_mel)[1:20], atol=1e-6)


@pytest.mark.parametrize("n", [2, 20, 24, 40])
def test_dct_matrix_matches_cosine_sum_definition(n):
    basis = dct_matrix(n)
    assert basis.shape == (n, n)
    np.testing.assert_allclose(basis.T @ basis, np.eye(n), atol=1e-12)
    x = np.random.default_rng(n).standard_normal((3, n)) * 5.0
    for row in range(3):
        np.testing.assert_allclose(x[row] @ basis, cosine_sum_dct(x[row]), atol=1e-12)


def test_mfcc_dct_follows_num_mel_filters():
    # the cached DCT basis is keyed by the filter count: mixing counts in one
    # process must give each config its own cepstra
    signal = noise_signal(seconds=0.1, seed=6)
    for num_filters, num_ceps in ((24, 19), (40, 13), (20, 12), (24, 19)):
        config = FrontendConfig(num_mel_filters=num_filters, num_static_ceps=num_ceps)
        windowed, _ = frame_signal(signal, config)
        got = compute_mfcc(windowed, config, RATE)
        assert got.shape[1] == num_ceps

        spectrum = np.abs(np.fft.rfft(windowed, n=512, axis=1))
        log_mel = np.log(np.maximum(spectrum @ mel_filterbank(num_filters, 512, RATE).T, LOG_FLOOR))
        log_mel = apply_rasta(log_mel)
        for f in (0, len(got) - 1):
            np.testing.assert_allclose(got[f], cosine_sum_dct(log_mel[f])[1 : num_ceps + 1], atol=1e-6)


def test_mfcc_keeps_c1_to_c19():
    config = FrontendConfig()
    windowed, _ = frame_signal(noise_signal(), config)
    assert compute_mfcc(windowed, config, RATE).shape == (len(windowed), 19)


def test_mfcc_tone_energy_lands_in_matching_filter():
    # dropping C0 only removes the overall-level term; check on the log-mel level
    config = FrontendConfig(rasta_enabled=False)
    windowed, _ = frame_signal(tone(1000.0), config)
    n_fft = 512
    spectrum = np.abs(np.fft.rfft(windowed, n=n_fft, axis=1))
    fbank = mel_filterbank(config.num_mel_filters, n_fft, RATE)
    mel_energies = (spectrum @ fbank.T).mean(axis=0)
    centers = fbank.argmax(axis=1) * RATE / n_fft
    assert abs(centers[mel_energies.argmax()] - 1000.0) < 150.0


def test_mfcc_frame_scale_invariance_without_c0():
    # scaling a frame shifts only C0 of the log spectrum; C1.. are unchanged
    config = FrontendConfig(rasta_enabled=False)
    windowed, _ = frame_signal(noise_signal(seconds=0.1, seed=4), config)
    scaled, _ = frame_signal(
        AudioSignal(samples=noise_signal(seconds=0.1, seed=4).samples * 3.0, sample_rate_hz=RATE),
        config,
    )
    a = compute_mfcc(windowed, config, RATE)
    b = compute_mfcc(scaled, config, RATE)
    np.testing.assert_allclose(a, b, atol=1e-6)


def test_mfcc_amplitude_scale_invariance_after_cmvn():
    config = FrontendConfig()
    base = noise_signal(seconds=0.5, seed=5)
    scaled = AudioSignal(samples=base.samples * 2.0, sample_rate_hz=RATE)
    a = extract_features(base, config)
    b = extract_features(scaled, config)
    assert a.shape == b.shape
    np.testing.assert_allclose(a, b, atol=1e-8)


# --- RASTA ---


def test_rasta_matches_difference_equation_oracle():
    # lengths below, at and across the RASTA_BLOCK (64) boundaries
    rng = np.random.default_rng(11)
    for num_frames in (1, 2, 5, 40, 63, 64, 65, 129, 1000):
        x = rng.standard_normal((num_frames, 3))
        got = apply_rasta(x)

        y = np.zeros_like(x)
        for col in range(x.shape[1]):
            for t in range(x.shape[0]):
                acc = 0.0
                for i, b in enumerate([0.2, 0.1, 0.0, -0.1, -0.2]):
                    if t - i >= 0:
                        acc += b * x[t - i, col]
                if t - 1 >= 0:
                    acc += 0.98 * y[t - 1, col]
                y[t, col] = acc
        np.testing.assert_allclose(got, y, atol=1e-10, err_msg=f"T={num_frames}")


def test_rasta_rejects_constant_trajectories():
    x = np.ones((1000, 2)) * 3.7
    out = apply_rasta(x)
    # band-pass: the response to a constant input decays toward zero
    assert np.all(np.abs(out[-1]) < 1e-6)
    assert np.max(np.abs(out[-1])) < np.max(np.abs(out[5]))


def test_rasta_is_linear():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((30, 4))
    b = rng.standard_normal((30, 4))
    np.testing.assert_allclose(
        apply_rasta(2.0 * a + 3.0 * b),
        2.0 * apply_rasta(a) + 3.0 * apply_rasta(b),
        atol=1e-10,
    )


def test_rasta_applied_before_dct_equals_cepstral_filtering():
    # linearity of the DCT: filtering log-mel trajectories == filtering cepstra
    config = FrontendConfig()
    windowed, _ = frame_signal(noise_signal(seconds=0.4, seed=9), config)
    with_rasta = compute_mfcc(windowed, config, RATE)
    without = compute_mfcc(windowed, FrontendConfig(rasta_enabled=False), RATE)
    np.testing.assert_allclose(with_rasta, apply_rasta(without), atol=1e-9)


# --- deltas ---


def test_deltas_match_regression_oracle():
    rng = np.random.default_rng(7)
    base = rng.standard_normal((12, 4))
    out = append_deltas(base, delta_window=2)
    assert out.shape == (12, 12)
    np.testing.assert_allclose(out[:, :4], base, atol=0)

    T = base.shape[0]
    denom = 2.0 * (1 + 4)

    def delta_oracle(feats):
        d = np.zeros_like(feats)
        for t in range(T):
            for n in (1, 2):
                d[t] += n * (feats[min(t + n, T - 1)] - feats[max(t - n, 0)])
        return d / denom

    d1 = delta_oracle(base)
    np.testing.assert_allclose(out[:, 4:8], d1, atol=1e-12)
    np.testing.assert_allclose(out[:, 8:12], delta_oracle(d1), atol=1e-12)


def test_delta_of_constant_is_zero():
    out = append_deltas(np.full((6, 3), 2.5))
    np.testing.assert_allclose(out[:, 3:], 0.0, atol=0)


def test_delta_of_linear_ramp_is_slope_in_interior():
    slope = 0.75
    base = (slope * np.arange(10.0))[:, None]
    out = append_deltas(base, delta_window=2)
    # edge replication distorts the first/last delta_window frames only
    np.testing.assert_allclose(out[2:-2, 1], slope, atol=1e-12)
    np.testing.assert_allclose(out[4:-4, 2], 0.0, atol=1e-12)


def test_deltas_preserve_energies_and_id(monkeypatch):
    # extract_features hands VAD the delta-appended frames with framing's energies and the id
    signal, config = noise_signal(), FrontendConfig()
    seen = []
    monkeypatch.setattr(frontend, "apply_vad", lambda fm, c: seen.append(fm) or fm)
    extract_features(signal, config, utterance_id="u1")
    windowed, energies = frame_signal(signal, config)
    (fm,) = seen
    assert fm.utterance_id == "u1"
    np.testing.assert_array_equal(fm.frame_energies, energies)
    np.testing.assert_array_equal(fm.frames, append_deltas(compute_mfcc(windowed, config, RATE)))


# --- VAD ---


def test_vad_keeps_frames_strictly_within_threshold():
    config = FrontendConfig(vad_threshold_db=30.0)
    tau = 30.0 * np.log(10.0) / 10.0
    energies = np.array([0.0, -tau + 1e-9, -tau, -tau - 1e-9])
    fm = FeatureMatrix(
        frames=np.arange(8.0).reshape(4, 2), frame_energies=energies, utterance_id="u"
    )
    out = apply_vad(fm, config)
    # strict inequality: the frame exactly at max - tau is dropped
    np.testing.assert_array_equal(out.frames, fm.frames[:2])
    assert out.frame_energies is None


def test_vad_all_frames_removed():
    # the max-energy frame always survives a positive threshold, so only a
    # zero threshold can reject everything (strict > against max - 0)
    config = FrontendConfig(vad_threshold_db=0.0)
    fm = FeatureMatrix(frames=np.zeros((3, 2)), frame_energies=np.zeros(3))
    with pytest.raises(DataError, match="VAD removed all 3 frames"):
        apply_vad(fm, config)


def test_vad_equal_energies_keeps_everything():
    fm = FeatureMatrix(frames=np.arange(6.0).reshape(3, 2), frame_energies=np.full(3, -1.0))
    out = apply_vad(fm, FrontendConfig(vad_threshold_db=30.0))
    assert out.num_frames == 3


def test_vad_one_loud_frame():
    # rest at -100 dB relative with a 30 dB threshold: only the loud frame stays
    loud = 0.0
    quiet = -100.0 * np.log(10.0) / 10.0
    fm = FeatureMatrix(
        frames=np.arange(8.0).reshape(4, 2),
        frame_energies=np.array([quiet, loud, quiet, quiet]),
    )
    out = apply_vad(fm, FrontendConfig(vad_threshold_db=30.0))
    np.testing.assert_array_equal(out.frames, fm.frames[1:2])


def test_vad_requires_energies():
    with pytest.raises(DataError):
        apply_vad(FeatureMatrix(frames=np.zeros((2, 2))), FrontendConfig())


def test_vad_drops_silence_in_real_chain():
    rng = np.random.default_rng(0)
    loud = 0.4 * rng.standard_normal(RATE // 2)
    quiet = 1e-5 * rng.standard_normal(RATE // 2)
    signal = AudioSignal(samples=np.concatenate([loud, quiet]), sample_rate_hz=RATE)
    config = FrontendConfig()
    windowed, energies = frame_signal(signal, config)
    voiced = apply_vad(FeatureMatrix(compute_mfcc(windowed, config, RATE), "u", energies), config)
    assert 0 < voiced.num_frames < windowed.shape[0]


# --- CMVN ---


def test_cmvn_forced_example():
    out = cmvn(np.array([[1.0], [2.0], [3.0]]))
    root = np.sqrt(1.5)  # 1 / population std of [1,2,3]
    np.testing.assert_allclose(out.ravel(), [-root, 0.0, root], atol=1e-12)


def test_cmvn_moments_and_idempotence():
    rng = np.random.default_rng(21)
    out = cmvn(rng.standard_normal((200, 6)) * 3.0 + 1.0)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-6)
    np.testing.assert_allclose(out.var(axis=0), 1.0, atol=1e-4)
    np.testing.assert_allclose(cmvn(out), out, atol=1e-6)


def test_cmvn_constant_column_centered_only():
    frames = np.column_stack([np.full(4, 7.0), np.arange(4.0)])
    out = cmvn(frames)
    np.testing.assert_allclose(out[:, 0], 0.0, atol=0)
    assert out[:, 1].var() == pytest.approx(1.0)


@settings(deadline=None, max_examples=30)
@given(
    scale=st.floats(min_value=0.1, max_value=50.0),
    shift=st.floats(min_value=-20.0, max_value=20.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_cmvn_shift_scale_equivariance(scale, shift, seed):
    x = np.random.default_rng(seed).standard_normal((30, 3))
    a = cmvn(x)
    b = cmvn(scale * x + shift)
    np.testing.assert_allclose(a, b, atol=1e-8)


# --- full chain ---


def test_extract_features_shape_and_normalization():
    feats = extract_features(noise_signal(seconds=0.5), FrontendConfig())
    assert feats.shape[1] == 57
    assert len(feats) > 1
    np.testing.assert_allclose(feats.mean(axis=0), 0.0, atol=1e-6)
    np.testing.assert_allclose(feats.var(axis=0), 1.0, atol=1e-4)


def degenerate_signal(kind: str, rate: int, level: float, seed: int) -> AudioSignal:
    frame_len = int(round(20.0 * rate / 1000.0))
    n = frame_len if kind == "one-frame" else int(0.3 * rate)
    if kind == "silence":
        samples = np.zeros(n)
    elif kind == "dc":
        samples = np.full(n, level)
    elif kind == "clipped":
        samples = np.clip(50.0 * np.random.default_rng(seed).standard_normal(n), -1.0, 1.0)
    else:  # one frame of noise at the given level
        samples = level * np.random.default_rng(seed).standard_normal(n)
    return AudioSignal(samples=samples, sample_rate_hz=rate)


@settings(deadline=None, max_examples=40)
@given(
    kind=st.sampled_from(["silence", "dc", "clipped", "one-frame"]),
    rate=st.sampled_from([8000, 16000, 48000]),
    level=st.floats(min_value=-1.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
    rasta=st.booleans(),
)
def test_extract_features_degenerate_audio_is_finite_or_data_error(kind, rate, level, seed, rasta):
    signal = degenerate_signal(kind, rate, level, seed)
    try:
        feats = extract_features(signal, FrontendConfig(rasta_enabled=rasta))
    except DataError:
        return
    assert feats.shape[1] == 57
    assert len(feats) >= 1
    assert np.all(np.isfinite(feats))


def test_extract_features_deterministic():
    signal = noise_signal(seconds=0.4, seed=13)
    config = FrontendConfig()
    a = extract_features(signal, config)
    b = extract_features(signal, config)
    assert np.array_equal(a, b)


# --- WAV I/O ---


def test_wav_roundtrip(tmp_path):
    signal = tone(440.0, seconds=0.05)
    path = tmp_path / "t.wav"
    write_wav(path, signal)
    back = read_wav(path)
    assert back.sample_rate_hz == RATE
    np.testing.assert_allclose(back.samples, signal.samples, atol=1.0 / 32768.0)


def test_read_wav_rejects_garbage(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"this is not audio")
    with pytest.raises(DataError):
        read_wav(path)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda p: p.write_bytes(b"garbage"), "not a valid WAV file (truncated header)"),
        (lambda p: p.write_bytes(b""), "not a valid WAV file (truncated header)"),
        (lambda p: p.mkdir(), "cannot read (Is a directory)"),
        (lambda p: None, "cannot read (No such file or directory)"),
    ],
    ids=["shorter-than-riff-header", "empty", "directory", "missing"],
)
def test_read_wav_unreadable_file_is_a_data_error(tmp_path, make, message):
    path = tmp_path / "bad.wav"
    make(path)
    with pytest.raises(DataError) as exc:
        read_wav(path)
    assert str(exc.value) == f"{path}: {message}"


def test_read_wav_allocates_no_more_than_the_file_holds(tmp_path):
    # a RIFF chunk and a data chunk that declare 4 GiB ahead of 320 samples
    path = tmp_path / "forged.wav"
    write_wav(path, tone(440.0, seconds=0.02))
    data = bytearray(path.read_bytes())
    data[4:8] = data[40:44] = b"\xff\xff\xff\xff"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        signal = read_wav(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(signal.samples) == 320
    assert peak < 100 * len(data)


def test_read_wav_rejects_stereo(tmp_path):
    import wave

    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(RATE)
        wf.writeframes(b"\x00\x00" * 200)
    with pytest.raises(DataError):
        read_wav(path)


def test_config_validation():
    with pytest.raises(DataError):
        FrontendConfig(frame_length_ms=5.0, frame_shift_ms=10.0)
    with pytest.raises(DataError):
        FrontendConfig(num_static_ceps=24, num_mel_filters=24)
    with pytest.raises(DataError):
        FrontendConfig(preemphasis_coeff=1.0)


def test_features_are_the_same_bits_on_one_blas_thread():
    # the filterbank GEMM (149 x 257 x 24) is above OpenBLAS's threading threshold;
    # frames longer than 32 ms would make it sum over 513 bins, past the 384 where
    # OpenBLAS 0.3.31 rounds differently on one thread than on two
    signal = noise_signal(seconds=1.5, seed=3)
    threaded = extract_features(signal, FrontendConfig())
    with blas.single_thread():
        single = extract_features(signal, FrontendConfig())
    assert len(threaded) == 149
    assert np.array_equal(single, threaded)
