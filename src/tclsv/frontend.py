"""Cepstral frontend: framing, mel cepstra, RASTA filtering, deltas, energy VAD, CMVN.

The full chain turns a mono PCM signal into a 57-dimensional feature matrix:
pre-emphasized Hamming frames -> magnitude spectrum -> mel filterbank -> log
(optionally RASTA-filtered along time) -> DCT-II keeping C1..C19 -> delta and
delta-delta appended -> energy VAD -> per-utterance mean/variance normalization.

Only numpy is needed: the DCT-II is a product with a cached orthonormal basis
matrix, and the RASTA IIR runs as a vectorised FIR part plus its one-pole
recurrence solved a block of frames at a time.  Neither is bit-identical to
``scipy.fft.dct`` / ``scipy.signal.lfilter``; both agree with them to
rounding error (about 1e-15 relative).  The mel filterbank is cached too, so
it is built once per configuration rather than once per utterance.
"""

from __future__ import annotations

import os
import wave
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .errors import DataError

# Floor for log energies and log filterbank outputs.
LOG_FLOOR = 1e-10

# Variance floor below which a CMVN column is centered only.
CMVN_VARIANCE_FLOOR = 1e-8

# Band-pass H(z) = 0.1 * (2 + z^-1 - z^-3 - 2 z^-4) / (1 - 0.98 z^-1),
# applied along time to each log-filterbank trajectory (zero initial state).
RASTA_NUMERATOR = np.array([0.2, 0.1, 0.0, -0.1, -0.2])
RASTA_POLE = 0.98

# apply_rasta solves the pole RASTA_BLOCK frames at a time with
# _RASTA_IMPULSE[i, j] = RASTA_POLE**(i-j) (j <= i) and _RASTA_CARRY[i] =
# RASTA_POLE**(i+1); 0.98**64 is about 0.27, far from underflow.
RASTA_BLOCK = 64
_RASTA_IMPULSE = np.tril(
    RASTA_POLE ** np.abs(np.arange(RASTA_BLOCK)[:, None] - np.arange(RASTA_BLOCK))
)
_RASTA_CARRY = RASTA_POLE ** np.arange(1.0, RASTA_BLOCK + 1)


@dataclass(frozen=True)
class AudioSignal:
    """Mono audio with amplitudes in [-1, 1]."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        if len(self.samples) == 0:
            raise DataError("audio signal is empty")
        if self.sample_rate_hz <= 0:
            raise DataError(f"sample rate must be positive, got {self.sample_rate_hz}")


@dataclass(frozen=True)
class FrontendConfig:
    frame_shift_ms: float = 10.0
    frame_length_ms: float = 20.0
    window: str = "hamming"
    num_static_ceps: int = 19
    num_mel_filters: int = 24
    preemphasis_coeff: float = 0.97
    rasta_enabled: bool = True
    vad_threshold_db: float = 30.0
    delta_window: int = 2

    def __post_init__(self):
        if self.frame_shift_ms <= 0:
            raise DataError("frontend.frame_shift_ms must be positive")
        if self.frame_length_ms < self.frame_shift_ms:
            raise DataError("frontend.frame_length_ms must be >= frontend.frame_shift_ms")
        if self.num_static_ceps < 1:
            raise DataError("frontend.num_static_ceps must be >= 1")
        if self.num_static_ceps >= self.num_mel_filters:
            raise DataError("frontend.num_static_ceps must be < frontend.num_mel_filters")
        if not 0.0 <= self.preemphasis_coeff < 1.0:
            raise DataError("frontend.preemphasis_coeff must be in [0, 1)")
        if self.window != "hamming":
            raise DataError(f"frontend.window must be 'hamming', got {self.window!r}")
        if self.delta_window < 1:
            raise DataError("frontend.delta_window must be positive")


@dataclass(frozen=True)
class FeatureMatrix:
    """One utterance's T x D frames as :func:`apply_vad` reads and returns them.

    ``frame_energies`` holds the per-frame log energy (natural log of the
    frame's sum of squares); VAD reads it and drops it.
    """

    frames: np.ndarray
    utterance_id: str = ""
    frame_energies: np.ndarray | None = None

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]


def read_wav(path: str | Path) -> AudioSignal:
    """Read a mono 16-bit PCM WAV file.

    Unreadable, truncated, empty, multi-channel, non-PCM or non-16-bit files
    raise :class:`DataError` naming the file.
    """
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getcomptype() != "NONE":
                raise DataError(f"{path}: compressed WAV is not supported")
            if wf.getnchannels() != 1:
                raise DataError(f"{path}: expected mono, got {wf.getnchannels()} channels")
            if wf.getsampwidth() != 2:
                raise DataError(f"{path}: expected 16-bit PCM, got {8 * wf.getsampwidth()}-bit")
            rate = wf.getframerate()
            # wave allocates the data chunk's declared size before it reads,
            # and a cut or forged header can declare up to 4 GiB
            raw = wf.readframes(min(wf.getnframes(), os.path.getsize(path) // 2))
    except wave.Error as exc:
        raise DataError(f"{path}: not a valid WAV file ({exc})") from exc
    except EOFError as exc:  # the file ends inside the RIFF header
        raise DataError(f"{path}: not a valid WAV file (truncated header)") from exc
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror})") from exc
    if len(raw) % 2:
        raise DataError(f"{path}: not a valid WAV file (data chunk ends mid-sample)")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    try:
        return AudioSignal(samples=samples, sample_rate_hz=rate)
    except DataError as exc:  # an empty data chunk or a zero sample rate
        raise DataError(f"{path}: {exc}") from None


def write_wav(path: str | Path, signal: AudioSignal) -> None:
    """Write a mono 16-bit PCM WAV file."""
    pcm = np.clip(np.round(signal.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(signal.sample_rate_hz)
        wf.writeframes(pcm.tobytes())


def _frame_geometry(config: FrontendConfig, rate: int) -> tuple[int, int]:
    """(frame length, frame shift) in samples at ``rate``; DataError if the shift is under one sample."""
    frame_len = int(round(config.frame_length_ms * rate / 1000.0))
    frame_shift = int(round(config.frame_shift_ms * rate / 1000.0))
    if frame_shift < 1:  # frame_len is no shorter, so this covers both
        raise DataError(f"frontend.frame_shift_ms {config.frame_shift_ms} is under one sample at {rate} Hz")
    return frame_len, frame_shift


def count_frames(signal: AudioSignal, config: FrontendConfig) -> int:
    """How many frames :func:`frame_signal` cuts ``signal`` into, 0 when it is shorter than one."""
    frame_len, frame_shift = _frame_geometry(config, signal.sample_rate_hz)
    return max(0, 1 + (len(signal.samples) - frame_len) // frame_shift)


def frame_signal(signal: AudioSignal, config: FrontendConfig) -> tuple[np.ndarray, np.ndarray]:
    """Pre-emphasized, Hamming-windowed frames and each frame's log energy.

    Frame count is ``1 + floor((len - frame_len) / frame_shift)``.  The
    per-frame log energy is computed after pre-emphasis but before windowing.
    """
    frame_len, frame_shift = _frame_geometry(config, signal.sample_rate_hz)
    x = np.asarray(signal.samples, dtype=np.float64)
    if len(x) < frame_len:
        raise DataError(f"signal has {len(x)} samples, need at least {frame_len} for one frame")

    pre = np.empty_like(x)
    pre[0] = x[0]
    pre[1:] = x[1:] - config.preemphasis_coeff * x[:-1]

    frames = np.lib.stride_tricks.sliding_window_view(pre, frame_len)[::frame_shift]
    frames = np.ascontiguousarray(frames)
    energies = np.log(np.maximum(np.sum(frames**2, axis=1), LOG_FLOOR))
    window = np.hamming(frame_len)
    return frames * window, energies


def _mel(hz: np.ndarray | float) -> np.ndarray | float:
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def _mel_inv(mel: np.ndarray | float) -> np.ndarray | float:
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@cache
def mel_filterbank(num_filters: int, n_fft: int, sample_rate_hz: int) -> np.ndarray:
    """Triangular mel filterbank spanning 0 Hz to Nyquist.

    A cached, read-only num_filters x (n_fft//2+1) matrix.  Raises
    :class:`DataError` when the FFT is too short for some filter to cover a bin.
    """
    bin_freqs = np.arange(n_fft // 2 + 1) * (sample_rate_hz / n_fft)
    edges_hz = _mel_inv(np.linspace(0.0, _mel(sample_rate_hz / 2.0), num_filters + 2))
    weights = np.zeros((num_filters, len(bin_freqs)))
    for m in range(num_filters):
        lo, mid, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        rising = (bin_freqs - lo) / (mid - lo)
        falling = (hi - bin_freqs) / (hi - mid)
        weights[m] = np.maximum(0.0, np.minimum(rising, falling))
    empty = np.count_nonzero(~weights.any(axis=1))
    if empty:
        raise DataError(
            f"frontend.frame_length_ms is too short for {num_filters} mel filters at {sample_rate_hz} Hz:"
            f" its {n_fft}-point FFT leaves {empty} filter(s) without a bin"
        )
    weights.flags.writeable = False
    return weights


def compute_mfcc(frames: np.ndarray, config: FrontendConfig, sample_rate_hz: int) -> np.ndarray:
    """Static mel cepstra C1..C_num_static_ceps for each windowed frame.

    Per frame: magnitude spectrum -> mel filterbank -> log (RASTA-filtered
    along time when enabled) -> DCT-II (orthonormal), dropping C0.
    """
    n_fft = 1 << (frames.shape[1] - 1).bit_length()
    spectrum = np.abs(np.fft.rfft(frames, n=n_fft, axis=1))
    fbank = mel_filterbank(config.num_mel_filters, n_fft, sample_rate_hz)
    log_mel = np.log(np.maximum(spectrum @ fbank.T, LOG_FLOOR))
    if config.rasta_enabled:
        log_mel = apply_rasta(log_mel)
    return log_mel @ dct_matrix(config.num_mel_filters)[:, 1 : config.num_static_ceps + 1]


@cache
def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis as a read-only n x n matrix.

    ``x @ dct_matrix(n)`` is the DCT-II of each row of ``x``, i.e.
    ``scipy.fft.dct(x, type=2, norm="ortho", axis=1)`` up to rounding.
    """
    i = np.arange(n)
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * np.outer(2 * i + 1, i) / (2 * n))
    basis[:, 0] = np.sqrt(1.0 / n)
    basis.flags.writeable = False
    return basis


def apply_rasta(trajectories: np.ndarray) -> np.ndarray:
    """Filter each coefficient trajectory (column) with the RASTA band-pass IIR.

    Zero initial filter state; DC is rejected asymptotically.  The filter is
    linear, so applying it before or after the DCT gives the same cepstra.

    The numerator is applied as a vectorised FIR.  The pole
    ``y[n] = fir[n] + a * y[n-1]`` (a = RASTA_POLE) is then solved
    RASTA_BLOCK frames at a time: within a block,
    ``y = L @ fir_block + a**(i+1) * y_prev``, with ``L[i, j] = a**(i-j)`` for
    ``j <= i`` and ``y_prev`` the last output of the previous block.  The result matches ``scipy.signal.lfilter`` to
    rounding error.
    """
    x = np.atleast_2d(np.asarray(trajectories, dtype=np.float64))
    taps = len(RASTA_NUMERATOR)
    padded = np.concatenate([np.zeros((taps - 1, x.shape[1])), x])
    fir = np.zeros_like(x)
    for lag, b in enumerate(RASTA_NUMERATOR):
        fir += b * padded[taps - 1 - lag : taps - 1 - lag + len(x)]

    y = np.empty_like(x)
    y_prev = np.zeros(x.shape[1])
    for start in range(0, len(x), RASTA_BLOCK):
        n = min(RASTA_BLOCK, len(x) - start)
        block = _RASTA_IMPULSE[:n, :n] @ fir[start : start + n] + _RASTA_CARRY[:n, None] * y_prev
        y[start : start + n] = block
        y_prev = block[-1]
    return y


def append_deltas(static: np.ndarray, delta_window: int = 2) -> np.ndarray:
    """Append delta and delta-delta regression coefficients.

    Standard regression formula over +/- delta_window frames with edge
    replication; a T x D input becomes a T x 3D matrix.
    """
    base = np.asarray(static, dtype=np.float64)
    deltas = _delta(base, delta_window)
    return np.hstack([base, deltas, _delta(deltas, delta_window)])


def _delta(feats: np.ndarray, window: int) -> np.ndarray:
    T = feats.shape[0]
    denom = 2.0 * sum(n * n for n in range(1, window + 1))
    out = np.zeros_like(feats)
    idx = np.arange(T)
    for n in range(1, window + 1):
        fwd = feats[np.minimum(idx + n, T - 1)]
        bwd = feats[np.maximum(idx - n, 0)]
        out += n * (fwd - bwd)
    return out / denom


def apply_vad(features: FeatureMatrix, config: FrontendConfig) -> FeatureMatrix:
    """Keep frames whose log energy is within vad_threshold_db of the maximum.

    Energies are natural-log, so the dB threshold is converted with
    ln(10)/10.  Raises :class:`DataError` when nothing passes.
    """
    if features.frame_energies is None:
        raise DataError("apply_vad requires frame_energies (pre-VAD features)")
    energies = features.frame_energies
    threshold_nats = config.vad_threshold_db * np.log(10.0) / 10.0
    keep = energies > energies.max() - threshold_nats
    if not np.any(keep):
        raise DataError(f"VAD removed all {features.num_frames} frames of {features.utterance_id!r}")
    return FeatureMatrix(features.frames[keep], features.utterance_id)


def cmvn(x: np.ndarray) -> np.ndarray:
    """Normalize each column to zero mean and unit variance (population convention).

    Columns with variance below the floor are centered only.
    """
    mean = x.mean(axis=0)
    var = x.var(axis=0)
    scale = np.where(var < CMVN_VARIANCE_FLOOR, 1.0, np.sqrt(np.maximum(var, CMVN_VARIANCE_FLOOR)))
    return (x - mean) / scale


def extract_features(
    signal: AudioSignal, config: FrontendConfig, utterance_id: str = ""
) -> np.ndarray:
    """Full frontend chain: framing -> MFCC -> deltas -> VAD -> CMVN.

    ``utterance_id`` only names the utterance in VAD's error.
    """
    windowed, energies = frame_signal(signal, config)
    static = compute_mfcc(windowed, config, signal.sample_rate_hz)
    full = FeatureMatrix(append_deltas(static, config.delta_window), utterance_id, energies)
    return cmvn(apply_vad(full, config).frames)
