"""Synthetic verification corpus for smoke tests and the end-to-end check.

"Speakers" are distinct source spectra (two resonances over white noise plus
a speaker-specific tone); "phrases" are distinct temporal energy envelopes.
The generator writes WAV files, a manifest with the standard split layout and
a trial list covering all four trial types:

  phrases 0-1 -> dnn-train, phrase 2 -> ubm-train,
  phrase 3 -> enroll + test (target / impostor-correct trials),
  phrase 4 -> test only (target-wrong / impostor-wrong trials).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import storage
from .errors import DataError
from .frontend import AudioSignal, write_wav
from .manifest import ManifestEntry, write_manifest
from .metrics import Trial, write_trials

# (duration_s, level) segments; low-level gaps give the VAD something to drop.
PHRASE_ENVELOPES = [
    [(0.10, 0.02), (0.25, 1.00), (0.10, 0.05), (0.25, 0.90), (0.15, 0.05), (0.30, 1.00), (0.10, 0.02)],
    [(0.10, 0.02), (0.50, 1.00), (0.20, 0.05), (0.50, 0.95), (0.10, 0.02)],
    [(0.10, 0.02), (0.15, 1.00), (0.10, 0.05), (0.15, 1.00), (0.10, 0.05), (0.15, 1.00), (0.10, 0.05), (0.25, 0.90), (0.10, 0.02)],
    [(0.12, 0.02), (0.40, 0.90), (0.15, 0.05), (0.20, 1.00), (0.10, 0.05), (0.40, 0.95), (0.13, 0.02)],
    [(0.10, 0.02), (0.20, 1.00), (0.25, 0.04), (0.20, 1.00), (0.25, 0.04), (0.30, 1.00), (0.10, 0.02)],
]


SAMPLE_RATE_HZ = 16000
JITTER = 0.02  # each utterance scales the speaker's frequencies by up to 1 +/- JITTER


@dataclass(frozen=True)
class CorpusSpec:
    num_speakers: int = 10
    takes_per_phrase: int = 4
    seed: int = 7

    def __post_init__(self):
        if self.seed < 0:
            raise DataError(f"--seed must be non-negative, not {self.seed}")
        if self.takes_per_phrase < 2:  # one enroll and one test take of phrase 3
            raise DataError(f"--takes must be at least 2, not {self.takes_per_phrase}")
        if self.num_speakers < 1:
            raise DataError(f"--speakers must be at least 1, not {self.num_speakers}")
        top_hz = speaker_voice(self.num_speakers - 1).resonance2_hz * (1.0 + JITTER)
        if top_hz >= SAMPLE_RATE_HZ / 2:  # it would alias
            raise DataError(f"--speakers {self.num_speakers} is too many: the last speaker's second resonance "
                            f"reaches {top_hz:g} Hz, past the {SAMPLE_RATE_HZ // 2} Hz Nyquist frequency")


@dataclass(frozen=True)
class SpeakerVoice:
    resonance1_hz: float
    resonance2_hz: float
    bandwidth1_hz: float
    bandwidth2_hz: float
    tone_hz: float


def speaker_voice(index: int) -> SpeakerVoice:
    """Well-separated source parameters on a per-speaker grid."""
    return SpeakerVoice(
        resonance1_hz=350.0 + 52.0 * index,
        resonance2_hz=1300.0 + 155.0 * index,
        bandwidth1_hz=90.0,
        bandwidth2_hz=130.0,
        tone_hz=95.0 + 14.0 * index,
    )


def _resonator(noise: np.ndarray, freq_hz: float, bandwidth_hz: float, rate: int) -> np.ndarray:
    r = np.exp(-np.pi * bandwidth_hz / rate)
    theta = 2.0 * np.pi * freq_hz / rate
    # the two-pole impulse response, cut where r**k < 1e-18, convolved over a power-of-two FFT
    k = np.arange(int(np.log(1e-18) / np.log(r)) + 1)
    response = (1.0 - r) * r**k * np.sin((k + 1) * theta) / np.sin(theta)
    size = 1 << (len(noise) + len(k) - 2).bit_length()
    filtered = np.fft.irfft(np.fft.rfft(noise, size) * np.fft.rfft(response, size), size)[: len(noise)]
    return filtered / max(np.max(np.abs(filtered)), 1e-9)


def _envelope(pattern, rate: int, rng: np.random.Generator) -> np.ndarray:
    pieces = []
    for duration_s, level in pattern:
        duration_s *= 1.0 + rng.uniform(-0.05, 0.05)
        level *= 1.0 + rng.uniform(-0.10, 0.10) if level > 0.1 else 1.0
        pieces.append(np.full(int(round(duration_s * rate)), level))
    env = np.concatenate(pieces)
    ramp = int(0.010 * rate)
    kernel = np.ones(ramp) / ramp
    return np.convolve(env, kernel, mode="same")


def synthesize_utterance(
    voice: SpeakerVoice, phrase_index: int, rate: int, rng: np.random.Generator
) -> AudioSignal:
    env = _envelope(PHRASE_ENVELOPES[phrase_index], rate, rng)
    n = len(env)
    noise = rng.standard_normal(n)
    jitter = lambda: 1.0 + rng.uniform(-JITTER, JITTER)
    source = 0.5 * _resonator(noise, voice.resonance1_hz * jitter(), voice.bandwidth1_hz, rate)
    source += 0.5 * _resonator(noise, voice.resonance2_hz * jitter(), voice.bandwidth2_hz, rate)
    t = np.arange(n) / rate
    tone = np.sin(2.0 * np.pi * voice.tone_hz * jitter() * t + rng.uniform(0, 2 * np.pi))
    samples = (0.7 * source + 0.3 * tone) * env
    samples += 1e-4 * rng.standard_normal(n)
    samples *= 0.6 / max(np.max(np.abs(samples)), 1e-9)
    return AudioSignal(samples=samples, sample_rate_hz=rate)


def _split_for(phrase: int, take: int, takes_per_phrase: int) -> str:
    if phrase <= 1:
        return "dnn-train"
    if phrase == 2:
        return "ubm-train"
    if phrase == 3:
        return "enroll" if take < takes_per_phrase // 2 else "test"
    return "test"


def generate_corpus(out_dir: str | Path, spec: CorpusSpec = CorpusSpec()) -> tuple[Path, Path]:
    """Write WAVs, manifest.tsv and trials.tsv; returns their paths."""
    out_dir = Path(out_dir)
    wav_dir = storage.make_dir(out_dir / "wavs")
    rng = np.random.default_rng(spec.seed)

    entries = []
    for s in range(spec.num_speakers):
        voice = speaker_voice(s)
        speaker_id = f"s{s:02d}"
        for p in range(len(PHRASE_ENVELOPES)):
            for take in range(spec.takes_per_phrase):
                utt_id = f"{speaker_id}_p{p}_t{take}"
                signal = synthesize_utterance(voice, p, SAMPLE_RATE_HZ, rng)
                write_wav(wav_dir / f"{utt_id}.wav", signal)
                entries.append(
                    ManifestEntry(
                        utterance_id=utt_id,
                        wav_path=wav_dir / f"{utt_id}.wav",
                        speaker_id=speaker_id,
                        phrase_id=f"p{p}",
                        split=_split_for(p, take, spec.takes_per_phrase),
                    )
                )
    manifest_path = out_dir / "manifest.tsv"
    write_manifest(manifest_path, entries)

    trials_path = out_dir / "trials.tsv"
    write_trials(trials_path, make_trials(entries))
    return manifest_path, trials_path


def make_trials(entries: list[ManifestEntry]) -> list[Trial]:
    """All model x test-utterance pairs, typed by speaker and phrase match."""
    model_speakers = sorted({e.speaker_id for e in entries if e.split == "enroll"})
    enroll_phrases = {
        speaker: {e.phrase_id for e in entries if e.split == "enroll" and e.speaker_id == speaker}
        for speaker in model_speakers
    }
    tests = [e for e in entries if e.split == "test"]
    trials = []
    for speaker in model_speakers:
        for test in tests:
            same_speaker = test.speaker_id == speaker
            same_phrase = test.phrase_id in enroll_phrases[speaker]
            if same_speaker and same_phrase:
                kind = "target"
            elif same_speaker:
                kind = "target-wrong"
            elif same_phrase:
                kind = "impostor-correct"
            else:
                kind = "impostor-wrong"
            trials.append(Trial(speaker, test.utterance_id, kind))
    return trials
