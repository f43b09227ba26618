"""Synthetic bonafide/spoof corpus generation, segmentation, and manifests.

Bonafide clips are per-speaker harmonic sources: a pitch-modulated pulse
train shaped by a speaker-specific formant envelope, with syllable-rate
amplitude modulation and a low noise floor. Spoof clips take the same
source through one artifact transform:

    phase_reset      zero the STFT phase every 10 ms (vocoder-buzz analog)
    envelope_smooth  moving-average of the magnitude spectrum
    quantize8        8-bit amplitude quantization

A segment is an ``AudioClip`` cut or repeat-padded to exactly 4 s.
Everything is a pure function of (config, seed): the same config produces
byte-identical sample streams.
"""

from __future__ import annotations

import warnings
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .atomic import write_text
from .errors import (
    AudioNotFoundError, ConfigurationError, FormatError, InvalidInputError, ManifestParseError,
    ValidationError,
)

SAMPLE_RATE = 16000
SEGMENT_SAMPLES = 64000  # 4.0 s at 16 kHz

LABEL_BONAFIDE = "bonafide"
LABEL_SPOOF = "spoof"

SPOOF_METHODS = ("phase_reset", "envelope_smooth", "quantize8")
SPLITS = ("train", "dev", "eval", "retrieval_extra")

_TARGET_RMS = 0.1
_NOISE_DB = -45.0
DURATION_RANGE = (2.5, 6.0)  # seconds, uniform per clip before segmentation
_PHASE_RESET_FRAME = 160  # samples: 10 ms
_ENVELOPE_SMOOTH_HZ = 150.0  # boxcar width over the magnitude spectrum


@dataclass
class AudioClip:
    """A labeled mono PCM clip at 16 kHz."""

    utt_id: str
    speaker_id: str
    label: str
    spoof_method: str | None
    samples: np.ndarray  # float32 in [-1, 1], at SAMPLE_RATE

    def validate(self) -> None:
        if not np.all(np.isfinite(self.samples)):
            raise InvalidInputError(f"{self.utt_id}: non-finite samples")
        if self.samples.size and (np.max(np.abs(self.samples)) > 1.0):
            raise InvalidInputError(f"{self.utt_id}: samples exceed [-1, 1]")
        if (self.label == LABEL_SPOOF) != (self.spoof_method is not None):
            raise InvalidInputError(f"{self.utt_id}: spoof_method present iff label is spoof")


@dataclass
class ManifestRecord:
    utt_id: str
    speaker_id: str
    label: str
    spoof_method: str | None
    audio_path: str
    split: str


@dataclass
class CorpusConfig:
    n_speakers: int = 4
    clips_per_speaker: int = 10
    spoof_fraction: float = 0.5
    seed: int = 0
    spoof_methods: tuple[str, ...] = SPOOF_METHODS
    # None puts every clip in "train". Counts must sum to the corpus size;
    # retrieval_extra clips are always bonafide.
    split_counts: dict[str, int] | None = None

    def validate(self) -> None:
        if self.n_speakers < 2:
            raise ConfigurationError("n_speakers must be >= 2")
        if self.clips_per_speaker < 1:
            raise ConfigurationError("clips_per_speaker must be >= 1")
        if not 0.0 <= self.spoof_fraction <= 1.0:
            raise ConfigurationError("spoof_fraction must be in [0, 1]")
        for name in self.spoof_methods:
            if name not in SPOOF_METHODS:
                raise ConfigurationError(f"unknown spoof method {name!r}")
        if not self.spoof_methods:
            raise ConfigurationError("spoof_methods must not be empty")
        if self.split_counts is not None:
            for split in self.split_counts:
                if split not in SPLITS:
                    raise ConfigurationError(f"unknown split {split!r}")
            total = self.n_speakers * self.clips_per_speaker
            if sum(self.split_counts.values()) != total:
                raise ConfigurationError(
                    f"split_counts sum {sum(self.split_counts.values())} != corpus size {total}"
                )


@dataclass
class _SpeakerProfile:
    f0: float
    formants: np.ndarray
    bandwidths: np.ndarray
    gains: np.ndarray
    tilt_knee: float


def _rng(*entropy: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _speaker_profile(seed: int, speaker_idx: int) -> _SpeakerProfile:
    rng = _rng(seed, 7001, speaker_idx)
    return _SpeakerProfile(
        f0=rng.uniform(95.0, 235.0),
        formants=np.array(
            [rng.uniform(350.0, 900.0), rng.uniform(950.0, 2400.0), rng.uniform(2500.0, 3600.0)]
        ),
        bandwidths=np.array(
            [rng.uniform(60.0, 160.0), rng.uniform(90.0, 260.0), rng.uniform(140.0, 380.0)]
        ),
        gains=rng.uniform(0.5, 1.0, size=3),
        tilt_knee=rng.uniform(1800.0, 4500.0),
    )


def _harmonic_clip(rng: np.random.Generator, profile: _SpeakerProfile, n: int) -> np.ndarray:
    """One bonafide-style waveform: formant-shaped pulse train plus noise."""
    t = np.arange(n) / SAMPLE_RATE
    f0 = profile.f0 * 2.0 ** rng.uniform(-0.06, 0.06)
    vib_rate = rng.uniform(4.5, 6.5)
    vib_phase = rng.uniform(0.0, 2.0 * np.pi)
    inst_f = f0 * (1.0 + 0.01 * np.sin(2.0 * np.pi * vib_rate * t + vib_phase))
    phase = np.cumsum(inst_f) / SAMPLE_RATE
    pulses = np.zeros(n)
    pulses[1:] = (np.floor(phase[1:]) > np.floor(phase[:-1])).astype(float)

    freqs = np.fft.rfftfreq(n, d=1.0 / SAMPLE_RATE)
    env = np.full_like(freqs, 0.03)
    for centre, bw, gain in zip(profile.formants, profile.bandwidths, profile.gains):
        env += gain / (1.0 + ((freqs - centre) / bw) ** 2)
    env /= 1.0 + (freqs / profile.tilt_knee) ** 2
    voiced = np.fft.irfft(np.fft.rfft(pulses) * env, n=n)

    am_rate = rng.uniform(2.0, 4.0)
    am_phase = rng.uniform(0.0, 2.0 * np.pi)
    voiced *= 1.0 + 0.35 * np.sin(2.0 * np.pi * am_rate * t + am_phase)

    voiced *= _TARGET_RMS / max(np.sqrt(np.mean(voiced**2)), 1e-12)
    voiced += rng.standard_normal(n) * (_TARGET_RMS * 10.0 ** (_NOISE_DB / 20.0))
    return voiced


def _normalize(x: np.ndarray) -> np.ndarray:
    x = x * (_TARGET_RMS / max(np.sqrt(np.mean(x**2)), 1e-12))
    peak = np.max(np.abs(x))
    if peak > 0.98:
        x = x * (0.98 / peak)
    return x


def _spoof_phase_reset(x: np.ndarray) -> np.ndarray:
    """Re-synthesize each 10 ms frame from magnitude only (phase zeroed)."""
    n = len(x)
    n_frames = -(-n // _PHASE_RESET_FRAME)
    padded = np.zeros(n_frames * _PHASE_RESET_FRAME)
    padded[:n] = x
    frames = padded.reshape(n_frames, _PHASE_RESET_FRAME)
    rebuilt = np.fft.irfft(np.abs(np.fft.rfft(frames, axis=1)), n=_PHASE_RESET_FRAME, axis=1)
    return _normalize(rebuilt.reshape(-1)[:n])


def _spoof_envelope_smooth(x: np.ndarray) -> np.ndarray:
    """Boxcar-smooth the whole-clip magnitude spectrum, keep the phase."""
    spectrum = np.fft.rfft(x)
    mag = np.abs(spectrum)
    width = max(3, int(round(_ENVELOPE_SMOOTH_HZ * len(x) / SAMPLE_RATE)) | 1)
    smoothed = np.convolve(mag, np.ones(width) / width, mode="same")
    safe = np.where(mag > 0.0, mag, 1.0)
    return _normalize(np.fft.irfft(spectrum * (smoothed / safe), n=len(x)))


def _spoof_quantize8(x: np.ndarray) -> np.ndarray:
    return np.round(x * 127.0) / 127.0


_SPOOF_TRANSFORMS = {
    "phase_reset": _spoof_phase_reset,
    "envelope_smooth": _spoof_envelope_smooth,
    "quantize8": _spoof_quantize8,
}


def _assign_plan(cfg: CorpusConfig) -> list[tuple[int, int, str, str, str | None]]:
    """Deterministic (speaker, clip, split, label, method) for every clip.

    Clips are enumerated round-robin over speakers so each split gets a
    near-balanced speaker mix; spoof labels are a seeded permutation within
    each split so methods and speakers mix evenly.
    """
    total = cfg.n_speakers * cfg.clips_per_speaker
    order = [(k % cfg.n_speakers, k // cfg.n_speakers) for k in range(total)]
    counts = cfg.split_counts if cfg.split_counts is not None else {"train": total}
    split_of: list[str] = []
    for split in SPLITS:
        split_of.extend([split] * counts.get(split, 0))

    plan: list[tuple[int, int, str, str, str | None]] = [
        (spk, clip, split_of[k], LABEL_BONAFIDE, None) for k, (spk, clip) in enumerate(order)
    ]
    for split in SPLITS:
        members = [k for k in range(total) if split_of[k] == split]
        if not members or split == "retrieval_extra":
            continue
        n_spoof = int(round(len(members) * cfg.spoof_fraction))
        rng = _rng(cfg.seed, 7002, zlib.crc32(split.encode()))
        chosen = sorted(rng.permutation(len(members))[:n_spoof].tolist())
        for rank, pos in enumerate(chosen):
            k = members[pos]
            spk, clip = order[k]
            method = cfg.spoof_methods[rank % len(cfg.spoof_methods)]
            plan[k] = (spk, clip, split, LABEL_SPOOF, method)
    return plan


def synthesize_corpus(cfg: CorpusConfig) -> tuple[list[AudioClip], list[ManifestRecord]]:
    """Generate the corpus in memory; audio paths are wav/<utt_id>.wav."""
    pairs = list(_synthesize(cfg))
    return [clip for clip, _ in pairs], [record for _, record in pairs]


def _synthesize(cfg: CorpusConfig):
    """Yield (clip, record) one clip at a time, so a caller need not hold them all."""
    cfg.validate()
    lo, hi = DURATION_RANGE
    profiles = [_speaker_profile(cfg.seed, s) for s in range(cfg.n_speakers)]
    for spk, clip_idx, split, label, method in _assign_plan(cfg):
        rng = _rng(cfg.seed, 7003, spk, clip_idx)
        n = int(round(rng.uniform(lo, hi) * SAMPLE_RATE))
        x = _harmonic_clip(rng, profiles[spk], n)
        x = _normalize(x)
        if label == LABEL_SPOOF:
            x = _SPOOF_TRANSFORMS[method](x)
        utt_id = f"s{spk:02d}c{clip_idx:03d}"
        speaker_id = f"spk{spk:02d}"
        clip = AudioClip(utt_id, speaker_id, label, method, x.astype(np.float32))
        clip.validate()
        yield clip, ManifestRecord(utt_id, speaker_id, label, method, f"wav/{utt_id}.wav", split)


def segment_clip(clip: AudioClip) -> AudioClip:
    """Cut to the first 4 s, or repeat the clip end-to-end up to 4 s."""
    n = len(clip.samples)
    if n == 0:
        raise InvalidInputError(f"{clip.utt_id}: empty clip")
    if n >= SEGMENT_SAMPLES:
        samples = clip.samples[:SEGMENT_SAMPLES]
    else:
        reps = -(-SEGMENT_SAMPLES // n)
        samples = np.tile(clip.samples, reps)[:SEGMENT_SAMPLES]
    return replace(clip, samples=np.ascontiguousarray(samples, dtype=np.float32))


def write_wav(path, samples: np.ndarray) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    wavfile.write(str(path), SAMPLE_RATE, np.asarray(samples, dtype=np.float32))


def read_wav(path) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # scipy only warns when the data chunk ends early
            warnings.filterwarnings(
                "error", "Reached EOF prematurely", wavfile.WavFileWarning
            )
            rate, samples = wavfile.read(str(path))
    except FileNotFoundError:
        raise AudioNotFoundError(f"no audio file at {path}") from None
    except Exception as exc:  # scipy reports bad bytes as ValueError, TypeError, struct.error...
        raise FormatError(f"{path}: unreadable WAV file ({exc})") from None
    if rate != SAMPLE_RATE:
        raise InvalidInputError(f"{path}: sample rate {rate}, expected {SAMPLE_RATE}")
    if samples.dtype == np.int16:
        samples = samples.astype(np.float32) / 32768.0
    elif samples.dtype != np.float32:
        raise InvalidInputError(f"{path}: unsupported sample format {samples.dtype}")
    if samples.ndim != 1:
        raise InvalidInputError(f"{path}: expected mono audio")
    return samples


def write_corpus(cfg: CorpusConfig, out_dir) -> tuple[list[ManifestRecord], Path]:
    """Synthesize and write WAVs plus manifest.tsv under out_dir, each WAV as
    soon as its clip is made."""
    out_dir = Path(out_dir)
    records = []
    for clip, record in _synthesize(cfg):
        write_wav(out_dir / record.audio_path, clip.samples)
        records.append(record)
    manifest_path = out_dir / "manifest.tsv"
    write_manifest(manifest_path, records)
    return records, manifest_path


def write_manifest(path, records: list[ManifestRecord]) -> None:
    seen: set[str] = set()
    for record in records:
        if record.utt_id in seen:
            raise ValidationError(f"duplicate utt_id {record.utt_id!r}")
        seen.add(record.utt_id)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    for r in records:
        lines.append(
            "\t".join(
                (r.utt_id, r.speaker_id, r.label, r.spoof_method or "-", r.audio_path, r.split)
            )
        )
    write_text(path, "\n".join(lines) + "\n")


def read_text_file(path) -> str:
    """A text file's contents: InvalidInputError when it cannot be read,
    FormatError when it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def read_manifest(path) -> list[ManifestRecord]:
    path = Path(path)
    records: list[ManifestRecord] = []
    seen: set[str] = set()
    for line_no, line in enumerate(read_text_file(path).splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 6:
            raise ManifestParseError(path, line_no, f"expected 6 fields, got {len(fields)}")
        utt_id, speaker_id, label, method, audio_path, split = fields
        # the cache names files after utt_ids, so one must be a plain file name
        if utt_id in ("", ".", "..") or "/" in utt_id or "\\" in utt_id or "\0" in utt_id:
            raise ManifestParseError(path, line_no, f"utt_id {utt_id!r} is not a file name")
        if label not in (LABEL_BONAFIDE, LABEL_SPOOF):
            raise ManifestParseError(path, line_no, f"unknown label {label!r}")
        if split not in SPLITS:
            raise ManifestParseError(path, line_no, f"unknown split {split!r}")
        if utt_id in seen:
            raise ValidationError(f"{path}:{line_no}: duplicate utt_id {utt_id!r}")
        seen.add(utt_id)
        records.append(
            ManifestRecord(utt_id, speaker_id, label, None if method == "-" else method,
                           audio_path, split)
        )
    return records


def load_segment(manifest_dir, record: ManifestRecord) -> AudioClip:
    """Read a record's WAV (relative paths resolve against the manifest dir)."""
    audio_path = Path(record.audio_path)
    if not audio_path.is_absolute():
        audio_path = Path(manifest_dir) / audio_path
    samples = read_wav(audio_path)
    clip = AudioClip(record.utt_id, record.speaker_id, record.label, record.spoof_method, samples)
    clip.validate()
    return segment_clip(clip)


def acceptance_corpus_config(seed: int = 11) -> CorpusConfig:
    """The desk-scale experiment corpus: 8 speakers, 800 clips, 4 splits."""
    return CorpusConfig(
        n_speakers=8,
        clips_per_speaker=100,
        spoof_fraction=0.5,
        seed=seed,
        split_counts={"train": 400, "dev": 100, "eval": 200, "retrieval_extra": 100},
    )
