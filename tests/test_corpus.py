import numpy as np
import pytest

from radspoof import corpus
from radspoof.corpus import (
    AudioClip,
    CorpusConfig,
    ManifestRecord,
    read_manifest,
    segment_clip,
    synthesize_corpus,
    write_manifest,
)
from radspoof.metrics import read_scores
from radspoof.errors import (
    AudioNotFoundError,
    ConfigurationError,
    FormatError,
    InvalidInputError,
    ManifestParseError,
    ValidationError,
)


def small_config(**overrides):
    base = dict(n_speakers=4, clips_per_speaker=10, spoof_fraction=0.5, seed=7)
    base.update(overrides)
    return CorpusConfig(**base)


def test_counts_forced_by_config():
    clips, records = synthesize_corpus(small_config())
    assert len(clips) == 40
    assert sum(1 for c in clips if c.label == "spoof") == 20
    assert len({c.speaker_id for c in clips}) == 4


def test_determinism_bitwise():
    clips_a, _ = synthesize_corpus(small_config())
    clips_b, _ = synthesize_corpus(small_config())
    for a, b in zip(clips_a, clips_b):
        assert a.utt_id == b.utt_id
        assert a.samples.tobytes() == b.samples.tobytes()


def test_different_seed_differs():
    clips_a, _ = synthesize_corpus(small_config())
    clips_b, _ = synthesize_corpus(small_config(seed=8))
    assert clips_a[0].samples.tobytes() != clips_b[0].samples.tobytes()


def test_quantized_clips_have_few_distinct_values():
    cfg = small_config(spoof_methods=("quantize8",))
    clips, _ = synthesize_corpus(cfg)
    spoofed = [c for c in clips if c.label == "spoof"]
    assert spoofed
    for clip in spoofed:
        assert len(np.unique(clip.samples)) <= 256


def test_phase_reset_concentrates_energy_at_frame_starts():
    # zero-phase resynthesis piles energy onto each 10 ms boundary
    clips, _ = synthesize_corpus(small_config(spoof_methods=("phase_reset",)))
    for clip in clips:
        x = clip.samples.astype(np.float64)
        frame = 160
        n_frames = len(x) // frame
        frames = x[: n_frames * frame].reshape(n_frames, frame)
        boundary = np.mean(np.abs(frames[:, 0]))
        overall = np.mean(np.abs(frames))
        if clip.label == "spoof":
            assert boundary > 4.0 * overall
        else:
            assert boundary < 4.0 * overall


def test_envelope_smoothing_flattens_spectrum():
    # harmonic peak-to-mean contrast of the magnitude spectrum drops
    def contrast(samples):
        mag = np.abs(np.fft.rfft(samples.astype(np.float64)))
        return np.max(mag) / np.mean(mag)

    cfg = small_config(spoof_methods=("envelope_smooth",))
    clips, _ = synthesize_corpus(cfg)
    by_speaker = {}
    for clip in clips:
        by_speaker.setdefault(clip.speaker_id, {}).setdefault(clip.label, []).append(clip)
    compared = 0
    for groups in by_speaker.values():
        if "spoof" not in groups or "bonafide" not in groups:
            continue
        bona = np.median([contrast(c.samples) for c in groups["bonafide"]])
        spoofed = np.median([contrast(c.samples) for c in groups["spoof"]])
        assert spoofed < bona
        compared += 1
    assert compared > 0


def test_every_spoof_clip_carries_its_method():
    clips, _ = synthesize_corpus(small_config())
    for clip in clips:
        if clip.label == "spoof":
            assert clip.spoof_method in corpus.SPOOF_METHODS
        else:
            assert clip.spoof_method is None


def test_samples_finite_and_in_range():
    clips, _ = synthesize_corpus(small_config())
    for clip in clips:
        clip.validate()


def test_bad_configs_rejected():
    with pytest.raises(ConfigurationError):
        synthesize_corpus(small_config(n_speakers=1))
    with pytest.raises(ConfigurationError):
        synthesize_corpus(small_config(spoof_methods=("not_a_method",)))
    with pytest.raises(ConfigurationError):
        synthesize_corpus(small_config(spoof_fraction=1.5))


def test_split_counts_assignment():
    cfg = small_config(
        n_speakers=4,
        clips_per_speaker=20,
        split_counts={"train": 40, "dev": 10, "eval": 20, "retrieval_extra": 10},
    )
    _, records = synthesize_corpus(cfg)
    by_split = {}
    for r in records:
        by_split.setdefault(r.split, []).append(r)
    assert {k: len(v) for k, v in by_split.items()} == {
        "train": 40, "dev": 10, "eval": 20, "retrieval_extra": 10
    }
    assert all(r.label == "bonafide" for r in by_split["retrieval_extra"])
    assert sum(1 for r in by_split["train"] if r.label == "spoof") == 20


# --- segmentation -------------------------------------------------------------


def _clip_of(n):
    rng = np.random.default_rng(3)
    return AudioClip("u", "spk", "bonafide", None,
                     rng.uniform(-0.5, 0.5, n).astype(np.float32))


def test_long_clip_truncated():
    clip = _clip_of(96000)
    seg = segment_clip(clip)
    assert np.array_equal(seg.samples, clip.samples[:64000])


def test_short_clip_repeat_padded():
    clip = _clip_of(24000)
    seg = segment_clip(clip)
    expected = np.concatenate([clip.samples, clip.samples, clip.samples[:16000]])
    assert np.array_equal(seg.samples, expected)


def test_exact_length_unchanged():
    clip = _clip_of(64000)
    seg = segment_clip(clip)
    assert np.array_equal(seg.samples, clip.samples)


def test_segment_idempotent():
    seg = segment_clip(_clip_of(30000))
    again = segment_clip(seg)
    assert np.array_equal(again.samples, seg.samples)


def test_empty_clip_rejected():
    with pytest.raises(InvalidInputError):
        segment_clip(_clip_of(0))


@pytest.mark.parametrize("n", [1, 100, 63999, 64000, 64001, 200000])
def test_segment_always_64000(n):
    assert len(segment_clip(_clip_of(n)).samples) == 64000


# --- manifest I/O ---------------------------------------------------------------


def test_manifest_roundtrip(tmp_path):
    _, records = synthesize_corpus(small_config())
    path = tmp_path / "manifest.tsv"
    write_manifest(path, records)
    assert read_manifest(path) == records


def test_manifest_five_fields_is_parse_error(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("u1\tspk\tbonafide\t-\twav/u1.wav\ttrain\nu2\tspk\tbonafide\t-\twav/u2.wav\n")
    with pytest.raises(ManifestParseError) as err:
        read_manifest(path)
    assert "2" in str(err.value)


def test_manifest_duplicate_id_rejected(tmp_path):
    records = [
        ManifestRecord("u1", "spk", "bonafide", None, "wav/u1.wav", "train"),
        ManifestRecord("u1", "spk", "spoof", "quantize8", "wav/u1b.wav", "train"),
    ]
    with pytest.raises(ValidationError):
        write_manifest(tmp_path / "m.tsv", records)
    path = tmp_path / "dup.tsv"
    path.write_text(
        "u1\tspk\tbonafide\t-\twav/u1.wav\ttrain\nu1\tspk\tspoof\tquantize8\tw.wav\ttrain\n"
    )
    with pytest.raises(ValidationError):
        read_manifest(path)


@pytest.mark.parametrize("reader", [read_manifest, read_scores], ids=["manifest", "scores"])
def test_missing_or_non_utf8_text_file_is_error(tmp_path, reader):
    with pytest.raises(InvalidInputError, match="missing.tsv"):
        reader(tmp_path / "missing.tsv")
    path = tmp_path / "bad.tsv"
    path.write_bytes(b"u1\tspk\xff\tbonafide\n")
    with pytest.raises(FormatError, match="UTF-8"):
        reader(path)


def test_wav_roundtrip_bitexact(tmp_path):
    clips, _ = synthesize_corpus(small_config(n_speakers=2, clips_per_speaker=1))
    path = tmp_path / "a.wav"
    corpus.write_wav(path, clips[0].samples)
    loaded = corpus.read_wav(path)
    assert np.array_equal(loaded, clips[0].samples)


def test_write_corpus_and_load_segment(tmp_path):
    cfg = small_config(n_speakers=2, clips_per_speaker=2)
    records, manifest_path = corpus.write_corpus(cfg, tmp_path)
    loaded = read_manifest(manifest_path)
    assert loaded == records
    seg = corpus.load_segment(tmp_path, records[0])
    assert len(seg.samples) == 64000
    seg.validate()


def test_read_wav_missing_file_is_audio_not_found(tmp_path):
    with pytest.raises(AudioNotFoundError) as err:
        corpus.read_wav(tmp_path / "nope.wav")
    assert isinstance(err.value, FileNotFoundError)


@pytest.mark.parametrize("blob", [b"", b"not a wav file", b"RIFF\x10\x00\x00\x00WAVEfmt "])
def test_read_wav_unparseable_file_is_format_error(tmp_path, blob):
    path = tmp_path / "bad.wav"
    path.write_bytes(blob)
    with pytest.raises(FormatError):
        corpus.read_wav(path)


@pytest.mark.parametrize("bad_sample", [np.nan, np.inf, -np.inf, 1.5])
def test_load_segment_rejects_invalid_samples(tmp_path, bad_sample):
    samples = np.zeros(16000, dtype=np.float32)
    samples[123] = bad_sample
    corpus.write_wav(tmp_path / "wav" / "u0.wav", samples)
    record = ManifestRecord("u0", "spk0", "bonafide", None, "wav/u0.wav", "train")
    with pytest.raises(InvalidInputError):
        corpus.load_segment(tmp_path, record)
