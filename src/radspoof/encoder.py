"""Deterministic multi-layer feature encoder, temporal compression, and cache.

Layer 0 is a log-mel spectrogram (25 ms Hann window, 20 ms hop, triangular
mel filters over 0-8 kHz). Each further layer applies a fixed seeded
orthogonal mix followed by tanh, giving progressively more abstract
features. The trainable variant adds a per-layer scale and shift so the
stack can be tuned end to end and then frozen.

Two reductions operate on the (L, T', F) long feature:

  * temporal embedding: per-layer mean over frames, the retrieval key
  * time speedup: mean over consecutive frame blocks of length tau
    (the final block may be shorter and is averaged over its actual length)

The embedding does not depend on tau, so a cache extracted at tau=1 serves every tau.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import nn, radf
from .corpus import (
    SAMPLE_RATE,
    SEGMENT_SAMPLES,
    AudioSegment,
    ManifestRecord,
    load_segment,
)
from .errors import (
    CacheCorruptionError,
    ConfigurationError,
    FeatureLoadError,
    FormatError,
    IncompatibilityError,
    InvalidInputError,
)

WINDOW = 400  # 25 ms
HOP = 320  # 20 ms
N_FFT = 512
FMIN = 0.0
FMAX = 8000.0
LOG_FLOOR = 1e-6

ENCODER_KINDS = ("pseudo", "pseudo_trainable", "external")


@dataclass(frozen=True)
class EncoderConfig:
    kind: str = "pseudo"
    n_layers: int = 5
    feat_dim: int = 32
    seed: int = 0
    # pseudo_trainable only: per-layer scale/shift, each shaped (n_layers, feat_dim)
    scales: tuple[tuple[float, ...], ...] | None = None
    shifts: tuple[tuple[float, ...], ...] | None = None
    external_dir: str | None = None

    def validate(self) -> None:
        if self.kind not in ENCODER_KINDS:
            raise ConfigurationError(f"unknown encoder kind {self.kind!r}")
        if self.n_layers < 2:
            raise ConfigurationError("n_layers must be >= 2")
        if self.feat_dim < 8:
            raise ConfigurationError("feat_dim must be >= 8")
        if self.kind == "external" and not self.external_dir:
            raise ConfigurationError("external encoder needs external_dir")

    def scale_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(scales, shifts) as float64 arrays, identity defaults when unset."""
        if self.scales is None:
            scales = np.ones((self.n_layers, self.feat_dim))
        else:
            scales = np.asarray(self.scales, dtype=np.float64)
        if self.shifts is None:
            shifts = np.zeros((self.n_layers, self.feat_dim))
        else:
            shifts = np.asarray(self.shifts, dtype=np.float64)
        if scales.shape != (self.n_layers, self.feat_dim) or shifts.shape != scales.shape:
            raise ConfigurationError("trainable params must be (n_layers, feat_dim)")
        return scales, shifts

    def with_tuning(self, scales: np.ndarray, shifts: np.ndarray) -> "EncoderConfig":
        return replace(
            self,
            kind="pseudo_trainable",
            scales=tuple(tuple(float(v) for v in row) for row in np.asarray(scales)),
            shifts=tuple(tuple(float(v) for v in row) for row in np.asarray(shifts)),
        )


@dataclass
class LongFeature:
    values: np.ndarray  # (L, T', F) float32
    segment_ref: str


@dataclass
class ShortFeature:
    values: np.ndarray  # (L, T, F)
    tau: int | None
    segment_ref: str


@dataclass
class LayerEmbedding:
    values: np.ndarray  # (L, F)
    segment_ref: str


def frame_count(n_samples: int = SEGMENT_SAMPLES) -> int:
    return (n_samples - WINDOW) // HOP + 1


def _hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz) / 700.0)


def _mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=None)
def mel_filterbank(n_mels: int, n_fft: int = N_FFT, sr: int = SAMPLE_RATE) -> np.ndarray:
    """Triangular mel filters as an (n_bins, n_mels) matrix, peak 1; built
    once per geometry and shared read-only."""
    n_bins = n_fft // 2 + 1
    freqs = np.arange(n_bins) * (sr / n_fft)
    mel_points = np.linspace(_hz_to_mel(FMIN), _hz_to_mel(FMAX), n_mels + 2)
    hz_points = _mel_to_hz(mel_points)
    bank = np.zeros((n_bins, n_mels))
    for m in range(n_mels):
        left, centre, right = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        up = (freqs - left) / max(centre - left, 1e-9)
        down = (right - freqs) / max(right - centre, 1e-9)
        bank[:, m] = np.clip(np.minimum(up, down), 0.0, None)
    bank.flags.writeable = False
    return bank


def mel_frames(samples: np.ndarray, n_mels: int) -> np.ndarray:
    """Log-mel features, (T', n_mels) float64."""
    samples = np.asarray(samples, dtype=np.float64)
    n_frames = frame_count(len(samples))
    if n_frames < 1:
        raise InvalidInputError("input shorter than one analysis window")
    idx = np.arange(WINDOW)[None, :] + HOP * np.arange(n_frames)[:, None]
    frames = samples[idx] * np.hanning(WINDOW)[None, :]
    power = np.abs(np.fft.rfft(frames, n=N_FFT, axis=1)) ** 2
    return np.log(power @ mel_filterbank(n_mels) + LOG_FLOOR)


_mixer_cache: dict[tuple[int, int, int], np.ndarray] = {}


def layer_mixer(seed: int, layer: int, dim: int) -> np.ndarray:
    """Fixed orthogonal (dim, dim) matrix for one cascade layer."""
    key = (seed, layer, dim)
    if key not in _mixer_cache:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 7110, layer)))
        gauss = rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(gauss)
        _mixer_cache[key] = q * np.sign(np.diag(r))[None, :]
    return _mixer_cache[key]


def encode_long(segment: AudioSegment, cfg: EncoderConfig) -> LongFeature:
    """Full per-layer feature stack for one 4 s segment."""
    cfg.validate()
    if cfg.kind == "external":
        return _load_external(segment.utt_id, cfg)
    if len(segment.samples) != SEGMENT_SAMPLES:
        raise InvalidInputError(f"{segment.utt_id}: segment must have {SEGMENT_SAMPLES} samples")
    scales, shifts = cfg.scale_arrays()
    h = mel_frames(segment.samples, cfg.feat_dim)
    h = h * scales[0][None, :] + shifts[0][None, :]
    layers = [h]
    for l in range(1, cfg.n_layers):
        mixer = layer_mixer(cfg.seed, l, cfg.feat_dim)
        h = np.tanh(h @ mixer.T)
        h = h * scales[l][None, :] + shifts[l][None, :]
        layers.append(h)
    values = np.stack(layers, axis=0).astype(np.float32)
    return LongFeature(values=values, segment_ref=segment.utt_id)


def _load_external(utt_id: str, cfg: EncoderConfig) -> LongFeature:
    path = Path(cfg.external_dir) / f"{utt_id}.radf"
    if not path.exists():
        raise FeatureLoadError(f"external feature missing: {path}")
    kind, values = radf.read_feature(path)
    if kind != radf.KIND_LONG:
        raise FeatureLoadError(f"{path}: expected long-feature kind, got {kind}")
    if values.shape[0] != cfg.n_layers or values.shape[2] != cfg.feat_dim:
        raise FeatureLoadError(
            f"{path}: shape {values.shape} incompatible with L={cfg.n_layers} F={cfg.feat_dim}"
        )
    return LongFeature(values=values, segment_ref=utt_id)


def temporal_embed(feature: LongFeature) -> LayerEmbedding:
    """Per-layer mean over frames; the retrieval key."""
    values = np.asarray(feature.values, dtype=np.float64)
    if values.ndim != 3 or values.shape[1] < 1:
        raise InvalidInputError("long feature must be (L, T', F) with T' >= 1")
    return LayerEmbedding(values=values.mean(axis=1), segment_ref=feature.segment_ref)


def time_speedup(feature: LongFeature, tau: int) -> ShortFeature:
    """Mean over consecutive frame blocks of length tau; T = ceil(T'/tau)."""
    if tau < 1:
        raise ConfigurationError("tau must be >= 1")
    return ShortFeature(
        values=nn.block_mean(feature.values, tau, axis=1).data,
        tau=tau,
        segment_ref=feature.segment_ref,
    )


def encoder_fingerprint(cfg: EncoderConfig) -> str:
    """Digest identifying the feature geometry and any tuned parameters."""
    h = hashlib.sha256()
    h.update(f"kind={cfg.kind};L={cfg.n_layers};F={cfg.feat_dim};seed={cfg.seed}".encode())
    if cfg.kind == "external":
        h.update(f";dir={cfg.external_dir}".encode())
    if cfg.scales is not None or cfg.shifts is not None:
        scales, shifts = cfg.scale_arrays()
        h.update(scales.astype("<f8").tobytes())
        h.update(shifts.astype("<f8").tobytes())
    return h.hexdigest()[:16]


@dataclass
class CacheIndex:
    root: Path
    fingerprint: str
    tau: int
    n_layers: int
    feat_dim: int
    entries: dict[str, tuple[str, str]]  # utt_id -> (short path, embedding path)
    _tables: dict[int, tuple[dict[str, int], np.ndarray]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def _entry(self, utt_id: str) -> tuple[str, str]:
        try:
            return self.entries[utt_id]
        except KeyError:
            raise FeatureLoadError(f"{utt_id!r} is not in the cache at {self.root}") from None

    def short_path(self, utt_id: str) -> Path:
        return self.root / self._entry(utt_id)[0]

    def embedding_path(self, utt_id: str) -> Path:
        return self.root / self._entry(utt_id)[1]

    def load_short(self, utt_id: str, tau: int | None = None) -> ShortFeature:
        """Short feature at `tau`, by default the cache's own; a tau=1 cache
        serves any tau by block mean, any other cache only its own."""
        feature = load_feature(self.short_path(utt_id))
        feature.tau = self.tau
        if tau is None or tau == self.tau:
            return feature
        if self.tau != 1:
            raise IncompatibilityError(f"cache at {self.root} holds tau={self.tau}, not tau={tau}")
        return time_speedup(LongFeature(feature.values, feature.segment_ref), tau)

    def load_embedding(self, utt_id: str) -> LayerEmbedding:
        return load_feature(self.embedding_path(utt_id))

    def short_table(self, tau: int | None = None) -> tuple[dict[str, int], np.ndarray]:
        """(rows, table): `table` is one float32 (N, L, T, F) array holding every
        entry's short feature at `tau` (default: the cache's own), and `rows`
        maps each utt_id to its row. Read once per cache object and tau."""
        key = self.tau if tau is None else tau
        if key not in self._tables:
            rows = {utt_id: row for row, utt_id in enumerate(self.entries)}
            table = np.empty((0, self.n_layers, 0, self.feat_dim), dtype=np.float32)
            for utt_id, row in rows.items():
                values = self.load_short(utt_id, tau).values
                if row == 0:  # filled in place: a list of rows would double the peak
                    table = np.empty((len(rows),) + values.shape, dtype=np.float32)
                if values.shape != table.shape[1:]:
                    raise FeatureLoadError(
                        f"{utt_id!r}: short feature shape {values.shape} differs from "
                        f"{table.shape[1:]} in the cache at {self.root}"
                    )
                table[row] = values
            self._tables[key] = (rows, table)
        return self._tables[key]

    def save(self) -> None:
        meta = (
            f"fingerprint={self.fingerprint}\ntau={self.tau}\n"
            f"n_layers={self.n_layers}\nfeat_dim={self.feat_dim}\n"
        )
        (self.root / "meta.txt").write_text(meta, encoding="utf-8")
        lines = [f"{utt}\t{s}\t{e}" for utt, (s, e) in sorted(self.entries.items())]
        (self.root / "index.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, root) -> "CacheIndex":
        root = Path(root)
        meta_path = root / "meta.txt"
        if not meta_path.exists():
            raise FeatureLoadError(f"no cache at {root}")
        try:
            meta = dict(line.split("=", 1) for line in meta_path.read_text().splitlines() if line)
            tau, n_layers, feat_dim = (int(meta[key]) for key in ("tau", "n_layers", "feat_dim"))
            fingerprint = meta["fingerprint"]
            entries = {}
            for line in (root / "index.tsv").read_text().splitlines():
                if line:
                    utt, short, embed = line.split("\t")
                    entries[utt] = (short, embed)
        except FileNotFoundError:
            raise FormatError(f"{root}: incomplete cache, no index.tsv") from None
        except (KeyError, ValueError) as exc:
            raise FormatError(f"{root}: malformed cache meta.txt or index.tsv ({exc})") from None
        return cls(
            root=root,
            fingerprint=fingerprint,
            tau=tau,
            n_layers=n_layers,
            feat_dim=feat_dim,
            entries=entries,
        )


def _validate_cached(path: Path, kind: int) -> bool:
    """True if the file exists and passes full validation; raises on corruption."""
    if not path.exists():
        return False
    try:
        found_kind, _ = radf.read_feature(path)
    except Exception as exc:
        raise CacheCorruptionError(f"corrupt cache file {path}: {exc}") from exc
    if found_kind != kind:
        raise CacheCorruptionError(f"corrupt cache file {path}: wrong kind {found_kind}")
    return True


def extract_and_cache(
    records: list[ManifestRecord],
    manifest_dir,
    cfg: EncoderConfig,
    tau: int,
    cache_dir,
) -> CacheIndex:
    """Write short features and embeddings for every record; idempotent.

    Existing checksum-valid entries are skipped; corrupt files raise. The
    cache remembers the encoder fingerprint and refuses reuse with a
    different configuration.
    """
    cfg.validate()
    if tau < 1:
        raise ConfigurationError("tau must be >= 1")
    cache_dir = Path(cache_dir)
    fingerprint = encoder_fingerprint(cfg)
    entries: dict[str, tuple[str, str]] = {}  # earlier calls' entries stay indexed
    if (cache_dir / "meta.txt").exists():
        existing = CacheIndex.load(cache_dir)
        if existing.fingerprint != fingerprint or existing.tau != tau:
            raise IncompatibilityError(
                f"cache at {cache_dir} was built with a different encoder/tau; "
                "use a fresh directory"
            )
        entries = existing.entries
    (cache_dir / "short").mkdir(parents=True, exist_ok=True)
    (cache_dir / "embed").mkdir(parents=True, exist_ok=True)

    for record in records:
        short_rel = f"short/{record.utt_id}.radf"
        embed_rel = f"embed/{record.utt_id}.radf"
        short_path = cache_dir / short_rel
        embed_path = cache_dir / embed_rel
        have_short = _validate_cached(short_path, radf.KIND_SHORT)
        have_embed = _validate_cached(embed_path, radf.KIND_EMBEDDING)
        if not (have_short and have_embed):
            segment = load_segment(manifest_dir, record)
            long_feature = encode_long(segment, cfg)
            radf.write_feature(
                short_path, time_speedup(long_feature, tau).values, radf.KIND_SHORT
            )
            radf.write_feature(embed_path, temporal_embed(long_feature).values, radf.KIND_EMBEDDING)
        entries[record.utt_id] = (short_rel, embed_rel)

    index = CacheIndex(
        root=cache_dir,
        fingerprint=fingerprint,
        tau=tau,
        n_layers=cfg.n_layers,
        feat_dim=cfg.feat_dim,
        entries=entries,
    )
    index.save()
    return index


def load_feature(path):
    """Read any RADF file back into its feature dataclass."""
    kind, values = radf.read_feature(path)
    ref = Path(path).stem
    if kind == radf.KIND_LONG:
        return LongFeature(values=values, segment_ref=ref)
    if kind == radf.KIND_SHORT:
        return ShortFeature(values=values, tau=None, segment_ref=ref)
    return LayerEmbedding(values=values, segment_ref=ref)
