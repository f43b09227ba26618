"""Deterministic multi-layer feature encoder, temporal compression, and cache.

Layer 0 is a log-mel spectrogram (25 ms Hann window, 20 ms hop, triangular
mel filters over 0-8 kHz). Each further layer applies a fixed seeded
orthogonal mix followed by tanh, giving progressively more abstract
features. Every layer ends in a per-layer scale and shift, the identity
unless the config sets them ("tuned"): the baseline tunes them end to end,
and the frozen tuned stack feeds both the retrieval stores and the
classifier. ``cascade`` is the one implementation of this stack: extraction
runs it over arrays, and the baseline over its parameter Tensors.

Features are plain float32 arrays. Two reductions operate on the (L, T', F)
long feature:

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
from .atomic import replacing_path, write_text
from .corpus import (
    SAMPLE_RATE,
    SEGMENT_SAMPLES,
    AudioClip,
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

@dataclass(frozen=True)
class EncoderConfig:
    n_layers: int = 5
    feat_dim: int = 32
    seed: int = 0
    # tuning: per-layer scale/shift, each shaped (n_layers, feat_dim); identity when unset
    scales: tuple[tuple[float, ...], ...] | None = None
    shifts: tuple[tuple[float, ...], ...] | None = None

    def validate(self) -> None:
        if self.n_layers < 2:
            raise ConfigurationError("n_layers must be >= 2")
        if self.feat_dim < 8:
            raise ConfigurationError("feat_dim must be >= 8")

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
            scales=tuple(tuple(float(v) for v in row) for row in np.asarray(scales)),
            shifts=tuple(tuple(float(v) for v in row) for row in np.asarray(shifts)),
        )


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


def cascade(mels, scales, shifts, cfg: EncoderConfig) -> nn.Tensor:
    """The encoder stack over log-mel frames: (..., T', F) -> (..., L, T', F).

    Row l of `scales` and `shifts` is layer l's affine; rows may be arrays
    (extraction) or parameter Tensors (the baseline tunes them end to end).
    """
    layers = [nn.add(nn.mul(mels, scales[0]), shifts[0])]
    for l in range(1, cfg.n_layers):
        mixed = nn.tanh(nn.affine(layers[-1], layer_mixer(cfg.seed, l, cfg.feat_dim).T))
        layers.append(nn.add(nn.mul(mixed, scales[l]), shifts[l]))
    return nn.stack(layers, axis=-3)


def encode_long(segment: AudioClip, cfg: EncoderConfig) -> np.ndarray:
    """Full per-layer feature stack for one 4 s segment, (L, T', F) float32."""
    cfg.validate()
    if len(segment.samples) != SEGMENT_SAMPLES:
        raise InvalidInputError(f"{segment.utt_id}: segment must have {SEGMENT_SAMPLES} samples")
    mels = mel_frames(segment.samples, cfg.feat_dim)
    return cascade(mels, *cfg.scale_arrays(), cfg).data.astype(np.float32)


def temporal_embed(long_feature: np.ndarray) -> np.ndarray:
    """(L, T', F) -> (L, F) float64, the per-layer mean over frames; the retrieval key."""
    values = np.asarray(long_feature, dtype=np.float64)
    if values.ndim != 3 or values.shape[1] < 1:
        raise InvalidInputError("long feature must be (L, T', F) with T' >= 1")
    return values.mean(axis=1)


def time_speedup(long_feature: np.ndarray, tau: int) -> np.ndarray:
    """(L, T', F) -> (L, T, F), the mean over consecutive frame blocks of
    length tau; T = ceil(T'/tau)."""
    if tau < 1:
        raise ConfigurationError("tau must be >= 1")
    return nn.block_mean(long_feature, tau, axis=1).data


def encoder_fingerprint(cfg: EncoderConfig) -> str:
    """Digest identifying the feature geometry and any tuned parameters."""
    h = hashlib.sha256()
    # the "kind=pseudo_trainable" prefix is constant: the tuned caches, stores
    # and checkpoints written while the config still named a kind hashed this
    # same text, so their fingerprints stay valid
    h.update(f"kind=pseudo_trainable;L={cfg.n_layers};F={cfg.feat_dim};seed={cfg.seed}".encode())
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

    def load_short(self, utt_id: str, tau: int | None = None) -> np.ndarray:
        """(L, T, F) short feature at `tau`, by default the cache's own; a tau=1
        cache serves any tau by block mean, any other cache only its own."""
        values = _read_cached(self.short_path(utt_id), radf.KIND_SHORT)
        if tau is None or tau == self.tau:
            return values
        if self.tau != 1:
            raise IncompatibilityError(f"cache at {self.root} holds tau={self.tau}, not tau={tau}")
        return time_speedup(values, tau)

    def load_embedding(self, utt_id: str) -> np.ndarray:
        """(L, F) embedding, the retrieval key."""
        return _read_cached(self.embedding_path(utt_id), radf.KIND_EMBEDDING)

    def short_table(self, tau: int | None = None) -> tuple[dict[str, int], np.ndarray]:
        """(rows, table): `table` is one float32 (N, L, T, F) array holding every
        entry's short feature at `tau` (default: the cache's own), and `rows`
        maps each utt_id to its row. Read once per cache object and tau."""
        key = self.tau if tau is None else tau
        if key not in self._tables:
            rows = {utt_id: row for row, utt_id in enumerate(self.entries)}
            table = np.empty((0, self.n_layers, 0, self.feat_dim), dtype=np.float32)
            for utt_id, row in rows.items():
                values = self.load_short(utt_id, tau)
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
        write_text(self.root / "meta.txt", meta)
        lines = [f"{utt}\t{s}\t{e}" for utt, (s, e) in sorted(self.entries.items())]
        write_text(self.root / "index.tsv", "\n".join(lines) + "\n")

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


def _read_cached(path: Path, kind: int) -> np.ndarray:
    """The values of a cache file of `kind`; CacheCorruptionError when it is
    missing, unreadable, fails validation or holds another kind."""
    try:
        found_kind, values = radf.read_feature(path)
    except (OSError, FormatError) as exc:
        raise CacheCorruptionError(f"corrupt cache file {path}: {exc}") from None
    if found_kind != kind:
        raise CacheCorruptionError(f"corrupt cache file {path}: wrong kind {found_kind}")
    return values


def extract_and_cache(
    records: list[ManifestRecord],
    manifest_dir,
    cfg: EncoderConfig,
    tau: int,
    cache_dir,
) -> CacheIndex:
    """Write short features and embeddings for every record; idempotent.

    Existing checksum-valid entries are skipped; corrupt files raise. Each
    entry file is written under a temp name and renamed into place, so a
    run killed partway leaves whole entry files or none, and a re-run
    completes the cache. The cache remembers the encoder fingerprint and
    refuses reuse with a different configuration.
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
        n_cached = 0
        for path, kind in ((short_path, radf.KIND_SHORT), (embed_path, radf.KIND_EMBEDDING)):
            if path.exists():  # a corrupt entry raises, never gets overwritten
                _read_cached(path, kind)
                n_cached += 1
        if n_cached < 2:
            segment = load_segment(manifest_dir, record)
            long_feature = encode_long(segment, cfg)
            with replacing_path(short_path) as temp:
                radf.write_feature(temp, time_speedup(long_feature, tau), radf.KIND_SHORT)
            with replacing_path(embed_path) as temp:
                radf.write_feature(temp, temporal_embed(long_feature), radf.KIND_EMBEDDING)
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
