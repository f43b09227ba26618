"""Per-layer vector databases over bonafide embeddings with exact top-K search.

One flat store per encoder layer, all sharing the same record list in
insertion order. Search is an exact cosine scan: similarities are ranked
descending with ties broken by ascending insertion index, so results are
total-ordered and reproducible. Zero-norm vectors are never retrieved; a
non-finite vector (built or loaded) or query is refused.

A persisted store is a directory holding ``records.tsv`` (``index utt_id
speaker_id`` per line, in insertion order) and ``vectors.radp``, one RADP
bundle (see ``radf``) with an (N, F) tensor ``layer00``, ``layer01``, ...
per layer and meta ``fingerprint``, ``tau``, ``n_layers`` and ``feat_dim``.
The bundle is written last, so a directory without it holds no store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import LABEL_BONAFIDE, ManifestRecord
from .encoder import CacheIndex
from .errors import (
    FormatError, IncompatibilityError, QueryError, StoreBuildError, StoreNotFoundError
)
from .radf import read_tensors, write_tensors

DEFAULT_DB_SPLITS = frozenset({"train", "dev", "retrieval_extra"})

BUNDLE_NAME = "vectors.radp"


@dataclass
class RetrievalHit:
    layer: int
    rank: int  # 1-based
    similarity: float
    segment_ref: str
    speaker_id: str


@dataclass
class QueryResult:
    hits: list[list[RetrievalHit]]  # per layer
    truncated: bool


@dataclass
class BuildReport:
    n_inserted: int = 0
    n_skipped_label: int = 0
    n_skipped_split: int = 0


@dataclass
class StoreSet:
    n_layers: int
    feat_dim: int
    tau: int
    fingerprint: str
    utt_ids: list[str]
    speaker_ids: list[str]
    vectors: list[np.ndarray]  # per layer, (N, F) float32
    _norms: list[np.ndarray] = field(default_factory=list, repr=False)

    def __post_init__(self):
        if not self._norms:
            self._norms = [
                np.linalg.norm(v.astype(np.float64), axis=1) for v in self.vectors
            ]
        for layer, norms in enumerate(self._norms):
            bad = np.flatnonzero(~np.isfinite(norms))  # finite iff the float32 row is
            if bad.size:
                raise StoreBuildError(
                    f"non-finite vector for {self.utt_ids[bad[0]]!r} in layer {layer}"
                )

    @property
    def count(self) -> int:
        return len(self.utt_ids)

    def query_topk(self, query: np.ndarray, k: int, exclude=frozenset()) -> QueryResult:
        """Exact per-layer cosine top-k.

        query is (L, F); layer l is searched only against store l. Excluded
        utt_ids and zero-norm records never appear. Returns fewer than k
        hits per layer (and truncated=True) when candidates run out.
        """
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (self.n_layers, self.feat_dim):
            raise QueryError(
                f"query shape {query.shape} != ({self.n_layers}, {self.feat_dim})"
            )
        if k < 1:
            raise QueryError("k must be >= 1")
        if not np.isfinite(query).all():
            raise QueryError("query has non-finite values")
        exclude = set(exclude)
        keep = np.array([u not in exclude for u in self.utt_ids], dtype=bool)
        per_layer: list[list[RetrievalHit]] = []
        truncated = False
        for layer in range(self.n_layers):
            q = query[layer]
            q_norm = np.linalg.norm(q)
            norms = self._norms[layer]
            mask = keep & (norms > 0.0)
            candidates = np.nonzero(mask)[0]
            hits: list[RetrievalHit] = []
            if candidates.size:
                vectors = self.vectors[layer][candidates].astype(np.float64)
                if q_norm > 0.0:
                    sims = (vectors @ q) / (norms[candidates] * q_norm)
                else:
                    sims = np.zeros(candidates.size)
                order = np.lexsort((candidates, -sims))[: min(k, candidates.size)]
                for rank, pos in enumerate(order, start=1):
                    idx = int(candidates[pos])
                    hits.append(
                        RetrievalHit(
                            layer=layer,
                            rank=rank,
                            similarity=float(sims[pos]),
                            segment_ref=self.utt_ids[idx],
                            speaker_id=self.speaker_ids[idx],
                        )
                    )
            if len(hits) < k:
                truncated = True
            per_layer.append(hits)
        return QueryResult(hits=per_layer, truncated=truncated)


def build_stores(
    records: list[ManifestRecord],
    cache: CacheIndex,
    *,
    bonafide_only: bool = True,
    splits=DEFAULT_DB_SPLITS,
) -> tuple[StoreSet, BuildReport]:
    """Insert each selected record's per-layer embedding rows.

    The default filter keeps bonafide records from train/dev/retrieval_extra;
    spoofed records under the bonafide-only filter are skipped and counted.
    """
    splits = set(splits)
    report = BuildReport()
    utt_ids: list[str] = []
    speaker_ids: list[str] = []
    rows: list[np.ndarray] = []
    for record in records:
        if record.split not in splits:
            report.n_skipped_split += 1
            continue
        if bonafide_only and record.label != LABEL_BONAFIDE:
            report.n_skipped_label += 1
            continue
        if record.utt_id not in cache.entries:
            raise StoreBuildError(f"no cached features for {record.utt_id!r}")
        rows.append(cache.load_embedding(record.utt_id).astype(np.float32))
        utt_ids.append(record.utt_id)
        speaker_ids.append(record.speaker_id)
        report.n_inserted += 1

    if rows:
        stacked = np.stack(rows, axis=0)  # (N, L, F)
        vectors = [np.ascontiguousarray(stacked[:, l, :]) for l in range(cache.n_layers)]
    else:
        vectors = [
            np.zeros((0, cache.feat_dim), dtype=np.float32) for _ in range(cache.n_layers)
        ]
    store = StoreSet(
        n_layers=cache.n_layers,
        feat_dim=cache.feat_dim,
        tau=cache.tau,
        fingerprint=cache.fingerprint,
        utt_ids=utt_ids,
        speaker_ids=speaker_ids,
        vectors=vectors,
    )
    return store, report


def speaker_consistency(result: QueryResult, query_speaker: str) -> list[float | None]:
    """Per-layer fraction of hits from the query's speaker; None when empty."""
    fractions: list[float | None] = []
    for hits in result.hits:
        if not hits:
            fractions.append(None)
        else:
            same = sum(1 for h in hits if h.speaker_id == query_speaker)
            fractions.append(same / len(hits))
    return fractions


def persist_stores(store: StoreSet, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = enumerate(zip(store.utt_ids, store.speaker_ids))
    (directory / "records.tsv").write_text(
        "".join(f"{i}\t{u}\t{s}\n" for i, (u, s) in rows), encoding="utf-8"
    )
    meta = {key: str(getattr(store, key)) for key in ("fingerprint", "tau", "n_layers", "feat_dim")}
    layers = {f"layer{l:02d}": vectors for l, vectors in enumerate(store.vectors)}
    write_tensors(directory / BUNDLE_NAME, layers, meta)


def load_stores(directory, expected_fingerprint: str | None = None) -> StoreSet:
    """Load a persisted StoreSet; optionally enforce the encoder fingerprint."""
    directory = Path(directory)
    try:
        layers, meta = read_tensors(directory / BUNDLE_NAME)
    except FileNotFoundError:
        raise StoreNotFoundError(f"no store at {directory}") from None
    try:
        n_layers, feat_dim, tau = (int(meta[key]) for key in ("n_layers", "feat_dim", "tau"))
        fingerprint = meta["fingerprint"]
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{directory / BUNDLE_NAME}: malformed store metadata ({exc})") from None
    if expected_fingerprint is not None and fingerprint != expected_fingerprint:
        raise IncompatibilityError(
            f"store fingerprint {fingerprint} != expected {expected_fingerprint}"
        )
    utt_ids, speaker_ids = [], []
    try:
        for line in (directory / "records.tsv").read_text(encoding="utf-8").splitlines():
            _, utt, speaker = line.split("\t")
            utt_ids.append(utt)
            speaker_ids.append(speaker)
    except FileNotFoundError:
        raise FormatError(f"{directory}: incomplete store, no records.tsv") from None
    except ValueError:
        raise FormatError(f"{directory}: records.tsv lines need 3 tab-separated fields") from None
    names = [f"layer{l:02d}" for l in range(n_layers)]
    shape = (len(utt_ids), feat_dim)
    if sorted(layers) != names or any(layers[n].shape != shape for n in names):
        raise FormatError(f"{directory}: expected {n_layers} layers of shape {shape}")
    return StoreSet(
        n_layers=n_layers,
        feat_dim=feat_dim,
        tau=tau,
        fingerprint=fingerprint,
        utt_ids=utt_ids,
        speaker_ids=speaker_ids,
        vectors=[layers[n] for n in names],
    )
