"""Per-layer vector databases over bonafide embeddings with exact top-K search.

One flat store per encoder layer; together they are one float32 (L, N, F)
array, whose shape gives L and F, and share one record list in insertion order.
Search is an exact cosine scan: similarities are ranked descending with
ties broken by ascending insertion index, so results are total-ordered and
reproducible. Zero-norm vectors are never retrieved; a non-finite vector
(built or loaded) or query is refused.

A persisted store is a directory holding ``records.tsv`` (``index utt_id
speaker_id`` per line, in insertion order) and ``vectors.radp``, one RADP
bundle (see ``radf``) with the (L, N, F) tensor ``vectors`` and meta
``fingerprint``. The bundle is written last, so a directory without it
holds no store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import write_text
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
    fingerprint: str
    utt_ids: list[str]
    speaker_ids: list[str]
    vectors: np.ndarray  # (L, N, F) float32
    _norms: np.ndarray = field(init=False, repr=False)  # (L, N) float64

    def __post_init__(self):
        # layer by layer: a float64 copy of the whole array would be twice its size
        self._norms = np.empty(self.vectors.shape[:2])
        for layer, vectors in enumerate(self.vectors):
            self._norms[layer] = np.linalg.norm(vectors.astype(np.float64), axis=1)
        bad = np.argwhere(~np.isfinite(self._norms))  # finite iff the float32 row is
        if bad.size:
            layer, row = bad[0]
            raise StoreBuildError(f"non-finite vector for {self.utt_ids[row]!r} in layer {layer}")

    @property
    def n_layers(self) -> int:
        return self.vectors.shape[0]

    @property
    def feat_dim(self) -> int:
        return self.vectors.shape[2]

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
    Each embedding is read once, into its row of the (L, N, F) array.
    """
    splits = set(splits)
    report = BuildReport()
    selected: list[ManifestRecord] = []
    for record in records:
        if record.split not in splits:
            report.n_skipped_split += 1
        elif bonafide_only and record.label != LABEL_BONAFIDE:
            report.n_skipped_label += 1
        elif record.utt_id not in cache.entries:
            raise StoreBuildError(f"no cached features for {record.utt_id!r}")
        else:
            selected.append(record)
    report.n_inserted = len(selected)
    vectors = np.empty((cache.n_layers, len(selected), cache.feat_dim), dtype=np.float32)
    for row, record in enumerate(selected):
        embedding = cache.load_embedding(record.utt_id)
        if embedding.shape != vectors.shape[::2]:  # a (1, F) row would broadcast silently
            raise StoreBuildError(f"{record.utt_id!r}: embedding shaped {embedding.shape}")
        vectors[:, row] = embedding
    store = StoreSet(
        fingerprint=cache.fingerprint,
        utt_ids=[r.utt_id for r in selected],
        speaker_ids=[r.speaker_id for r in selected],
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
    write_text(directory / "records.tsv", "".join(f"{i}\t{u}\t{s}\n" for i, (u, s) in rows))
    meta = {"fingerprint": store.fingerprint}
    write_tensors(directory / BUNDLE_NAME, {"vectors": store.vectors}, meta)


def load_stores(directory, expected_fingerprint: str | None = None) -> StoreSet:
    """Load a persisted StoreSet; optionally enforce the encoder fingerprint."""
    directory = Path(directory)
    path = directory / BUNDLE_NAME
    try:
        tensors, meta = read_tensors(path)
    except FileNotFoundError:
        raise StoreNotFoundError(f"no store at {directory}") from None
    if sorted(tensors) != ["vectors"]:  # the retired layout held one tensor per layer
        raise FormatError(f"{path}: tensors {sorted(tensors)}; rebuild the store with build-db")
    fingerprint = meta.get("fingerprint")
    if fingerprint is None:
        raise FormatError(f"{path}: malformed store metadata, no fingerprint")
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
    vectors = tensors["vectors"]
    if vectors.ndim != 3 or vectors.shape[1] != len(utt_ids):
        raise FormatError(f"{directory}: vectors {vectors.shape}, not (L, {len(utt_ids)}, F)")
    return StoreSet(fingerprint, utt_ids, speaker_ids, vectors)
