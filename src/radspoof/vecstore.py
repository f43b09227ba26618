"""Per-layer vector databases over bonafide embeddings with exact top-K search.

One flat store per encoder layer; together they are one float32 (L, N, F)
array, whose shape gives L and F, and share one record list in insertion order.
Utt_ids are unique within a store; a store that repeats one is refused.
Search is an exact cosine top-K: similarities are ranked descending with
ties broken by ascending insertion index, so results are total-ordered and
reproducible. Zero-norm vectors are never retrieved; a non-finite vector
(built or loaded) or query is refused. A finite query of any magnitude is
ranked as its direction: each layer is first scaled, exactly, by a power of two.

Each layer is searched in two passes. A float32 screen scores every row
straight from the (L, N, F) array, and a per-row error bound turns each
screen value into an interval that holds the row's float64 similarity.
Only the rows whose interval still reaches the k-th largest lower bound are
rescored in float64, each row by the same arithmetic, so exact duplicates
tie bit for bit and the ascending-index rule decides between them.

A persisted store is a directory holding ``records.tsv`` (``index utt_id
speaker_id`` per line, in insertion order) and ``vectors.radp``, one RADP
bundle (see ``radf``) with the (L, N, F) tensor ``vectors`` and meta
``fingerprint``. The bundle is written last, so a directory without it
holds no store.
"""

from __future__ import annotations

from collections import Counter
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
    _valid: np.ndarray = field(init=False, repr=False)  # (L, N) bool, norm > 0
    _eps: np.ndarray = field(init=False, repr=False)  # (L, N) float64 screen bound
    _row: dict[str, int] = field(init=False, repr=False)  # utt_id -> row

    def __post_init__(self):
        self._row = dict(zip(self.utt_ids, range(len(self.utt_ids))))
        if len(self._row) < len(self.utt_ids):
            raise StoreBuildError(f"utt_id {_repeated(self.utt_ids)!r} is in more than one row")
        # layer by layer: a float64 copy of the whole array would be twice its size
        self._norms = np.empty(self.vectors.shape[:2])
        for layer, vectors in enumerate(self.vectors):
            self._norms[layer] = np.linalg.norm(vectors.astype(np.float64), axis=1)
        bad = np.argwhere(~np.isfinite(self._norms))  # finite iff the float32 row is
        if bad.size:
            layer, row = bad[0]
            raise StoreBuildError(f"non-finite vector for {self.utt_ids[row]!r} in layer {layer}")
        self._valid = self._norms > 0.0
        self._eps = _screen_bound(self._norms, self.feat_dim)

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
        utt_ids and zero-norm records never appear; excluded ids that are not
        in the store are ignored. Returns fewer than k hits per layer (and
        truncated=True) when candidates run out.
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
        if isinstance(exclude, str):  # set("u1") would exclude "u" and "1"
            raise QueryError(f"exclude must be a collection of utt_ids, not the str {exclude!r}")
        # each layer scaled by a power of two to a largest |q_j| in [0.5, 1), so q . q can
        # neither overflow nor underflow; exact, so cosines keep their bits, unless it
        # pushes a component below the normal range (2^1021 under the largest)
        query = np.ldexp(query, -np.frexp(np.abs(query).max(axis=1, keepdims=True))[1])
        excluded = [self._row[u] for u in exclude if u in self._row]
        per_layer: list[list[RetrievalHit]] = []
        truncated = False
        for layer in range(self.n_layers):
            candidate = self._valid[layer].copy()
            candidate[excluded] = False
            rows, sims = self._layer_topk(layer, query[layer], candidate, k)
            per_layer.append([
                RetrievalHit(
                    layer=layer,
                    rank=rank,
                    similarity=float(sim),
                    segment_ref=self.utt_ids[row],
                    speaker_id=self.speaker_ids[row],
                )
                for rank, (row, sim) in enumerate(zip(rows.tolist(), sims), start=1)
            ])
            truncated |= len(rows) < k
        return QueryResult(hits=per_layer, truncated=truncated)

    def _layer_topk(self, layer: int, q: np.ndarray, candidate: np.ndarray, k: int):
        """Rows and similarities of the first min(k, candidates) candidates.

        The screen value of row i is ``approx_i = (v_i . u) / |v_i|`` with
        ``u`` the unit query rounded to float32, and its float64 similarity
        lies within ``approx_i +- eps_i`` (see ``_screen_bound``). With
        ``floor`` the n-th largest lower bound, n candidates have similarity
        >= their lower bound >= floor, so the n-th largest similarity is
        >= floor too, and every row that reaches it, ties included, has an
        upper bound >= floor. Rescoring only those rows and ranking them by
        (-similarity, row) gives the exact top n. A screen value that is
        not finite (float32 overflow) bounds nothing: its row is rescored.
        """
        n = min(k, int(np.count_nonzero(candidate)))
        q_norm = np.linalg.norm(q)
        if n == 0 or q_norm == 0.0:  # a zero query scores 0 everywhere: first n by index
            return np.flatnonzero(candidate)[:n], np.zeros(n)
        vectors, norms, eps = self.vectors[layer], self._norms[layer], self._eps[layer]
        with np.errstate(all="ignore"):  # zero-norm rows give NaN; they are never candidates
            approx = (vectors @ (q / q_norm).astype(np.float32)) / norms
        unknown = ~np.isfinite(approx)
        lower = np.where(candidate & ~unknown, approx - eps, -np.inf)
        floor = np.partition(lower, lower.size - n)[lower.size - n]
        pool = np.flatnonzero(candidate & ((approx + eps >= floor) | unknown))
        sims = (vectors[pool].astype(np.float64) * q).sum(axis=1) / (norms[pool] * q_norm)
        order = np.lexsort((pool, -sims))[:n]
        return pool[order], sims[order]


def _screen_bound(norms: np.ndarray, feat_dim: int) -> np.ndarray:
    """Per-row bound on |float32 screen value - float64 similarity|.

    With u = q/|q| (|u| = 1) rounded to float32 as u', the screen computes
    fl32(v . u') / |v| over F terms. Rounding u costs |v . (u' - u)| <=
    2^-24 |v| (relative rounding of each component, Cauchy-Schwarz; a
    component that rounds to a subnormal adds at most 2^-150 |v| more). The
    float32 dot product, with or without FMA, errs by at most
    F 2^-24 sum|v_j u'_j| <= F 2^-24 |v| |u'| to first order, plus at most
    2^-150 per product or sum that lands in the subnormal range, which is
    under F 2^-149 over the 2F - 1 operations. Dividing by |v| gives
    (F + 1) 2^-24 + F 2^-149 / |v|; the extra 2^-24 covers the second-order
    terms and |u'| > 1, and the float64 similarity is itself within about
    F 2^-53 of the real cosine, so doubling the sum bounds the distance
    between the two computed values with room to spare. The derivation
    takes |q| as computed to be |q| to float64 accuracy, which the
    power-of-two scaling in ``query_topk`` guarantees. Zero-norm rows get an
    infinite bound; they are never candidates.
    """
    with np.errstate(divide="ignore"):
        return 2.0 * ((feat_dim + 2) * 2.0**-24 + feat_dim * 2.0**-149 / norms)


def _repeated(utt_ids: list[str]) -> str:
    """One utt_id that occurs more than once in ``utt_ids``."""
    return next(utt for utt, n in Counter(utt_ids).items() if n > 1)


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
    if len(set(utt_ids)) < len(utt_ids):
        raise FormatError(f"{directory}: records.tsv lists {_repeated(utt_ids)!r} more than once")
    vectors = tensors["vectors"]
    if vectors.ndim != 3 or vectors.shape[1] != len(utt_ids):
        raise FormatError(f"{directory}: vectors {vectors.shape}, not (L, {len(utt_ids)}, F)")
    return StoreSet(fingerprint, utt_ids, speaker_ids, vectors)
