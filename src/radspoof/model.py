"""Detection models: the attentive-fusion classifier, the trainable-encoder
baseline over it, and the retrieval-augmented variant.

The fusion classifier (``mfa_forward``) pools an (B, L, T, F) feature stack
over time per layer, projects each layer position, and pools over layers,
yielding a 4F representation per batch row.

The retrieval-augmented variant runs the query and its K retrieved
references through the same fusion module, pools the reference-minus-query
differences over the K axis, and classifies the pooled differences
concatenated with the query representation. The ``just_difference``
variant drops the query branch at the head.

Queries and references are gathered as groups of rows. When a runner is
built, each record it serves becomes one (1+K, L) group of rows in the
cache's short-feature table at the run's tau (``CacheIndex.short_table``,
read once per cache object and tau): the record's own row in every layer,
then the rows of the K references retrieved for it, once. Each batch takes
its (B, 1+K, L, T, F) features from that table with one fancy index. A
query given fewer than k references is an error, never a silently smaller
K. The baseline gathers its batches the same way, from one float64
(N, T', F) log-mel table that its runner fills once, one WAV read per
record it trains or scores on.

Each model has exactly one batched forward: ``radmfa_forward`` (both
retrieval heads, selected by ``RadMfaParams.just_difference``) and
``baseline_forward``; a single query is a batch of one. Training, scoring
and ``radspoof gradcheck`` all run these same functions.

Scores are logit(bonafide) - logit(spoof); higher means more bonafide.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .atomic import write_text
from .corpus import LABEL_BONAFIDE, SEGMENT_SAMPLES, ManifestRecord, load_segment
from .encoder import (
    CacheIndex, EncoderConfig, cascade, encoder_fingerprint, frame_count, mel_frames
)
from .errors import (
    ConfigurationError, FeatureLoadError, FormatError, IncompatibilityError, InvalidInputError
)
from .metrics import ScoreRecord, pooled_eer
from .vecstore import QueryResult, StoreSet

CLASS_SPOOF = 0
CLASS_BONAFIDE = 1

MODEL_KINDS = ("baseline", "radmfa", "just_difference")

SCORE_BATCH = 32  # rows per scoring forward


# --- parameter containers ---------------------------------------------------


@dataclass
class MfaParams:
    time_pools: list[nn.AspParams]  # per layer, F -> 2F
    merge_w: nn.Tensor  # (2F, 2F), shared across layer positions
    merge_b: nn.Tensor
    layer_pool: nn.AspParams  # 2F -> 4F

    @property
    def n_layers(self) -> int:
        return len(self.time_pools)

    @property
    def feat_dim(self) -> int:
        return self.time_pools[0].attn_w.data.shape[0]

    def tensors(self) -> dict[str, nn.Tensor]:
        out: dict[str, nn.Tensor] = {}
        for l, pool in enumerate(self.time_pools):
            out.update(pool.tensors(f"mfa.time_pool.{l}"))
        out["mfa.merge_w"] = self.merge_w
        out["mfa.merge_b"] = self.merge_b
        out.update(self.layer_pool.tensors("mfa.layer_pool"))
        return out


@dataclass
class BaselineParams:
    scales: list[nn.Tensor]  # per layer, (F,)
    shifts: list[nn.Tensor]
    mfa: MfaParams
    head_w: nn.Tensor  # (4F, 2)
    head_b: nn.Tensor

    def tensors(self) -> dict[str, nn.Tensor]:
        out = {}
        for l, (scale, shift) in enumerate(zip(self.scales, self.shifts)):
            out[f"encoder.scale.{l}"] = scale
            out[f"encoder.shift.{l}"] = shift
        out.update(self.mfa.tensors())
        out["head_w"] = self.head_w
        out["head_b"] = self.head_b
        return out


@dataclass
class RadMfaParams:
    mfa: MfaParams  # shared between query and references
    sample_pool: nn.AspParams  # 4F -> 8F over the K axis
    head_w: nn.Tensor  # (12F, 2), or (8F, 2) for just_difference
    head_b: nn.Tensor
    just_difference: bool = False

    def tensors(self) -> dict[str, nn.Tensor]:
        out = self.mfa.tensors()
        out.update(self.sample_pool.tensors("sample_pool"))
        out["head_w"] = self.head_w
        out["head_b"] = self.head_b
        return out


def init_mfa(n_layers: int, feat_dim: int, rng: np.random.Generator) -> MfaParams:
    return MfaParams(
        time_pools=[nn.init_asp(feat_dim, rng) for _ in range(n_layers)],
        merge_w=nn.parameter(nn.glorot(rng, 2 * feat_dim, 2 * feat_dim)),
        merge_b=nn.parameter(np.zeros(2 * feat_dim)),
        layer_pool=nn.init_asp(2 * feat_dim, rng),
    )


def init_baseline(n_layers: int, feat_dim: int, rng: np.random.Generator) -> BaselineParams:
    return BaselineParams(
        scales=[nn.parameter(np.ones(feat_dim)) for _ in range(n_layers)],
        shifts=[nn.parameter(np.zeros(feat_dim)) for _ in range(n_layers)],
        mfa=init_mfa(n_layers, feat_dim, rng),
        head_w=nn.parameter(nn.glorot(rng, 4 * feat_dim, 2)),
        head_b=nn.parameter(np.zeros(2)),
    )


def init_radmfa(
    n_layers: int, feat_dim: int, rng: np.random.Generator, just_difference: bool = False
) -> RadMfaParams:
    head_in = (8 if just_difference else 12) * feat_dim
    return RadMfaParams(
        mfa=init_mfa(n_layers, feat_dim, rng),
        sample_pool=nn.init_asp(4 * feat_dim, rng),
        head_w=nn.parameter(nn.glorot(rng, head_in, 2)),
        head_b=nn.parameter(np.zeros(2)),
        just_difference=just_difference,
    )


# --- forward passes ----------------------------------------------------------


def mfa_forward(features, params: MfaParams) -> nn.Tensor:
    """(B, L, T, F) -> (B, 4F)."""
    x = features if isinstance(features, nn.Tensor) else nn.constant(features)
    if x.data.ndim != 4:
        raise InvalidInputError(f"expected (B, L, T, F), got shape {x.data.shape}")
    n_layers = x.data.shape[1]
    if n_layers != params.n_layers or x.data.shape[3] != params.feat_dim:
        raise InvalidInputError(
            f"feature stack {x.data.shape} does not match params "
            f"(L={params.n_layers}, F={params.feat_dim})"
        )
    pooled = [
        nn.asp(nn.index_axis(x, l, axis=1), params.time_pools[l]) for l in range(n_layers)
    ]
    stacked = nn.stack(pooled, axis=1)  # (B, L, 2F)
    merged = nn.affine(stacked, params.merge_w, params.merge_b)
    return nn.asp(merged, params.layer_pool)  # (B, 4F)


def radmfa_forward(groups, params: RadMfaParams) -> nn.Tensor:
    """Groups (B, 1+K, L, T, F), each a query followed by its K references
    -> logits (B, 2).

    One shared fusion pass runs over all B*(1+K) rows, so a reference whose
    features equal its query's differs from it by exactly zero; the
    differences are then pooled per query over K. An array or a Tensor is
    accepted, so gradients can reach the input.
    """
    groups = groups if isinstance(groups, nn.Tensor) else nn.constant(groups)
    if groups.data.ndim != 5 or groups.data.shape[1] < 2:
        raise InvalidInputError(
            f"expected (B, 1+K, L, T, F) groups with K >= 1, got shape {groups.data.shape}"
        )
    n_queries, group_size = groups.data.shape[:2]
    k = group_size - 1
    flat = nn.reshape(groups, (n_queries * group_size,) + groups.data.shape[2:])
    reprs = mfa_forward(flat, params.mfa)  # (B*(1+K), 4F)
    grouped = nn.reshape(reprs, (n_queries, group_size, reprs.data.shape[-1]))
    query_repr = nn.narrow(grouped, axis=1, start=0, length=1)  # (B, 1, 4F)
    ref_reprs = nn.narrow(grouped, axis=1, start=1, length=k)  # (B, K, 4F)
    diffs = nn.sub(ref_reprs, query_repr)
    pooled_diff = nn.asp(diffs, params.sample_pool)  # (B, 8F)
    flat_query = nn.reshape(query_repr, (n_queries, reprs.data.shape[-1]))
    head_in = pooled_diff if params.just_difference else nn.concat(
        [pooled_diff, flat_query], axis=-1
    )
    return nn.affine(head_in, params.head_w, params.head_b)


def baseline_forward(
    mels: np.ndarray, params: BaselineParams, encoder_cfg: EncoderConfig, tau: int
) -> nn.Tensor:
    """Log-mel (B, T', F) -> logits (B, 2) through the trainable encoder stack."""
    stack = cascade(mels, params.scales, params.shifts, encoder_cfg)  # (B, L, T', F)
    short = nn.block_mean(stack, tau, axis=2)
    repr_ = mfa_forward(short, params.mfa)
    return nn.affine(repr_, params.head_w, params.head_b)


# --- reference assembly -------------------------------------------------------


def assemble_references(result: QueryResult, rows: dict[str, int], k: int) -> np.ndarray:
    """(K, L) short-table rows: entry [r, l] is the row of layer l's rank-r hit."""
    try:
        return np.array(
            [[rows[hits[rank].segment_ref] for hits in result.hits] for rank in range(k)],
            dtype=np.intp,
        )
    except KeyError as exc:
        raise FeatureLoadError(f"reference {exc} is not in the cache") from None


def retrieve_references(
    utt_id: str, store: StoreSet, cache: CacheIndex, rows: dict[str, int], k: int
) -> np.ndarray:
    """Rows of the top-k references for one cached query, always excluding
    the query itself; InvalidInputError when a layer finds fewer than k."""
    result = store.query_topk(cache.load_embedding(utt_id), k, exclude={utt_id})
    found = min(len(hits) for hits in result.hits)
    if found < k:
        raise InvalidInputError(f"{utt_id!r}: retrieval found {found} references, need k={k}")
    return assemble_references(result, rows, k)


# --- training ----------------------------------------------------------------


@dataclass
class TrainHyper:
    lr: float = 3e-4
    batch_size: int = 32
    epochs: int = 30
    seed: int = 0
    k_refs: int = 10
    tau: int = 10

    def validate(self) -> None:
        for name in ("batch_size", "epochs", "k_refs", "tau"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not np.isfinite(self.lr) or self.lr < 0:  # lr=0 freezes a run
            raise ConfigurationError(f"lr must be finite and >= 0, got {self.lr}")


@dataclass
class TrainResult:
    checkpoint_path: Path
    log_path: Path
    best_dev_eer: float
    best_epoch: int


def _labels(records: list[ManifestRecord]) -> np.ndarray:
    return np.array(
        [CLASS_BONAFIDE if r.label == LABEL_BONAFIDE else CLASS_SPOOF for r in records]
    )


def _scores_from_logits(records, logits: np.ndarray) -> list[ScoreRecord]:
    return [
        ScoreRecord(r.utt_id, float(z[CLASS_BONAFIDE] - z[CLASS_SPOOF]), r.label)
        for r, z in zip(records, logits)
    ]


class _BaselineRunner:
    def __init__(self, records, manifest_dir, encoder_cfg, hyper):
        """Reads each of `records` once, into its row of one float64
        (N, T', F) log-mel table that every batch gathers from."""
        self.encoder_cfg = encoder_cfg
        self.hyper = hyper
        self.rows = {r.utt_id: row for row, r in enumerate(records)}
        shape = (len(records), frame_count(SEGMENT_SAMPLES), encoder_cfg.feat_dim)
        self.mels = np.empty(shape)  # filled in place: a list of rows would double the peak
        for row, record in enumerate(records):
            samples = load_segment(manifest_dir, record).samples
            self.mels[row] = mel_frames(samples, encoder_cfg.feat_dim)
        rng = np.random.default_rng(np.random.SeedSequence((hyper.seed, 501)))
        self.params = init_baseline(encoder_cfg.n_layers, encoder_cfg.feat_dim, rng)
        self.param_set = nn.ParamSet(self.params.tensors())

    def logits(self, batch_records) -> nn.Tensor:
        mels = self.mels[[self.rows[r.utt_id] for r in batch_records]]  # (B, T', F)
        return baseline_forward(mels, self.params, self.encoder_cfg, self.hyper.tau)


class _RadRunner:
    def __init__(self, records, store, cache, hyper, just_difference):
        """Retrieves each of `records` once, into its (1+K, L) group of
        short-table rows: its own row in every layer, then its K references'
        rows. Every batch gathers its groups from the table with one index."""
        if store is None or cache is None:
            raise ConfigurationError("retrieval-augmented models need a store and a cache")
        if store.fingerprint != cache.fingerprint:
            raise IncompatibilityError("store and cache were built from different encoders")
        rows, self.table = cache.short_table(hyper.tau)
        self.groups = {}
        for record in records:
            # retrieval first: it names a query the cache lacks (FeatureLoadError)
            refs = retrieve_references(record.utt_id, store, cache, rows, hyper.k_refs)
            own = np.full((1, cache.n_layers), rows[record.utt_id], dtype=np.intp)
            self.groups[record.utt_id] = np.concatenate([own, refs])  # (1+K, L)
        rng = np.random.default_rng(np.random.SeedSequence((hyper.seed, 502)))
        self.params = init_radmfa(
            cache.n_layers, cache.feat_dim, rng, just_difference=just_difference
        )
        self.param_set = nn.ParamSet(self.params.tensors())

    def logits(self, batch_records) -> nn.Tensor:
        groups = np.stack([self.groups[r.utt_id] for r in batch_records])  # (B, 1+K, L)
        features = self.table[groups, np.arange(self.table.shape[1])]  # (B, 1+K, L, T, F)
        return radmfa_forward(features.astype(np.float64), self.params)


def _runner(kind, records, manifest_dir, encoder_cfg, hyper, store, cache):
    """The runner that trains or scores `kind` on exactly `records`."""
    if kind == "baseline":
        return _BaselineRunner(records, manifest_dir, encoder_cfg, hyper)
    return _RadRunner(records, store, cache, hyper, kind == "just_difference")


def _scores(runner, records, batch_size) -> list[ScoreRecord]:
    logits = [
        runner.logits(records[start : start + batch_size]).data
        for start in range(0, len(records), batch_size)
    ]
    return _scores_from_logits(records, np.concatenate(logits, axis=0))


def train_model(
    kind: str,
    records: list[ManifestRecord],
    manifest_dir,
    encoder_cfg: EncoderConfig,
    hyper: TrainHyper,
    out_dir,
    *,
    store: StoreSet | None = None,
    cache: CacheIndex | None = None,
    run_name: str = "model",
) -> TrainResult:
    """Deterministic training loop with per-epoch dev EER and best-checkpoint
    selection. Retrieval during training always excludes the query's own id.
    """
    if kind not in MODEL_KINDS:
        raise ConfigurationError(f"unknown model kind {kind!r}")
    hyper.validate()
    train_records = [r for r in records if r.split == "train"]
    dev_records = [r for r in records if r.split == "dev"]
    if not train_records or not dev_records:
        raise ConfigurationError("need non-empty train and dev splits")

    runner = _runner(
        kind, train_records + dev_records, manifest_dir, encoder_cfg, hyper, store, cache
    )

    shuffle_rng = np.random.default_rng(np.random.SeedSequence((hyper.seed, 503)))
    log_lines = []
    best = None  # (eer, epoch, arrays)
    for epoch in range(1, hyper.epochs + 1):
        order = shuffle_rng.permutation(len(train_records))
        epoch_loss = 0.0
        for start in range(0, len(order), hyper.batch_size):
            batch = [train_records[i] for i in order[start : start + hyper.batch_size]]
            runner.param_set.zero_grad()
            logits = runner.logits(batch)
            loss = nn.softmax_xent(logits, _labels(batch))
            loss.backward()
            runner.param_set.adam_step(hyper.lr)
            epoch_loss += float(loss.data) * len(batch)
        epoch_loss /= len(train_records)
        dev_eer = pooled_eer(_scores(runner, dev_records, hyper.batch_size)).eer
        log_lines.append(f"{epoch}\t{epoch_loss:.9g}\t{dev_eer:.9g}")
        if best is None or dev_eer < best[0]:
            best = (dev_eer, epoch, runner.param_set.clone_arrays())

    best_eer, best_epoch, best_arrays = best
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {
        "kind": kind,
        "n_layers": str(runner.params.mfa.n_layers),  # a retrieval model's from its cache
        "feat_dim": str(runner.params.mfa.feat_dim),
        "tau": str(hyper.tau),
        "k_refs": str(hyper.k_refs),
        "seed": str(hyper.seed),
        "best_epoch": str(best_epoch),
        "fingerprint": cache.fingerprint if cache is not None else encoder_fingerprint(encoder_cfg),
        "encoder_seed": str(encoder_cfg.seed),
    }
    checkpoint_path = out_dir / f"{run_name}.ckpt"
    nn.save_checkpoint(checkpoint_path, best_arrays, meta)
    log_path = out_dir / f"{run_name}.log"
    write_text(log_path, "\n".join(log_lines) + "\n")
    return TrainResult(
        checkpoint_path=checkpoint_path,
        log_path=log_path,
        best_dev_eer=best_eer,
        best_epoch=best_epoch,
    )


# --- scoring -------------------------------------------------------------------

# the checkpoint meta keys scoring reads, with their types
_CHECKPOINT_META = dict(
    kind=str, fingerprint=str, n_layers=int, feat_dim=int, tau=int, k_refs=int, encoder_seed=int
)


def _load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Checkpoint tensors and typed meta; FormatError for a missing or bad key."""
    arrays, meta = nn.load_checkpoint(path)
    try:
        return arrays, {key: parse(meta[key]) for key, parse in _CHECKPOINT_META.items()}
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: malformed checkpoint meta ({exc})") from None


def _encoder_of(meta: dict) -> EncoderConfig:
    """The untuned encoder a checkpoint's meta records."""
    return EncoderConfig(meta["n_layers"], meta["feat_dim"], meta["encoder_seed"])


def tuned_encoder_from_checkpoint(checkpoint_path) -> EncoderConfig:
    """The tuned encoder a baseline checkpoint trained, wholly from the file:
    the geometry and mixer seed from its meta, the per-layer scales and shifts
    from its tensors."""
    arrays, meta = _load_checkpoint(checkpoint_path)
    if meta["kind"] != "baseline":
        raise IncompatibilityError("only baseline checkpoints carry encoder tuning")
    params = init_baseline(meta["n_layers"], meta["feat_dim"], np.random.default_rng(0))
    nn.ParamSet(params.tensors()).load_arrays(arrays)
    return _encoder_of(meta).with_tuning(
        [t.data for t in params.scales], [t.data for t in params.shifts]
    )


def score_dataset(
    kind: str,
    checkpoint_path,
    records: list[ManifestRecord],
    manifest_dir,
    *,
    store: StoreSet | None = None,
    cache: CacheIndex | None = None,
    k_refs: int | None = None,
    tau: int | None = None,
) -> list[ScoreRecord]:
    """Score records with a trained checkpoint; deterministic. `k_refs` and
    `tau` default to the checkpoint's.

    A baseline runs the encoder its checkpoint records (geometry and mixer
    seed from the meta, tuning from the tensors); a retrieval model needs the
    `store` and `cache` its checkpoint was trained on."""
    arrays, meta = _load_checkpoint(checkpoint_path)
    if meta["kind"] != kind:
        raise IncompatibilityError(f"checkpoint is kind {meta['kind']}, requested {kind}")
    hyper = TrainHyper(
        k_refs=k_refs if k_refs is not None else meta["k_refs"],
        tau=tau if tau is not None else meta["tau"],
    )
    if not records:
        raise InvalidInputError("no records to score")
    if kind != "baseline" and cache is not None and meta["fingerprint"] != cache.fingerprint:
        raise IncompatibilityError("checkpoint was trained on features from a different encoder")
    runner = _runner(kind, records, manifest_dir, _encoder_of(meta), hyper, store, cache)
    runner.param_set.load_arrays(arrays)
    for tensor in runner.param_set.tensors.values():  # scoring never calls backward: no tape
        tensor.requires_grad = False
    return _scores(runner, records, SCORE_BATCH)
