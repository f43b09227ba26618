"""End-to-end experiment orchestration.

One seed experiment = train the fine-tuning baseline, freeze the tuned
encoder its checkpoint records, cache its features at tau=1, build the
bonafide retrieval store, train the retrieval-augmented model, and score
the eval split. The ablation grid and the compression sweep reuse each
seed's baseline, cache and store; every tau is derived from the cached
tau=1 frames. Every model trained is one ``_train_and_score`` step, and
every sweep point one ``_score_eval``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import metrics, model, vecstore
from .atomic import write_text
from .corpus import LABEL_BONAFIDE, ManifestRecord
from .encoder import CacheIndex, EncoderConfig, extract_and_cache
from .model import TrainHyper
from .vecstore import StoreSet, speaker_consistency

ABLATION_VARIANTS = ("full", "no_rad", "no_extra_db", "just_difference")
TAU_SWEEP = (5, 10, 20)

EXPERIMENT_DB_SPLITS = frozenset({"train", "retrieval_extra"})


@dataclass
class SeedOutcome:
    seed: int
    baseline_ckpt: Path
    baseline_eer: float
    rad_ckpt: Path
    rad_eer: float
    tuned_cfg: EncoderConfig
    cache: CacheIndex
    store: StoreSet
    eval_scores_path: Path


def config_hash(items: dict) -> str:
    text = "\n".join(f"{k}={items[k]}" for k in sorted(items))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def write_run_manifest(out_dir, items: dict) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = config_hash(items)
    write_text(out_dir / "config_hash.txt", digest + "\n")
    lines = [f"{k}={items[k]}" for k in sorted(items)] + [f"config_hash={digest}"]
    write_text(out_dir / "run_manifest.txt", "\n".join(lines) + "\n")


def _score_eval(workdir, records, manifest_dir, kind, checkpoint, name, **retrieval) -> float:
    """Score the eval split, write scores/<name>.tsv and return the pooled EER;
    `retrieval` is a retrieval model's `store` and `cache`, and optionally `tau`."""
    eval_records = [r for r in records if r.split == "eval"]
    scores = model.score_dataset(kind, checkpoint, eval_records, manifest_dir, **retrieval)
    metrics.write_scores(Path(workdir) / "scores" / f"{name}.tsv", scores)
    return metrics.pooled_eer(scores).eer


def _train_and_score(
    workdir, records, manifest_dir, kind, encoder_cfg, hyper, name, *, mel_store=None, **retrieval
) -> tuple[Path, float]:
    """Train checkpoints/<name>.ckpt, then `_score_eval` it."""
    checkpoint = model.train_model(
        kind,
        records,
        manifest_dir,
        encoder_cfg,
        hyper,
        Path(workdir) / "checkpoints",
        run_name=name,
        mel_store=mel_store,
        **retrieval,
    ).checkpoint_path
    eer = _score_eval(workdir, records, manifest_dir, kind, checkpoint, name, **retrieval)
    return checkpoint, eer


def run_seed_experiment(
    workdir,
    records: list[ManifestRecord],
    manifest_dir,
    base_cfg: EncoderConfig,
    hyper: TrainHyper,
    seed: int,
    *,
    mel_store: dict | None = None,
) -> SeedOutcome:
    """Baseline then retrieval-augmented training for one seed."""
    workdir = Path(workdir)
    hyper = replace(hyper, seed=seed)
    baseline_ckpt, baseline_eer = _train_and_score(
        workdir,
        records,
        manifest_dir,
        "baseline",
        base_cfg,
        hyper,
        f"baseline_seed{seed}",
        mel_store=mel_store,
    )
    tuned_cfg = model.tuned_encoder_from_checkpoint(baseline_ckpt)
    cache = extract_and_cache(records, manifest_dir, tuned_cfg, 1, workdir / f"cache_seed{seed}")
    store, _ = vecstore.build_stores(
        records, cache, bonafide_only=True, splits=EXPERIMENT_DB_SPLITS
    )
    rad_ckpt, rad_eer = _train_and_score(
        workdir,
        records,
        manifest_dir,
        "radmfa",
        tuned_cfg,
        hyper,
        f"radmfa_seed{seed}",
        store=store,
        cache=cache,
    )
    return SeedOutcome(
        seed=seed,
        baseline_ckpt=baseline_ckpt,
        baseline_eer=baseline_eer,
        rad_ckpt=rad_ckpt,
        rad_eer=rad_eer,
        tuned_cfg=tuned_cfg,
        cache=cache,
        store=store,
        eval_scores_path=workdir / "scores" / f"radmfa_seed{seed}.tsv",
    )


def run_variant(
    workdir,
    records: list[ManifestRecord],
    manifest_dir,
    outcome: SeedOutcome,
    hyper: TrainHyper,
    variant: str,
) -> float:
    """Train/score one ablation variant reusing a seed's tuned features."""
    if variant == "full":
        return outcome.rad_eer
    if variant == "no_rad":
        return outcome.baseline_eer
    if variant == "no_extra_db":
        store, _ = vecstore.build_stores(
            records, outcome.cache, bonafide_only=True, splits={"train"}
        )
        kind = "radmfa"
    elif variant == "just_difference":
        store = outcome.store
        kind = "just_difference"
    else:
        raise ValueError(f"unknown variant {variant!r}")
    _, eer = _train_and_score(
        workdir,
        records,
        manifest_dir,
        kind,
        outcome.tuned_cfg,
        replace(hyper, seed=outcome.seed),
        f"{variant}_seed{outcome.seed}",
        store=store,
        cache=outcome.cache,
    )
    return eer


def ablation_grid(
    workdir,
    records: list[ManifestRecord],
    manifest_dir,
    base_cfg: EncoderConfig,
    hyper: TrainHyper,
    seeds,
) -> tuple[list[tuple[str, int, float]], list[tuple[int, int, float]]]:
    """Run every variant of ABLATION_VARIANTS and every tau of TAU_SWEEP for each seed.

    Returns (ablation rows, sweep rows); also writes ablation.csv and
    tau_sweep.csv under workdir.
    """
    workdir = Path(workdir)
    mel_store: dict = {}
    ablation_rows: list[tuple[str, int, float]] = []
    sweep_rows: list[tuple[int, int, float]] = []
    for seed in seeds:
        outcome = run_seed_experiment(
            workdir, records, manifest_dir, base_cfg, hyper, seed, mel_store=mel_store
        )
        for variant in ABLATION_VARIANTS:
            eer = run_variant(workdir, records, manifest_dir, outcome, hyper, variant)
            ablation_rows.append((variant, seed, eer))
        for tau in TAU_SWEEP:
            eer = score_at_tau(workdir, records, manifest_dir, outcome, tau)
            sweep_rows.append((tau, seed, eer))

    lines = ["variant,seed,pooled_eer"]
    lines += [f"{v},{s},{e:.9g}" for v, s, e in ablation_rows]
    write_text(workdir / "ablation.csv", "\n".join(lines) + "\n")
    lines = ["tau,seed,pooled_eer"]
    lines += [f"{t},{s},{e:.9g}" for t, s, e in sweep_rows]
    write_text(workdir / "tau_sweep.csv", "\n".join(lines) + "\n")
    return ablation_rows, sweep_rows


def score_at_tau(
    workdir,
    records: list[ManifestRecord],
    manifest_dir,
    outcome: SeedOutcome,
    tau: int,
) -> float:
    """Score the seed's trained model on features compressed at `tau`.

    The pooling layers are length-agnostic, so the checkpoint trained at
    the default compression scores features of any block length. The seed's
    tau=1 cache derives them, and its store serves retrieval unchanged
    because embeddings do not depend on the compression.
    """
    return _score_eval(
        workdir,
        records,
        manifest_dir,
        "radmfa",
        outcome.rad_ckpt,
        f"radmfa_seed{outcome.seed}_tau{tau}",
        store=outcome.store,
        cache=outcome.cache,
        tau=tau,
    )


@dataclass
class RetrievalReport:
    n_queries: int
    chance_rate: float
    per_layer_median: list[float]
    per_layer_mean_similarity: list[float]


def retrieval_report(
    store: StoreSet,
    cache: CacheIndex,
    records: list[ManifestRecord],
    *,
    k: int,
    n_queries: int = 50,
    seed: int = 0,
    query_split: str = "eval",
) -> RetrievalReport:
    """Quantify how often each layer retrieves the query's own speaker."""
    candidates = [
        r for r in records if r.split == query_split and r.label == LABEL_BONAFIDE
    ]
    rng = np.random.default_rng(np.random.SeedSequence((seed, 701)))
    order = rng.permutation(len(candidates))[:n_queries]
    queries = [candidates[i] for i in order]
    fractions: list[list[float | None]] = [[] for _ in range(store.n_layers)]
    sims: list[list[float]] = [[] for _ in range(store.n_layers)]
    for record in queries:
        result = store.query_topk(cache.load_embedding(record.utt_id), k, exclude={record.utt_id})
        per_layer = speaker_consistency(result, record.speaker_id)
        for layer, frac in enumerate(per_layer):
            if frac is not None:
                fractions[layer].append(frac)
            sims[layer].extend(h.similarity for h in result.hits[layer])
    chance = 1.0 / max(1, len(set(store.speaker_ids)))
    return RetrievalReport(
        n_queries=len(queries),
        chance_rate=chance,
        per_layer_median=[float(np.median(f)) if f else float("nan") for f in fractions],
        per_layer_mean_similarity=[float(np.mean(s)) if s else float("nan") for s in sims],
    )


def write_retrieval_report(path, report: RetrievalReport) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["layer,median_same_speaker,mean_similarity,chance_rate"]
    for layer, (med, sim) in enumerate(
        zip(report.per_layer_median, report.per_layer_mean_similarity)
    ):
        lines.append(f"{layer},{med:.9g},{sim:.9g},{report.chance_rate:.9g}")
    write_text(path, "\n".join(lines) + "\n")
