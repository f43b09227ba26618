"""Command-line pipeline driver.

Subcommands: synth, extract, build-db, retrieve, train, eval, ablate,
gradcheck. Flags override values from an optional key=value config file.
Exit codes: 0 success, 1 failed check, 2 usage error.

Every artifact directory receives config_hash.txt and run_manifest.txt so
a run can be reproduced byte-for-byte from its logged configuration.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import metrics, model, nn, pipeline, vecstore
from .corpus import CorpusConfig, read_manifest, write_corpus
from .encoder import CacheIndex, EncoderConfig, extract_and_cache
from .errors import ConfigurationError, RadspoofError
from .model import TrainHyper

_CONFIG_KEYS = {
    "seed": int,
    "n_speakers": int,
    "clips_per_speaker": int,
    "spoof_fraction": float,
    "splits": str,
    "tau": int,
    "k": int,
    "lr": float,
    "batch": int,
    "epochs": int,
    "layers": int,
    "dim": int,
    "encoder_seed": int,
}


def _read_config_file(path) -> dict:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc.strerror}") from None
    values = {}
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{line_no}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigurationError(f"{path}:{line_no}: unknown config key {key!r}")
        values[key] = _parse_value(_CONFIG_KEYS[key], value, f"{path}:{line_no}: {key}")
    return values


def _parse_value(cast, text: str, what: str):
    try:
        return cast(text)
    except ValueError:
        raise ConfigurationError(f"{what}: expected {cast.__name__}, got {text!r}") from None


def _setting(args, config: dict, key: str, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    return config.get(key, default)


def _parse_split_counts(text: str) -> dict[str, int]:
    counts = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        counts[name.strip()] = _parse_value(int, value, f"--splits {part!r}")
    return counts


def _encoder_config(args, config) -> EncoderConfig:
    return EncoderConfig(
        n_layers=_setting(args, config, "layers", 5),
        feat_dim=_setting(args, config, "dim", 32),
        seed=_setting(args, config, "encoder_seed", 0),
    )


def _add_common(parser):
    parser.add_argument("--config", help="key=value defaults file")


def _cmd_synth(args, config) -> int:
    splits = _setting(args, config, "splits", None)
    cfg = CorpusConfig(
        n_speakers=_setting(args, config, "n_speakers", 4),
        clips_per_speaker=_setting(args, config, "clips_per_speaker", 10),
        spoof_fraction=_setting(args, config, "spoof_fraction", 0.5),
        seed=_setting(args, config, "seed", 0),
        split_counts=_parse_split_counts(splits) if splits else None,
    )
    records, manifest_path = write_corpus(cfg, args.out)
    pipeline.write_run_manifest(
        args.out,
        {
            "command": "synth",
            "seed": cfg.seed,
            "n_speakers": cfg.n_speakers,
            "clips_per_speaker": cfg.clips_per_speaker,
            "spoof_fraction": cfg.spoof_fraction,
            "splits": splits or "train",
        },
    )
    print(f"wrote {len(records)} clips and {manifest_path}")
    return 0


def _cmd_extract(args, config) -> int:
    records = read_manifest(args.manifest)
    cfg = _encoder_config(args, config)
    if args.tuned_from:
        cfg = model.tuned_encoder_from_checkpoint(args.tuned_from, cfg)
    tau = _setting(args, config, "tau", 10)
    index = extract_and_cache(records, Path(args.manifest).parent, cfg, tau, args.cache)
    pipeline.write_run_manifest(
        args.cache,
        {
            "command": "extract",
            "manifest": args.manifest,
            "tau": tau,
            "fingerprint": index.fingerprint,
        },
    )
    print(f"cached {len(index.entries)} segments at tau={tau}")
    return 0


def _cmd_build_db(args, config) -> int:
    records = read_manifest(args.manifest)
    cache = CacheIndex.load(args.cache)
    splits = set(args.splits.split(",")) if args.splits else vecstore.DEFAULT_DB_SPLITS
    store, report = vecstore.build_stores(
        records, cache, bonafide_only=not args.include_spoof, splits=splits
    )
    vecstore.persist_stores(store, args.store)
    pipeline.write_run_manifest(
        args.store,
        {
            "command": "build-db",
            "manifest": args.manifest,
            "splits": ",".join(sorted(splits)),
            "bonafide_only": not args.include_spoof,
            "fingerprint": store.fingerprint,
        },
    )
    print(
        f"inserted {report.n_inserted} records per layer "
        f"(skipped {report.n_skipped_label} spoof, {report.n_skipped_split} off-split)"
    )
    return 0


def _cmd_retrieve(args, config) -> int:
    records = read_manifest(args.manifest)
    cache = CacheIndex.load(args.cache)
    store = vecstore.load_stores(args.store, expected_fingerprint=cache.fingerprint)
    k = _setting(args, config, "k", 10)
    if args.utt:
        result = store.query_topk(cache.load_embedding(args.utt), k, exclude={args.utt})
        speaker = next((r.speaker_id for r in records if r.utt_id == args.utt), "?")
        fractions = vecstore.speaker_consistency(result, speaker)
        for layer, hits in enumerate(result.hits):
            frac = fractions[layer]
            frac_text = "n/a" if frac is None else f"{frac:.2f}"
            print(f"layer {layer} (same-speaker {frac_text}):")
            for hit in hits:
                print(
                    f"  rank {hit.rank:2d} sim {hit.similarity:+.6f} "
                    f"{hit.segment_ref} [{hit.speaker_id}]"
                )
        return 0
    report = pipeline.retrieval_report(
        store,
        cache,
        records,
        k=k,
        n_queries=args.queries,
        seed=_setting(args, config, "seed", 0),
        query_split=args.split,
    )
    out = Path(args.out) if args.out else Path(args.store) / "retrieval_report.csv"
    pipeline.write_retrieval_report(out, report)
    for layer, med in enumerate(report.per_layer_median):
        print(
            f"layer {layer}: median same-speaker {med:.3f} "
            f"(chance {report.chance_rate:.3f})"
        )
    print(f"report written to {out}")
    return 0


def _hyper(args, config) -> TrainHyper:
    return TrainHyper(
        lr=_setting(args, config, "lr", 3e-4),
        batch_size=_setting(args, config, "batch", 32),
        epochs=_setting(args, config, "epochs", 30),
        seed=_setting(args, config, "seed", 0),
        k_refs=_setting(args, config, "k", 10),
        tau=_setting(args, config, "tau", 10),
    )


def _cmd_train(args, config) -> int:
    records = read_manifest(args.manifest)
    manifest_dir = Path(args.manifest).parent
    hyper = _hyper(args, config)
    encoder_cfg = _encoder_config(args, config)
    store = cache = None
    if args.kind != "baseline":
        if not args.cache or not args.store:
            print("error: --cache and --store are required for retrieval models",
                  file=sys.stderr)
            return 2
        cache = CacheIndex.load(args.cache)
        store = vecstore.load_stores(args.store, expected_fingerprint=cache.fingerprint)
        encoder_cfg = replace(encoder_cfg, n_layers=cache.n_layers, feat_dim=cache.feat_dim)
    result = model.train_model(
        args.kind,
        records,
        manifest_dir,
        encoder_cfg,
        hyper,
        args.out,
        store=store,
        cache=cache,
        run_name=args.name,
    )
    pipeline.write_run_manifest(
        args.out,
        {
            "command": "train",
            "kind": args.kind,
            "manifest": args.manifest,
            "seed": hyper.seed,
            "lr": hyper.lr,
            "batch": hyper.batch_size,
            "epochs": hyper.epochs,
            "tau": hyper.tau,
            "k": hyper.k_refs,
        },
    )
    print(
        f"trained {args.kind}: best dev EER {result.best_dev_eer:.4f} "
        f"at epoch {result.best_epoch}; checkpoint {result.checkpoint_path}"
    )
    return 0


def _cmd_eval(args, config) -> int:
    records = [r for r in read_manifest(args.manifest) if r.split == args.split]
    manifest_dir = Path(args.manifest).parent
    store = cache = None
    encoder_cfg = None  # baseline scoring rebuilds the encoder from checkpoint meta
    if args.kind != "baseline":
        if not args.cache or not args.store:
            print("error: --cache and --store are required for retrieval models",
                  file=sys.stderr)
            return 2
        cache = CacheIndex.load(args.cache)
        store = vecstore.load_stores(args.store, expected_fingerprint=cache.fingerprint)
    scores = model.score_dataset(
        args.kind,
        args.checkpoint,
        records,
        manifest_dir,
        encoder_cfg=encoder_cfg,
        store=store,
        cache=cache,
        k_refs=getattr(args, "k", None),
    )
    metrics.write_scores(args.out, scores)
    result = metrics.pooled_eer(scores)
    if args.det:
        metrics.write_det_csv(args.det, scores)
    pipeline.write_run_manifest(
        Path(args.out).parent,
        {
            "command": "eval",
            "kind": args.kind,
            "checkpoint": args.checkpoint,
            "manifest": args.manifest,
            "split": args.split,
        },
    )
    print(f"pooled EER {result.eer:.4f} (threshold {result.threshold:.4f}) -> {args.out}")
    return 0


def _cmd_ablate(args, config) -> int:
    records = read_manifest(args.manifest)
    manifest_dir = Path(args.manifest).parent
    hyper = _hyper(args, config)
    base_cfg = _encoder_config(args, config)
    seeds = [_parse_value(int, s, "--seeds") for s in args.seeds.split(",")]
    workdir = Path(args.workdir)
    pipeline.write_run_manifest(
        workdir,
        {
            "command": "ablate",
            "manifest": args.manifest,
            "seeds": args.seeds,
            "lr": hyper.lr,
            "batch": hyper.batch_size,
            "epochs": hyper.epochs,
            "tau": hyper.tau,
            "k": hyper.k_refs,
        },
    )
    ablation_rows, sweep_rows = pipeline.ablation_grid(
        workdir, records, manifest_dir, base_cfg, hyper, seeds
    )
    for variant, seed, eer in ablation_rows:
        print(f"{variant:16s} seed {seed}: pooled EER {eer:.4f}")
    for tau, seed, eer in sweep_rows:
        print(f"tau={tau:<3d}          seed {seed}: pooled EER {eer:.4f}")
    print(f"wrote {workdir / 'ablation.csv'} and {workdir / 'tau_sweep.csv'}")
    return 0


def _cmd_gradcheck(args, config) -> int:
    checks = gradient_check_suite()
    failed = False
    for name, error, bound in checks:
        status = "ok" if error < bound else "FAIL"
        failed = failed or error >= bound
        print(f"{name:24s} max rel err {error:.3e} (bound {bound:.0e}) {status}")
    return 1 if failed else 0


def gradient_check_suite() -> list[tuple[str, float, float]]:
    """Gradient checks for every primitive and the full model forwards."""
    rng = np.random.default_rng(1234)
    results = []

    x = rng.standard_normal((4, 8))
    w = rng.standard_normal((8, 3))
    b = rng.standard_normal(3)
    results.append(
        ("affine", nn.grad_check(lambda t, u, v: nn.affine(t, u, v), [x, w, b]), 1e-5)
    )

    logits = rng.standard_normal((6, 2))
    labels = rng.integers(0, 2, size=6)
    results.append(
        (
            "softmax_xent",
            nn.grad_check(lambda t: nn.softmax_xent(t, labels), [logits]),
            1e-6,
        )
    )

    h = rng.standard_normal((5, 8))
    asp_params = nn.init_asp(8, rng)

    def asp_fn(t, aw, ab, sw, sb):
        return nn.asp(t, nn.AspParams(aw, ab, sw, sb))

    asp_inputs = [
        h,
        asp_params.attn_w.data,
        asp_params.attn_b.data,
        asp_params.score_w.data,
        asp_params.score_b.data,
    ]
    results.append(("asp", nn.grad_check(asp_fn, asp_inputs), 1e-5))

    feat = rng.standard_normal((2, 3, 5, 8))
    results.append(("mfa_forward", mfa_grad_check(feat, rng), 1e-4))

    queries = rng.standard_normal((2, 3, 4, 8))
    refs = rng.standard_normal((2, 3, 3, 4, 8))
    for name, just_difference in (("radmfa_forward", False), ("just_difference", True)):
        results.append((name, radmfa_grad_check(queries, refs, rng, just_difference), 1e-4))
    return results


def mfa_grad_check(feat: np.ndarray, rng, max_coords=None) -> float:
    """End-to-end check of the fusion forward over input and parameters."""
    n_layers, feat_dim = feat.shape[1], feat.shape[3]
    template = model.init_mfa(n_layers, feat_dim, rng).tensors()
    names = sorted(template)

    def fn(feat_t, *param_ts):
        params = model.mfa_from_tensors(n_layers, dict(zip(names, param_ts)))
        return model.mfa_forward(feat_t, params)

    arrays = [feat] + [template[n].data for n in names]
    return nn.grad_check(fn, arrays, max_coords=max_coords)


def radmfa_grad_check(queries, refs, rng, just_difference=False, max_coords=None) -> float:
    """End-to-end check of the batched forward that training and scoring
    run: queries (B, L, T, F), refs (B, K, L, T, F)."""
    n_layers, feat_dim = queries.shape[1], queries.shape[3]
    template = model.init_radmfa(n_layers, feat_dim, rng, just_difference).tensors()
    names = sorted(template)

    def fn(queries_t, refs_t, *param_ts):
        tensors = dict(zip(names, param_ts))
        params = model.radmfa_from_tensors(n_layers, tensors, just_difference)
        return model.radmfa_forward(queries_t, refs_t, params)

    arrays = [queries, refs] + [template[n].data for n in names]
    return nn.grad_check(fn, arrays, max_coords=max_coords)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="radspoof", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic corpus")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--n-speakers", dest="n_speakers", type=int)
    p.add_argument("--clips-per-speaker", dest="clips_per_speaker", type=int)
    p.add_argument("--spoof-fraction", dest="spoof_fraction", type=float)
    p.add_argument("--splits", help="e.g. train=400,dev=100,eval=200,retrieval_extra=100")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("extract", help="cache short features and embeddings")
    _add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--tau", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--encoder-seed", dest="encoder_seed", type=int)
    p.add_argument("--tuned-from", dest="tuned_from", help="baseline checkpoint")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("build-db", help="build per-layer retrieval stores")
    _add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--splits", help="comma-separated split names")
    p.add_argument("--include-spoof", action="store_true")
    p.set_defaults(func=_cmd_build_db)

    p = sub.add_parser("retrieve", help="query the store and report consistency")
    _add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--utt", help="single query utterance id")
    p.add_argument("--queries", type=int, default=50)
    p.add_argument("--split", default="eval")
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("train", help="train a detection model")
    _add_common(p)
    p.add_argument("--kind", required=True, choices=model.MODEL_KINDS)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--name", default="model")
    p.add_argument("--cache")
    p.add_argument("--store")
    for flag, cast in (
        ("--seed", int), ("--lr", float), ("--batch", int), ("--epochs", int),
        ("--tau", int), ("--k", int), ("--layers", int), ("--dim", int),
        ("--encoder-seed", int),
    ):
        p.add_argument(flag, dest=flag.lstrip("-").replace("-", "_"), type=cast)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a split and compute pooled EER")
    _add_common(p)
    p.add_argument("--kind", required=True, choices=model.MODEL_KINDS)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="eval")
    p.add_argument("--out", required=True)
    p.add_argument("--det", help="optional DET operating-point CSV path")
    p.add_argument("--cache")
    p.add_argument("--store")
    p.add_argument("--k", type=int)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="run the variant grid and compression sweep")
    _add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--seeds", default="0,1,2")
    for flag, cast in (
        ("--lr", float), ("--batch", int), ("--epochs", int), ("--tau", int),
        ("--k", int), ("--layers", int), ("--dim", int), ("--encoder-seed", int),
    ):
        p.add_argument(flag, dest=flag.lstrip("-").replace("-", "_"), type=cast)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("gradcheck", help="verify analytic gradients")
    _add_common(p)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = _read_config_file(args.config) if getattr(args, "config", None) else {}
        return args.func(args, config)
    except RadspoofError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
