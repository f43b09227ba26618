"""Command-line pipeline driver.

Subcommands: synth, extract, build-db, retrieve, train, eval, ablate,
gradcheck. ``main`` resolves each setting a command declares once: the flag
wins, then the optional key=value --config file, then the default of the
dataclass field or function parameter the setting names.
Exit codes: 0 success, 1 failed check, 2 usage error.

synth, extract, build-db, train, eval and ablate then write run_manifest.txt
and config_hash.txt from those resolved values: the command, every flag it
read and every setting, each under its flag/config name, so the manifest
alone repeats the run byte-for-byte.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

import numpy as np

from . import metrics, model, nn, pipeline, vecstore
from .corpus import CorpusConfig, read_manifest, write_corpus
from .encoder import CacheIndex, EncoderConfig, extract_and_cache
from .errors import ConfigurationError, IncompatibilityError, RadspoofError
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

# the settings whose dataclass field or parameter has another name
_FIELD_OF = dict(
    layers="n_layers",
    dim="feat_dim",
    encoder_seed="seed",
    batch="batch_size",
    k="k_refs",
    splits="split_counts",
)
_TRAIN = (TrainHyper, "lr", "batch", "epochs", "tau", "k")
_ENCODER = (EncoderConfig, "layers", "dim", "encoder_seed")

# the directory each manifest-writing command records its run in
_MANIFEST_DIR = {
    "synth": lambda args: args.out,
    "extract": lambda args: args.cache,
    "build-db": lambda args: args.store,
    "train": lambda args: args.out,
    "eval": lambda args: Path(args.out).parent,
    "ablate": lambda args: args.workdir,
}
# namespace entries that are the parser's plumbing, not the run's inputs
_NOT_RECORDED = ("func", "parser", "settings", "config")


def _read_config_file(path) -> dict:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not UTF-8 (byte {exc.start})") from None
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


def _default(source, name: str):
    """The default `source` gives `name`: a function's parameter default, or
    the attribute of a dataclass (its field default) or of an instance."""
    if inspect.isfunction(source):
        return inspect.signature(source).parameters[name].default
    return getattr(source, name)


def _resolve(args) -> None:
    """Give every setting the command declares its value in `args`: the flag
    wins, then the --config file, then the default of the field or parameter
    the setting names. A --tuned-from checkpoint supplies the encoder defaults."""
    config = _read_config_file(args.config) if getattr(args, "config", None) else {}
    for source, *keys in getattr(args, "settings", ()):
        if source is EncoderConfig and getattr(args, "tuned_from", None):
            source = model.tuned_encoder_from_checkpoint(args.tuned_from)
        for key in keys:
            if getattr(args, key) is None:
                value = config[key] if key in config else _default(source, _FIELD_OF.get(key, key))
                setattr(args, key, value)


def _fields(source, args) -> dict:
    """{field name: resolved value} for each setting whose default `source` gives."""
    return {
        _FIELD_OF.get(key, key): getattr(args, key)
        for owner, *keys in args.settings
        if owner is source
        for key in keys
    }


def _manifest_items(args) -> dict:
    """The command, every flag it read and every setting, each under its
    flag/config name; an unset optional flag is recorded empty."""
    return {
        key: "" if value is None else value
        for key, value in vars(args).items()
        if key not in _NOT_RECORDED
    }


def _parse_split_counts(text: str) -> dict[str, int]:
    counts = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        counts[name.strip()] = _parse_value(int, value, f"--splits {part!r}")
    return counts


def _retrieval_inputs(args) -> tuple[CacheIndex, vecstore.StoreSet]:
    """The cache at --cache and the store at --store, checked against its fingerprint."""
    cache = CacheIndex.load(args.cache)
    return cache, vecstore.load_stores(args.store, expected_fingerprint=cache.fingerprint)


def _add_settings(parser, *groups) -> None:
    """The --config flag plus one flag per setting key, typed as in
    _CONFIG_KEYS. Each group is (source, *keys): an unset key takes the
    default `source` gives its field or parameter."""
    parser.add_argument("--config", help="key=value settings file")
    for _, *keys in groups:
        for key in keys:
            parser.add_argument(f"--{key.replace('_', '-')}", dest=key, type=_CONFIG_KEYS[key])
    parser.set_defaults(settings=groups)


def _cmd_synth(args) -> int:
    fields = _fields(CorpusConfig, args)
    if args.splits is not None:
        fields["split_counts"] = _parse_split_counts(args.splits)
    records, manifest_path = write_corpus(CorpusConfig(**fields), args.out)
    print(f"wrote {len(records)} clips and {manifest_path}")
    return 0


def _cmd_extract(args) -> int:
    records = read_manifest(args.manifest)
    fields = _fields(EncoderConfig, args)
    cfg = EncoderConfig(**fields)
    if args.tuned_from:
        cfg = model.tuned_encoder_from_checkpoint(args.tuned_from)
        for field, value in fields.items():
            if getattr(cfg, field) != value:
                raise IncompatibilityError(
                    f"{args.tuned_from} records encoder {field}={getattr(cfg, field)}, not {value}"
                )
    index = extract_and_cache(records, Path(args.manifest).parent, cfg, args.tau, args.cache)
    print(f"cached {len(index.entries)} segments at tau={args.tau}")
    return 0


def _cmd_build_db(args) -> int:
    records = read_manifest(args.manifest)
    cache = CacheIndex.load(args.cache)
    store, report = vecstore.build_stores(
        records, cache, bonafide_only=not args.include_spoof, splits=set(args.splits.split(","))
    )
    vecstore.persist_stores(store, args.store)
    print(
        f"inserted {report.n_inserted} records per layer "
        f"(skipped {report.n_skipped_label} spoof, {report.n_skipped_split} off-split)"
    )
    return 0


def _cmd_retrieve(args) -> int:
    records = read_manifest(args.manifest)
    cache, store = _retrieval_inputs(args)
    if args.utt:
        result = store.query_topk(cache.load_embedding(args.utt), args.k, exclude={args.utt})
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
        k=args.k,
        n_queries=args.queries,
        seed=args.seed,
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


def _cmd_train(args) -> int:
    records = read_manifest(args.manifest)
    cache, store = _retrieval_inputs(args) if args.kind != "baseline" else (None, None)
    result = model.train_model(
        args.kind,
        records,
        Path(args.manifest).parent,
        EncoderConfig(**_fields(EncoderConfig, args)),
        TrainHyper(**_fields(TrainHyper, args)),
        args.out,
        store=store,
        cache=cache,
        run_name=args.name,
    )
    print(
        f"trained {args.kind}: best dev EER {result.best_dev_eer:.4f} "
        f"at epoch {result.best_epoch}; checkpoint {result.checkpoint_path}"
    )
    return 0


def _cmd_eval(args) -> int:
    records = [r for r in read_manifest(args.manifest) if r.split == args.split]
    cache, store = _retrieval_inputs(args) if args.kind != "baseline" else (None, None)
    scores = model.score_dataset(
        args.kind,
        args.checkpoint,
        records,
        Path(args.manifest).parent,
        store=store,
        cache=cache,
        k_refs=args.k,
    )
    metrics.write_scores(args.out, scores)
    result = metrics.pooled_eer(scores)
    if args.det:
        metrics.write_det_csv(args.det, scores)
    print(f"pooled EER {result.eer:.4f} (threshold {result.threshold:.4f}) -> {args.out}")
    return 0


def _cmd_ablate(args) -> int:
    seeds = [_parse_value(int, s, "--seeds") for s in args.seeds.split(",")]
    ablation_rows, sweep_rows = pipeline.ablation_grid(
        args.workdir,
        read_manifest(args.manifest),
        Path(args.manifest).parent,
        EncoderConfig(**_fields(EncoderConfig, args)),
        TrainHyper(**_fields(TrainHyper, args)),
        seeds,
    )
    for variant, seed, eer in ablation_rows:
        print(f"{variant:16s} seed {seed}: pooled EER {eer:.4f}")
    for tau, seed, eer in sweep_rows:
        print(f"tau={tau:<3d}          seed {seed}: pooled EER {eer:.4f}")
    workdir = Path(args.workdir)
    print(f"wrote {workdir / 'ablation.csv'} and {workdir / 'tau_sweep.csv'}")
    return 0


def _cmd_gradcheck(args) -> int:
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
    asp_inputs = [h, *asp_params.tensors("asp").values()]
    results.append(("asp", nn.grad_check(lambda t, *_: nn.asp(t, asp_params), asp_inputs), 1e-5))

    feat = rng.standard_normal((2, 3, 5, 8))
    results.append(("mfa_forward", mfa_grad_check(feat, rng), 1e-4))

    queries = rng.standard_normal((2, 3, 4, 8))
    refs = rng.standard_normal((2, 3, 3, 4, 8))
    for name, just_difference in (("radmfa_forward", False), ("just_difference", True)):
        results.append((name, radmfa_grad_check(queries, refs, rng, just_difference), 1e-4))
    return results


def mfa_grad_check(feat: np.ndarray, rng, max_coords=None) -> float:
    """End-to-end check of the fusion forward over input and parameters."""
    params = model.init_mfa(feat.shape[1], feat.shape[3], rng)
    inputs = [feat, *params.tensors().values()]
    return nn.grad_check(
        lambda feat_t, *_: model.mfa_forward(feat_t, params), inputs, max_coords=max_coords
    )


def radmfa_grad_check(queries, refs, rng, just_difference=False, max_coords=None) -> float:
    """End-to-end check of the batched forward that training and scoring
    run: queries (B, L, T, F), refs (B, K, L, T, F)."""
    params = model.init_radmfa(queries.shape[1], queries.shape[3], rng, just_difference)

    def fn(queries_t, refs_t, *_):
        return model.radmfa_forward(queries_t, refs_t, params)

    inputs = [queries, refs, *params.tensors().values()]
    return nn.grad_check(fn, inputs, max_coords=max_coords)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="radspoof", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic corpus")
    _add_settings(
        p, (CorpusConfig, "seed", "n_speakers", "clips_per_speaker", "spoof_fraction", "splits")
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("extract", help="cache short features and embeddings")
    _add_settings(p, (TrainHyper, "tau"), _ENCODER)
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--tuned-from", dest="tuned_from", help="baseline checkpoint")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("build-db", help="build per-layer retrieval stores")
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--store", required=True)
    p.add_argument(
        "--splits",
        default=",".join(sorted(vecstore.DEFAULT_DB_SPLITS)),
        help="comma-separated split names",
    )
    p.add_argument("--include-spoof", action="store_true")
    p.set_defaults(func=_cmd_build_db)

    p = sub.add_parser("retrieve", help="query the store and report consistency")
    _add_settings(p, (TrainHyper, "k"), (pipeline.retrieval_report, "seed"))
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--utt", help="single query utterance id")
    p.add_argument(
        "--queries", type=int, default=_default(pipeline.retrieval_report, "n_queries")
    )
    p.add_argument("--split", default=_default(pipeline.retrieval_report, "query_split"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("train", help="train a detection model")
    _add_settings(p, (*_TRAIN, "seed"), _ENCODER)
    p.add_argument("--kind", required=True, choices=model.MODEL_KINDS)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--name", default=_default(model.train_model, "run_name"))
    p.add_argument("--cache")
    p.add_argument("--store")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a split and compute pooled EER")
    _add_settings(p, (model.score_dataset, "k"))
    p.add_argument("--kind", required=True, choices=model.MODEL_KINDS)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="eval")
    p.add_argument("--out", required=True)
    p.add_argument("--det", help="optional DET operating-point CSV path")
    p.add_argument("--cache")
    p.add_argument("--store")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="run the variant grid and compression sweep")
    _add_settings(p, _TRAIN, _ENCODER)
    p.add_argument("--manifest", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--seeds", default="0,1,2")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("gradcheck", help="verify analytic gradients")
    p.set_defaults(func=_cmd_gradcheck)

    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "kind", "baseline") != "baseline" and not (args.cache and args.store):
            args.parser.error("--cache and --store are required for retrieval models")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _resolve(args)
        code = args.func(args)
        if args.command in _MANIFEST_DIR:
            pipeline.write_run_manifest(_MANIFEST_DIR[args.command](args), _manifest_items(args))
        return code
    except RadspoofError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
