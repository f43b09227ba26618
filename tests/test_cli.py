import shutil

import numpy as np
import pytest

from radspoof import model, nn, radf
from radspoof.cli import main
from radspoof.corpus import ManifestRecord, write_manifest, write_wav
from radspoof.encoder import CacheIndex


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small synthesized corpus with caches and a store, built via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    corpus_dir = root / "corpus"
    assert main([
        "synth", "--out", str(corpus_dir), "--seed", "17",
        "--n-speakers", "3", "--clips-per-speaker", "12",
        "--spoof-fraction", "0.5",
        "--splits", "train=20,dev=8,eval=8",
    ]) == 0
    manifest = corpus_dir / "manifest.tsv"
    cache_dir = root / "cache"
    assert main([
        "extract", "--manifest", str(manifest), "--cache", str(cache_dir),
        "--tau", "10", "--layers", "3", "--dim", "16",
    ]) == 0
    store_dir = root / "store"
    assert main([
        "build-db", "--manifest", str(manifest), "--cache", str(cache_dir),
        "--store", str(store_dir), "--splits", "train",
    ]) == 0
    return root, manifest, cache_dir, store_dir


def test_synth_writes_manifest_and_hash(workspace):
    root, manifest, _, _ = workspace
    assert manifest.exists()
    assert (manifest.parent / "config_hash.txt").exists()
    assert (manifest.parent / "run_manifest.txt").exists()
    assert len(list((manifest.parent / "wav").glob("*.wav"))) == 36


def test_extract_and_builddb_artifacts(workspace):
    root, _, cache_dir, store_dir = workspace
    assert (cache_dir / "index.tsv").exists()
    assert (store_dir / "vectors.radp").exists()
    assert (store_dir / "records.tsv").exists()


def test_retrieve_single_query(workspace, capsys):
    root, manifest, cache_dir, store_dir = workspace
    utt = manifest.read_text().splitlines()[0].split("\t")[0]
    assert main([
        "retrieve", "--manifest", str(manifest), "--cache", str(cache_dir),
        "--store", str(store_dir), "--utt", utt, "--k", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert "layer 0" in out
    assert "rank  1" in out


def test_retrieve_report(workspace, capsys):
    root, manifest, cache_dir, store_dir = workspace
    out_csv = root / "report.csv"
    assert main([
        "retrieve", "--manifest", str(manifest), "--cache", str(cache_dir),
        "--store", str(store_dir), "--queries", "5", "--split", "eval",
        "--k", "3", "--out", str(out_csv),
    ]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "layer,median_same_speaker,mean_similarity,chance_rate"
    assert len(lines) == 4  # 3 layers


def test_train_eval_baseline_and_rad(workspace, capsys):
    root, manifest, cache_dir, store_dir = workspace
    ck = root / "ck"
    assert main([
        "train", "--kind", "baseline", "--manifest", str(manifest),
        "--out", str(ck), "--name", "base", "--epochs", "2", "--batch", "8",
        "--layers", "3", "--dim", "16", "--seed", "3",
    ]) == 0
    base_ckpt = ck / "base.ckpt"
    assert base_ckpt.exists()

    tuned_cache = root / "cache_tuned"
    assert main([
        "extract", "--manifest", str(manifest), "--cache", str(tuned_cache),
        "--tau", "10", "--layers", "3", "--dim", "16",
        "--tuned-from", str(base_ckpt),
    ]) == 0
    tuned_store = root / "store_tuned"
    assert main([
        "build-db", "--manifest", str(manifest), "--cache", str(tuned_cache),
        "--store", str(tuned_store), "--splits", "train",
    ]) == 0
    assert main([
        "train", "--kind", "radmfa", "--manifest", str(manifest),
        "--out", str(ck), "--name", "rad", "--epochs", "2", "--batch", "8",
        "--cache", str(tuned_cache), "--store", str(tuned_store),
        "--k", "3", "--seed", "3",
    ]) == 0
    scores_path = root / "scores.tsv"
    det_path = root / "det.csv"
    assert main([
        "eval", "--kind", "radmfa", "--checkpoint", str(ck / "rad.ckpt"),
        "--manifest", str(manifest), "--split", "eval",
        "--out", str(scores_path), "--det", str(det_path),
        "--cache", str(tuned_cache), "--store", str(tuned_store), "--k", "3",
    ]) == 0
    assert len(scores_path.read_text().splitlines()) == 8
    assert det_path.read_text().startswith("threshold,far,frr")
    out = capsys.readouterr().out
    assert "pooled EER" in out


def test_ablate_writes_grid_csvs(workspace, tmp_path, capsys):
    root, manifest, _, _ = workspace
    workdir = tmp_path / "grid"
    assert main([
        "ablate", "--manifest", str(manifest), "--workdir", str(workdir),
        "--seeds", "0", "--epochs", "2", "--lr", "1e-3", "--k", "3",
        "--batch", "8", "--layers", "3", "--dim", "16",
    ]) == 0
    ablation = (workdir / "ablation.csv").read_text().splitlines()
    assert ablation[0] == "variant,seed,pooled_eer"
    assert [row.split(",")[0] for row in ablation[1:]] == [
        "full", "no_rad", "no_extra_db", "just_difference"
    ]
    sweep = (workdir / "tau_sweep.csv").read_text().splitlines()
    assert sweep[0] == "tau,seed,pooled_eer"
    assert [row.split(",")[0] for row in sweep[1:]] == ["5", "10", "20"]
    assert (workdir / "config_hash.txt").exists()


def test_eval_missing_store_is_usage_error(workspace):
    root, manifest, cache_dir, _ = workspace
    code = main([
        "eval", "--kind", "radmfa", "--checkpoint", "nope.ckpt",
        "--manifest", str(manifest), "--out", str(root / "x.tsv"),
    ])
    assert code == 2


def test_eval_missing_store_fails_with_error_line(workspace, tmp_path, capsys):
    root, manifest, cache_dir, _ = workspace
    code = main([
        "eval", "--kind", "radmfa", "--checkpoint", "nope.ckpt",
        "--manifest", str(manifest), "--out", str(tmp_path / "x.tsv"),
        "--cache", str(cache_dir), "--store", str(tmp_path / "missing"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_eval_malformed_store_meta_fails_with_error_line(workspace, tmp_path, capsys):
    root, manifest, cache_dir, store_dir = workspace
    broken = tmp_path / "store"
    shutil.copytree(store_dir, broken)
    tensors, meta = radf.read_tensors(broken / "vectors.radp")
    del meta["n_layers"]
    radf.write_tensors(broken / "vectors.radp", tensors, meta)
    code = main([
        "eval", "--kind", "radmfa", "--checkpoint", "nope.ckpt",
        "--manifest", str(manifest), "--out", str(tmp_path / "x.tsv"),
        "--cache", str(cache_dir), "--store", str(broken),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_eval_missing_checkpoint_fails_with_error_line(workspace, tmp_path, capsys):
    root, manifest, cache_dir, store_dir = workspace
    code = main([
        "eval", "--kind", "radmfa", "--checkpoint", str(tmp_path / "nope.ckpt"),
        "--manifest", str(manifest), "--out", str(tmp_path / "x.tsv"),
        "--cache", str(cache_dir), "--store", str(store_dir),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_eval_malformed_checkpoint_fails_with_error_line(workspace, tmp_path, capsys):
    root, manifest, cache_dir, store_dir = workspace
    checkpoint = tmp_path / "bad.ckpt"
    checkpoint.write_bytes(b"RADP 1\nmetakind\nend\n")
    code = main([
        "eval", "--kind", "radmfa", "--checkpoint", str(checkpoint),
        "--manifest", str(manifest), "--out", str(tmp_path / "x.tsv"),
        "--cache", str(cache_dir), "--store", str(store_dir),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def _radmfa_checkpoint_tensors(cache_dir):
    """Untrained radmfa tensors and full meta matching the workspace cache."""
    params = model.init_radmfa(3, 16, np.random.default_rng(0))
    meta = {
        "kind": "radmfa", "n_layers": "3", "feat_dim": "16", "tau": "10", "k_refs": "3",
        "seed": "0", "best_epoch": "1", "encoder_seed": "0",
        "fingerprint": CacheIndex.load(cache_dir).fingerprint,
    }
    return {name: t.data for name, t in params.tensors().items()}, meta


@pytest.mark.parametrize("break_checkpoint", [
    lambda tensors, meta: (tensors, {"kind": "radmfa"}),
    lambda tensors, meta: ({n: t for n, t in tensors.items() if n != "head_w"}, meta),
], ids=["meta_kind_only", "no_head_w"])
def test_eval_incomplete_checkpoint_fails_with_error_line(
    workspace, tmp_path, capsys, break_checkpoint
):
    root, manifest, cache_dir, store_dir = workspace
    tensors, meta = _radmfa_checkpoint_tensors(cache_dir)
    checkpoint = tmp_path / "rad.ckpt"
    args = [
        "eval", "--kind", "radmfa", "--checkpoint", str(checkpoint),
        "--manifest", str(manifest), "--out", str(tmp_path / "x.tsv"),
        "--cache", str(cache_dir), "--store", str(store_dir),
    ]
    nn.save_checkpoint(checkpoint, tensors, meta)
    assert main(args) == 0  # the intact checkpoint scores
    nn.save_checkpoint(checkpoint, *break_checkpoint(tensors, meta))
    capsys.readouterr()
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("damage", ["empty_split", "deleted_short_file"])
def test_eval_empty_split_or_deleted_cache_file_fails_with_error_line(
    workspace, tmp_path, capsys, damage
):
    root, manifest, cache_dir, store_dir = workspace
    cache = tmp_path / "cache"
    shutil.copytree(cache_dir, cache)
    checkpoint = tmp_path / "rad.ckpt"
    nn.save_checkpoint(checkpoint, *_radmfa_checkpoint_tensors(cache_dir))
    split = "eval"
    if damage == "empty_split":
        split = "nosuch"
    else:  # a file index.tsv still lists
        sorted((cache / "short").iterdir())[0].unlink()
    capsys.readouterr()
    code = main([
        "eval", "--kind", "radmfa", "--checkpoint", str(checkpoint),
        "--manifest", str(manifest), "--split", split, "--out", str(tmp_path / "x.tsv"),
        "--cache", str(cache), "--store", str(store_dir),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x.tsv").exists()


@pytest.mark.parametrize(
    "wav", [None, b"not a wav file", "truncated", np.nan, np.inf, 1.5],
    ids=["missing", "unparseable", "truncated", "nan", "inf", "out_of_range"],
)
def test_extract_bad_wav_fails_with_error_line(tmp_path, capsys, wav):
    manifest = tmp_path / "manifest.tsv"
    record = ManifestRecord("u0", "spk0", "bonafide", None, "wav/u0.wav", "train")
    write_manifest(manifest, [record])
    wav_path = tmp_path / "wav" / "u0.wav"
    if isinstance(wav, bytes):
        wav_path.parent.mkdir()
        wav_path.write_bytes(wav)
    elif wav == "truncated":  # cut inside the data chunk
        write_wav(wav_path, np.zeros(16000, dtype=np.float32))
        wav_path.write_bytes(wav_path.read_bytes()[: wav_path.stat().st_size // 2])
    elif wav is not None:
        samples = np.zeros(16000, dtype=np.float32)
        samples[100] = wav
        write_wav(wav_path, samples)
    code = main([
        "extract", "--manifest", str(manifest), "--cache", str(tmp_path / "cache"),
        "--tau", "10", "--layers", "3", "--dim", "16",
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def _drop_feat_dim(cache):
    meta = cache / "meta.txt"
    meta.write_text("".join(
        l for l in meta.read_text().splitlines(keepends=True) if not l.startswith("feat_dim=")
    ))


@pytest.mark.parametrize(
    "break_cache",
    [lambda cache: (cache / "index.tsv").unlink(), _drop_feat_dim],
    ids=["no_index", "meta_missing_key"],
)
def test_builddb_broken_cache_fails_with_error_line(workspace, tmp_path, capsys, break_cache):
    root, manifest, cache_dir, _ = workspace
    broken = tmp_path / "cache"
    shutil.copytree(cache_dir, broken)
    break_cache(broken)
    code = main([
        "build-db", "--manifest", str(manifest), "--cache", str(broken),
        "--store", str(tmp_path / "store"), "--splits", "train",
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_retrieve_unknown_utt_fails_with_error_line(workspace, capsys):
    root, manifest, cache_dir, store_dir = workspace
    code = main([
        "retrieve", "--manifest", str(manifest), "--cache", str(cache_dir),
        "--store", str(store_dir), "--utt", "nope", "--k", "3",
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_eval_derives_checkpoint_tau_from_tau_one_cache(workspace, tmp_path, capsys):
    root, manifest, cache_dir, store_dir = workspace
    assert main([
        "train", "--kind", "radmfa", "--manifest", str(manifest),
        "--out", str(tmp_path / "ck"), "--name", "rad", "--epochs", "1", "--batch", "8",
        "--cache", str(cache_dir), "--store", str(store_dir), "--k", "3",
    ]) == 0
    outputs = {}
    for tau in ("1", "10", "5"):
        cache = tmp_path / f"cache_tau{tau}"
        assert main([
            "extract", "--manifest", str(manifest), "--cache", str(cache),
            "--tau", tau, "--layers", "3", "--dim", "16",
        ]) == 0
        outputs[tau] = tmp_path / f"scores_tau{tau}.tsv"
        capsys.readouterr()
        code = main([
            "eval", "--kind", "radmfa", "--checkpoint", str(tmp_path / "ck" / "rad.ckpt"),
            "--manifest", str(manifest), "--out", str(outputs[tau]),
            "--cache", str(cache), "--store", str(store_dir),
        ])
        if tau == "5":
            # a tau=5 cache cannot serve the tau=10 checkpoint
            assert code == 1
            assert capsys.readouterr().err.startswith("error: ")
        else:
            assert code == 0
    assert outputs["1"].read_bytes() == outputs["10"].read_bytes()


def test_train_with_fewer_references_than_k_fails_with_error_line(workspace, tmp_path, capsys):
    root, manifest, cache_dir, store_dir = workspace
    # store members find every other entry, one short of k; other queries find k
    k = len((store_dir / "records.tsv").read_text().splitlines())
    capsys.readouterr()
    code = main([
        "train", "--kind", "radmfa", "--manifest", str(manifest),
        "--out", str(tmp_path / "ck"), "--epochs", "1", "--batch", "8",
        "--cache", str(cache_dir), "--store", str(store_dir), "--k", str(k),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"found {k - 1} references, need k={k}" in err


def test_gradcheck_exits_zero(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "radmfa_forward" in out
    assert "FAIL" not in out


def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_required_flag_exits_two(capsys):
    assert main(["synth"]) == 2


def test_config_file_supplies_defaults(workspace, tmp_path, capsys):
    root, manifest, cache_dir, store_dir = workspace
    config = tmp_path / "run.cfg"
    config.write_text("k = 3\nseed = 1\n# comment\n")
    assert main([
        "retrieve", "--manifest", str(manifest), "--cache", str(cache_dir),
        "--store", str(store_dir), "--queries", "3", "--split", "eval",
        "--config", str(config), "--out", str(tmp_path / "r.csv"),
    ]) == 0


def _write(path, blob):
    path.write_bytes(blob)
    return path


def _build_db(tmp, manifest):
    return ["build-db", "--manifest", str(manifest), "--cache", str(tmp / "c"),
            "--store", str(tmp / "s")]


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp, manifest: ["gradcheck", "--config", str(tmp / "missing.cfg")],
        lambda tmp, manifest: ["gradcheck", "--config", str(_write(tmp / "c.cfg", b"seed=abc\n"))],
        lambda tmp, manifest: ["synth", "--out", str(tmp / "corpus"), "--splits", "train"],
        lambda tmp, manifest: [
            "ablate", "--manifest", str(manifest), "--workdir", str(tmp / "w"), "--seeds", "0,a",
        ],
        lambda tmp, manifest: _build_db(tmp, tmp / "missing.tsv"),
        lambda tmp, manifest: _build_db(tmp, _write(tmp / "m.tsv", b"u0\tspk\xff\n")),
    ],
    ids=[
        "missing_config", "non_integer_config_value", "splits_without_count", "bad_seeds",
        "missing_manifest", "non_utf8_manifest",
    ],
)
def test_bad_text_input_fails_with_error_line(workspace, tmp_path, capsys, argv):
    capsys.readouterr()
    assert main(argv(tmp_path, workspace[1])) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_bad_config_key_fails(workspace, tmp_path):
    root, manifest, cache_dir, store_dir = workspace
    config = tmp_path / "bad.cfg"
    config.write_text("mystery = 3\n")
    code = main([
        "retrieve", "--manifest", str(manifest), "--cache", str(cache_dir),
        "--store", str(store_dir), "--config", str(config),
    ])
    assert code == 1
