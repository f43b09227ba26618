import argparse
import shutil

import numpy as np
import pytest

from radspoof import model, nn, radf
from radspoof.cli import _MANIFEST_DIR, _fields, _resolve, build_parser, main
from radspoof.corpus import ManifestRecord, write_manifest, write_wav
from radspoof.encoder import CacheIndex, EncoderConfig
from radspoof.model import TrainHyper


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


def test_retrieve_report_without_out_prints_it_and_leaves_the_store_as_built(
    workspace, capsys
):
    root, manifest, cache_dir, store_dir = workspace
    files = lambda: {p.name: p.read_bytes() for p in store_dir.iterdir()}  # noqa: E731
    before = files()
    capsys.readouterr()
    assert main([
        "retrieve", "--manifest", str(manifest), "--cache", str(cache_dir),
        "--store", str(store_dir), "--queries", "5",
    ]) == 0
    assert files() == before
    out = capsys.readouterr().out
    assert out.count("median same-speaker") == 3 and "written" not in out


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


@pytest.fixture(scope="module")
def seed2_baseline(workspace):
    """A baseline checkpoint trained with a non-default encoder seed and geometry."""
    root, manifest, _, _ = workspace
    assert main([
        "train", "--kind", "baseline", "--manifest", str(manifest),
        "--out", str(root / "ck_seed2"), "--name", "base", "--epochs", "1", "--batch", "8",
        "--encoder-seed", "2", "--layers", "3", "--dim", "16",
    ]) == 0
    return root / "ck_seed2" / "base.ckpt"


def test_extract_tuned_from_takes_the_encoder_from_the_checkpoint(
    workspace, seed2_baseline, tmp_path
):
    _, manifest, _, _ = workspace
    extract = ["extract", "--manifest", str(manifest), "--tuned-from", str(seed2_baseline)]
    assert main([*extract, "--cache", str(tmp_path / "bare")]) == 0
    assert main([
        *extract, "--cache", str(tmp_path / "flags"),
        "--encoder-seed", "2", "--layers", "3", "--dim", "16",
    ]) == 0
    bare = CacheIndex.load(tmp_path / "bare").fingerprint
    assert bare == CacheIndex.load(tmp_path / "flags").fingerprint


@pytest.mark.parametrize("via", ["flag", "config"])
def test_extract_tuned_from_refuses_a_disagreeing_encoder_seed(
    workspace, seed2_baseline, tmp_path, capsys, via
):
    _, manifest, _, _ = workspace
    cache_dir = tmp_path / "cache"
    argv = [
        "extract", "--manifest", str(manifest), "--cache", str(cache_dir),
        "--tuned-from", str(seed2_baseline),
    ]
    # the geometry agrees with the checkpoint, the mixer seed does not
    if via == "flag":
        argv += ["--layers", "3", "--dim", "16", "--encoder-seed", "0"]
    else:
        (tmp_path / "settings.cfg").write_text("layers = 3\ndim = 16\nencoder_seed = 0\n")
        argv += ["--config", str(tmp_path / "settings.cfg")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not cache_dir.exists()


def test_eval_missing_store_is_usage_error(workspace, capsys):
    root, manifest, cache_dir, _ = workspace
    code = main([
        "eval", "--kind", "radmfa", "--checkpoint", "nope.ckpt",
        "--manifest", str(manifest), "--out", str(root / "x.tsv"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: radspoof eval ") and "--store" in err


@pytest.mark.parametrize("command", [
    ["build-db", "--manifest", "m", "--cache", "c", "--store", "s"], ["gradcheck"],
], ids=["build-db", "gradcheck"])
def test_commands_without_settings_take_no_config(tmp_path, command):
    config = tmp_path / "run.cfg"
    config.write_text("seed = 1\n")
    assert main([*command, "--config", str(config)]) == 2


def test_eval_config_k_scores_with_that_k(workspace, tmp_path):
    root, manifest, cache_dir, store_dir = workspace
    checkpoint = tmp_path / "rad.ckpt"
    nn.save_checkpoint(checkpoint, *_radmfa_checkpoint_tensors(cache_dir))  # k_refs=3
    (tmp_path / "k2.cfg").write_text("k = 2\n")
    scores = {}
    for run, extra in [
        ("config", ["--config", str(tmp_path / "k2.cfg")]),
        ("flag", ["--k", "2"]),
        ("checkpoint", []),
    ]:
        scores[run] = tmp_path / f"{run}.tsv"
        assert main([
            "eval", "--kind", "radmfa", "--checkpoint", str(checkpoint),
            "--manifest", str(manifest), "--out", str(scores[run]),
            "--cache", str(cache_dir), "--store", str(store_dir), *extra,
        ]) == 0
    assert scores["config"].read_bytes() == scores["flag"].read_bytes()
    assert scores["config"].read_bytes() != scores["checkpoint"].read_bytes()
    # the last run left k unset: its manifest records it empty, the checkpoint's
    assert "k=" in (tmp_path / "run_manifest.txt").read_text().splitlines()


def test_eval_missing_store_fails_with_error_line(workspace, tmp_path, capsys):
    root, manifest, cache_dir, _ = workspace
    code = main([
        "eval", "--kind", "radmfa", "--checkpoint", "nope.ckpt",
        "--manifest", str(manifest), "--out", str(tmp_path / "x.tsv"),
        "--cache", str(cache_dir), "--store", str(tmp_path / "missing"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: no store at {tmp_path / 'missing'}")


def test_eval_malformed_store_meta_fails_with_error_line(workspace, tmp_path, capsys):
    root, manifest, cache_dir, store_dir = workspace
    broken = tmp_path / "store"
    shutil.copytree(store_dir, broken)
    tensors, meta = radf.read_tensors(broken / "vectors.radp")
    del meta["fingerprint"]
    radf.write_tensors(broken / "vectors.radp", tensors, meta)
    code = main([
        "eval", "--kind", "radmfa", "--checkpoint", "nope.ckpt",
        "--manifest", str(manifest), "--out", str(tmp_path / "x.tsv"),
        "--cache", str(cache_dir), "--store", str(broken),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "malformed store metadata, no fingerprint" in err


@pytest.mark.parametrize("command", ["eval", "retrieve"])
def test_store_repeating_an_utt_id_fails_with_error_line(workspace, tmp_path, capsys, command):
    root, manifest, cache_dir, store_dir = workspace
    broken = tmp_path / "store"
    shutil.copytree(store_dir, broken)
    path = broken / "records.tsv"
    lines = path.read_text().splitlines(keepends=True)
    first = lines[0].split("\t")[1]
    index, _, speaker = lines[1].split("\t")
    lines[1] = f"{index}\t{first}\t{speaker}"
    path.write_text("".join(lines))
    argv = {
        "eval": ["eval", "--kind", "radmfa", "--checkpoint", "nope.ckpt",
                 "--out", str(tmp_path / "x.tsv")],
        "retrieve": ["retrieve", "--utt", first, "--k", "3"],
    }[command]
    capsys.readouterr()
    code = main(argv + [
        "--manifest", str(manifest), "--cache", str(cache_dir), "--store", str(broken),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{first!r} more than once" in err


def test_eval_on_a_per_layer_layout_store_fails_with_error_line(workspace, tmp_path, capsys):
    # the retired store layout: one (N, F) tensor per layer, L and F in the meta
    root, manifest, cache_dir, store_dir = workspace
    old = tmp_path / "store"
    shutil.copytree(store_dir, old)
    tensors, meta = radf.read_tensors(old / "vectors.radp")
    layers = {f"layer{l:02d}": vectors for l, vectors in enumerate(tensors["vectors"])}
    meta.update(n_layers="3", feat_dim="16")
    radf.write_tensors(old / "vectors.radp", layers, meta)
    capsys.readouterr()
    code = main([
        "eval", "--kind", "radmfa", "--checkpoint", "nope.ckpt",
        "--manifest", str(manifest), "--out", str(tmp_path / "x.tsv"),
        "--cache", str(cache_dir), "--store", str(old),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "build-db" in err


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
    if damage == "empty_split":  # with no short file left, any read would fail first
        split, message = "nosuch", "error: no records to score"
        shutil.rmtree(cache / "short")
    else:  # a file index.tsv still lists
        split, message = "eval", "error: corrupt cache file"
        sorted((cache / "short").iterdir())[0].unlink()
    capsys.readouterr()
    code = main([
        "eval", "--kind", "radmfa", "--checkpoint", str(checkpoint),
        "--manifest", str(manifest), "--split", split, "--out", str(tmp_path / "x.tsv"),
        "--cache", str(cache), "--store", str(store_dir),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith(message)
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


def test_retrieve_utt_outside_the_manifest_fails_with_error_line(workspace, tmp_path, capsys):
    root, manifest, cache_dir, store_dir = workspace
    first, *rest = manifest.read_text().splitlines(keepends=True)
    utt = first.split("\t")[0]  # still in the cache, so its speaker is the one unknown
    trimmed = tmp_path / "manifest.tsv"
    trimmed.write_text("".join(rest))
    capsys.readouterr()
    code = main([
        "retrieve", "--manifest", str(trimmed), "--cache", str(cache_dir),
        "--store", str(store_dir), "--utt", utt, "--k", "3",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and repr(utt) in captured.err
    assert "same-speaker" not in captured.out


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
        lambda tmp, manifest: ["synth", "--out", str(tmp / "c"), "--config",
                               str(tmp / "missing.cfg")],
        lambda tmp, manifest: ["synth", "--out", str(tmp / "c"), "--config",
                               str(_write(tmp / "c.cfg", b"seed=abc\n"))],
        lambda tmp, manifest: ["synth", "--out", str(tmp / "c"), "--config",
                               str(_write(tmp / "c.cfg", b"\xff\n"))],
        lambda tmp, manifest: ["synth", "--out", str(tmp / "corpus"), "--splits", "train"],
        lambda tmp, manifest: [
            "ablate", "--manifest", str(manifest), "--workdir", str(tmp / "w"), "--seeds", "0,a",
        ],
        lambda tmp, manifest: _build_db(tmp, tmp / "missing.tsv"),
        lambda tmp, manifest: _build_db(tmp, _write(tmp / "m.tsv", b"u0\tspk\xff\n")),
    ],
    ids=[
        "missing_config", "non_integer_config_value", "non_utf8_config",
        "splits_without_count", "bad_seeds",
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


def test_config_key_the_command_does_not_declare_fails(workspace, tmp_path, capsys):
    # ablate has no corpus settings, so n_speakers cannot apply to it
    root, manifest, _, _ = workspace
    config = tmp_path / "x.cfg"
    config.write_text("epochs = 1\nn_speakers = 3\n")
    capsys.readouterr()
    code = main([
        "ablate", "--manifest", str(manifest), "--workdir", str(tmp_path / "w"),
        "--seeds", "0", "--config", str(config),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "ablate" in err and "'n_speakers'" in err
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("utt_id", ["a/b", "../../../escaped"])
def test_extract_path_like_utt_id_fails_with_error_line(tmp_path, capsys, utt_id):
    root = tmp_path / "deep" / "er" / "run"
    noise = np.random.default_rng(0).uniform(-0.1, 0.1, 16000).astype(np.float32)
    write_wav(root / "wav" / "u0.wav", noise)
    manifest = root / "manifest.tsv"
    manifest.write_text(f"{utt_id}\tspk0\tbonafide\t-\twav/u0.wav\ttrain\n")
    before = set(tmp_path.rglob("*"))
    capsys.readouterr()
    code = main([
        "extract", "--manifest", str(manifest), "--cache", str(root / "cache"),
        "--tau", "10", "--layers", "3", "--dim", "16",
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    cache = root / "cache"
    assert {p for p in tmp_path.rglob("*") if p != cache and cache not in p.parents} == before


def test_unset_settings_take_the_dataclass_defaults(tmp_path):
    parser = build_parser()
    args = parser.parse_args(["ablate", "--manifest", "m", "--workdir", "w"])
    _resolve(args)
    assert TrainHyper(**_fields(TrainHyper, args)) == TrainHyper()
    assert EncoderConfig(**_fields(EncoderConfig, args)) == EncoderConfig()
    config = tmp_path / "run.cfg"
    config.write_text("layers = 3\nk = 4\nbatch = 8\nencoder_seed = 2\nlr = 0.5\n")
    args = parser.parse_args([
        "ablate", "--manifest", "m", "--workdir", "w", "--k", "5", "--dim", "16",
        "--config", str(config),
    ])
    _resolve(args)
    assert TrainHyper(**_fields(TrainHyper, args)) == TrainHyper(k_refs=5, batch_size=8, lr=0.5)
    assert EncoderConfig(**_fields(EncoderConfig, args)) == EncoderConfig(
        n_layers=3, feat_dim=16, seed=2
    )


def test_synth_without_settings_uses_the_corpus_defaults(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "c")]) == 0
    manifest = (tmp_path / "c" / "run_manifest.txt").read_text().splitlines()
    for line in ("n_speakers=4", "clips_per_speaker=10", "spoof_fraction=0.5", "seed=0"):
        assert line in manifest
    assert len((tmp_path / "c" / "manifest.tsv").read_text().splitlines()) == 40


def _subparsers():
    """{command: its subparser} of the radspoof parser."""
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _read_run_manifest(directory) -> dict:
    lines = (directory / "run_manifest.txt").read_text().splitlines()
    items = dict(line.split("=", 1) for line in lines)
    del items["config_hash"]
    return items


def _argv_from_manifest(directory, **redirect) -> list[str]:
    """The command line a run manifest records, with some flags redirected;
    an empty value is a flag the run left unset."""
    items = _read_run_manifest(directory)
    assert set(redirect) <= set(items), f"{directory}: output flags not recorded"
    items.update(redirect)
    command = items.pop("command")
    argv = [command]
    for action in _subparsers()[command]._actions:
        value = items.pop(action.dest, "")
        if not action.option_strings or value == "":
            continue
        if action.nargs == 0:  # a switch
            argv += [action.option_strings[0]] if value == "True" else []
        else:
            argv += [action.option_strings[0], value]
    assert not items, f"manifest keys that are no flag of {command}: {sorted(items)}"
    return argv


def _tree(path):
    """{relative path: bytes} of a file or a directory, run manifests excluded."""
    if path.is_file():
        return {path.name: path.read_bytes()}
    return {
        str(p.relative_to(path)): p.read_bytes()
        for p in sorted(path.rglob("*"))
        if p.is_file() and p.name not in ("run_manifest.txt", "config_hash.txt")
    }


@pytest.fixture(scope="module")
def manifest_runs(workspace):
    """{run: (directory holding its run manifest, {output flag: path})} for one
    run of every manifest-writing command; settings of the retrieval train
    come from a config file."""
    root, manifest, cache_dir, store_dir = workspace
    runs = root / "runs"
    small = ["--epochs", "1", "--batch", "8"]
    assert main([
        "train", "--kind", "baseline", "--manifest", str(manifest),
        "--out", str(runs / "base"), "--layers", "3", "--dim", "16", *small,
    ]) == 0
    config = root / "rad.cfg"
    config.write_text("k = 3\nepochs = 1\nbatch = 8\nseed = 4\nlr = 0.002\n")
    assert main([
        "train", "--kind", "radmfa", "--manifest", str(manifest), "--out", str(runs / "rad"),
        "--name", "rad", "--cache", str(cache_dir), "--store", str(store_dir),
        "--config", str(config),
    ]) == 0
    assert main([
        "eval", "--kind", "radmfa", "--checkpoint", str(runs / "rad" / "rad.ckpt"),
        "--manifest", str(manifest), "--out", str(runs / "eval" / "scores.tsv"),
        "--det", str(runs / "eval" / "det.csv"),
        "--cache", str(cache_dir), "--store", str(store_dir),
    ]) == 0
    assert main([
        "ablate", "--manifest", str(manifest), "--workdir", str(runs / "grid"),
        "--seeds", "0", "--k", "3", "--layers", "3", "--dim", "16", *small,
    ]) == 0
    return {
        "synth": (manifest.parent, {"out": manifest.parent}),
        "extract": (cache_dir, {"cache": cache_dir}),
        "build-db": (store_dir, {"store": store_dir}),
        "train_baseline": (runs / "base", {"out": runs / "base"}),
        "train_radmfa_config": (runs / "rad", {"out": runs / "rad"}),
        "eval": (runs / "eval", {
            "out": runs / "eval" / "scores.tsv", "det": runs / "eval" / "det.csv",
        }),
        "ablate": (runs / "grid", {"workdir": runs / "grid"}),
    }


@pytest.mark.parametrize("run", [
    "synth", "extract", "build-db", "train_baseline", "train_radmfa_config", "eval", "ablate",
])
def test_run_manifest_alone_repeats_the_run(manifest_runs, tmp_path, run):
    directory, outputs = manifest_runs[run]
    moved = {flag: tmp_path / path.name for flag, path in outputs.items()}
    argv = _argv_from_manifest(directory, **{flag: str(path) for flag, path in moved.items()})
    assert "--config" not in argv
    assert main(argv) == 0
    for flag, path in outputs.items():
        assert _tree(moved[flag]) == _tree(path), f"{run}: --{flag} output differs"


def test_every_flag_of_a_manifest_writing_command_is_in_its_manifest(manifest_runs):
    recorded = {}
    for directory, _ in manifest_runs.values():
        items = _read_run_manifest(directory)
        recorded.setdefault(items["command"], set()).update(items)
    assert set(recorded) == set(_MANIFEST_DIR)
    for command, parser in _subparsers().items():
        flags = {a.dest for a in parser._actions if a.option_strings} - {"help", "config"}
        if command in _MANIFEST_DIR:
            assert flags <= recorded[command], f"{command} leaves out {flags - recorded[command]}"
