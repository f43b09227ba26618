import dataclasses

import numpy as np
import pytest

from radspoof import encoder, model, nn, vecstore
from radspoof.cli import mfa_grad_check, radmfa_grad_check
from radspoof.corpus import CorpusConfig, load_segment, write_corpus
from radspoof.encoder import EncoderConfig, extract_and_cache, mel_frames
from radspoof.errors import ConfigurationError, FeatureLoadError, FormatError, InvalidInputError
from radspoof.metrics import pooled_eer
from radspoof.model import (
    TrainHyper,
    baseline_forward,
    init_baseline,
    init_mfa,
    init_radmfa,
    mfa_forward,
    radmfa_forward,
    score_dataset,
    train_model,
)


def test_mfa_output_is_4f():
    rng = np.random.default_rng(0)
    params = init_mfa(4, 16, rng)
    out = mfa_forward(rng.standard_normal((2, 4, 20, 16)), params)
    assert out.data.shape == (2, 64)
    assert np.all(np.isfinite(out.data))


def test_mfa_single_frame_input_finite():
    rng = np.random.default_rng(1)
    params = init_mfa(3, 8, rng)
    out = mfa_forward(rng.standard_normal((2, 3, 1, 8)), params)
    assert np.all(np.isfinite(out.data))


def test_mfa_shape_mismatch_rejected():
    rng = np.random.default_rng(2)
    params = init_mfa(3, 8, rng)
    with pytest.raises(InvalidInputError):
        mfa_forward(rng.standard_normal((2, 4, 5, 8)), params)
    with pytest.raises(InvalidInputError):
        mfa_forward(rng.standard_normal((2, 3, 5, 9)), params)


def test_mfa_gradient_end_to_end():
    rng = np.random.default_rng(3)
    feat = rng.standard_normal((2, 3, 5, 8))
    assert mfa_grad_check(feat, rng, max_coords=120) < 1e-4


def _groups(queries, refs):
    """(B, 1+K, L, T, F) groups: each query followed by its references."""
    return np.concatenate([queries[:, None], refs], axis=1)


def test_radmfa_shapes():
    rng = np.random.default_rng(4)
    params = init_radmfa(4, 16, rng)
    assert params.sample_pool.attn_w.data.shape[0] == 64  # 4F in
    assert params.head_w.data.shape == (192, 2)  # 12F -> 2
    groups = rng.standard_normal((3, 11, 4, 5, 16))
    logits = radmfa_forward(groups, params)
    assert logits.data.shape == (3, 2)


def test_radmfa_refs_equal_query_zero_difference():
    rng = np.random.default_rng(5)
    params = init_radmfa(3, 8, rng)
    query = rng.standard_normal((1, 3, 4, 8))
    groups = np.repeat(query[:, None], 6, axis=1)  # the query and 5 copies
    feat_dim = 8
    head_in = np.concatenate(
        [np.zeros(4 * feat_dim), np.full(4 * feat_dim, np.sqrt(nn.ASP_EPS))]
    )
    # query branch appended after the pooled difference
    reprs = mfa_forward(groups[0], params.mfa).data
    expected = np.concatenate([head_in, reprs[0]]) @ params.head_w.data + params.head_b.data
    logits = radmfa_forward(groups, params)
    assert np.array_equal(logits.data[0], expected)


def test_just_difference_constant_for_equal_refs():
    rng = np.random.default_rng(6)
    params = init_radmfa(3, 8, rng, just_difference=True)
    assert params.head_w.data.shape == (64, 2)  # 8F -> 2
    query = rng.standard_normal((1, 3, 4, 8))
    feat_dim = 8
    head_in = np.concatenate(
        [np.zeros(4 * feat_dim), np.full(4 * feat_dim, np.sqrt(nn.ASP_EPS))]
    )
    expected = head_in @ params.head_w.data + params.head_b.data
    logits = radmfa_forward(np.repeat(query[:, None], 5, axis=1), params)
    assert np.array_equal(logits.data[0], expected)
    other_query = rng.standard_normal((1, 3, 4, 8))
    again = radmfa_forward(np.repeat(other_query[:, None], 5, axis=1), params)
    assert np.array_equal(again.data[0], expected)


def test_k_identical_copies_match_k1():
    rng = np.random.default_rng(8)
    params = init_radmfa(3, 8, rng)
    query = rng.standard_normal((1, 3, 4, 8))
    ref = rng.standard_normal((1, 1, 3, 4, 8))
    one = radmfa_forward(_groups(query, ref), params).data
    many = radmfa_forward(_groups(query, np.repeat(ref, 7, axis=1)), params).data
    assert np.max(np.abs(one - many)) < 1e-9


def test_reference_permutation_invariance():
    rng = np.random.default_rng(9)
    params = init_radmfa(3, 8, rng)
    query = rng.standard_normal((1, 3, 4, 8))
    refs = rng.standard_normal((1, 6, 3, 4, 8))
    base = radmfa_forward(_groups(query, refs), params).data
    for _ in range(3):
        perm = rng.permutation(6)
        shuffled = radmfa_forward(_groups(query, refs[:, perm]), params).data
        assert np.max(np.abs(base - shuffled)) < 1e-9


def test_radmfa_empty_refs_rejected():
    rng = np.random.default_rng(10)
    params = init_radmfa(3, 8, rng)
    query = rng.standard_normal((1, 3, 4, 8))
    with pytest.raises(InvalidInputError):  # a group of the query alone
        radmfa_forward(query[:, None], params)
    with pytest.raises(InvalidInputError):  # a query without the group axis
        radmfa_forward(query, params)


def test_radmfa_gradient_end_to_end():
    rng = np.random.default_rng(11)
    groups = rng.standard_normal((2, 4, 3, 4, 8))
    assert radmfa_grad_check(groups, rng, max_coords=120) < 1e-4


def test_batched_forward_matches_single():
    rng = np.random.default_rng(12)
    params = init_radmfa(3, 8, rng)
    groups = rng.standard_normal((4, 7, 3, 5, 8))
    batched = radmfa_forward(groups, params).data
    for i in range(4):
        single = radmfa_forward(groups[i : i + 1], params).data
        assert np.max(np.abs(batched[i] - single[0])) < 1e-9


def test_score_sign_stable_under_positive_head_scaling():
    rng = np.random.default_rng(13)
    params = init_radmfa(3, 8, rng)
    groups = rng.standard_normal((1, 6, 3, 4, 8))
    base = radmfa_forward(groups, params).data[0]
    base_score = base[model.CLASS_BONAFIDE] - base[model.CLASS_SPOOF]
    for c in (0.5, 2.0, 13.0):
        params.head_w.data *= c
        params.head_b.data *= c
        scaled = radmfa_forward(groups, params).data[0]
        score = scaled[model.CLASS_BONAFIDE] - scaled[model.CLASS_SPOOF]
        assert np.sign(score) == np.sign(base_score)
        params.head_w.data /= c
        params.head_b.data /= c


# --- end-to-end training on a tiny corpus ------------------------------------------


@pytest.fixture(scope="module")
def tiny_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    cfg = CorpusConfig(
        n_speakers=3,
        clips_per_speaker=20,
        spoof_fraction=0.5,
        seed=21,
        split_counts={"train": 36, "dev": 12, "eval": 12},
    )
    records, _ = write_corpus(cfg, root)
    encoder_cfg = EncoderConfig(n_layers=3, feat_dim=16, seed=3)
    cache = extract_and_cache(records, root, encoder_cfg, tau=10, cache_dir=root / "cache")
    store, _ = vecstore.build_stores(records, cache, splits={"train"})
    return root, records, encoder_cfg, cache, store


def test_baseline_forward_contract(tiny_setup):
    root, records, encoder_cfg, _, _ = tiny_setup
    mels = np.stack([mel_frames(load_segment(root, r).samples, 16) for r in records[:5]])
    rng = np.random.default_rng(14)
    params = init_baseline(3, 16, rng)
    logits = baseline_forward(mels, params, encoder_cfg, tau=10)
    assert logits.data.shape == (5, 2)


def test_baseline_batch_gathers_each_records_log_mel(tiny_setup, monkeypatch):
    root, records, encoder_cfg, _, _ = tiny_setup
    served = records[:10]
    reads = []
    monkeypatch.setattr(model, "load_segment", lambda d, r: reads.append(r) or load_segment(d, r))
    runner = model._BaselineRunner(served, root, encoder_cfg, TrainHyper())
    assert reads == served  # one read per record, when the runner is built
    batches = []
    monkeypatch.setattr(model, "baseline_forward", lambda mels, *rest: batches.append(mels))
    batch = [served[7], served[2], served[7]]
    runner.logits(batch)
    assert len(reads) == len(served)
    expected = np.stack([mel_frames(load_segment(root, r).samples, 16) for r in batch])
    assert batches[0].dtype == np.float64 and np.array_equal(batches[0], expected)


def test_rad_batch_gathers_the_groups_the_old_halves_made(tiny_setup, monkeypatch):
    root, records, _, cache, store = tiny_setup
    served = [r for r in records if r.split == "eval"]
    runner = model._RadRunner(served, store, cache, TrainHyper(k_refs=5, tau=10), False)
    flats = []
    mfa = model.mfa_forward
    monkeypatch.setattr(model, "mfa_forward", lambda x, p: flats.append(x.data) or mfa(x, p))
    batch = [served[7], served[2], served[7], served[0]]
    runner.logits(batch)
    # oracle: queries and references gathered and cast apart, then joined
    rows, table = cache.short_table(10)
    queries = table[[rows[r.utt_id] for r in batch]].astype(np.float64)
    ref_rows = np.stack(
        [model.retrieve_references(r.utt_id, store, cache, rows, 5) for r in batch]
    )
    refs = table[ref_rows, np.arange(3)].astype(np.float64)
    expected = np.concatenate([queries[:, None], refs], axis=1)
    (flat,) = flats
    assert flat.dtype == np.float64 and flat.flags.c_contiguous
    assert flat.shape == (len(batch) * 6,) + table.shape[1:]
    assert flat.tobytes() == expected.reshape(flat.shape).tobytes()


def test_each_served_record_is_retrieved_once(tiny_setup, tmp_path, monkeypatch):
    root, records, encoder_cfg, cache, store = tiny_setup
    calls = []
    retrieve = model.retrieve_references
    monkeypatch.setattr(
        model, "retrieve_references", lambda utt, *rest: calls.append(utt) or retrieve(utt, *rest)
    )
    served = [r for r in records if r.split == "eval"]
    runner = model._RadRunner(served, store, cache, TrainHyper(k_refs=5, tau=10), False)
    assert calls == [r.utt_id for r in served]  # all at construction
    for start in range(0, len(served), 5):
        runner.logits(served[start : start + 5])
    runner.logits(served)
    assert len(calls) == len(served)
    calls.clear()
    hyper = TrainHyper(lr=3e-4, batch_size=12, epochs=2, seed=5, k_refs=5, tau=10)
    train_model("radmfa", records, root, encoder_cfg, hyper, tmp_path, store=store, cache=cache)
    assert sorted(calls) == sorted(r.utt_id for r in records if r.split in ("train", "dev"))


def test_too_few_references_fail_when_the_runner_is_built(tiny_setup):
    _, records, _, cache, store = tiny_setup
    with pytest.raises(InvalidInputError, match=f"need k={store.count + 1}"):
        model._RadRunner(records, store, cache, TrainHyper(k_refs=store.count + 1), False)


def test_scoring_a_record_the_cache_lacks_is_feature_load_error(tiny_setup, tmp_path):
    _, records, _, cache, store = tiny_setup
    params = init_radmfa(3, 16, np.random.default_rng(0))
    meta = {
        "kind": "radmfa", "n_layers": "3", "feat_dim": "16", "tau": "10", "k_refs": "5",
        "encoder_seed": "3", "fingerprint": cache.fingerprint,
    }
    checkpoint = tmp_path / "rad.ckpt"
    nn.save_checkpoint(checkpoint, {n: t.data for n, t in params.tensors().items()}, meta)
    eval_records = [r for r in records if r.split == "eval"]
    ghost = dataclasses.replace(eval_records[0], utt_id="ghost")
    with pytest.raises(FeatureLoadError, match="'ghost' is not in the cache"):
        score_dataset(
            "radmfa", checkpoint, eval_records[:3] + [ghost], tmp_path, store=store, cache=cache
        )


def test_untrained_eer_near_chance(tiny_setup):
    # the tiny eval split is too small for a tight band; the +-0.15 gate runs
    # on the full toy corpus in the acceptance suite
    root, records, encoder_cfg, cache, store = tiny_setup
    eval_records = [r for r in records if r.split == "eval"]
    rows, table = cache.short_table()
    eers = []
    for seed in range(3):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 502)))
        params = init_radmfa(3, 16, rng)
        queries = table[[rows[r.utt_id] for r in eval_records]].astype(float)
        ref_rows = np.stack(
            [model.retrieve_references(r.utt_id, store, cache, rows, 5) for r in eval_records]
        )
        refs = table[ref_rows, np.arange(3)].astype(float)
        logits = radmfa_forward(_groups(queries, refs), params).data
        scores = model._scores_from_logits(eval_records, logits)
        eers.append(pooled_eer(scores).eer)
    assert 0.15 <= float(np.median(eers)) <= 0.85


def test_training_reduces_loss_and_is_deterministic(tiny_setup, tmp_path):
    root, records, encoder_cfg, cache, store = tiny_setup
    hyper = TrainHyper(lr=3e-4, batch_size=12, epochs=2, seed=5, k_refs=5, tau=10)
    frozen = TrainHyper(lr=0.0, batch_size=12, epochs=1, seed=5, k_refs=5, tau=10)
    init_run = train_model(
        "radmfa", records, root, encoder_cfg, frozen, tmp_path / "a",
        store=store, cache=cache, run_name="init",
    )
    init_loss = float(init_run.log_path.read_text().split("\t")[1])
    trained = train_model(
        "radmfa", records, root, encoder_cfg, hyper, tmp_path / "b",
        store=store, cache=cache, run_name="run1",
    )
    first_epoch_loss = float(trained.log_path.read_text().splitlines()[0].split("\t")[1])
    assert first_epoch_loss < init_loss

    again = train_model(
        "radmfa", records, root, encoder_cfg, hyper, tmp_path / "c",
        store=store, cache=cache, run_name="run2",
    )
    assert trained.log_path.read_text() == again.log_path.read_text()
    assert trained.checkpoint_path.read_bytes()[:6] == again.checkpoint_path.read_bytes()[:6]
    a = nn.load_checkpoint(trained.checkpoint_path)[0]
    b = nn.load_checkpoint(again.checkpoint_path)[0]
    for name in a:
        assert np.array_equal(a[name], b[name])


def test_scoring_deterministic_and_k_sensitive(tiny_setup, tmp_path):
    root, records, encoder_cfg, cache, store = tiny_setup
    hyper = TrainHyper(lr=3e-4, batch_size=12, epochs=2, seed=6, k_refs=5, tau=10)
    trained = train_model(
        "radmfa", records, root, encoder_cfg, hyper, tmp_path,
        store=store, cache=cache, run_name="scorer",
    )
    eval_records = [r for r in records if r.split == "eval"]
    scores_a = score_dataset(
        "radmfa", trained.checkpoint_path, eval_records, root, store=store, cache=cache
    )
    scores_b = score_dataset(
        "radmfa", trained.checkpoint_path, eval_records, root, store=store, cache=cache
    )
    assert len(scores_a) == len(eval_records)
    assert [(r.utt_id, r.score) for r in scores_a] == [(r.utt_id, r.score) for r in scores_b]
    from radspoof.metrics import write_scores

    write_scores(tmp_path / "a.tsv", scores_a)
    write_scores(tmp_path / "b.tsv", scores_b)
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()

    scores_k3 = score_dataset(
        "radmfa", trained.checkpoint_path, eval_records, root,
        store=store, cache=cache, k_refs=3,
    )
    assert any(
        a.score != b.score for a, b in zip(scores_a, scores_k3)
    ), "changing K should generally change scores"
    # every eval query finds the whole store, one reference short of k
    with pytest.raises(InvalidInputError, match=f"found {store.count} references, need k="):
        score_dataset(
            "radmfa", trained.checkpoint_path, eval_records, root,
            store=store, cache=cache, k_refs=store.count + 1,
        )


@pytest.mark.parametrize("kind", ["baseline", "radmfa"])
def test_scoring_records_no_tape(tiny_setup, tmp_path, monkeypatch, kind):
    root, records, encoder_cfg, cache, store = tiny_setup
    retrieval = {} if kind == "baseline" else {"store": store, "cache": cache}
    hyper = TrainHyper(lr=3e-4, batch_size=12, epochs=1, seed=8, k_refs=5, tau=10)
    trained = train_model(kind, records, root, encoder_cfg, hyper, tmp_path, **retrieval)
    forward = getattr(model, f"{kind}_forward")
    outputs = []

    def spy(*args):
        outputs.append(forward(*args))
        return outputs[-1]

    monkeypatch.setattr(model, f"{kind}_forward", spy)
    eval_records = [r for r in records if r.split == "eval"]
    score_dataset(kind, trained.checkpoint_path, eval_records, root, **retrieval)
    assert outputs
    assert all(not out.requires_grad and out._vjps == () for out in outputs)


def test_scoring_with_a_cache_missing_store_members_is_feature_load_error(tiny_setup, tmp_path):
    root, records, encoder_cfg, cache, store = tiny_setup
    hyper = TrainHyper(lr=3e-4, batch_size=12, epochs=1, seed=6, k_refs=5, tau=10)
    trained = train_model(
        "radmfa", records, root, encoder_cfg, hyper, tmp_path, store=store, cache=cache,
    )
    eval_records = [r for r in records if r.split == "eval"]
    eval_only = extract_and_cache(eval_records, root, encoder_cfg, 10, tmp_path / "eval_cache")
    with pytest.raises(FeatureLoadError, match="not in the cache"):
        score_dataset(
            "radmfa", trained.checkpoint_path, eval_records, root, store=store, cache=eval_only
        )


def test_baseline_training_smoke(tiny_setup, tmp_path):
    root, records, encoder_cfg, _, _ = tiny_setup
    hyper = TrainHyper(lr=3e-4, batch_size=12, epochs=2, seed=7, tau=10)
    result = train_model("baseline", records, root, encoder_cfg, hyper, tmp_path,
                         run_name="base")
    lines = result.log_path.read_text().splitlines()
    assert len(lines) == 2
    eval_records = [r for r in records if r.split == "eval"]
    scores = score_dataset("baseline", result.checkpoint_path, eval_records, root)
    assert len(scores) == len(eval_records)
    tuned = model.tuned_encoder_from_checkpoint(result.checkpoint_path)
    assert tuned.scales is not None and tuned.shifts is not None
    scales, _ = tuned.scale_arrays()
    assert not np.allclose(scales, 1.0)  # training moved the encoder


def _baseline_checkpoint_parts():
    params = init_baseline(2, 4, np.random.default_rng(0))
    meta = {
        "kind": "baseline", "n_layers": "2", "feat_dim": "4", "tau": "10", "k_refs": "3",
        "encoder_seed": "0", "fingerprint": "f",
    }
    return {name: t.data for name, t in params.tensors().items()}, meta


def test_score_checkpoint_with_kind_only_meta_is_format_error(tmp_path):
    nn.save_checkpoint(tmp_path / "rad.ckpt", {}, {"kind": "radmfa"})
    with pytest.raises(FormatError):
        score_dataset("radmfa", tmp_path / "rad.ckpt", [], tmp_path)


@pytest.mark.parametrize(
    "drop", ["n_layers", "feat_dim", "encoder_seed", "encoder.scale.1", "head_w", "bad_tau"]
)
def test_incomplete_baseline_checkpoint_is_format_error(tiny_setup, tmp_path, drop):
    root, records, _, _, _ = tiny_setup
    tensors, meta = _baseline_checkpoint_parts()
    tensors.pop(drop, None)
    meta.pop(drop, None)
    if drop == "bad_tau":
        meta["tau"] = "ten"
    path = tmp_path / "base.ckpt"
    nn.save_checkpoint(path, tensors, meta)
    with pytest.raises(FormatError):
        model.tuned_encoder_from_checkpoint(path)
    with pytest.raises(FormatError):  # one record: an empty list fails before any tensor check
        score_dataset("baseline", path, records[:1], root)


def test_complete_baseline_checkpoint_gives_its_tuning(tmp_path):
    tensors, meta = _baseline_checkpoint_parts()
    tensors["encoder.scale.1"] = np.full(4, 2.5)
    nn.save_checkpoint(tmp_path / "base.ckpt", tensors, meta)
    scales, shifts = model.tuned_encoder_from_checkpoint(tmp_path / "base.ckpt").scale_arrays()
    assert np.array_equal(scales, [[1.0] * 4, [2.5] * 4])
    assert np.array_equal(shifts, np.zeros((2, 4)))


def test_baseline_checkpoint_names_its_encoder_seed(tiny_setup, tmp_path, monkeypatch):
    root, records, _, _, _ = tiny_setup
    hyper = TrainHyper(lr=1e-3, batch_size=12, epochs=1, seed=0, tau=10)
    result = train_model(
        "baseline", records, root, EncoderConfig(n_layers=3, feat_dim=16, seed=2), hyper, tmp_path
    )
    tuned = model.tuned_encoder_from_checkpoint(result.checkpoint_path)
    assert (tuned.n_layers, tuned.feat_dim, tuned.seed) == (3, 16, 2)
    mixer_seeds = set()
    layer_mixer = encoder.layer_mixer

    def spy(seed, layer, dim):
        mixer_seeds.add(seed)
        return layer_mixer(seed, layer, dim)

    monkeypatch.setattr(encoder, "layer_mixer", spy)
    eval_records = [r for r in records if r.split == "eval"]
    score_dataset("baseline", result.checkpoint_path, eval_records, root)
    assert mixer_seeds == {2}


def test_train_requires_store_for_rad(tiny_setup, tmp_path):
    root, records, encoder_cfg, cache, _ = tiny_setup
    hyper = TrainHyper(epochs=1, seed=0)
    with pytest.raises(ConfigurationError):
        train_model("radmfa", records, root, encoder_cfg, hyper, tmp_path, cache=cache)


@pytest.mark.parametrize(
    "bad",
    [dict(batch_size=0), dict(epochs=0), dict(k_refs=0), dict(tau=0),
     dict(lr=-1e-3), dict(lr=float("nan")), dict(lr=float("inf"))],
    ids=["batch", "epochs", "k_refs", "tau", "negative_lr", "nan_lr", "inf_lr"],
)
def test_train_rejects_out_of_range_hyperparameters(tiny_setup, tmp_path, bad):
    root, records, encoder_cfg, _, _ = tiny_setup
    hyper = TrainHyper(**{**dict(epochs=1, batch_size=12), **bad})
    with pytest.raises(ConfigurationError, match=next(iter(bad))):
        train_model("baseline", records, root, encoder_cfg, hyper, tmp_path)


def test_unknown_kind_rejected(tiny_setup, tmp_path):
    root, records, encoder_cfg, _, _ = tiny_setup
    with pytest.raises(ConfigurationError):
        train_model("mystery", records, root, encoder_cfg, TrainHyper(), tmp_path)
