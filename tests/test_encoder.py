import numpy as np
import pytest

from radspoof import encoder, radf
from radspoof.corpus import CorpusConfig, segment_clip, synthesize_corpus, write_corpus
from radspoof.encoder import (
    CacheIndex,
    EncoderConfig,
    LongFeature,
    encode_long,
    encoder_fingerprint,
    extract_and_cache,
    frame_count,
    layer_mixer,
    load_feature,
    mel_filterbank,
    mel_frames,
    temporal_embed,
    time_speedup,
)
from radspoof.errors import (
    CacheCorruptionError,
    ConfigurationError,
    FeatureLoadError,
    FormatError,
    IncompatibilityError,
)


def tiny_cfg(**overrides):
    base = dict(kind="pseudo", n_layers=3, feat_dim=16, seed=5)
    base.update(overrides)
    return EncoderConfig(**base)


def one_segment(seed=7):
    clips, _ = synthesize_corpus(
        CorpusConfig(n_speakers=2, clips_per_speaker=1, spoof_fraction=0.0, seed=seed)
    )
    return segment_clip(clips[0])


def test_frame_count_matches_hop_arithmetic():
    # floor((64000 - 400) / 320) + 1
    assert frame_count(64000) == 199


def test_encode_long_shape_and_determinism():
    segment = one_segment()
    cfg = tiny_cfg()
    a = encode_long(segment, cfg)
    b = encode_long(segment, cfg)
    assert a.values.shape == (3, 199, 16)
    assert a.values.dtype == np.float32
    assert np.array_equal(a.values, b.values)


def test_all_zero_segment_gives_constant_layers():
    segment = one_segment()
    segment.samples = np.zeros_like(segment.samples)
    feature = encode_long(segment, tiny_cfg())
    layer0 = feature.values[0]
    assert np.allclose(layer0, np.log(1e-6), atol=1e-5)
    for l in range(feature.values.shape[0]):
        frames = feature.values[l]
        assert np.allclose(frames, frames[0][None, :], atol=0)


def test_trainable_identity_params_match_pseudo():
    segment = one_segment()
    plain = encode_long(segment, tiny_cfg())
    trainable = encode_long(segment, tiny_cfg(kind="pseudo_trainable"))
    assert np.array_equal(plain.values, trainable.values)


def test_trainable_params_change_downstream_layers():
    segment = one_segment()
    cfg = tiny_cfg()
    scales = np.ones((3, 16))
    shifts = np.zeros((3, 16))
    shifts[0, :] = 0.5
    tuned = tiny_cfg(kind="pseudo_trainable").with_tuning(scales, shifts)
    plain = encode_long(segment, cfg)
    shifted = encode_long(segment, tuned)
    assert not np.allclose(plain.values[1], shifted.values[1])


def test_cached_filterbank_gives_identical_mel_frames(monkeypatch):
    samples = one_segment().samples
    cached = [mel_frames(samples, 16) for _ in range(2)]
    assert not mel_filterbank(16).flags.writeable
    monkeypatch.setattr(encoder, "mel_filterbank", mel_filterbank.__wrapped__)
    fresh = mel_frames(samples, 16)
    for got in cached:
        assert np.array_equal(got, fresh)


def test_mixers_are_orthogonal():
    for layer in range(1, 5):
        mixer = layer_mixer(seed=5, layer=layer, dim=16)
        gram = mixer.T @ mixer
        assert np.max(np.abs(gram - np.eye(16))) < 1e-5


def test_mixer_distinct_per_layer_and_seed():
    a = layer_mixer(0, 1, 16)
    b = layer_mixer(0, 2, 16)
    c = layer_mixer(1, 1, 16)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)


# --- temporal embedding ---------------------------------------------------------


def test_temporal_embed_small_example():
    feature = LongFeature(values=np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=np.float32),
                          segment_ref="u")
    embedding = temporal_embed(feature)
    assert np.allclose(embedding.values, [[2.0, 3.0]])


def test_temporal_embed_constant_layer():
    feature = LongFeature(values=np.full((2, 9, 4), 3.25, dtype=np.float32), segment_ref="u")
    assert np.allclose(temporal_embed(feature).values, 3.25)


def test_temporal_embed_matches_loop_oracle():
    rng = np.random.default_rng(11)
    values = rng.standard_normal((3, 199, 32)).astype(np.float32)
    feature = LongFeature(values=values, segment_ref="u")
    embedding = temporal_embed(feature)
    for l in range(3):
        for f in range(32):
            total = 0.0
            for t in range(199):
                total += float(values[l, t, f])
            assert abs(embedding.values[l, f] - total / 199) < 1e-6


# --- time speedup ----------------------------------------------------------------


def _lf(array):
    return LongFeature(values=np.asarray(array, dtype=np.float32), segment_ref="u")


def test_speedup_block_means():
    feature = _lf([[[1.0], [3.0], [5.0], [7.0]]])
    short = time_speedup(feature, 2)
    assert np.allclose(short.values, [[[2.0], [6.0]]])


def test_speedup_ragged_final_block():
    frames = np.arange(7, dtype=np.float32).reshape(1, 7, 1)
    short = time_speedup(_lf(frames), 3)
    assert short.values.shape == (1, 3, 1)
    assert np.allclose(short.values[0, :, 0], [1.0, 4.0, 6.0])


def test_speedup_tau_one_is_identity():
    rng = np.random.default_rng(2)
    values = rng.standard_normal((2, 13, 4)).astype(np.float32)
    short = time_speedup(_lf(values), 1)
    assert np.allclose(short.values, values)


def test_speedup_tau_ten_on_199_frames():
    rng = np.random.default_rng(3)
    feature = _lf(rng.standard_normal((2, 199, 8)))
    short = time_speedup(feature, 10)
    assert short.values.shape[1] == 20


@pytest.mark.parametrize("tau", [1, 5, 10, 20])
def test_frame_counts_are_ceil(tau):
    rng = np.random.default_rng(4)
    for frames in (1, 7, 40, 199):
        feature = _lf(rng.standard_normal((1, frames, 4)))
        short = time_speedup(feature, tau)
        assert short.values.shape[1] == -(-frames // tau)


def test_mean_preserved_when_tau_divides():
    rng = np.random.default_rng(5)
    feature = _lf(rng.standard_normal((3, 40, 8)))
    embedding = temporal_embed(feature)
    for tau in (1, 2, 4, 5, 8, 10, 20, 40):
        short = time_speedup(feature, tau)
        assert np.max(np.abs(short.values.mean(axis=1) - embedding.values)) < 1e-6


def test_tau_beyond_length_gives_single_mean_frame():
    rng = np.random.default_rng(6)
    feature = _lf(rng.standard_normal((2, 9, 4)))
    short = time_speedup(feature, 50)
    assert short.values.shape[1] == 1
    assert np.max(np.abs(short.values[:, 0, :] - temporal_embed(feature).values)) < 1e-6


def test_speedup_rejects_bad_tau():
    with pytest.raises(ConfigurationError):
        time_speedup(_lf(np.zeros((1, 4, 2))), 0)


# --- caching -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    cfg = CorpusConfig(n_speakers=2, clips_per_speaker=3, spoof_fraction=0.5, seed=9)
    records, manifest = write_corpus(cfg, root)
    return root, records


def test_extract_cache_counts_and_roundtrip(small_corpus, tmp_path):
    root, records = small_corpus
    cache = extract_and_cache(records, root, tiny_cfg(), tau=10, cache_dir=tmp_path / "c")
    assert len(cache.entries) == 6
    short = cache.load_short(records[0].utt_id)
    assert short.values.shape == (3, 20, 16)
    assert short.tau == 10
    embed = cache.load_embedding(records[0].utt_id)
    assert embed.values.shape == (3, 16)
    reloaded = CacheIndex.load(tmp_path / "c")
    assert reloaded.entries == cache.entries
    assert reloaded.fingerprint == cache.fingerprint


def test_extract_cache_idempotent(small_corpus, tmp_path):
    root, records = small_corpus
    cache_dir = tmp_path / "c"
    cache = extract_and_cache(records, root, tiny_cfg(), tau=10, cache_dir=cache_dir)
    before = {
        utt: cache.short_path(utt).stat().st_mtime_ns for utt in cache.entries
    }
    extract_and_cache(records, root, tiny_cfg(), tau=10, cache_dir=cache_dir)
    after = {utt: cache.short_path(utt).stat().st_mtime_ns for utt in cache.entries}
    assert before == after


def test_extract_cache_detects_corruption(small_corpus, tmp_path):
    root, records = small_corpus
    cache_dir = tmp_path / "c"
    cache = extract_and_cache(records, root, tiny_cfg(), tau=10, cache_dir=cache_dir)
    victim = cache.short_path(records[2].utt_id)
    victim.write_bytes(victim.read_bytes()[:-8])
    with pytest.raises(CacheCorruptionError) as err:
        extract_and_cache(records, root, tiny_cfg(), tau=10, cache_dir=cache_dir)
    assert records[2].utt_id in str(err.value)


def test_extract_cache_refuses_other_encoder(small_corpus, tmp_path):
    root, records = small_corpus
    cache_dir = tmp_path / "c"
    extract_and_cache(records, root, tiny_cfg(), tau=10, cache_dir=cache_dir)
    with pytest.raises(IncompatibilityError):
        extract_and_cache(records, root, tiny_cfg(seed=6), tau=10, cache_dir=cache_dir)
    with pytest.raises(IncompatibilityError):
        extract_and_cache(records, root, tiny_cfg(), tau=5, cache_dir=cache_dir)


def test_extract_cache_keeps_earlier_entries(small_corpus, tmp_path):
    root, records = small_corpus
    cache_dir = tmp_path / "c"
    extract_and_cache(records[:4], root, tiny_cfg(), tau=10, cache_dir=cache_dir)
    cache = extract_and_cache(records[4:], root, tiny_cfg(), tau=10, cache_dir=cache_dir)
    assert sorted(cache.entries) == sorted(r.utt_id for r in records)
    assert CacheIndex.load(cache_dir).entries == cache.entries


@pytest.mark.parametrize("tau", [5, 10, 20])
def test_tau_one_cache_derives_short_features_exactly(small_corpus, tmp_path, tau):
    root, records = small_corpus
    full = extract_and_cache(records, root, tiny_cfg(), tau=1, cache_dir=tmp_path / "c1")
    direct = extract_and_cache(records, root, tiny_cfg(), tau=tau, cache_dir=tmp_path / "c")
    (derived_rows, derived_table), (direct_rows, direct_table) = (
        full.short_table(tau), direct.short_table()
    )
    for record in records:
        derived = derived_table[derived_rows[record.utt_id]]
        assert derived.dtype == np.float32
        assert derived.tobytes() == direct_table[direct_rows[record.utt_id]].tobytes()
    assert full.load_short(records[0].utt_id, tau).tau == tau


def test_cache_serves_only_its_own_tau_unless_tau_one(small_corpus, tmp_path):
    root, records = small_corpus
    cache = extract_and_cache(records, root, tiny_cfg(), tau=10, cache_dir=tmp_path / "c")
    utt = records[0].utt_id
    assert cache.load_short(utt, 10).values.tobytes() == cache.load_short(utt).values.tobytes()
    with pytest.raises(IncompatibilityError):
        cache.load_short(utt, 5)
    with pytest.raises(IncompatibilityError):
        cache.short_table(5)


def test_short_table_disagreeing_shapes_is_feature_load_error(small_corpus, tmp_path):
    root, records = small_corpus
    cache = extract_and_cache(records, root, tiny_cfg(), tau=10, cache_dir=tmp_path / "c")
    odd = records[-1].utt_id
    radf.write_feature(cache.short_path(odd), np.zeros((3, 7, 16), np.float32), radf.KIND_SHORT)
    with pytest.raises(FeatureLoadError, match=odd):
        cache.short_table()


def test_cache_unknown_utt_is_feature_load_error(small_corpus, tmp_path):
    root, records = small_corpus
    cache = extract_and_cache(records, root, tiny_cfg(), tau=10, cache_dir=tmp_path / "c")
    with pytest.raises(FeatureLoadError):
        cache.load_short("nope")
    with pytest.raises(FeatureLoadError):
        cache.load_embedding("nope")


def test_cache_load_malformed_is_format_error(small_corpus, tmp_path):
    root, records = small_corpus
    cache_dir = tmp_path / "c"
    extract_and_cache(records, root, tiny_cfg(), tau=10, cache_dir=cache_dir)
    meta_path, index_path = cache_dir / "meta.txt", cache_dir / "index.tsv"
    meta, index = meta_path.read_text(), index_path.read_text()

    for key in ("tau=10\n", "fingerprint="):
        meta_path.write_text("".join(l for l in meta.splitlines(True) if not l.startswith(key)))
        with pytest.raises(FormatError):
            CacheIndex.load(cache_dir)
    meta_path.write_text(meta + "garbage\n")
    with pytest.raises(FormatError):
        CacheIndex.load(cache_dir)
    meta_path.write_text(meta)
    index_path.write_text(index + "lonely\n")
    with pytest.raises(FormatError):
        CacheIndex.load(cache_dir)
    index_path.unlink()
    with pytest.raises(FormatError):
        CacheIndex.load(cache_dir)


def test_embedding_matches_long_feature_mean(small_corpus, tmp_path):
    root, records = small_corpus
    from radspoof.corpus import load_segment

    cache = extract_and_cache(records, root, tiny_cfg(), tau=10, cache_dir=tmp_path / "c")
    segment = load_segment(root, records[0])
    long_feature = encode_long(segment, tiny_cfg())
    stored = cache.load_embedding(records[0].utt_id)
    assert np.max(np.abs(stored.values - temporal_embed(long_feature).values)) < 1e-6


def test_external_kind_loads_dump(tmp_path):
    segment = one_segment()
    feature = encode_long(segment, tiny_cfg())
    dump_dir = tmp_path / "ext"
    dump_dir.mkdir()
    radf.write_feature(dump_dir / f"{segment.utt_id}.radf", feature.values, radf.KIND_LONG)
    cfg = tiny_cfg(kind="external", external_dir=str(dump_dir))
    loaded = encode_long(segment, cfg)
    assert np.array_equal(loaded.values, feature.values)


def test_external_kind_missing_or_mismatched(tmp_path):
    segment = one_segment()
    cfg = tiny_cfg(kind="external", external_dir=str(tmp_path))
    with pytest.raises(FeatureLoadError):
        encode_long(segment, cfg)
    feature = encode_long(segment, tiny_cfg())
    radf.write_feature(tmp_path / f"{segment.utt_id}.radf", feature.values, radf.KIND_LONG)
    wrong = tiny_cfg(kind="external", external_dir=str(tmp_path), feat_dim=32)
    with pytest.raises(FeatureLoadError):
        encode_long(segment, wrong)


def test_fingerprint_tracks_tuning():
    cfg = tiny_cfg(kind="pseudo_trainable")
    plain = encoder_fingerprint(cfg)
    tuned = cfg.with_tuning(np.full((3, 16), 1.1), np.zeros((3, 16)))
    assert encoder_fingerprint(tuned) != plain


def test_load_feature_returns_matching_type(tmp_path):
    values = np.ones((2, 4, 3), dtype=np.float32)
    radf.write_feature(tmp_path / "s.radf", values, radf.KIND_SHORT)
    feature = load_feature(tmp_path / "s.radf")
    assert feature.values.shape == (2, 4, 3)
    assert feature.segment_ref == "s"
