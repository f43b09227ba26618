import hashlib

import numpy as np
import pytest

from radspoof import encoder, nn, radf
from radspoof.corpus import CorpusConfig, segment_clip, synthesize_corpus, write_corpus
from radspoof.encoder import (
    CacheIndex,
    EncoderConfig,
    encode_long,
    encoder_fingerprint,
    extract_and_cache,
    frame_count,
    layer_mixer,
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
    base = dict(n_layers=3, feat_dim=16, seed=5)
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
    assert a.shape == (3, 199, 16)
    assert a.dtype == np.float32
    assert np.array_equal(a, b)


def numpy_cascade(samples, cfg):
    """The encoder cascade written directly in numpy, an oracle for encode_long."""
    scales, shifts = cfg.scale_arrays()
    h = mel_frames(samples, cfg.feat_dim)
    h = h * scales[0][None, :] + shifts[0][None, :]
    layers = [h]
    for l in range(1, cfg.n_layers):
        h = np.tanh(h @ layer_mixer(cfg.seed, l, cfg.feat_dim).T)
        h = h * scales[l][None, :] + shifts[l][None, :]
        layers.append(h)
    return np.stack(layers, axis=0).astype(np.float32)


def test_encode_long_equals_numpy_cascade_byte_for_byte():
    segment = one_segment()
    rng = np.random.default_rng(21)
    tuned = tiny_cfg().with_tuning(rng.uniform(0.5, 1.5, (3, 16)), rng.normal(0, 0.3, (3, 16)))
    for cfg in (tiny_cfg(), tuned):
        assert encode_long(segment, cfg).tobytes() == numpy_cascade(segment.samples, cfg).tobytes()


def test_cascade_takes_parameter_rows_and_batches():
    segment = one_segment()
    rng = np.random.default_rng(22)
    cfg = tiny_cfg().with_tuning(rng.uniform(0.5, 1.5, (3, 16)), rng.normal(0, 0.3, (3, 16)))
    scales, shifts = cfg.scale_arrays()
    mels = mel_frames(segment.samples, 16)
    from_arrays = encoder.cascade(mels, scales, shifts, cfg)
    from_params = encoder.cascade(
        mels, [nn.parameter(r) for r in scales], [nn.parameter(r) for r in shifts], cfg
    )
    assert from_arrays.shape == (3, 199, 16) and not from_arrays.requires_grad
    assert from_params.requires_grad
    assert np.array_equal(from_params.data, from_arrays.data)
    batched = encoder.cascade(np.stack([mels, mels[::-1]]), scales, shifts, cfg)
    assert batched.shape == (2, 3, 199, 16)
    assert np.allclose(batched.data[0], from_arrays.data, rtol=0, atol=1e-12)


def test_all_zero_segment_gives_constant_layers():
    segment = one_segment()
    segment.samples = np.zeros_like(segment.samples)
    feature = encode_long(segment, tiny_cfg())
    layer0 = feature[0]
    assert np.allclose(layer0, np.log(1e-6), atol=1e-5)
    for l in range(feature.shape[0]):
        frames = feature[l]
        assert np.allclose(frames, frames[0][None, :], atol=0)


def test_trainable_identity_params_match_pseudo():
    segment = one_segment()
    plain = encode_long(segment, tiny_cfg())
    trainable = encode_long(segment, tiny_cfg().with_tuning(np.ones((3, 16)), np.zeros((3, 16))))
    assert np.array_equal(plain, trainable)


def test_trainable_params_change_downstream_layers():
    segment = one_segment()
    cfg = tiny_cfg()
    scales = np.ones((3, 16))
    shifts = np.zeros((3, 16))
    shifts[0, :] = 0.5
    tuned = tiny_cfg().with_tuning(scales, shifts)
    plain = encode_long(segment, cfg)
    shifted = encode_long(segment, tuned)
    assert not np.allclose(plain[1], shifted[1])


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
    feature = np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=np.float32)
    assert np.allclose(temporal_embed(feature), [[2.0, 3.0]])


def test_temporal_embed_constant_layer():
    feature = np.full((2, 9, 4), 3.25, dtype=np.float32)
    assert np.allclose(temporal_embed(feature), 3.25)


def test_temporal_embed_matches_loop_oracle():
    rng = np.random.default_rng(11)
    values = rng.standard_normal((3, 199, 32)).astype(np.float32)
    embedding = temporal_embed(values)
    for l in range(3):
        for f in range(32):
            total = 0.0
            for t in range(199):
                total += float(values[l, t, f])
            assert abs(embedding[l, f] - total / 199) < 1e-6


# --- time speedup ----------------------------------------------------------------


def _lf(array):
    return np.asarray(array, dtype=np.float32)


def test_speedup_block_means():
    feature = _lf([[[1.0], [3.0], [5.0], [7.0]]])
    short = time_speedup(feature, 2)
    assert np.allclose(short, [[[2.0], [6.0]]])


def test_speedup_ragged_final_block():
    frames = np.arange(7, dtype=np.float32).reshape(1, 7, 1)
    short = time_speedup(_lf(frames), 3)
    assert short.shape == (1, 3, 1)
    assert np.allclose(short[0, :, 0], [1.0, 4.0, 6.0])


def test_speedup_tau_one_is_identity():
    rng = np.random.default_rng(2)
    values = rng.standard_normal((2, 13, 4)).astype(np.float32)
    short = time_speedup(_lf(values), 1)
    assert np.allclose(short, values)


def test_speedup_tau_ten_on_199_frames():
    rng = np.random.default_rng(3)
    feature = _lf(rng.standard_normal((2, 199, 8)))
    short = time_speedup(feature, 10)
    assert short.shape[1] == 20


@pytest.mark.parametrize("tau", [1, 5, 10, 20])
def test_frame_counts_are_ceil(tau):
    rng = np.random.default_rng(4)
    for frames in (1, 7, 40, 199):
        feature = _lf(rng.standard_normal((1, frames, 4)))
        short = time_speedup(feature, tau)
        assert short.shape[1] == -(-frames // tau)


def test_mean_preserved_when_tau_divides():
    rng = np.random.default_rng(5)
    feature = _lf(rng.standard_normal((3, 40, 8)))
    embedding = temporal_embed(feature)
    for tau in (1, 2, 4, 5, 8, 10, 20, 40):
        short = time_speedup(feature, tau)
        assert np.max(np.abs(short.mean(axis=1) - embedding)) < 1e-6


def test_tau_beyond_length_gives_single_mean_frame():
    rng = np.random.default_rng(6)
    feature = _lf(rng.standard_normal((2, 9, 4)))
    short = time_speedup(feature, 50)
    assert short.shape[1] == 1
    assert np.max(np.abs(short[:, 0, :] - temporal_embed(feature))) < 1e-6


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
    assert short.shape == (3, 20, 16)
    assert short.dtype == np.float32
    embed = cache.load_embedding(records[0].utt_id)
    assert embed.shape == (3, 16)
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


def _tree(root):
    return {path.relative_to(root): path.read_bytes() for path in root.rglob("*") if path.is_file()}


def test_extract_killed_mid_write_leaves_no_torn_entry(small_corpus, tmp_path, monkeypatch):
    root, records = small_corpus
    write_feature = radf.write_feature
    calls = []

    def torn_write(path, values, kind):
        calls.append(path)
        write_feature(path, values, kind)
        if len(calls) == 3:  # the first record's files are whole, the next one is cut
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
            raise OSError("killed mid-write")

    monkeypatch.setattr(radf, "write_feature", torn_write)
    cache_dir = tmp_path / "c"
    with pytest.raises(OSError, match="killed mid-write"):
        extract_and_cache(records, root, tiny_cfg(), tau=10, cache_dir=cache_dir)
    monkeypatch.undo()
    left = [path for sub in ("short", "embed") for path in (cache_dir / sub).iterdir()]
    assert len(left) == 2 and not [path for path in left if path.name.endswith(".tmp")]
    for path in left:
        radf.read_feature(path)  # a torn file fails its CRC or length check
    extract_and_cache(records, root, tiny_cfg(), tau=10, cache_dir=cache_dir)
    extract_and_cache(records, root, tiny_cfg(), tau=10, cache_dir=tmp_path / "clean")
    assert _tree(cache_dir) == _tree(tmp_path / "clean")


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
    own = full.load_short(records[0].utt_id)  # the file as cached, at tau=1
    assert own.dtype == np.float32 and own.shape == full.short_table()[1].shape[1:]
    assert own.shape[1] > derived_table.shape[2]


def test_cache_serves_only_its_own_tau_unless_tau_one(small_corpus, tmp_path):
    root, records = small_corpus
    cache = extract_and_cache(records, root, tiny_cfg(), tau=10, cache_dir=tmp_path / "c")
    assert cache.short_table(10) is cache.short_table()
    for short_file in (tmp_path / "c" / "short").iterdir():
        short_file.unlink()
    fresh = CacheIndex.load(tmp_path / "c")
    with pytest.raises(IncompatibilityError, match="holds tau=10, not tau=5"):
        fresh.short_table(5)  # refused before any file is read


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
    assert np.max(np.abs(stored - temporal_embed(long_feature))) < 1e-6


@pytest.mark.parametrize("damage", ["missing", "directory", "wrong_kind"])
def test_cache_file_missing_or_of_wrong_kind_is_cache_corruption_error(
    small_corpus, tmp_path, damage
):
    root, records = small_corpus
    cache = extract_and_cache(records, root, tiny_cfg(), tau=10, cache_dir=tmp_path / "c")
    utt = records[1].utt_id
    victim = cache.short_path(utt)
    victim.unlink()
    if damage == "directory":
        victim.mkdir()
    elif damage == "wrong_kind":
        radf.write_feature(victim, np.zeros((3, 16), np.float32), radf.KIND_EMBEDDING)
    with pytest.raises(CacheCorruptionError, match=utt):
        cache.load_short(utt)
    with pytest.raises(CacheCorruptionError, match=utt):
        CacheIndex.load(tmp_path / "c").short_table()


def test_fingerprint_tracks_tuning():
    cfg = tiny_cfg()
    plain = encoder_fingerprint(cfg)
    tuned = cfg.with_tuning(np.full((3, 16), 1.1), np.zeros((3, 16)))
    assert encoder_fingerprint(tuned) != plain


def test_untuned_fingerprint_hashes_the_stable_geometry_text():
    # the text every tuned cache, store and checkpoint has been fingerprinted with
    text = b"kind=pseudo_trainable;L=3;F=16;seed=5"
    assert encoder_fingerprint(tiny_cfg()) == hashlib.sha256(text).hexdigest()[:16]
