import math
import shutil
import struct
import zlib

import numpy as np
import pytest

from radspoof import radf, vecstore
from radspoof.corpus import CorpusConfig, write_corpus
from radspoof.encoder import CacheIndex, EncoderConfig, extract_and_cache
from radspoof.errors import (
    FormatError, IncompatibilityError, QueryError, StoreBuildError, StoreNotFoundError
)
from radspoof.vecstore import StoreSet, build_stores, load_stores, persist_stores, speaker_consistency


def make_store(vectors_per_layer, utt_ids=None, speaker_ids=None):
    n = vectors_per_layer[0].shape[0]
    utt_ids = utt_ids or [f"u{i}" for i in range(n)]
    speaker_ids = speaker_ids or [f"spk{i % 3}" for i in range(n)]
    return StoreSet(
        n_layers=len(vectors_per_layer),
        feat_dim=vectors_per_layer[0].shape[1],
        fingerprint="test",
        utt_ids=utt_ids,
        speaker_ids=speaker_ids,
        vectors=[np.asarray(v, dtype=np.float32) for v in vectors_per_layer],
    )


def brute_force_topk(vectors, utt_ids, query, k, exclude=frozenset()):
    """Independent oracle: python-loop cosine over every record, then sort."""
    scored = []
    for idx in range(vectors.shape[0]):
        if utt_ids[idx] in exclude:
            continue
        v = np.asarray(vectors[idx], dtype=np.float64)
        norm = math.sqrt(float(np.dot(v, v)))
        q = np.asarray(query, dtype=np.float64)
        q_norm = math.sqrt(float(np.dot(q, q)))
        if norm == 0.0:
            continue
        sim = float(np.dot(v, q)) / (norm * q_norm) if q_norm > 0 else 0.0
        scored.append((-sim, idx))
    scored.sort()
    return [idx for _, idx in scored[:k]]


def test_self_similarity_rank_one():
    rng = np.random.default_rng(0)
    vectors = rng.standard_normal((20, 8)).astype(np.float32)
    store = make_store([vectors])
    query = np.asarray(vectors[7], dtype=np.float64)[None, :]
    result = store.query_topk(query, k=3)
    assert result.hits[0][0].segment_ref == "u7"
    assert abs(result.hits[0][0].similarity - 1.0) < 1e-6


def test_direct_cosine_order():
    vectors = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]], dtype=np.float32)
    store = make_store([vectors], utt_ids=["a", "b", "c"])
    result = store.query_topk(np.array([[1.0, 0.0]]), k=3)
    hits = result.hits[0]
    assert [h.segment_ref for h in hits] == ["a", "c", "b"]
    assert np.allclose([h.similarity for h in hits], [1.0, 0.6, 0.0], atol=1e-9)


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(1)
    n, layers, dim = 300, 3, 16
    vectors = [rng.standard_normal((n, dim)).astype(np.float32) for _ in range(layers)]
    store = make_store(vectors)
    for _ in range(25):
        query = rng.standard_normal((layers, dim))
        exclude = {f"u{rng.integers(0, n)}"}
        result = store.query_topk(query, k=10, exclude=exclude)
        for layer in range(layers):
            expected = brute_force_topk(vectors[layer], store.utt_ids, query[layer], 10, exclude)
            got = [store.utt_ids.index(h.segment_ref) for h in result.hits[layer]]
            assert got == expected


def test_tie_break_by_insertion_index():
    vectors = np.array([[0.0, 2.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    store = make_store([vectors])
    hits = store.query_topk(np.array([[1.0, 0.0]]), k=4).hits[0]
    # u1 and u2 tie at similarity 1, u0 and u3 tie at 0; insertion order breaks ties
    assert [h.segment_ref for h in hits] == ["u1", "u2", "u0", "u3"]
    assert [h.rank for h in hits] == [1, 2, 3, 4]


def test_similarities_non_increasing():
    rng = np.random.default_rng(2)
    store = make_store([rng.standard_normal((50, 8)).astype(np.float32)])
    hits = store.query_topk(rng.standard_normal((1, 8)), k=50).hits[0]
    sims = [h.similarity for h in hits]
    assert all(a >= b for a, b in zip(sims, sims[1:]))


def test_exclusion_removes_self():
    rng = np.random.default_rng(3)
    vectors = rng.standard_normal((10, 4)).astype(np.float32)
    store = make_store([vectors])
    result = store.query_topk(vectors[4][None, :].astype(np.float64), k=10, exclude={"u4"})
    assert all(h.segment_ref != "u4" for h in result.hits[0])
    assert result.truncated  # only 9 candidates remain


def test_zero_norm_vectors_never_retrieved():
    vectors = np.array([[0.0, 0.0], [1.0, 1.0]], dtype=np.float32)
    store = make_store([vectors])
    hits = store.query_topk(np.array([[1.0, 0.0]]), k=2).hits[0]
    assert [h.segment_ref for h in hits] == ["u1"]


def test_k_larger_than_store_truncates():
    rng = np.random.default_rng(4)
    store = make_store([rng.standard_normal((5, 4)).astype(np.float32)])
    result = store.query_topk(rng.standard_normal((1, 4)), k=10)
    assert len(result.hits[0]) == 5
    assert result.truncated


def test_dimension_mismatch_raises():
    store = make_store([np.ones((3, 4), dtype=np.float32)])
    with pytest.raises(QueryError):
        store.query_topk(np.ones((1, 5)), k=1)
    with pytest.raises(QueryError):
        store.query_topk(np.ones((2, 4)), k=1)


def test_empty_store_returns_empty():
    store = make_store([np.zeros((0, 4), dtype=np.float32)])
    result = store.query_topk(np.ones((1, 4)), k=3)
    assert result.hits[0] == []
    assert result.truncated


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_row_or_query_is_error(bad):
    # a NaN row was never retrieved, and a NaN query took the first k rows
    vectors = np.ones((3, 4), dtype=np.float32)
    vectors[1, 2] = bad
    with pytest.raises(StoreBuildError, match="u1"):
        make_store([np.ones((3, 4)), vectors])
    store = make_store([np.ones((3, 4))])
    query = np.ones((1, 4))
    query[0, 3] = bad
    with pytest.raises(QueryError):
        store.query_topk(query, k=1)


def test_speaker_consistency_fractions():
    rng = np.random.default_rng(5)
    vectors = rng.standard_normal((10, 4)).astype(np.float32)
    speakers = ["spkA"] * 10
    store = make_store([vectors], speaker_ids=speakers)
    result = store.query_topk(rng.standard_normal((1, 4)), k=10)
    assert speaker_consistency(result, "spkA") == [1.0]
    assert speaker_consistency(result, "spkB") == [0.0]
    empty = store.query_topk(np.ones((1, 4)), k=3, exclude=set(store.utt_ids))
    assert speaker_consistency(empty, "spkA") == [None]


# --- building from a real cache ---------------------------------------------------


@pytest.fixture(scope="module")
def cached_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    cfg = CorpusConfig(
        n_speakers=2,
        clips_per_speaker=10,
        spoof_fraction=0.5,
        seed=13,
        split_counts={"train": 14, "retrieval_extra": 6},
    )
    records, _ = write_corpus(cfg, root)
    encoder_cfg = EncoderConfig(n_layers=3, feat_dim=16, seed=2)
    cache = extract_and_cache(records, root, encoder_cfg, tau=10,
                              cache_dir=root / "cache")
    return records, cache


def test_build_filters_bonafide_only(cached_corpus):
    records, cache = cached_corpus
    store, report = build_stores(records, cache, splits={"train"})
    n_bona_train = sum(
        1 for r in records if r.split == "train" and r.label == "bonafide"
    )
    assert store.count == n_bona_train
    assert report.n_inserted == n_bona_train
    assert report.n_skipped_label == sum(
        1 for r in records if r.split == "train" and r.label == "spoof"
    )
    for vectors in store.vectors:
        assert vectors.shape[0] == store.count


def test_extra_split_grows_store(cached_corpus):
    records, cache = cached_corpus
    base, _ = build_stores(records, cache, splits={"train"})
    grown, _ = build_stores(records, cache, splits={"train", "retrieval_extra"})
    n_extra = sum(1 for r in records if r.split == "retrieval_extra")
    assert grown.count == base.count + n_extra


def test_build_missing_cache_entry_names_utt(cached_corpus, tmp_path):
    records, cache = cached_corpus
    broken = vecstore.build_stores  # alias for clarity
    incomplete = dict(cache.entries)
    victim = next(
        r.utt_id for r in records if r.split == "train" and r.label == "bonafide"
    )
    del incomplete[victim]
    cache_copy = type(cache)(
        root=cache.root,
        fingerprint=cache.fingerprint,
        tau=cache.tau,
        n_layers=cache.n_layers,
        feat_dim=cache.feat_dim,
        entries=incomplete,
    )
    with pytest.raises(StoreBuildError) as err:
        broken(records, cache_copy, splits={"train", "retrieval_extra"})
    assert victim in str(err.value)


def test_persist_and_load_roundtrip(cached_corpus, tmp_path):
    records, cache = cached_corpus
    store, _ = build_stores(records, cache)
    persist_stores(store, tmp_path / "store")
    loaded = load_stores(tmp_path / "store", expected_fingerprint=cache.fingerprint)
    assert loaded.utt_ids == store.utt_ids
    assert loaded.speaker_ids == store.speaker_ids
    for a, b in zip(loaded.vectors, store.vectors):
        assert np.array_equal(a, b)
    rng = np.random.default_rng(6)
    for _ in range(5):
        query = rng.standard_normal((store.n_layers, store.feat_dim))
        got = loaded.query_topk(query, k=5)
        want = store.query_topk(query, k=5)
        assert [[h.segment_ref for h in layer] for layer in got.hits] == [
            [h.segment_ref for h in layer] for layer in want.hits
        ]


def test_load_fingerprint_mismatch(cached_corpus, tmp_path):
    records, cache = cached_corpus
    store, _ = build_stores(records, cache)
    persist_stores(store, tmp_path / "store")
    with pytest.raises(IncompatibilityError):
        load_stores(tmp_path / "store", expected_fingerprint="deadbeef00000000")


def test_load_missing_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_stores(tmp_path / "nothing")


def test_persist_twice_gives_identical_directories(cached_corpus, tmp_path):
    records, cache = cached_corpus
    store, _ = build_stores(records, cache)
    persist_stores(store, tmp_path / "a")
    persist_stores(load_stores(tmp_path / "a"), tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_store_directory_is_records_plus_one_radp_bundle(tmp_path):
    layer0 = np.arange(6, dtype=np.float32).reshape(3, 2)
    layer1 = -layer0
    persist_stores(make_store([layer0, layer1], utt_ids=["a", "b", "c"]), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["records.tsv", "vectors.radp"]
    assert (tmp_path / "records.tsv").read_text() == "0\ta\tspk0\n1\tb\tspk1\n2\tc\tspk2\n"
    header = (
        "RADP 1\nmeta feat_dim 2\nmeta fingerprint test\nmeta n_layers 2\n"
        "tensor layer00 3,2\ntensor layer01 3,2\nend\n"
    ).encode()
    payloads = b"".join(
        raw + struct.pack("<I", zlib.crc32(raw))
        for raw in (layer0.astype("<f4").tobytes(), layer1.astype("<f4").tobytes())
    )
    assert (tmp_path / "vectors.radp").read_bytes() == header + payloads


def test_bundle_with_the_retired_tau_meta_key_still_loads(cached_corpus, tmp_path):
    # stores once recorded the cache's tau in their meta; nothing reads it
    records, cache = cached_corpus
    store, _ = build_stores(records, cache)
    persist_stores(store, tmp_path)
    _rewrite_bundle(tmp_path, lambda tensors, meta: meta.update(tau="10"))
    assert b"\nmeta tau 10\n" in (tmp_path / "vectors.radp").read_bytes()
    loaded = load_stores(tmp_path, expected_fingerprint=cache.fingerprint)
    assert loaded.utt_ids == store.utt_ids
    for a, b in zip(loaded.vectors, store.vectors):
        assert np.array_equal(a, b)


def _rewrite_bundle(directory, edit):
    """Rewrite a persisted store's bundle through ``edit(tensors, meta)``."""
    tensors, meta = radf.read_tensors(directory / "vectors.radp")
    edit(tensors, meta)
    radf.write_tensors(directory / "vectors.radp", tensors, meta)


@pytest.mark.parametrize("drop", ["n_layers", "fingerprint"])
def test_load_meta_missing_key_is_format_error(cached_corpus, tmp_path, drop):
    records, cache = cached_corpus
    store, _ = build_stores(records, cache)
    persist_stores(store, tmp_path)
    _rewrite_bundle(tmp_path, lambda tensors, meta: meta.pop(drop))
    with pytest.raises(FormatError):
        load_stores(tmp_path)


@pytest.mark.parametrize("victim", ["records.tsv"])
def test_load_incomplete_store_is_format_error(cached_corpus, tmp_path, victim):
    records, cache = cached_corpus
    store, _ = build_stores(records, cache)
    persist_stores(store, tmp_path)
    (tmp_path / victim).unlink()
    with pytest.raises(FormatError, match=victim):
        load_stores(tmp_path)


def test_store_without_bundle_is_not_found(cached_corpus, tmp_path):
    records, cache = cached_corpus
    store, _ = build_stores(records, cache)
    persist_stores(store, tmp_path)
    (tmp_path / "vectors.radp").unlink()
    with pytest.raises(StoreNotFoundError):
        load_stores(tmp_path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda tensors, meta: tensors.pop("layer01"),
        lambda tensors, meta: tensors.update(layer01=tensors["layer01"][:-1]),
        lambda tensors, meta: meta.update(feat_dim="3"),
    ],
    ids=["missing_layer", "short_layer", "wrong_feat_dim"],
)
def test_load_bundle_disagreeing_with_records_is_format_error(cached_corpus, tmp_path, edit):
    records, cache = cached_corpus
    store, _ = build_stores(records, cache)
    persist_stores(store, tmp_path)
    _rewrite_bundle(tmp_path, edit)
    with pytest.raises(FormatError):
        load_stores(tmp_path)


def _bonafide_train_utt(records):
    return next(r.utt_id for r in records if r.split == "train" and r.label == "bonafide")


def test_non_finite_cached_embedding_fails_build(cached_corpus, tmp_path):
    records, cache = cached_corpus
    shutil.copytree(cache.root, tmp_path / "cache")
    cache = CacheIndex.load(tmp_path / "cache")
    victim = _bonafide_train_utt(records)
    embedding = cache.load_embedding(victim)
    embedding[0, 0] = np.nan
    radf.write_feature(cache.embedding_path(victim), embedding, radf.KIND_EMBEDDING)
    with pytest.raises(StoreBuildError, match=victim):
        build_stores(records, cache)


def test_non_finite_persisted_row_fails_load(cached_corpus, tmp_path):
    records, cache = cached_corpus
    store, _ = build_stores(records, cache)
    persist_stores(store, tmp_path)
    victim = _bonafide_train_utt(records)
    row = store.utt_ids.index(victim)
    _rewrite_bundle(tmp_path, lambda tensors, meta: tensors["layer01"].__setitem__(row, np.inf))
    with pytest.raises(StoreBuildError, match=victim):
        load_stores(tmp_path)


def test_load_malformed_records_line_is_format_error(cached_corpus, tmp_path):
    records, cache = cached_corpus
    store, _ = build_stores(records, cache)
    persist_stores(store, tmp_path)
    path = tmp_path / "records.tsv"
    path.write_text(path.read_text().replace("\t", " ", 1))
    with pytest.raises(FormatError, match="records.tsv"):
        load_stores(tmp_path)
