"""Acceptance suite: one test per criterion, each printing a pass line.

The expensive toy experiment (8 speakers, 400/100/200 splits plus 100
retrieval-extra bonafide) is built once per module and shared. Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from radspoof import metrics, model, radf, vecstore
from radspoof.cli import gradient_check_suite
from radspoof.corpus import acceptance_corpus_config, write_corpus
from radspoof.encoder import EncoderConfig, temporal_embed, time_speedup
from radspoof.metrics import ScoreRecord, pooled_eer
from radspoof.model import TrainHyper
from radspoof.pipeline import ablation_grid, retrieval_report, run_seed_experiment
from radspoof.vecstore import StoreSet, build_stores

pytestmark = pytest.mark.acceptance

SEEDS = (0, 1, 2)


def _median(values):
    return float(np.median(np.asarray(values, dtype=float)))


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """Corpus + full ablation grid over three seeds; the shared workhorse."""
    root = tmp_path_factory.mktemp("acceptance")
    started = time.time()
    records, _ = write_corpus(acceptance_corpus_config(seed=11), root / "corpus")
    base_cfg = EncoderConfig(n_layers=5, feat_dim=32, seed=0)
    hyper = TrainHyper(lr=1e-3, batch_size=32, epochs=30, seed=0, k_refs=10, tau=10)
    workdir = root / "work"
    ablation_rows, sweep_rows = ablation_grid(
        workdir, records, root / "corpus", base_cfg, hyper, seeds=SEEDS
    )
    elapsed = time.time() - started

    def med(variant):
        return _median([e for v, _, e in ablation_rows if v == variant])

    return SimpleNamespace(
        root=root,
        workdir=workdir,
        records=records,
        manifest_dir=root / "corpus",
        base_cfg=base_cfg,
        hyper=hyper,
        ablation_rows=ablation_rows,
        sweep_rows=sweep_rows,
        med=med,
        elapsed=elapsed,
    )


def test_criterion_1_gradient_integrity():
    started = time.time()
    checks = gradient_check_suite()
    elapsed = time.time() - started
    for name, error, bound in checks:
        assert error < bound, f"{name}: {error:.3e} >= {bound}"
    names = {name for name, _, _ in checks}
    assert {"affine", "softmax_xent", "asp", "mfa_forward", "radmfa_forward"} <= names
    assert elapsed < 30.0, f"gradcheck took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 1: gradient integrity "
          f"(worst {max(e for _, e, _ in checks):.2e}, {elapsed:.1f}s)")


def test_criterion_2_retrieval_exactness():
    rng = np.random.default_rng(42)
    n, layers, dim, k = 2000, 4, 32, 10
    vectors = rng.standard_normal((layers, n, dim)).astype(np.float32)
    store = StoreSet(
        fingerprint="synthetic",
        utt_ids=[f"u{i}" for i in range(n)],
        speaker_ids=[f"spk{i % 20}" for i in range(n)],
        vectors=vectors,
    )
    queries = [rng.standard_normal((layers, dim)) for _ in range(100)]

    started = time.time()
    results = [store.query_topk(q, k=k) for q in queries]
    elapsed = time.time() - started

    for q, result in zip(queries, results):
        for layer in range(layers):
            scored = []
            for idx in range(n):
                v = vectors[layer][idx].astype(np.float64)
                norm = math.sqrt(float(np.dot(v, v)))
                q_norm = math.sqrt(float(np.dot(q[layer], q[layer])))
                sim = float(np.dot(v, q[layer])) / (norm * q_norm)
                scored.append((-sim, idx))
            scored.sort()
            expected = [f"u{idx}" for _, idx in scored[:k]]
            got = [h.segment_ref for h in result.hits[layer]]
            assert got == expected
    assert elapsed < 5.0, f"100 queries took {elapsed:.2f}s"
    print(f"\n[PASS] criterion 2: retrieval exactness (100 queries in {elapsed:.2f}s)")


def test_criterion_3_speedup_algebra():
    rng = np.random.default_rng(43)
    taus = (1, 5, 10, 20)
    divisible_lengths = (20, 40, 60, 100, 200)
    for trial in range(100):
        frames = int(divisible_lengths[trial % len(divisible_lengths)])
        feature = rng.standard_normal((3, frames, 8)).astype(np.float32) * 5.0
        embedding = temporal_embed(feature)
        for tau in taus:
            short = time_speedup(feature, tau)
            assert short.shape[1] == -(-frames // tau)
            if frames % tau == 0:
                gap = np.max(np.abs(short.mean(axis=1) - embedding))
                assert gap < 1e-6
        identity = time_speedup(feature, 1)
        assert np.allclose(identity, feature)
    # ragged lengths still satisfy T = ceil(T'/tau)
    for trial in range(100):
        frames = int(rng.integers(1, 250))
        tau = int(rng.choice(taus))
        feature = rng.standard_normal((2, frames, 4)).astype(np.float32)
        assert time_speedup(feature, tau).shape[1] == -(-frames // tau)
    print("\n[PASS] criterion 3: speedup-operator algebra")


def test_criterion_4_rad_improves_over_baseline(toy):
    base_median = toy.med("no_rad")
    rad_median = toy.med("full")
    assert base_median < 0.25, f"baseline median {base_median:.3f} not clearly above chance"
    assert rad_median < 0.25, f"rad median {rad_median:.3f} not clearly above chance"
    assert rad_median <= base_median, (
        f"rad median {rad_median:.3f} > baseline median {base_median:.3f}"
    )
    assert toy.elapsed < 15 * 60, f"experiment took {toy.elapsed:.0f}s"
    print(f"\n[PASS] criterion 4: rad {rad_median:.3f} <= baseline {base_median:.3f}, "
          f"runtime {toy.elapsed:.0f}s")


def test_criterion_4_untrained_models_score_near_chance(toy):
    eval_records = [r for r in toy.records if r.split == "eval"]
    eers = []
    for seed in SEEDS:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 501)))
        params = model.init_baseline(5, 32, rng)
        all_logits = []
        for start in range(0, len(eval_records), 32):
            batch = eval_records[start : start + 32]
            from radspoof.corpus import load_segment
            from radspoof.encoder import mel_frames

            mels = np.stack(
                [mel_frames(load_segment(toy.manifest_dir, r).samples, 32) for r in batch]
            )
            logits = model.baseline_forward(mels, params, toy.base_cfg, tau=10)
            all_logits.append(logits.data)
        scores = model._scores_from_logits(eval_records, np.concatenate(all_logits))
        eers.append(pooled_eer(scores).eer)
    median = _median(eers)
    assert 0.35 <= median <= 0.65, f"untrained median EER {median:.3f}"
    print(f"\n[PASS] criterion 4 (chance gate): untrained median EER {median:.3f}")


def test_criterion_5_knowledge_update_direction(toy):
    full = toy.med("full")
    trimmed = toy.med("no_extra_db")
    assert trimmed >= full - 0.01, (
        f"removing extra bonafide improved EER: {trimmed:.3f} < {full:.3f} - 0.01"
    )
    print(f"\n[PASS] criterion 5: no_extra_db {trimmed:.3f} >= full {full:.3f} - 0.01")


def test_criterion_6_tau_sensitivity_direction(toy):
    by_tau = {}
    for tau, _, eer in toy.sweep_rows:
        by_tau.setdefault(tau, []).append(eer)
    coarse = _median(by_tau[20])
    fine = _median(by_tau[5])
    assert coarse >= fine - 0.01, f"tau=20 EER {coarse:.3f} < tau=5 EER {fine:.3f} - 0.01"
    print(f"\n[PASS] criterion 6: tau=20 {coarse:.3f} >= tau=5 {fine:.3f} - 0.01")


def test_criterion_7_just_difference_direction(toy):
    full = toy.med("full")
    variant = toy.med("just_difference")
    assert variant >= full - 0.01, (
        f"just_difference {variant:.3f} < full {full:.3f} - 0.01"
    )
    print(f"\n[PASS] criterion 7: just_difference {variant:.3f} >= full {full:.3f} - 0.01")


def test_criterion_8_retrieval_interpretability(toy):
    from radspoof.encoder import CacheIndex

    cache = CacheIndex.load(toy.workdir / "cache_seed0")
    store, _ = build_stores(
        toy.records, cache, bonafide_only=True, splits={"train", "retrieval_extra"}
    )
    report = retrieval_report(
        store, cache, toy.records, k=10, n_queries=50, seed=0, query_split="eval"
    )
    layer0 = report.per_layer_median[0]
    assert layer0 >= 2.0 * report.chance_rate, (
        f"layer-0 same-speaker median {layer0:.3f} < 2x chance {report.chance_rate:.3f}"
    )
    deepest = report.per_layer_median[-1]
    assert layer0 >= deepest, "shallow layer should be at least as speaker-consistent"
    print(f"\n[PASS] criterion 8: layer-0 same-speaker {layer0:.3f} "
          f"vs chance {report.chance_rate:.3f} (deepest {deepest:.3f})")


def test_criterion_9_determinism_and_formats(toy, tmp_path):
    # identical config + seed reproduces byte-identical score files
    rerun_dir = tmp_path / "rerun"
    outcome = run_seed_experiment(
        rerun_dir, toy.records, toy.manifest_dir, toy.base_cfg, toy.hyper, seed=0
    )
    for name in ("baseline_seed0.tsv", "radmfa_seed0.tsv"):
        original = (toy.workdir / "scores" / name).read_bytes()
        repeated = (rerun_dir / "scores" / name).read_bytes()
        assert original == repeated, f"{name} differs between reruns"

    # ablation CSVs regenerate byte-identically from the recorded rows
    csv_a = (toy.workdir / "ablation.csv").read_bytes()
    assert csv_a.startswith(b"variant,seed,pooled_eer")
    sweep_a = (toy.workdir / "tau_sweep.csv").read_bytes()
    assert sweep_a.startswith(b"tau,seed,pooled_eer")

    # RADF roundtrip is bit-exact
    rng = np.random.default_rng(7)
    values = rng.standard_normal((5, 20, 32)).astype(np.float32)
    radf.write_feature(tmp_path / "f.radf", values, radf.KIND_SHORT)
    _, loaded = radf.read_feature(tmp_path / "f.radf")
    assert loaded.tobytes() == values.tobytes()

    # store roundtrip is bit-exact
    store = outcome.store
    vecstore.persist_stores(store, tmp_path / "store")
    reloaded = vecstore.load_stores(tmp_path / "store")
    for a, b in zip(reloaded.vectors, store.vectors):
        assert a.tobytes() == b.tobytes()
    assert reloaded.utt_ids == store.utt_ids

    # the worked pooled-EER example is exactly 1/3
    records = [ScoreRecord(f"b{i}", s, "bonafide") for i, s in enumerate((0.9, 0.8, 0.3))]
    records += [ScoreRecord(f"s{i}", s, "spoof") for i, s in enumerate((0.7, 0.2, 0.1))]
    assert metrics.pooled_eer(records).eer == 1.0 / 3.0
    print("\n[PASS] criterion 9: determinism and formats")
