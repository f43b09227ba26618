import pytest

from radspoof import pipeline, vecstore
from radspoof.corpus import CorpusConfig, write_corpus
from radspoof.encoder import CacheIndex, EncoderConfig, extract_and_cache
from radspoof.model import TrainHyper
from radspoof.pipeline import (
    TAU_SWEEP,
    ablation_grid,
    config_hash,
    retrieval_report,
    run_seed_experiment,
    write_run_manifest,
)


def test_config_hash_stable_and_sensitive():
    a = config_hash({"seed": 1, "lr": 0.001})
    b = config_hash({"lr": 0.001, "seed": 1})
    c = config_hash({"seed": 2, "lr": 0.001})
    assert a == b
    assert a != c
    assert len(a) == 16


def test_write_run_manifest(tmp_path):
    write_run_manifest(tmp_path, {"command": "test", "seed": 3})
    digest = (tmp_path / "config_hash.txt").read_text().strip()
    body = (tmp_path / "run_manifest.txt").read_text()
    assert digest in body
    assert "seed=3" in body


@pytest.fixture(scope="module")
def micro_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("micro")
    cfg = CorpusConfig(
        n_speakers=3,
        clips_per_speaker=24,
        spoof_fraction=0.5,
        seed=29,
        split_counts={"train": 36, "dev": 12, "eval": 16, "retrieval_extra": 8},
    )
    records, _ = write_corpus(cfg, root / "corpus")
    base_cfg = EncoderConfig(n_layers=3, feat_dim=16, seed=1)
    hyper = TrainHyper(lr=1e-3, batch_size=12, epochs=2, seed=0, k_refs=3, tau=10)
    return root, records, base_cfg, hyper


def test_retrieval_report_shape(micro_setup):
    root, records, base_cfg, hyper = micro_setup
    cache = extract_and_cache(records, root / "corpus", base_cfg, 10, root / "cache_plain")
    store, _ = vecstore.build_stores(records, cache, splits={"train", "retrieval_extra"})
    report = retrieval_report(store, cache, records, k=3, n_queries=6, seed=0)
    assert report.n_queries == 6
    assert report.chance_rate == pytest.approx(1 / 3)
    assert len(report.per_layer_median) == 3
    for median in report.per_layer_median:
        assert 0.0 <= median <= 1.0
    pipeline.write_retrieval_report(root / "r.csv", report)
    assert (root / "r.csv").read_text().count("\n") == 4


def test_seed_experiment_and_grid_deterministic(micro_setup, tmp_path, monkeypatch):
    root, records, base_cfg, hyper = micro_setup
    workdir = tmp_path / "grid"
    load_short = CacheIndex.load_short
    short_taus = []

    def counting(self, utt_id, tau=None):
        short_taus.append(tau)
        return load_short(self, utt_id, tau)

    monkeypatch.setattr(CacheIndex, "load_short", counting)
    rows_a, sweep_a = ablation_grid(workdir, records, root / "corpus", base_cfg, hyper, seeds=(0,))
    monkeypatch.undo()
    # runners, scoring calls and sweep points share one short-feature table per tau
    assert len(short_taus) <= len(records) * len({hyper.tau, *TAU_SWEEP})
    csv_a = (workdir / "ablation.csv").read_bytes()
    sweep_csv_a = (workdir / "tau_sweep.csv").read_bytes()
    assert len(rows_a) == 4
    assert [row[0] for row in sweep_a] == list(TAU_SWEEP)
    variants = [r[0] for r in rows_a]
    assert variants == ["full", "no_rad", "no_extra_db", "just_difference"]
    for _, _, eer in rows_a + sweep_a:
        assert 0.0 <= eer <= 1.0

    workdir_b = tmp_path / "grid_b"
    ablation_grid(workdir_b, records, root / "corpus", base_cfg, hyper, seeds=(0,))
    assert (workdir_b / "ablation.csv").read_bytes() == csv_a
    assert (workdir_b / "tau_sweep.csv").read_bytes() == sweep_csv_a

    # every row's scores are present so each is independently re-runnable
    assert (workdir / "scores" / "baseline_seed0.tsv").exists()
    assert (workdir / "scores" / "radmfa_seed0.tsv").exists()
    assert (workdir / "scores" / "no_extra_db_seed0.tsv").exists()
    assert (workdir / "scores" / "just_difference_seed0.tsv").exists()
    assert (workdir / "scores" / "radmfa_seed0_tau5.tsv").exists()


def test_seed_outcome_artifacts(micro_setup, tmp_path):
    root, records, base_cfg, hyper = micro_setup
    outcome = run_seed_experiment(
        tmp_path / "one", records, root / "corpus", base_cfg, hyper, seed=1
    )
    assert outcome.baseline_ckpt.exists()
    assert outcome.rad_ckpt.exists()
    assert outcome.eval_scores_path.exists()
    assert 0.0 <= outcome.baseline_eer <= 1.0
    assert 0.0 <= outcome.rad_eer <= 1.0
    assert outcome.store.count > 0
    assert outcome.tuned_cfg.scales is not None and outcome.tuned_cfg.shifts is not None


def test_score_at_tau_reuses_seed_cache_and_store(micro_setup, tmp_path, monkeypatch):
    from radspoof import corpus, encoder, model

    root, records, base_cfg, hyper = micro_setup
    workdir = tmp_path / "sweep"
    outcome = run_seed_experiment(workdir, records, root / "corpus", base_cfg, hyper, seed=0)
    assert outcome.cache.tau == 1

    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    # patch every binding, including the names modules imported from each other
    for module in (corpus, encoder, vecstore, model, pipeline):
        for name in ("extract_and_cache", "build_stores", "load_segment", "encode_long"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for tau in (5, 10, 20):
        eer = pipeline.score_at_tau(workdir, records, root / "corpus", outcome, tau)
        assert 0.0 <= eer <= 1.0
        assert (workdir / "scores" / f"radmfa_seed0_tau{tau}.tsv").exists()
    assert calls == []
    assert sorted(p.name for p in workdir.glob("cache_seed*")) == ["cache_seed0"]
    # the trained tau scores exactly as the seed experiment did
    assert (workdir / "scores" / "radmfa_seed0_tau10.tsv").read_bytes() == (
        outcome.eval_scores_path.read_bytes()
    )
