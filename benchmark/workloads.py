"""The three benchmark workloads: experiment, retrieval and scoring.

Each workload builds its inputs from the workload seed in ``setup``, runs
one timed unit of work in ``unit`` (used alone by the traced run), and
runs its closed-loop timed phase in ``measure``. Every output check goes
through ``Checks`` and counts as one operation attempted.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import math
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oracle import corrupt, hit_lists, oracle_topk, same_hits
from tracing import Tracer, run_cli

N_LAYERS = 5
FEAT_DIM = 32
K = 10


class Checks:
    """Output checks counted as operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


@dataclass
class Context:
    pkg: object
    seed: int
    seconds: float
    checks: Checks = field(default_factory=Checks)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream)))


def query_metrics(probe: Tracer) -> dict[str, float]:
    """Latency and throughput of every ``query_topk`` call the probe saw."""
    lat = np.array(probe.durations("vecstore.query_topk"))
    return {
        "queries_per_s": lat.size / lat.sum(),
        "query_ms_p50": float(np.percentile(lat, 50)) * 1e3,
        "query_ms_p90": float(np.percentile(lat, 90)) * 1e3,
        "query_samples": int(lat.size),
    }


def _write_records(pkg, path, ids, speakers, labels, splits):
    records = [
        pkg.corpus.ManifestRecord(u, s, lab, None if lab == "bonafide" else "phase_reset",
                                  f"wav/{u}.wav", sp)
        for u, s, lab, sp in zip(ids, speakers, labels, splits)
    ]
    pkg.corpus.write_manifest(path, records)
    return records


# --- experiment ----------------------------------------------------------------


class Experiment:
    """`radspoof synth` of the acceptance corpus, then `radspoof ablate`."""

    setup_repeats = 1  # synthesis takes ~25 s; one sample per run
    epochs = 1
    splits = {"train": 400, "dev": 100, "eval": 200, "retrieval_extra": 100}

    def setup(self, ctx: Context, root: Path, tracer=None):
        corpus = root / "corpus"
        rc = run_cli(ctx.pkg, tracer, [
            "synth", "--out", str(corpus), "--seed", str(ctx.seed),
            "--n-speakers", "8", "--clips-per-speaker", "100", "--spoof-fraction", "0.5",
            "--splits", ",".join(f"{k}={v}" for k, v in self.splits.items()),
        ])
        ctx.checks.check(rc == 0, "synth exit code")
        return corpus

    def unit(self, ctx: Context, corpus: Path, jobdir: Path, tracer=None) -> float:
        argv = [
            "ablate", "--manifest", str(corpus / "manifest.tsv"), "--workdir", str(jobdir),
            "--seeds", str(ctx.seed), "--epochs", str(self.epochs), "--lr", "1e-3",
            "--batch", "32", "--k", "10",
        ]
        start = time.perf_counter()
        rc = run_cli(ctx.pkg, tracer, argv)
        elapsed = time.perf_counter() - start
        ctx.checks.check(rc == 0, "ablate exit code")
        self.last_eer = self._check_grid(ctx, jobdir)
        return elapsed

    def _check_grid(self, ctx: Context, jobdir: Path) -> float:
        """Every ablation and tau-sweep row present, each EER in [0, 1]."""
        expected = {
            "ablation.csv": [(v, str(ctx.seed)) for v in ctx.pkg.pipeline.ABLATION_VARIANTS],
            "tau_sweep.csv": [(str(t), str(ctx.seed)) for t in ctx.pkg.pipeline.TAU_SWEEP],
        }
        full_eer = float("nan")
        for name, keys in expected.items():
            path = jobdir / name
            rows = path.read_text().splitlines()[1:] if path.exists() else []
            found = {}
            for row in rows:
                first, seed, eer = row.split(",")
                found[(first, seed)] = float(eer)
            for key in keys:
                eer = found.get(key, float("nan"))
                ctx.checks.check(0.0 <= eer <= 1.0, f"{name} row {key}: EER {eer}")
                if key[0] == "full":
                    full_eer = eer
        return full_eer

    def measure(self, ctx: Context, corpus: Path, workdir: Path, probe: Tracer):
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < ctx.seconds:
            jobdir = workdir / f"ablate{len(times)}"
            times.append(self.unit(ctx, corpus, jobdir))
            shutil.rmtree(jobdir)
        n_train = self.splits["train"] * self.epochs
        rad = probe.durations("model.train_model.radmfa") + probe.durations(
            "model.train_model.just_difference"
        )
        metrics = {
            "job_s": statistics.median(times),
            "ingest_entries_per_s": probe.counts["vecstore.entries_built"]
            / probe.total("vecstore.build_stores"),
            **query_metrics(probe),
        }
        details = {
            "experiment_s": statistics.median(times),
            "baseline_train_samples_per_s": n_train
            * probe.calls("model.train_model.baseline")
            / probe.total("model.train_model.baseline"),
            "radmfa_train_samples_per_s": n_train * len(rad) / sum(rad),
            "extract_clips_per_s": probe.counts["encoder.extract.records"]
            / probe.total("encoder.extract_and_cache"),
            "radmfa_eval_eer": self.last_eer,
            "score_clips_per_s": probe.counts["model.scored_clips"]
            / probe.total("model.score_dataset"),
            "eval_job_s": statistics.median(probe.durations("model.score_dataset")),
            "jobs": len(times),
        }
        return metrics, details


# --- retrieval -----------------------------------------------------------------


@dataclass
class RetrievalInputs:
    manifest: Path
    cache: Path
    ids: list[str]
    embeddings: np.ndarray  # (N, L, F) float32, as written
    dup_members: np.ndarray  # rows that have two exact copies elsewhere


class Retrieval:
    """A 50,000-entry bonafide cache: `radspoof build-db`, then top-k queries."""

    setup_repeats = 1  # 50,000 file creations are I/O bound; one sample per run
    n_entries = 50_000
    n_speakers = 64
    n_dup_groups = 400  # each: one row plus two exact copies, so ties occur
    ingest_repeats = 2
    unit_queries = 100
    n_oracle = 24
    dup_every = 6  # every sixth loop query is a row with exact duplicates

    def generate(self, seed: int):
        rng = _rng(seed, 11)
        centres = rng.standard_normal((self.n_speakers, N_LAYERS, FEAT_DIM))
        speakers = rng.integers(0, self.n_speakers, size=self.n_entries)
        noise = rng.standard_normal((self.n_entries, N_LAYERS, FEAT_DIM))
        emb = (centres[speakers] + 0.5 * noise).astype(np.float32)
        rows = rng.permutation(self.n_entries)[: 3 * self.n_dup_groups].reshape(-1, 3)
        emb[rows[:, 1]] = emb[rows[:, 0]]
        emb[rows[:, 2]] = emb[rows[:, 0]]
        speakers[rows[:, 1]] = speakers[rows[:, 0]]
        speakers[rows[:, 2]] = speakers[rows[:, 0]]
        return emb, speakers, rows.reshape(-1)

    def setup(self, ctx: Context, root: Path, tracer=None) -> RetrievalInputs:
        pkg = ctx.pkg
        emb, speakers, dup_members = self.generate(ctx.seed)
        ids = [f"r{i:06d}" for i in range(self.n_entries)]
        cache = root / "cache"
        (cache / "embed").mkdir(parents=True)
        entries = {}
        for i, utt in enumerate(ids):
            pkg.radf.write_feature(cache / f"embed/{utt}.radf", emb[i], pkg.radf.KIND_EMBEDDING)
            entries[utt] = (f"short/{utt}.radf", f"embed/{utt}.radf")
        pkg.encoder.CacheIndex(
            root=cache, fingerprint=f"bench{ctx.seed:08d}", tau=10,
            n_layers=N_LAYERS, feat_dim=FEAT_DIM, entries=entries,
        ).save()
        manifest = root / "manifest.tsv"
        _write_records(pkg, manifest, ids, [f"spk{s:02d}" for s in speakers],
                       ["bonafide"] * len(ids), ["train"] * len(ids))
        return RetrievalInputs(manifest, cache, ids, emb, dup_members)

    def query_order(self, ctx: Context, inputs: RetrievalInputs, count: int) -> np.ndarray:
        rng = _rng(ctx.seed, 12)
        order = rng.integers(0, self.n_entries, size=count)
        dups = rng.choice(inputs.dup_members, size=len(order[:: self.dup_every]))
        order[:: self.dup_every] = dups
        return order

    def ingest(self, ctx: Context, inputs: RetrievalInputs, store_dir: Path, tracer=None):
        start = time.perf_counter()
        rc = run_cli(ctx.pkg, tracer, [
            "build-db", "--manifest", str(inputs.manifest), "--cache", str(inputs.cache),
            "--store", str(store_dir), "--splits", "train",
        ])
        store = ctx.pkg.vecstore.load_stores(store_dir, expected_fingerprint=f"bench{ctx.seed:08d}")
        elapsed = time.perf_counter() - start
        ctx.checks.check(rc == 0 and store.count == self.n_entries, "build-db ingest")
        same = all(
            np.array_equal(store.vectors[l], inputs.embeddings[:, l, :]) for l in range(N_LAYERS)
        )
        ctx.checks.check(same, "ingest loads the generated vectors unchanged")
        return store, elapsed

    def run_queries(self, ctx: Context, inputs: RetrievalInputs, store, order, deadline=None):
        """Closed loop of queries; returns the count and the first results."""
        results = []
        done = 0
        for row in order:
            if deadline is not None and done >= self.unit_queries and time.perf_counter() >= deadline:
                break
            done += 1
            utt = inputs.ids[row]
            result = store.query_topk(inputs.embeddings[row].astype(np.float64), K, exclude={utt})
            ok = not result.truncated and all(len(h) == K for h in result.hits)
            ctx.checks.check(ok, f"query {utt}: {K} hits per layer")
            if len(results) < self.n_oracle:
                results.append((row, result))
        return done, results

    def check_oracle(self, ctx: Context, inputs: RetrievalInputs, store, results) -> None:
        index_of = {u: i for i, u in enumerate(store.utt_ids)}
        layers = [inputs.embeddings[:, l, :] for l in range(N_LAYERS)]
        tied = None
        for row, result in results:
            expected = oracle_topk(layers, inputs.embeddings[row], K, exclude=row)
            ctx.checks.check(same_hits(hit_lists(result, index_of), expected),
                             f"query {inputs.ids[row]} matches the float64 oracle")
            if expected[0][0][1] == expected[0][1][1]:
                tied = expected
        # the checker must reject a wrong hit list, here two tied hits swapped
        ctx.checks.check(tied is not None and not same_hits(corrupt(tied), tied),
                         "self-test: checker rejects a wrong hit list")

    def unit(self, ctx: Context, inputs: RetrievalInputs, jobdir: Path, tracer=None) -> float:
        start = time.perf_counter()
        store, _ = self.ingest(ctx, inputs, jobdir / "store", tracer)
        order = self.query_order(ctx, inputs, self.unit_queries)
        _, results = self.run_queries(ctx, inputs, store, order)
        elapsed = time.perf_counter() - start
        self.check_oracle(ctx, inputs, store, results)
        return elapsed

    def measure(self, ctx: Context, inputs: RetrievalInputs, workdir: Path, probe: Tracer):
        ctx.checks.check(np.array_equal(self.generate(ctx.seed)[0], inputs.embeddings),
                         "same seed gives byte-identical inputs")
        times = []
        for r in range(self.ingest_repeats):
            store, elapsed = self.ingest(ctx, inputs, workdir / f"store{r}")
            times.append(elapsed)
        order = self.query_order(ctx, inputs, 100_000)
        n, results = self.run_queries(ctx, inputs, store, order, time.perf_counter() + ctx.seconds)
        self.check_oracle(ctx, inputs, store, results)
        metrics = {
            "job_s": statistics.median(times),
            "ingest_entries_per_s": self.n_entries / statistics.median(times),
            **query_metrics(probe),
        }
        return metrics, {"ingest_jobs": len(times), "queries": n}


# --- scoring -------------------------------------------------------------------


@dataclass
class ScoringInputs:
    manifest: Path
    cache: Path
    store: Path
    checkpoint: Path
    eval_ids: list[str]


class Scoring:
    """Repeated `radspoof eval --kind radmfa --det` over 1,000 cached clips."""

    setup_repeats = 2
    n_store = 5_000
    n_eval = 1_000
    n_speakers = 64
    n_frames = 20
    tau = 10

    def setup(self, ctx: Context, root: Path, tracer=None) -> ScoringInputs:
        pkg = ctx.pkg
        rng = _rng(ctx.seed, 21)
        n = self.n_store + self.n_eval
        centres = rng.standard_normal((self.n_speakers, N_LAYERS, 1, FEAT_DIM))
        spoof_shift = 0.6 * rng.standard_normal((N_LAYERS, 1, FEAT_DIM))
        speakers = rng.integers(0, self.n_speakers, size=n)
        labels = ["bonafide"] * self.n_store + [
            "spoof" if i % 2 else "bonafide" for i in range(self.n_eval)
        ]
        splits = ["train"] * self.n_store + ["eval"] * self.n_eval
        ids = [f"c{i:05d}" for i in range(n)]
        cache = root / "cache"
        (cache / "short").mkdir(parents=True)
        (cache / "embed").mkdir(parents=True)
        entries = {}
        for i, utt in enumerate(ids):
            short = centres[speakers[i]] + 0.7 * rng.standard_normal(
                (N_LAYERS, self.n_frames, FEAT_DIM)
            )
            if labels[i] == "spoof":
                short = short + spoof_shift
            short = short.astype(np.float32)
            pkg.radf.write_feature(cache / f"short/{utt}.radf", short, pkg.radf.KIND_SHORT)
            pkg.radf.write_feature(
                cache / f"embed/{utt}.radf", short.mean(axis=1), pkg.radf.KIND_EMBEDDING
            )
            entries[utt] = (f"short/{utt}.radf", f"embed/{utt}.radf")
        fingerprint = f"bench{ctx.seed:08d}"
        cache_index = pkg.encoder.CacheIndex(
            root=cache, fingerprint=fingerprint, tau=self.tau,
            n_layers=N_LAYERS, feat_dim=FEAT_DIM, entries=entries,
        )
        cache_index.save()
        manifest = root / "manifest.tsv"
        records = _write_records(pkg, manifest, ids, [f"spk{s:02d}" for s in speakers],
                                 labels, splits)
        store, _ = pkg.vecstore.build_stores(records, cache_index, splits={"train"})
        pkg.vecstore.persist_stores(store, root / "store")
        params = pkg.model.init_radmfa(N_LAYERS, FEAT_DIM, _rng(ctx.seed, 22))
        meta = {
            "kind": "radmfa", "n_layers": str(N_LAYERS), "feat_dim": str(FEAT_DIM),
            "tau": str(self.tau), "k_refs": str(K), "seed": str(ctx.seed), "best_epoch": "1",
            "fingerprint": fingerprint, "encoder_seed": "0",
        }
        checkpoint = root / "radmfa.ckpt"
        arrays = {name: t.data for name, t in params.tensors().items()}
        pkg.nn.save_checkpoint(checkpoint, arrays, meta)
        return ScoringInputs(manifest, cache, root / "store", checkpoint, ids[self.n_store:])

    def unit(self, ctx: Context, inputs: ScoringInputs, jobdir: Path, tracer=None) -> float:
        scores_path = jobdir / "scores.tsv"
        argv = [
            "eval", "--kind", "radmfa", "--checkpoint", str(inputs.checkpoint),
            "--manifest", str(inputs.manifest), "--split", "eval", "--out", str(scores_path),
            "--det", str(jobdir / "det.csv"), "--cache", str(inputs.cache),
            "--store", str(inputs.store),
        ]
        start = time.perf_counter()
        rc = run_cli(ctx.pkg, tracer, argv)
        elapsed = time.perf_counter() - start
        ctx.checks.check(rc == 0, "eval exit code")
        scores = ctx.pkg.metrics.read_scores(scores_path) if scores_path.exists() else []
        ctx.checks.check([s.utt_id for s in scores] == inputs.eval_ids,
                         "every eval clip scored exactly once, in manifest order")
        for s in scores:
            ctx.checks.check(math.isfinite(s.score), f"finite score for {s.utt_id}")
        self.last_scores = scores
        return elapsed

    def measure(self, ctx: Context, inputs: ScoringInputs, workdir: Path, probe: Tracer):
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < ctx.seconds:
            times.append(self.unit(ctx, inputs, workdir / f"eval{len(times)}", probe))
        # an eval job's own set-up: cache index, store and checkpoint loads
        load_s = probe.child_offsets("cli.main.eval", "model.score_dataset")
        metrics = {
            "job_s": statistics.median(times),
            "ingest_entries_per_s": self.n_store / statistics.median(load_s),
            **query_metrics(probe),
        }
        details = {
            "score_clips_per_s": probe.counts["model.scored_clips"]
            / probe.total("model.score_dataset"),
            "eval_job_s": statistics.median(times),
            "radmfa_eval_eer": ctx.pkg.metrics.pooled_eer(self.last_scores).eer
            if self.last_scores else float("nan"),
            "jobs": len(times),
        }
        return metrics, details


WORKLOADS = {"experiment": Experiment, "retrieval": Retrieval, "scoring": Scoring}
