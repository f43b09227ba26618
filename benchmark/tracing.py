"""Spans and counters recorded around calls into radspoof's modules.

The tracer wraps public functions and methods from outside the package: it
replaces every module attribute that binds a wrapped function (so
``encoder.mel_frames`` and ``model.mel_frames`` are both patched) and every
class attribute for wrapped methods, and restores them all on uninstall.
Per-op ``nn`` primitives (add, mul, affine, ...) are deliberately left
unwrapped so the overhead stays small.

Each call records a span (name, start, end, parent span, run id) in memory;
``write_jsonl`` writes them out when the run ends. Counters that need the
call's arguments or result (bytes, rows, truncation, cache hits) are
updated by per-target hooks at the same boundary.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

MODULES = ("cli", "pipeline", "model", "nn", "vecstore", "encoder", "radf", "corpus", "metrics")
PROBE_TARGETS = (
    "vecstore.query_topk",
    "vecstore.build_stores",
    "vecstore.load_stores",
    "model.train_model",
    "model.score_dataset",
    "encoder.extract_and_cache",
)

VARIANTS = ("full", "no_rad", "no_extra_db", "just_difference")
TAUS = (5, 10, 20)
TRAIN_KINDS = ("baseline", "radmfa", "just_difference")
CLI_COMMANDS = ("synth", "ablate", "build-db", "eval")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _rows(x) -> int:
    shape = np.shape(getattr(x, "data", x))
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


class Tracer:
    """Records spans and counters for the calls it wraps.

    ``targets`` limits which calls are wrapped; None wraps every target in
    ``_target_table``. End-to-end runs pass ``PROBE_TARGETS`` so only the
    handful of coarse calls the end-to-end metrics are defined over is
    timed.
    """

    def __init__(self, pkg, run_id: str, targets=None):
        self.pkg = pkg
        self.run_id = run_id
        self.targets = targets
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._ref_sets: list[tuple[set, list]] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def _enter(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(sid)
        return sid

    def _exit(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._enter(name)
        try:
            yield
        finally:
            self._exit(sid)

    def _wrap(self, fn, name, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            if before is not None:
                before(args, kwargs)
            sid = self._enter(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(sid)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # --- installation ----------------------------------------------------

    def _target_table(self):
        p = self.pkg
        c = self.counts

        def radf_read(args, kwargs, result):
            c["radf.read.bytes"] += os.stat(_arg(args, kwargs, 0, "path")).st_size

        def radf_write(args, kwargs, result):
            c["radf.write.bytes"] += os.stat(_arg(args, kwargs, 0, "path")).st_size

        def extract_before(args, kwargs):
            c["encoder.extract.records"] += len(_arg(args, kwargs, 0, "records"))

        def query_after(args, kwargs, result):
            store = args[0]
            c["vecstore.rows_scanned"] += store.count * store.n_layers
            c["vecstore.truncated"] += int(result.truncated)

        def build_after(args, kwargs, result):
            c["vecstore.entries_built"] += result[1].n_inserted

        def load_after(args, kwargs, result):
            c["vecstore.entries_loaded"] += result.count

        def score_after(args, kwargs, result):
            c["model.scored_clips"] += len(result)

        def asp_after(args, kwargs, result):
            c["nn.asp.rows"] += _rows(_arg(args, kwargs, 0, "h"))

        def mfa_after(args, kwargs, result):
            c["model.mfa_forward.rows"] += _rows(result)

        def train_before(args, kwargs):
            self._ref_sets.append((set(), [0]))

        def train_after(args, kwargs, result):
            unique, total = self._ref_sets.pop()
            c["model.ref_rows.unique"] += len(unique)
            c["model.ref_rows.total"] += total[0]

        def assemble_after(args, kwargs, result):
            if not self._ref_sets:
                return
            hits = _arg(args, kwargs, 0, "result").hits
            unique, total = self._ref_sets[-1]
            for layer, layer_hits in enumerate(hits):
                for hit in layer_hits[: result.shape[0]]:
                    unique.add((hit.segment_ref, layer))
                total[0] += result.shape[0]

        kind = lambda a, k: f"model.train_model.{_arg(a, k, 0, 'kind')}"  # noqa: E731
        variant = lambda a, k: f"pipeline.run_variant.{_arg(a, k, 5, 'variant')}"  # noqa: E731
        tau = lambda a, k: f"pipeline.score_at_tau.{_arg(a, k, 4, 'tau')}"  # noqa: E731
        # (owner, attribute, span name, before hook, after hook)
        return [
            (p.corpus, "write_corpus", "corpus.synth", None, None),
            (p.corpus, "load_segment", "corpus.load_segment", None, None),
            (p.radf, "read_feature", "radf.read", None, radf_read),
            (p.radf, "write_feature", "radf.write", None, radf_write),
            (p.encoder, "mel_frames", "encoder.mel_frames", None, None),
            (p.encoder, "mel_filterbank", "encoder.mel_filterbank", None, None),
            (p.encoder, "encode_long", "encoder.encode_long", None, None),
            (p.encoder, "extract_and_cache", "encoder.extract_and_cache", extract_before, None),
            (p.encoder.CacheIndex, "load_short", "encoder.load_short", None, None),
            (p.encoder.CacheIndex, "load_embedding", "encoder.load_embedding", None, None),
            (p.vecstore.StoreSet, "query_topk", "vecstore.query_topk", None, query_after),
            (p.vecstore, "build_stores", "vecstore.build_stores", None, build_after),
            (p.vecstore, "persist_stores", "vecstore.persist_stores", None, None),
            (p.vecstore, "load_stores", "vecstore.load_stores", None, load_after),
            (p.nn, "asp", "nn.asp", None, asp_after),
            (p.nn.Tensor, "backward", "nn.backward", None, None),
            (p.nn.ParamSet, "adam_step", "nn.adam_step", None, None),
            (p.nn, "save_checkpoint", "nn.checkpoint.save", None, None),
            (p.nn, "load_checkpoint", "nn.checkpoint.load", None, None),
            (p.model, "train_model", kind, train_before, train_after),
            (p.model, "mfa_forward", "model.mfa_forward", None, mfa_after),
            (p.model, "retrieve_references", "model.retrieve_references", None, None),
            (p.model, "assemble_references", "model.assemble_references", None, assemble_after),
            (p.model, "score_dataset", "model.score_dataset", None, score_after),
            (p.metrics, "pooled_eer", "metrics.pooled_eer", None, None),
            (p.metrics, "det_points", "metrics.det_points", None, None),
            (p.metrics, "write_scores", "metrics.write_scores", None, None),
            (p.metrics, "write_det_csv", "metrics.write_det_csv", None, None),
            (p.pipeline, "run_seed_experiment", "pipeline.run_seed_experiment", None, None),
            (p.pipeline, "run_variant", variant, None, None),
            (p.pipeline, "score_at_tau", tau, None, None),
        ]

    def install(self) -> None:
        modules = [getattr(self.pkg, m) for m in MODULES]
        for owner, attr, name, before, after in self._target_table():
            module_name = owner.__module__ if isinstance(owner, type) else owner.__name__
            key = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            if self.targets is not None and key not in self.targets:
                continue
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, before, after)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            # rebind every module-level name that refers to this function
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- reduction -------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def self_times(self) -> dict[str, float]:
        """Per-module self time: span time minus the time of its child spans."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_module = {m: 0.0 for m in MODULES}
        for sid, (name, start, end, _) in enumerate(self.spans):
            module = name.split(".", 1)[0]
            if module in per_module:
                per_module[module] += (end - start) - child_time[sid]
        return per_module

    def child_offsets(self, parent_name: str, child_name: str) -> list[float]:
        """Per parent span, the time from its start to its first child_name span."""
        offsets = []
        for name, start, end, _ in self.spans:
            if name != parent_name:
                continue
            starts = [s for n, s, e, _ in self.spans if n == child_name and start <= s <= end]
            if starts:
                offsets.append(min(starts) - start)
        return offsets

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric named in BENCHMARK.json; 0 where unused."""
        c = self.counts
        m: dict[str, float] = {}

        def calls_and_s(name):
            m[f"{name}.calls"] = self.calls(name)
            m[f"{name}.s"] = self.total(name)

        m["corpus.synth_s"] = self.total("corpus.synth")
        calls_and_s("corpus.load_segment")
        for op in ("read", "write"):
            calls_and_s(f"radf.{op}")
            m[f"radf.{op}.bytes"] = c[f"radf.{op}.bytes"]
        calls_and_s("encoder.mel_frames")
        m["encoder.mel_filterbank.calls"] = self.calls("encoder.mel_filterbank")
        calls_and_s("encoder.encode_long")
        records = c["encoder.extract.records"]
        hits = records - self.calls("encoder.encode_long")
        m["encoder.extract.hit_ratio"] = hits / records if records else 0.0
        calls_and_s("vecstore.query_topk")
        m["vecstore.rows_scanned"] = c["vecstore.rows_scanned"]
        m["vecstore.truncated"] = c["vecstore.truncated"]
        for op in ("build_stores", "persist_stores", "load_stores"):
            m[f"vecstore.{op}.s"] = self.total(f"vecstore.{op}")
        calls_and_s("nn.asp")
        m["nn.asp.rows"] = c["nn.asp.rows"]
        calls_and_s("nn.backward")
        calls_and_s("nn.adam_step")
        m["nn.checkpoint.save_s"] = self.total("nn.checkpoint.save")
        m["nn.checkpoint.load_s"] = self.total("nn.checkpoint.load")
        for kind in TRAIN_KINDS:
            m[f"model.train_model.{kind}.s"] = self.total(f"model.train_model.{kind}")
        calls_and_s("model.mfa_forward")
        m["model.mfa_forward.rows"] = c["model.mfa_forward.rows"]
        calls_and_s("model.retrieve_references")
        m["model.assemble_references.s"] = self.total("model.assemble_references")
        m["model.feature_loads"] = self.calls("encoder.load_short") + self.calls(
            "encoder.load_embedding"
        )
        total_refs = c["model.ref_rows.total"]
        m["model.ref_rows_unique_ratio"] = (
            c["model.ref_rows.unique"] / total_refs if total_refs else 0.0
        )
        calls_and_s("metrics.pooled_eer")
        for name in ("det_points", "write_scores", "write_det_csv"):
            m[f"metrics.{name}.s"] = self.total(f"metrics.{name}")
        m["pipeline.run_seed_experiment.s"] = self.total("pipeline.run_seed_experiment")
        for variant in VARIANTS:
            m[f"pipeline.run_variant.{variant}.s"] = self.total(f"pipeline.run_variant.{variant}")
        for tau in TAUS:
            m[f"pipeline.score_at_tau.{tau}.s"] = self.total(f"pipeline.score_at_tau.{tau}")
        for command in CLI_COMMANDS:
            m[f"cli.main.{command}.s"] = self.total(f"cli.main.{command}")
        m["cli.eval.setup_s"] = sum(self.child_offsets("cli.main.eval", "model.score_dataset"))
        for module, seconds in self.self_times().items():
            m[f"self.{module}.s"] = seconds
        m["trace.spans"] = len(self.spans)
        return m

    def span_cost(self, calls: int = 20_000) -> float:
        """Seconds one wrapped call adds, measured on a no-op function."""
        probe = Tracer(self.pkg, "calibration")
        noop = probe._wrap(lambda: None, "noop")
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        wrapped = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            (lambda: None)()
        bare = time.perf_counter() - start
        return max(wrapped - bare, 0.0) / calls

    def write_jsonl(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                record = {
                    "id": sid,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "run": self.run_id,
                }
                out.write(json.dumps(record) + "\n")


def run_cli(pkg, tracer: Tracer | None, argv: list[str]) -> int:
    """Call ``cli.main`` in-process, with its stdout sent to stderr."""
    stdout = sys.stdout
    sys.stdout = sys.stderr
    try:
        if tracer is None:
            return pkg.cli.main(argv)
        with tracer.span(f"cli.main.{argv[0]}"):
            return pkg.cli.main(argv)
    finally:
        sys.stdout = stdout
