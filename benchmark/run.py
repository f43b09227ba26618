#!/usr/bin/env python3
"""radspoof benchmark: one workload per process, one JSON result line.

Usage (from the repository root):

    python3 benchmark/run.py --workload experiment --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one unit of
the workload traced (spans around every wrapped radspoof call) and prints
the per-layer metrics, the self time per module and the tracing overhead.
The last stdout line is the result object; the line before it holds the
environment, the input digest and the workload-specific details.

The package is imported from ``src/`` next to this directory; without it
the benchmark exits with status 1 and prints no result. A failed output
check also exits with status 1, after the result line.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads: one thread per process keeps
# runs comparable on a shared machine and never exceeds nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

# name -> unit; must match BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "ingest_entries_per_s": "entries/s",
    "queries_per_s": "queries/s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "peak_rss_mb": "MiB",
}


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def load_package():
    if not (SRC / "radspoof" / "__init__.py").is_file():
        raise SystemExit(f"error: radspoof sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    names = ("cli", "pipeline", "model", "nn", "vecstore", "encoder", "radf", "corpus", "metrics")
    return types.SimpleNamespace(
        **{n: importlib.import_module(f"radspoof.{n}") for n in names}
    )


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads if threads is not None else BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def digest_tree(root: Path, skip=("store",)) -> str:
    """sha256 over every file's relative path and bytes, store dirs excluded.

    Store directories are left out because ``build_stores`` stamps a
    wall-clock ``built_at`` into their ``meta.txt``.
    """
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root)
        if rel.parts[0] in skip:
            continue
        h.update(str(rel).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_e2e(workload, ctx, workdir: Path, tracing) -> tuple[dict, dict]:
    setup_times, digests = [], []
    for r in range(workload.setup_repeats):
        root = workdir / f"setup{r}"
        # flush earlier write-back so this set-up is not charged for it
        os.sync()
        start = time.perf_counter()
        inputs = workload.setup(ctx, root)
        setup_times.append(time.perf_counter() - start)
        digests.append(digest_tree(root))
        if r < workload.setup_repeats - 1:
            shutil.rmtree(root)
    if len(digests) > 1:
        ctx.checks.check(len(set(digests)) == 1, "same seed gives byte-identical inputs")
    os.sync()  # nor is the timed phase charged for set-up's write-back
    probe = tracing.Tracer(ctx.pkg, "probe", targets=tracing.PROBE_TARGETS)
    probe.install()
    try:
        metrics, details = workload.measure(ctx, inputs, workdir, probe)
    finally:
        probe.uninstall()
    details["query_samples"] = metrics.pop("query_samples")
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = {"input_digest": digests[-1], "setup_samples": setup_times, "details": details}
    return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}, info


def run_traced(workload, ctx, workdir: Path, tracing, run_id: str) -> tuple[dict, dict]:
    tracer = tracing.Tracer(ctx.pkg, run_id)
    os.sync()
    tracer.install()
    try:
        root = workdir / "setup0"
        inputs = workload.setup(ctx, root, tracer)
    finally:
        tracer.uninstall()
    digest = digest_tree(root)
    os.sync()
    untraced = workload.unit(ctx, inputs, workdir / "untraced")
    tracer.install()
    try:
        traced = workload.unit(ctx, inputs, workdir / "traced", tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    # wall-clock difference of two runs, as noisy as the machine; the span
    # estimate is the calibrated cost of one wrapped call times the span count
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_ratio"] = (traced - untraced) / untraced
    metrics["trace.span_overhead_est_s"] = tracer.span_cost() * len(tracer.spans)
    spans_path = OUT / f"spans-{run_id}.jsonl"
    tracer.write_jsonl(spans_path)
    info = {
        "input_digest": digest,
        "details": {"untraced_unit_s": untraced, "traced_unit_s": traced,
                    "spans_file": str(spans_path.relative_to(ROOT))},
    }
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = load_package()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload]()
    ctx = workloads.Context(pkg=pkg, seed=args.seed, seconds=args.seconds)
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}"
    # a fresh directory per run: extract_and_cache is idempotent, so a reused
    # cache would turn cold extractions into cache hits
    workdir = WORK / f"{run_id}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            metrics, info = run_traced(workload, ctx, workdir, tracing, run_id)
        else:
            metrics, info = run_e2e(workload, ctx, workdir, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = {"workload": args.workload, "env": environment(args.seed), **info,
            "checks": {"attempted": ctx.checks.attempted, "failed": ctx.checks.failed}}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": ctx.checks.failed == 0,
        "attempted": ctx.checks.attempted,
        "failed": ctx.checks.failed,
        "metrics": metrics,
    }))
    return 0 if ctx.checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
