"""Smoke test of the benchmark tracer against the package's public names.

The tracer in ``benchmark/tracing.py`` patches functions and methods by
name; this installs it with every target, so a traced name that moves or
is renamed fails here rather than only under ``benchmark/run.py --trace 1``.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import numpy as np

from radspoof import radf

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(pkg):
    """Every module and class attribute of the package, by identity."""
    owners = list(vars(pkg).values())
    owners += [v for owner in owners for v in vars(owner).values() if isinstance(v, type)]
    return {(id(owner), attr): id(v) for owner in owners for attr, v in vars(owner).items()}


def test_tracer_installs_every_target_and_uninstalls_cleanly(tmp_path):
    tracing = _load_tracing()
    pkg = types.SimpleNamespace(
        **{name: importlib.import_module(f"radspoof.{name}") for name in tracing.MODULES}
    )
    before = _bindings(pkg)
    tracer = tracing.Tracer(pkg, "smoke", targets=None)
    try:
        tracer.install()
        assert len(tracer._patches) >= len(tracer._target_table())
        for owner, attr, *_ in tracer._target_table():
            assert id(getattr(owner, attr)) != before[(id(owner), attr)], attr
        values = np.ones((2, 3), dtype=np.float32)
        radf.write_feature(tmp_path / "e.radf", values, radf.KIND_EMBEDDING)
        radf.read_feature(tmp_path / "e.radf")
    finally:
        tracer.uninstall()
    assert tracer.calls("radf.write") == 1 and tracer.calls("radf.read") == 1
    assert tracer.counts["radf.read.bytes"] == (tmp_path / "e.radf").stat().st_size
    assert _bindings(pkg) == before
