"""The benchmark's traced run wraps photonamp functions by name; each must exist.

A renamed or deleted target is only reported as absent by ``bench/run.py
--trace 1``, together with every per-layer metric it feeds, so this test
catches it before a benchmark run does.
"""

import importlib.util
import sys
from pathlib import Path

import photonamp.cli  # noqa: F401  (imports every module the tracer looks up)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # tracing.py imports checks.py
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    assert tracing.Instrumentation(tracing.Tracer()).absent == {}
