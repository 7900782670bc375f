"""The benchmark's per-layer spans hook names inside ``qkdnet``
(``bench/spans.py``); a renamed target would silently report 0 for its
metric, so every hook must still resolve."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_resolves(monkeypatch):
    spans = _load_spans(monkeypatch)
    assert spans.HOOKS
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
