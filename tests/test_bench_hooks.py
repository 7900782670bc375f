"""The benchmark's per-layer spans hook names inside ``qkdnet``
(``bench/spans.py``); a renamed target, or one the program no longer calls,
would silently report 0 for its metric, so every hook must still resolve
and be reached by a run."""

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


def test_every_benchmark_metric_is_measured(monkeypatch):
    # a hooked function that a change inlines or bypasses still resolves,
    # but its metric would read 0; the bundled dos-recovery run on the
    # vienna preset reaches every hook
    from qkdnet import Engine, bundled_scenario, parse_scenario, vienna_preset

    spans = _load_spans(monkeypatch)
    tracer = spans.Tracer()
    tracer.install()
    try:
        Engine(vienna_preset(), parse_scenario(bundled_scenario("dos-recovery"))).run()
    finally:
        tracer.uninstall()
    assert sorted(h.metric for h in spans.HOOKS if tracer.calls[h.metric] == 0) == []
