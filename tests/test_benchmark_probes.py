"""The benchmark's layer probes still find every function they wrap.

``benchmarks/spans.py`` skips a probe whose attribute is gone and only
lists its span as missing, so a renamed phase would make the benchmark
report 0 for it; this test turns that into a failure.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while it executes.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_layer_probe_finds_its_function(monkeypatch):
    import mvortho.stieltjes as st
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer("probe-check")
    original = st._moment_pass
    spans.install_layer_probes(tracer)
    try:
        assert tracer.missing_spans == set()
    finally:
        tracer.restore()
    assert st._moment_pass is original
