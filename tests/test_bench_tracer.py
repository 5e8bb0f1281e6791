"""The benchmark's tracer (perfbench/spans.py) still finds every function it wraps.

``run.py --trace 1`` patches each name in ``spans.TARGETS``; deleting or
renaming one of them in the package breaks the benchmark, so this test
installs and uninstalls the tracer once.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_target_and_restores_it():
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        tracer.install()  # looks each target up; raises when one is gone
        patched = [(owner, attr, vars(owner)[attr], original)
                   for owner, attr, original in tracer._patches]
    finally:
        tracer.uninstall()
    assert len(patched) >= len(spans.TARGETS)
    for owner, attr, wrapper, original in patched:
        assert wrapper.__wrapped__ is original
        assert vars(owner)[attr] is original, attr
