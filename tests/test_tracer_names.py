"""The benchmark's tracer (``perfbench/spans.py``) wraps relrank's functions
and methods by name, and a traced run whose wrapped name is missing reads
``correct: false``.  Installing it here makes a refactor that renames or
deletes a wrapped name fail the test suite at once."""

import importlib.util
from pathlib import Path

from relrank import rerank

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_finds_every_name_it_wraps():
    original = rerank.build_pair_input
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert rerank.build_pair_input is not original
    finally:
        tracer.uninstall()
    assert rerank.build_pair_input is original
