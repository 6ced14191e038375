"""The benchmark's tracer wraps blindjam functions by module attribute; a
rename in src/ must fail here, not only in the benchmark's smoke run."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module, attr", sorted({(m, a) for m, a, _, _ in _traced()}))
def test_traced_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"blindjam.{module}"), attr, None))
