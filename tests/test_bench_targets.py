"""The traced benchmark finds the functions it wraps by module and attribute
name; every one of them must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, *_ in spans.TARGETS]


@pytest.mark.parametrize("module,attr", _targets(), ids=lambda v: v)
def test_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
