"""The benchmark's trace points name functions that exist.

`bench/run.py --trace 1` wraps every entry of `bench/spans.py`'s WRAP_POINTS
and fails on the first name that a refactor removed.  This resolves each
entry the way `Tracer.install` does, without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import statehelper

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _wrap_points():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.WRAP_POINTS


@pytest.mark.parametrize("module_name, attr, span", _wrap_points())
def test_wrap_point_resolves_to_a_callable(module_name, attr, span):
    owner = importlib.import_module(f"{statehelper.__name__}.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{module_name}.{attr} ({span}) is not callable"
