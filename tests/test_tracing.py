"""The benchmark's traced runs wrap library functions by name.

``perfbench/tracing.py`` lists them in ``WRAPPED``; a name that no longer
resolves makes ``Tracer.install`` raise and every traced run fail.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(short, name) for short, names in module.WRAPPED.items() for name in names]


@pytest.mark.parametrize("short,name", _wrapped())
def test_wrapped_name_resolves(short, name):
    module = importlib.import_module(f"graphpotentials.{short}")
    assert callable(getattr(module, name, None)), f"graphpotentials.{short}.{name}"
