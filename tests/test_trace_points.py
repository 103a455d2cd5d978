"""The benchmark's trace points name functions that exist.

`bench/trace_launch.py` wraps each (module, attribute) pair of its
TRACE_POINTS, and `--probe-init` calls `cluster.init_axes`. A pair that no
longer resolves is only listed as missing there, and its per-layer metric
reads null, so a rename has to fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAUNCHER = Path(__file__).parents[1] / "bench" / "trace_launch.py"


def _trace_points():
    spec = importlib.util.spec_from_file_location("trace_launch", LAUNCHER)
    launcher = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launcher)
    return [(module, attribute) for module, attribute, *_ in launcher.TRACE_POINTS]


POINTS = _trace_points() + [("diachron.cluster", "init_axes")]


@pytest.mark.parametrize("module, attribute", POINTS, ids=[f"{m}.{a}" for m, a in POINTS])
def test_trace_point_resolves_to_a_function(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute, None))
