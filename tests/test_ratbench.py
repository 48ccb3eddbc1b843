"""Guards for the benchmark harness's hooks into the package."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "ratbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("ratbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_points_resolve():
    # the traced benchmark run patches these attributes; a rename in the
    # package would otherwise only surface as a crash of `run.py --trace 1`
    tracing = _load_tracing()
    assert tracing.TRACE_POINTS
    for module_name, attribute, *_ in tracing.TRACE_POINTS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attribute, None)), f"{module_name}.{attribute}"
