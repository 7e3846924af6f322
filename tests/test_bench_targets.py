"""The benchmark's tracer wraps library functions by name; each must exist.

`bench/tracing.py` reports a per-layer metric as absent when its private
target is gone, so a rename or fold inside the library would pass silently.
This test loads the tracer by path, unedited, and resolves every target.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import corrqec

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    for info in pkgutil.iter_modules(corrqec.__path__, "corrqec."):
        importlib.import_module(info.name)
    tracing = _load_tracing()
    assert tracing.TARGETS
    for name, module_name, attr, _ in tracing.TARGETS:
        if module_name is None:
            assert name in tracing.OPTIONAL_METRICS, name
            assert tracing._find_private(attr) is not None, f"{name}: no module defines {attr}"
            continue
        obj = sys.modules[module_name]
        for part in attr.split("."):
            assert hasattr(obj, part), f"{name}: {module_name}.{attr} is missing"
            obj = getattr(obj, part)
        assert callable(obj), f"{name}: {module_name}.{attr} is not callable"
