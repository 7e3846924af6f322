"""The benchmark's tracer wraps library functions by name; each must exist.

`bench/tracing.py` reports a per-layer metric as absent when its private
target is gone, so a rename or fold inside the library would pass silently.
These tests load the tracer by path, unedited, resolve every target and
run its row counters on real results.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path
from unittest import mock

import numpy as np

import corrqec
from corrqec.noise import build_channels, exponential_kernel, integrate_kernel, rescale_to_unit_max_rate
from corrqec.operators import StateBlock
from corrqec.qecc import _batch_syndrome_recover, five_qubit_code
from corrqec.trajectory import BatchStepper

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


def test_tracer_counters_read_shared_blocks():
    # The tracer counts rows from the step's block argument and from the
    # recovery's result by `.shape[0]`, and the worker's jump-digest hook,
    # called as (stepper, psi, u), reads the step's per-row `jumped` and
    # `channel`.  A shared-state block must report its M rows to both.
    tracing = _load_tracing()
    code = five_qubit_code()
    kernel = exponential_kernel(5, correlation_length=2.0, axis=3)
    ch = build_channels(rescale_to_unit_max_rate(integrate_kernel(kernel)))
    m = 64
    u = np.random.default_rng(3).random(m)
    u[::16] = 0.0  # forced jumps out of the shared state
    seen = []
    original = BatchStepper.step

    def hook(stepper, psi, u):
        result = original(stepper, psi, u)
        _, jumped, channel = result
        seen.append((np.packbits(jumped).size, channel[jumped].astype(np.int64).size))
        return result

    with mock.patch.object(BatchStepper, "step", hook):
        block = StateBlock.shared(code.logical_zero, m)
        args = (BatchStepper(ch, 0.1 / 16), block, u)
        result = args[0].step(*args[1:])
    jumps = int(np.count_nonzero(result[1]))
    assert jumps >= 4 and seen == [(m // 8, jumps)]
    assert result[0].shape == (m, code.dim) and result[1].shape == result[2].shape == (m,)
    assert tracing._count_step(args, {}, result) == {"rows_stepped": m, "jumps": jumps}
    draws = np.random.default_rng(4).random((m, len(code.generators)))
    recovered = _batch_syndrome_recover(result[0], draws, code)
    assert tracing._count_syndrome_rows((result[0], draws, code), {}, recovered) == {"syndrome_rows": m}
