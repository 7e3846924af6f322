"""Span recording around corrqec's public entry points, from outside the package.

`Recorder.install` replaces module attributes (and `BatchStepper.step`) with
wrappers that record one span per call: name, start, end, parent span and
run id.  Spans stay in memory and are written once, when the run ends.  A
layer's self time is its spans' duration minus the time their child spans
cover.  The wrappers call straight through while `Recorder.active` is false,
so one process can time untraced and traced sweeps back to back.
"""

from __future__ import annotations

import functools
import json
import logging
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


def rk4_step_count(t_final: float, dt_integrator: float) -> int:
    """RK4 steps `evolve_exact` takes: full steps plus a remainder step that
    is not float roundoff."""
    n_full, remainder = divmod(t_final, dt_integrator)
    folded = remainder < 1e-12 * max(t_final, dt_integrator)
    return int(n_full) + (0 if folded else 1)


def _count_rk4(args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return {"rk4_steps": rk4_step_count(cfg.t_final, cfg.dt_integrator)}


def _count_step(args, kwargs, result):
    psi = args[1] if len(args) > 1 else kwargs["psi"]
    return {"rows_stepped": int(psi.shape[0]), "jumps": int(np.count_nonzero(result[1]))}


def _count_streams(args, kwargs, result):
    return {"streams": int(result.shape[0])}


def _count_syndrome_rows(args, kwargs, result):
    return {"syndrome_rows": int(result.shape[0])}


# (span name, module, attribute, counter).  An attribute whose module is None
# is private: it is looked up by name in every loaded corrqec module and its
# metrics are reported absent when no module defines it.
TARGETS = (
    ("cli.main", "corrqec.cli", "main", None),
    ("config.load", "corrqec.config", "load_config", None),
    ("noise.build_channels", "corrqec.noise", "build_channels", None),
    ("lindblad.evolve", "corrqec.lindblad", "evolve_exact", _count_rk4),
    ("trajectory.step", "corrqec.trajectory", "BatchStepper.step", _count_step),
    ("trajectory.rng", None, "_uniform_table", _count_streams),
    ("trajectory.sample_ensemble", "corrqec.trajectory", "sample_ensemble", None),
    ("qecc.code_build", "corrqec.qecc", "five_qubit_code", None),
    ("qecc.correction_channel", "corrqec.qecc", "correction_channel", None),
    ("qecc.syndrome_recover", None, "_batch_syndrome_recover", _count_syndrome_rows),
    ("experiment.sweep", "corrqec.experiment", "run_repetition_scaling", None),
    ("experiment.sweep", "corrqec.experiment", "run_cycle_fidelity", None),
    ("experiment.fit", "corrqec.experiment", "fit_loglog", None),
    ("experiment.render", "corrqec.experiment", "render_scaling_csv", None),
    ("experiment.render", "corrqec.experiment", "render_cycle_csv", None),
    ("experiment.render", "corrqec.experiment", "write_text", None),
)

# Per-layer metrics that exist only while the private span they come from does.
OPTIONAL_METRICS = {
    "trajectory.rng": ("trajectory.rng_s", "trajectory.rng_streams"),
    "qecc.syndrome_recover": ("qecc.syndrome_recover_s", "qecc.syndrome_recover_rows"),
}


def _corrqec_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "corrqec"]


def _find_private(attr):
    for module in _corrqec_modules():
        if hasattr(module, attr):
            return getattr(module, attr)
    return None


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, run id, counts]
        self._stack = []
        self.active = False
        self.run_id = 0
        self.renorms = 0

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.run_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def install(self):
        """Wrap every target that exists; return the names of absent metrics."""
        absent = []
        for name, module_name, attr, counter in TARGETS:
            if module_name is None:
                original = _find_private(attr)
                if original is None:
                    absent.extend(OPTIONAL_METRICS[name])
                    continue
                self._replace_everywhere(original, self.wrap(name, original, counter))
            elif "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(sys.modules[module_name], cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method), counter))
            else:
                original = getattr(sys.modules[module_name], attr)
                self._replace_everywhere(original, self.wrap(name, original, counter))
        logger = logging.getLogger("corrqec.lindblad")
        logger.addHandler(_RenormCounter(self))
        logger.setLevel(logging.INFO)
        return absent

    @staticmethod
    def _replace_everywhere(original, wrapper):
        # Modules import each other's functions by name, so every binding of
        # the same object is replaced, not only the defining module's.
        for module in _corrqec_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def self_times(self):
        """Per span name: total self time, call count and summed counters."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        selfs, calls, counts = defaultdict(float), Counter(), Counter()
        for i, (name, start, end, _, _, span_counts) in enumerate(self.spans):
            selfs[name] += (end - start) - child_time[i]
            calls[name] += 1
            if span_counts:
                counts.update(span_counts)
        return selfs, calls, counts

    def write(self, path):
        keys = ("name", "start", "end", "parent", "run_id", "counts")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)


class _RenormCounter(logging.Handler):
    """Counts trace renormalizations from evolve_exact's log record."""

    def __init__(self, recorder):
        super().__init__(level=logging.INFO)
        self.recorder = recorder

    def emit(self, record):
        if self.recorder.active and record.msg.startswith("renormalized trace"):
            self.recorder.renorms += int(record.args[0])


def layer_metrics(recorder: Recorder, absent) -> dict:
    """Per-layer metrics from the recorded spans, absent ones left out."""
    selfs, calls, counts = recorder.self_times()
    metrics = {
        "config.load_s": selfs["config.load"],
        "noise.build_channels_s": selfs["noise.build_channels"],
        "noise.build_channels_calls": calls["noise.build_channels"],
        "lindblad.evolve_s": selfs["lindblad.evolve"],
        "lindblad.evolve_calls": calls["lindblad.evolve"],
        "lindblad.rk4_steps": counts["rk4_steps"],
        "lindblad.renorms": recorder.renorms,
        "trajectory.step_s": selfs["trajectory.step"],
        "trajectory.step_calls": calls["trajectory.step"],
        "trajectory.rows_stepped": counts["rows_stepped"],
        "trajectory.jump_frac": counts["jumps"] / max(counts["rows_stepped"], 1),
        "trajectory.sample_ensemble_s": selfs["trajectory.sample_ensemble"],
        "trajectory.rng_s": selfs["trajectory.rng"],
        "trajectory.rng_streams": counts["streams"],
        "qecc.code_build_s": selfs["qecc.code_build"],
        "qecc.correction_channel_s": selfs["qecc.correction_channel"],
        "qecc.correction_channel_calls": calls["qecc.correction_channel"],
        "qecc.syndrome_recover_s": selfs["qecc.syndrome_recover"],
        "qecc.syndrome_recover_rows": counts["syndrome_rows"],
        "experiment.self_s": selfs["experiment.sweep"],
        "experiment.fit_s": selfs["experiment.fit"],
        "experiment.render_s": selfs["experiment.render"],
        "cli.self_s": selfs["cli.main"],
        "trace.unattributed_s": selfs["sweep"],
    }
    return {k: v for k, v in metrics.items() if k not in absent}
