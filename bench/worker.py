"""One benchmark process: set a workload up, sweep it, check every output.

Started by run.py with the checkout's `src` on PYTHONPATH; prints one JSON
object as its last line of standard output.  Phases:

  setup    set up, report the time since the parent spawned this process
  measure  set up, then repeat the sweep until --seconds is used (untraced)
  trace    set up and sweep once traced, time untraced sweeps for the
           overhead, probe lindblad_rhs, report the per-layer metrics
  record   sweep every seed variant once and print its reference outputs
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import hostclock

# Host speed is sampled from here on, so that set-up time, most of which is
# the imports below, is scaled by the speed the host had while it ran.
CLOCK = hostclock.HostClock()
CLOCK.start()

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import corrqec.cli  # noqa: E402
import corrqec.config  # noqa: E402
import corrqec.experiment  # noqa: E402
import corrqec.lindblad  # noqa: E402
import corrqec.noise  # noqa: E402
import corrqec.operators  # noqa: E402
import corrqec.qecc  # noqa: E402
import corrqec.trajectory  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"
if Path(corrqec.cli.__file__).resolve().parents[2] != BENCH.parent:
    raise ImportError(f"corrqec imported from {corrqec.cli.__file__}, not this checkout")

# Inputs are drawn from a finite family so that every seed has a recorded
# reference: the workload seed is the packaged seed plus (--seed mod this).
SEED_VARIANTS = 16


class CliWorkload:
    """A workload that is one `corrqec` CLI invocation on a generated config;
    subclasses set name, command, packaged_seed, config and sweep_values."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.config_path = workdir / f"{self.name}-{seed}.yaml"
        self.out_path = workdir / f"{self.name}-{seed}.csv"

    def install_hooks(self):
        pass

    def setup(self):
        self.config_path.write_text(yaml.safe_dump(dict(self.config, base_seed=self.seed)))
        cfg = corrqec.config.load_config(self.config_path)
        self.channels = corrqec.noise.build_channels(corrqec.experiment.resolve_spec(cfg))
        corrqec.qecc.five_qubit_code()

    def sweep(self) -> dict:
        argv = [self.command, "--config", str(self.config_path), "--out", str(self.out_path)]
        code = corrqec.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"corrqec {self.command} exited with code {code}")
        return checks.parse_sweep_csv(self.out_path.read_text())

    def points(self) -> int:
        return len(self.sweep_values)

    def rhs_channels(self, num_qubits: int):
        noise = dict(self.config["noise"], num_qubits=num_qubits)
        cfg = corrqec.config.parse_config(dict(self.config, noise=noise))
        return corrqec.noise.build_channels(corrqec.experiment.resolve_spec(cfg))


class DensityScaling(CliWorkload):
    """`corrqec scaling` on the headline 1/N config (density engine, L=5)."""

    name = "density_scaling"
    command = "scaling"
    packaged_seed = 12345
    config = {
        "noise": {
            "kind": "exponential",
            "num_qubits": 5,
            "amplitude": 1.0,
            "correlation_length": 2.0,
            "axis": "z",
            "tau_c": 0.05,
            "g1": 1.0,
            "normalize": True,
        },
        "code": "five_qubit",
        "logical_state": [[1.0, 0.0], [0.0, 0.0]],
        "t_total": 0.5,
        "n_values": [5, 10, 20, 40, 80],
        "delta_t_values": [0.002, 0.003, 0.004, 0.006, 0.008, 0.012, 0.016, 0.02],
        "engine": "density",
    }
    sweep_values = config["n_values"]

    def work(self) -> dict:
        dt = corrqec.lindblad.default_dt_integrator(self.channels)
        t_total = self.config["t_total"]
        steps = sum(n * tracing.rk4_step_count(t_total / n, dt) for n in self.sweep_values)
        return {"rk4_steps": steps}

    def check(self, out: dict, reference: dict) -> list:
        return checks.check_density_scaling(out, reference.get(self.name), self.seed)

    def reference_entry(self, out: dict) -> dict:
        return {"x": out["x"], "fidelities": out["fidelities"]}


class TrajectoryQec(CliWorkload):
    """`corrqec cycle` with the trajectory engine, M=5000, 16 substeps, L=5."""

    name = "trajectory_qec"
    command = "cycle"
    packaged_seed = 20240601
    config = {
        "noise": {
            "kind": "exponential",
            "num_qubits": 5,
            "amplitude": 1.0,
            "correlation_length": 2.0,
            "axis": "z",
            "normalize": True,
        },
        "code": "five_qubit",
        "logical_state": [[1.0, 0.0], [0.0, 0.0]],
        "t_total": 0.5,
        "n_values": [10, 20, 40],
        "delta_t_values": [0.02, 0.03, 0.05, 0.08, 0.1],
        "trajectories": 5000,
        "trajectory_substeps": 16,
        "engine": "trajectory",
    }
    sweep_values = config["delta_t_values"]

    def install_hooks(self):
        # Fingerprint every jump decision (which rows jumped, into which
        # channel) so a sweep can be compared with the reference decisions.
        original = corrqec.trajectory.BatchStepper.step
        workload = self

        def step(stepper, psi, u):
            result = original(stepper, psi, u)
            _, jumped, channel = result
            workload.digest.update(np.packbits(jumped).tobytes())
            workload.digest.update(channel[jumped].astype(np.int64).tobytes())
            workload.jumps += int(np.count_nonzero(jumped))
            return result

        corrqec.trajectory.BatchStepper.step = step

    def sweep(self) -> dict:
        self.digest, self.jumps = hashlib.sha256(), 0
        out = super().sweep()
        out["jump_digest"], out["jumps"] = self.digest.hexdigest(), self.jumps
        return out

    def work(self) -> dict:
        rows = self.config["trajectories"] * self.config["trajectory_substeps"]
        return {"traj_steps": rows * len(self.sweep_values)}

    def check(self, out: dict, reference: dict) -> list:
        ref = reference.get(self.name, {}).get(str(self.seed))
        return checks.check_trajectory_qec(out, ref, self.seed, self.config["trajectories"])

    def reference_entry(self, out: dict) -> dict:
        keys = ("x", "fidelities", "jump_digest", "jumps")
        return {str(self.seed): {k: out[k] for k in keys}}


class UnravelingGrid:
    """Library calls of acceptance test 3: trajectories against the integrator
    for four kernels at L = 1, 2, 3."""

    name = "unraveling_grid"
    packaged_seed = 777
    kinds = ("independent", "collective_z", "exponential", "lowering")
    sizes = (1, 2, 3)
    t_total = 1.0
    delta_t = 0.005
    trajectories = 10_000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def install_hooks(self):
        pass

    @staticmethod
    def kernel(kind: str, num_qubits: int):
        noise = corrqec.noise
        if kind == "independent":
            return noise.independent_kernel(num_qubits)
        if kind == "collective_z":
            return noise.collective_axis_kernel(num_qubits, axis=3, amplitude=0.2)
        if kind == "exponential":
            return noise.exponential_kernel(num_qubits, correlation_length=1.0)
        return noise.lowering_kernel(num_qubits)

    def setup(self):
        self.cases = []
        for num_qubits in self.sizes:
            for kind in self.kinds:
                spec = corrqec.noise.integrate_kernel(self.kernel(kind, num_qubits))
                ch = corrqec.noise.build_channels(spec)
                psi0 = np.full(ch.dim, ch.dim**-0.5, dtype=complex)
                self.cases.append((f"{kind}/L{num_qubits}", ch, psi0))

    def sweep(self) -> dict:
        lindblad, trajectory = corrqec.lindblad, corrqec.trajectory
        distances = []
        for _, ch, psi0 in self.cases:
            states, _ = trajectory.sample_ensemble(
                psi0, ch, self.t_total, self.delta_t, self.seed, self.trajectories
            )
            cfg = lindblad.EvolutionConfig(lindblad.default_dt_integrator(ch), self.t_total)
            exact = lindblad.evolve_exact(np.outer(psi0, psi0.conj()), ch, cfg)
            rho_mc = trajectory.ensemble_density(states)
            distances.append(corrqec.operators.trace_distance(rho_mc, exact))
        return {"cases": [case for case, _, _ in self.cases], "trace_distances": distances}

    def points(self) -> int:
        return len(self.kinds) * len(self.sizes)

    def work(self) -> dict:
        return {}

    def check(self, out: dict, reference: dict) -> list:
        return checks.check_unraveling_grid(out)

    def rhs_channels(self, num_qubits: int):
        spec = corrqec.noise.integrate_kernel(self.kernel("exponential", num_qubits))
        return corrqec.noise.build_channels(spec)


WORKLOADS = {w.name: w for w in (DensityScaling, TrajectoryQec, UnravelingGrid)}


def workload_seed(cls, seed_option: int | None) -> int:
    if seed_option is None:
        return cls.packaged_seed
    return cls.packaged_seed + seed_option % SEED_VARIANTS


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def run_sweep(workload, reference: dict | None) -> dict:
    """One timed sweep with its output check (none without a reference); an
    exception fails every point.  `seconds` is the sweep's time at the
    reference host speed, `wall_s` its wall time (both without the clock's
    own slices)."""
    mark = CLOCK.mark()
    try:
        out = workload.sweep()
        elapsed = CLOCK.since(mark)
        failures = [] if reference is None else workload.check(out, reference)
    except Exception as err:  # a raising sweep is a failed sweep, not a crash
        elapsed = CLOCK.since(mark)
        out, failures = None, [(None, f"{type(err).__name__}: {err}")]
    points = workload.points()
    return {
        "seconds": elapsed["scaled"],
        "wall_s": elapsed["wall"],
        "slice_s": elapsed["slice_s"],
        "slices": elapsed["slices"],
        "points": points,
        "failed": checks.failed_points(failures, points),
        "failures": [message for _, message in failures],
        "output": out,
    }


def sweep_for(workload, reference: dict, budget: float) -> list:
    """Sweep until another sweep would overrun the budget; at least once."""
    start = time.perf_counter()
    sweeps = []
    while True:
        sweeps.append(run_sweep(workload, reference))
        elapsed = time.perf_counter() - start
        typical = statistics.median(s["wall_s"] for s in sweeps)
        if elapsed + typical > budget:
            return sweeps


def rhs_probe(workload, seed: int) -> dict:
    """Time direct lindblad_rhs calls on the workload's channels at L=3 and L=5.

    The operation count (2 + 2n) d^3 complex multiply-adds, 8 flops each, is
    computed from the shapes, not measured.
    """
    rng = np.random.default_rng(seed)
    metrics = {}
    for num_qubits in (3, 5):
        ch = workload.rhs_channels(num_qubits)
        g = rng.standard_normal((ch.dim, ch.dim)) + 1j * rng.standard_normal((ch.dim, ch.dim))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        rhs = corrqec.lindblad.lindblad_rhs
        calls = 1
        while True:
            t0 = time.perf_counter()
            for _ in range(calls):
                rhs(rho, ch)
            if time.perf_counter() - t0 >= 0.02:
                break
            calls *= 2
        per_call = []
        for _ in range(7):
            t0 = time.perf_counter()
            for _ in range(calls):
                rhs(rho, ch)
            per_call.append((time.perf_counter() - t0) / calls)
        seconds = statistics.median(per_call)
        flops = 8 * (2 + 2 * ch.jump_ops.shape[0]) * ch.dim**3
        metrics[f"lindblad.rhs_us.L{num_qubits}"] = seconds * 1e6
        metrics[f"lindblad.rhs_gflops.L{num_qubits}"] = flops / seconds / 1e9
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--phase", required=True, choices=("setup", "measure", "trace", "record"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    cls = WORKLOADS[args.workload]
    if args.phase in ("trace", "record"):
        # Spans and reference outputs are taken without the clock's interrupts.
        CLOCK.stop()
    if args.phase == "record":
        return record(cls, args.workdir)

    workload = cls(workload_seed(cls, args.seed), args.workdir)
    recorder = tracing.Recorder() if args.phase == "trace" else None
    absent = recorder.install() if recorder else []
    workload.install_hooks()
    if recorder:
        recorder.active = True
        with recorder.span("setup"):
            workload.setup()
        recorder.active = False
    else:
        workload.setup()
    spawned = time.perf_counter() - (time.monotonic() - args.spawned_at)
    setup = CLOCK.since((spawned, 0.0, 0))
    result = {"workload_seed": workload.seed, "setup_s": setup["scaled"],
              "setup_wall_s": setup["wall"]}

    if args.phase == "measure":
        result["sweeps"] = sweep_for(workload, load_reference(), args.seconds)
        result["work"] = workload.work()
    elif args.phase == "trace":
        reference = load_reference()
        untraced = sweep_for(workload, reference, args.seconds / 2)
        recorder.active = True
        recorder.run_id = 1
        with recorder.span("sweep"):
            traced = run_sweep(workload, reference)
        recorder.active = False
        recorder.write(args.workdir / f"spans-{workload.name}-{workload.seed}.json")
        metrics = tracing.layer_metrics(recorder, absent)
        metrics.update(rhs_probe(workload, workload.seed))
        baseline = statistics.median(s["wall_s"] for s in untraced)
        metrics["trace.run_s"] = traced["wall_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - baseline
        result.update(sweeps=untraced + [traced], per_layer=metrics, absent=absent)
    CLOCK.stop()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def record(cls, workdir: Path) -> int:
    """Reference outputs of every seed variant (one for a seed-free workload)."""
    variants = range(SEED_VARIANTS) if cls is TrajectoryQec else (None,)
    step = corrqec.trajectory.BatchStepper.step
    entry = {}
    for variant in variants:
        workload = cls(workload_seed(cls, variant), workdir)
        corrqec.trajectory.BatchStepper.step = step
        workload.install_hooks()
        workload.setup()
        sweep = run_sweep(workload, None)
        if sweep["output"] is None:
            print(f"{cls.name} seed {workload.seed}: {sweep['failures']}", file=sys.stderr)
            return 1
        entry.update(workload.reference_entry(sweep["output"]))
    print(json.dumps({cls.name: entry}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
