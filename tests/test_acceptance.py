"""End-to-end acceptance runs for the full simulator.

One test per headline claim, each printing a single PASS line with its
measured values (visible under pytest -s; assertions carry them too).
Budgets are generous wall-clock ceilings so a regression that slows an
engine by an order of magnitude fails loudly.
"""

import re
import time
from pathlib import Path

import numpy as np

from corrqec.cli import main
from corrqec.experiment import ExperimentConfig, run_cycle_fidelity, run_repetition_scaling
from corrqec.lindblad import EvolutionConfig, default_dt_integrator, evolve_exact
from corrqec.noise import (
    build_channels,
    collective_axis_kernel,
    exponential_kernel,
    independent_kernel,
    integrate_kernel,
    lowering_kernel,
    noise_spec_direct,
    rescale_to_unit_max_rate,
)
from corrqec.operators import trace_distance
from corrqec.qecc import _batch_measure, _batch_syndrome_recover, encode, five_qubit_code
from corrqec.trajectory import (
    apply_first_order_channel,
    build_first_order_channel,
    ensemble_density,
    sample_ensemble,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

HEADLINE_KERNEL = exponential_kernel(
    5, amplitude=1.0, correlation_length=2.0, tau_c=0.05, axis=3
)


def _report(name, measured, bound, t0, budget):
    elapsed = time.perf_counter() - t0
    print(f"PASS {name}: measured={measured} bound={bound} ({elapsed:.1f}s)")
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"


def _random_encoded(rng, code):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = v / np.linalg.norm(v)
    return encode(v[0], v[1], code)


def test_acceptance_1_error_image_orthogonality():
    # the sixteen single-qubit error images of any codeword are orthonormal
    t0 = time.perf_counter()
    code = five_qubit_code()
    rng = np.random.default_rng(500)
    states = [
        code.logical_zero,
        code.logical_one,
        (code.logical_zero + code.logical_one) / np.sqrt(2),
    ]
    states += [_random_encoded(rng, code) for _ in range(10)]
    worst = 0.0
    eye = np.eye(16)
    for psi in states:
        images = code.error_basis @ psi
        worst = max(worst, float(np.max(np.abs(images.conj() @ images.T - eye))))
    assert worst <= 1e-10, f"worst Gram deviation {worst:.3e}"
    _report("error_image_orthogonality", f"{worst:.3e}", "<=1e-10", t0, 1.0)


def test_acceptance_2_exhaustive_recovery():
    # every weight-1 error on every encoded state is corrected exactly
    t0 = time.perf_counter()
    code = five_qubit_code()
    rng = np.random.default_rng(501)
    states = [
        code.logical_zero,
        code.logical_one,
        encode(0.6, 0.8j, code),
    ] + [_random_encoded(rng, code) for _ in range(7)]
    meas_rng = np.random.default_rng(502)
    worst = 0.0
    for psi in states:
        # one block of the sixteen error images, one row of uniforms each
        images = code.error_basis @ psi
        uniforms = meas_rng.random((len(images), len(code.generators)))
        _, syndromes = _batch_measure(images.copy(), uniforms, code)
        assert syndromes.tolist() == list(code.syndrome_of_error)
        fixed = _batch_syndrome_recover(images, uniforms, code)
        worst = max(worst, float(np.max(1.0 - np.abs(fixed.rows() @ psi.conj()) ** 2)))
    assert worst <= 1e-9, f"worst recovery infidelity {worst:.3e}"
    _report("exhaustive_recovery", f"{worst:.3e}", "<=1e-9", t0, 5.0)


def test_acceptance_3_unraveling_grid():
    # quantum-jump ensembles track the master equation across noise types and
    # sizes, and the discrepancy shrinks with more trajectories
    t0 = time.perf_counter()
    cases = []
    for num_qubits in (1, 2, 3):
        cases += [
            ("independent", independent_kernel(num_qubits)),
            ("collective_z", collective_axis_kernel(num_qubits, axis=3, amplitude=0.2)),
            ("exponential", exponential_kernel(num_qubits, correlation_length=1.0)),
            ("lowering", lowering_kernel(num_qubits)),
        ]
    t_total, dt, seed = 1.0, 0.005, 777
    worst = 0.0
    means = {}
    for m_traj in (10_000, 40_000):
        tds = []
        for name, kernel in cases:
            ch = build_channels(integrate_kernel(kernel))
            dim = ch.dim
            psi0 = np.full(dim, dim**-0.5, dtype=complex)
            states, _ = sample_ensemble(psi0, ch, t_total, dt, seed, m_traj)
            exact = evolve_exact(
                np.outer(psi0, psi0.conj()),
                ch,
                EvolutionConfig(default_dt_integrator(ch), t_total),
            )
            td = trace_distance(ensemble_density(states), exact)
            tds.append(td)
            if m_traj == 10_000:
                worst = max(worst, td)
                assert td <= 0.02, f"{name} L={int(np.log2(dim))}: TD {td:.4f} > 0.02"
        means[m_traj] = float(np.mean(tds))
    assert means[40_000] < means[10_000], f"means {means}"
    _report(
        "unraveling_grid",
        f"worst_td={worst:.4f} mean_10k={means[10_000]:.4f} mean_40k={means[40_000]:.4f}",
        "td<=0.02, mean decreasing",
        t0,
        120.0,
    )


def test_acceptance_4_first_order_channel_order():
    # the frozen error channel is first-order accurate: halving the interval
    # shrinks its distance to the integrator by 4 +/- 0.5
    t0 = time.perf_counter()
    ratios = []
    for k in range(5):
        rng = np.random.default_rng(2468 + k)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        spec = rescale_to_unit_max_rate(noise_spec_direct(g @ g.conj().T))
        ch = build_channels(spec)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = psi / np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        errs = []
        for dt in (0.01, 0.005):
            approx = apply_first_order_channel(rho, build_first_order_channel(psi, ch, dt))
            exact = evolve_exact(rho, ch, EvolutionConfig(default_dt_integrator(ch), dt))
            errs.append(np.linalg.norm(approx - exact))
        ratios.append(errs[0] / errs[1])
    assert all(3.5 <= r <= 4.5 for r in ratios), f"ratios {ratios}"
    _report(
        "first_order_channel_order",
        "ratios=" + ",".join(f"{r:.2f}" for r in ratios),
        "4 +/- 0.5",
        t0,
        30.0,
    )


def test_acceptance_5_corrected_cycle_slope():
    # corrected per-cycle infidelity is second order in the interval
    t0 = time.perf_counter()
    cfg = ExperimentConfig(noise=HEADLINE_KERNEL, engine="density")
    result = run_cycle_fidelity(cfg, correction=True)
    slope = result.fit.slope
    assert 1.8 <= slope <= 2.2, f"cycle slope {slope:.4f}"
    _report(
        "corrected_cycle_slope",
        f"slope={slope:.4f} stderr={result.fit.stderr:.4f}",
        "[1.8, 2.2]",
        t0,
        120.0,
    )


def test_acceptance_6_repetition_scaling_slopes():
    # residual infidelity falls off as 1/N for both correlated noise types
    t0 = time.perf_counter()
    slopes = {}
    for name, kernel in (
        ("exponential_z", HEADLINE_KERNEL),
        ("collective_z", collective_axis_kernel(5, axis=3, amplitude=0.2)),
    ):
        cfg = ExperimentConfig(noise=kernel, engine="density")
        result = run_repetition_scaling(cfg, correction=True)
        slopes[name] = (result.fit.slope, result.fit.stderr)
        assert -1.2 <= result.fit.slope <= -0.8, f"{name} slope {result.fit.slope:.4f}"
    measured = " ".join(f"{k}={v[0]:.4f}+/-{v[1]:.4f}" for k, v in slopes.items())
    _report("repetition_scaling_slopes", measured, "[-1.2, -0.8]", t0, 300.0)


def test_acceptance_7_control_slope_via_cli(tmp_path):
    # without correction the per-cycle infidelity is first order in the
    # interval; exercised through the installed command-line entry point
    t0 = time.perf_counter()
    out = tmp_path / "control.csv"
    code = main(
        [
            "cycle",
            "--config",
            str(CONFIG_DIR / "exponential_scaling.yaml"),
            "--no-correction",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    trailer = out.read_text().splitlines()[-1]
    match = re.match(r"# fit: slope=(\S+) stderr=(\S+) points=(\d+)", trailer)
    assert match, trailer
    slope, stderr = float(match.group(1)), float(match.group(2))
    assert 0.8 <= slope <= 1.2, f"control slope {slope:.4f}"
    _report(
        "control_slope_via_cli", f"slope={slope:.4f} stderr={stderr:.4f}", "[0.8, 1.2]", t0, 60.0
    )


def test_acceptance_8_analytic_decays():
    # engine vs closed forms: dephasing coherence 0.5 e^{-2 xi t} and
    # amplitude-damping population e^{-2 t}
    t0 = time.perf_counter()
    ch_z = build_channels(integrate_kernel(collective_axis_kernel(1, axis=3, amplitude=1.0)))
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    rho = evolve_exact(
        np.outer(plus, plus.conj()), ch_z, EvolutionConfig(default_dt_integrator(ch_z), 0.5)
    )
    dev_z = abs(rho[0, 1].real - 0.5 * np.exp(-1.0))
    ch_low = build_channels(integrate_kernel(lowering_kernel(1)))
    rho = evolve_exact(
        np.diag([0.0, 1.0]).astype(complex),
        ch_low,
        EvolutionConfig(default_dt_integrator(ch_low), 1.0),
    )
    dev_low = abs(rho[1, 1].real - np.exp(-2.0))
    assert dev_z <= 1e-6 and dev_low <= 1e-6, f"devs {dev_z:.2e} {dev_low:.2e}"
    _report(
        "analytic_decays", f"dephasing={dev_z:.2e} lowering={dev_low:.2e}", "<=1e-6", t0, 5.0
    )


def test_acceptance_9_cli_determinism(tmp_path):
    # identical seeded runs produce byte-identical CSV output
    t0 = time.perf_counter()
    cfg = tmp_path / "det.yaml"
    cfg.write_text(
        "noise:\n"
        "  kind: exponential\n"
        "  num_qubits: 5\n"
        "  amplitude: 1.0\n"
        "  correlation_length: 2.0\n"
        "  axis: z\n"
        "  tau_c: 0.05\n"
        "t_total: 0.1\n"
        "delta_t_values: [0.02, 0.05]\n"
        "trajectories: 500\n"
        "trajectory_substeps: 8\n"
        "engine: trajectory\n"
        "base_seed: 99\n"
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["cycle", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["cycle", "--config", str(cfg), "--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    _report("cli_determinism", f"{len(b1)} bytes, identical", "byte-equal", t0, 60.0)
