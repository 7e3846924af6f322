"""Self-test of the benchmark's output checks: perturbed outputs must be caught.

  python3 bench/selftest.py

Builds sweep outputs from bench/reference.json in the program's CSV format,
perturbs one thing at a time and confirms each check fails the right number
of sweep points, while the unperturbed output and a roundoff-sized change
pass.  Exits non-zero on the first case that behaves otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent


def scaling_csv(ref, seed, slope=-0.9, fidelities=None):
    lines = ["N,delta_t,final_fidelity,final_infidelity,engine,M,seed"]
    for n, f in zip(ref["x"], fidelities or ref["fidelities"]):
        lines.append(f"{int(n)},{0.5 / n!r},{f!r},{1.0 - f!r},density,0,{seed}")
    lines.append(f"# fit: slope={slope!r} stderr=0.02 points={len(ref['x'])}")
    return "\n".join(lines) + "\n"


def cycle_csv(ref, seed, fidelities=None):
    lines = ["delta_t,fidelity,infidelity,engine,M,seed"]
    for dt, f in zip(ref["x"], fidelities or ref["fidelities"]):
        lines.append(f"{dt!r},{f!r},{1.0 - f!r},trajectory,5000,{seed}")
    lines.append("# fit: slope=1.9 stderr=0.17 points=5")
    return "\n".join(lines) + "\n"


def nudge(values, index, delta):
    out = list(values)
    out[index] += delta
    return out


def main() -> int:
    reference = json.loads((BENCH / "reference.json").read_text())
    dens = reference["density_scaling"]
    seed, traj_seed = 12345, "20240601"
    traj = reference["trajectory_qec"][traj_seed]
    points = len(dens["x"])

    def density(text, check_seed=seed):
        return checks.check_density_scaling(checks.parse_sweep_csv(text), dens, check_seed)

    def trajectory(text, digest=traj["jump_digest"]):
        out = dict(checks.parse_sweep_csv(text), jump_digest=digest, jumps=traj["jumps"])
        return checks.check_trajectory_qec(out, traj, int(traj_seed), 5000)

    grid_cases = [f"case{i}" for i in range(12)]

    def grid(distances):
        return checks.check_unraveling_grid({"cases": grid_cases, "trace_distances": distances})

    ok_tds = [0.01] * 12
    n = len(grid_cases)
    cases = [
        ("density as recorded", density(scaling_csv(dens, seed)), points, 0),
        ("density roundoff", density(scaling_csv(
            dens, seed, fidelities=nudge(dens["fidelities"], 4, 1e-14))), points, 0),
        ("density fidelity off by 1e-9", density(scaling_csv(
            dens, seed, fidelities=nudge(dens["fidelities"], 4, 1e-9))), points, 1),
        ("density slope out of range", density(scaling_csv(dens, seed, slope=-0.5)),
         points, points),
        ("density wrong seed column", density(scaling_csv(dens, seed), seed + 1),
         points, points),
        ("trajectory as recorded", trajectory(cycle_csv(traj, traj_seed)), points, 0),
        ("trajectory one trajectory flipped", trajectory(cycle_csv(
            traj, traj_seed, fidelities=nudge(traj["fidelities"], 2, -1 / 5000))), points, 1),
        ("trajectory jump decisions differ", trajectory(
            cycle_csv(traj, traj_seed), digest="0" * 64), points, points),
        ("grid within bound", grid(ok_tds), n, 0),
        ("grid one case over bound", grid(nudge(ok_tds, 7, 0.0101)), n, 1),
        ("grid NaN", grid(nudge(ok_tds, 0, float("nan"))), n, 1),
    ]
    status = 0
    for name, failures, total, expected in cases:
        got = checks.failed_points(failures, total)
        verdict = "ok" if got == expected else "WRONG"
        print(f"{verdict:5} {name}: {got} of {total} points failed, expected {expected}")
        if got != expected:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
