"""Output checks for the benchmark workloads, and the CSV parser they share.

Each check returns a list of (point index or None, message) failures; None
fails every point of the sweep.  The references in reference.json were
recorded once from the unmodified program.
"""

from __future__ import annotations

import csv
import io
import math

# Seeded outputs must match the reference up to float roundoff only: the
# smallest infidelity in these sweeps is about 6e-3 (density) and 2e-4 (one
# trajectory in 5000), far above this tolerance.
FIDELITY_ATOL = 1e-11
SLOPE_RANGE = (-1.2, -0.8)
TRACE_DISTANCE_MAX = 0.02


def parse_sweep_csv(text: str) -> dict:
    """Rows and fit slope of a `corrqec cycle` or `corrqec scaling` CSV."""
    body = [line for line in text.splitlines() if not line.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    slope = None
    for line in text.splitlines():
        if line.startswith("# fit: slope="):
            slope = float(line.split()[2].split("=")[1])
    fidelity_key = "final_fidelity" if rows and "final_fidelity" in rows[0] else "fidelity"
    return {
        "x": [float(row.get("N") or row["delta_t"]) for row in rows],
        "fidelities": [float(row[fidelity_key]) for row in rows],
        "engine": sorted({row["engine"] for row in rows}),
        "M": sorted({int(row["M"]) for row in rows}),
        "seed": sorted({int(row["seed"]) for row in rows}),
        "slope": slope,
    }


def _point_failures(out: dict, ref: dict) -> list:
    if out["x"] != ref["x"]:
        return [(None, f"sweep values {out['x']} != reference {ref['x']}")]
    return [
        (i, f"fidelity {f!r} != reference {r!r} at {x!r}")
        for i, (x, f, r) in enumerate(zip(out["x"], out["fidelities"], ref["fidelities"]))
        if not abs(f - r) <= FIDELITY_ATOL
    ]


def _header_failures(out: dict, engine: str, trajectories: int, seed: int) -> list:
    failures = []
    for column, expected in (("engine", engine), ("M", trajectories), ("seed", seed)):
        if out[column] != [expected]:
            failures.append((None, f"{column} column {out[column]} != [{expected!r}]"))
    return failures


def check_density_scaling(out: dict, ref: dict, seed: int) -> list:
    if ref is None:
        return [(None, "no reference recorded")]
    failures = _header_failures(out, "density", 0, seed) + _point_failures(out, ref)
    lo, hi = SLOPE_RANGE
    if out["slope"] is None or not lo <= out["slope"] <= hi:
        failures.append((None, f"fit slope {out['slope']!r} outside [{lo}, {hi}]"))
    return failures


def check_trajectory_qec(out: dict, ref: dict, seed: int, trajectories: int) -> list:
    if ref is None:
        return [(None, f"no reference recorded for seed {seed}")]
    failures = _header_failures(out, "trajectory", trajectories, seed)
    failures += _point_failures(out, ref)
    if out["jump_digest"] != ref["jump_digest"]:
        failures.append(
            (None, f"jump decisions differ from the reference ({out['jumps']} jumps, "
                   f"reference {ref['jumps']})")
        )
    return failures


def check_unraveling_grid(out: dict) -> list:
    return [
        (i, f"{case}: trace distance {td!r} > {TRACE_DISTANCE_MAX}")
        for i, (case, td) in enumerate(zip(out["cases"], out["trace_distances"]))
        if not (math.isfinite(td) and td <= TRACE_DISTANCE_MAX)
    ]


def failed_points(failures: list, points: int) -> int:
    """Points of one sweep that failed, given its check failures."""
    if any(index is None for index, _ in failures):
        return points
    return len({index for index, _ in failures})
