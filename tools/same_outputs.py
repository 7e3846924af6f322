"""Check that seeded CLI output is byte-identical to another revision.

Usage: python3 tools/same_outputs.py [REV]     (REV defaults to HEAD)

Checks out REV into a temporary directory (tools/revtree.py), then runs
`cycle`, `scaling`, `trajectories` and `validate` on every config under
`configs/` in both that checkout and this working tree (uncommitted changes
included), each with PYTHONPATH=<tree>/src and OPENBLAS_NUM_THREADS=1.
Every config that names a `code` also runs `cycle` and `scaling` under the
other engine (`--engine`), so both engines run on every such noise.  The
noise kinds no packaged config uses (independent, exponential on all three
axes, a custom cross_axis block) and a `direct` A below the PSD floor (which
fails `validate` with exit 3 and `cycle` with exit 2) run `validate` and
`cycle` from L=5 configs written to a temporary directory and passed to both
trees by absolute path.  An L=4 collective z config, a second shape of the
density engine's skipped zero prefix, runs `validate` and `cycle` the same
way on both engines, and the same noise from logical state |0>, which it
leaves alone (validate's stationary case), runs `validate`.  With the
packaged configs that is 39 runs per tree.
Stdout bytes and exit codes are compared; each mismatch prints its first
differing line.  Exits 1 on any mismatch, 0 when every output is identical.
The checkout is removed afterwards.

The bytes depend on the BLAS kernel, so the comparison only means something
between two trees on the same machine.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import yaml

from revtree import repo_root, rev_tree

COMMANDS = ("cycle", "scaling", "trajectories", "validate")
CROSS_COMMANDS = ("cycle", "scaling")
OTHER_ENGINE = {"density": "trajectory", "trajectory": "density"}

# Noise kinds the packaged configs leave out, and an input the PSD floor
# refuses, each run with GENERATED_COMMANDS from a config of GENERATED_BASE
# plus that noise section.
GENERATED_NOISE = {
    "independent": {"kind": "independent", "num_qubits": 5, "amplitude": 0.2},
    "exponential_xyz": {"kind": "exponential", "num_qubits": 5, "correlation_length": 2.0},
    "cross_axis_custom": {
        "kind": "cross_axis",
        "num_qubits": 5,
        "axis_block": [[1.0, [0.0, 0.3], 0.0], [[0.0, -0.3], 0.5, 0.1], [0.0, 0.1, 0.2]],
    },
    # diag(1, ..., 1, -0.01): one rate below the floor
    "direct_non_psd": {
        "kind": "direct",
        "A": [
            [(-0.01 if i == 14 else 1.0) if i == j else 0.0 for j in range(15)]
            for i in range(15)
        ],
    },
}
GENERATED_BASE = {
    "code": "five_qubit",
    "t_total": 0.1,
    "delta_t_values": [0.002, 0.004, 0.006, 0.01, 0.02],
    "engine": "density",
    "base_seed": 7,
}
GENERATED_COMMANDS = ("validate", "cycle")
# A second shape of the density engine's skipped zero prefix: collective z
# dephasing at L=4 (d=16), 10 of its 12 channels exactly zero.  Its config
# runs GENERATED_COMMANDS on both engines.  The five-qubit code needs L=5, so
# `cycle` exits 1; validate's first-order convergence check runs the density
# engine, from a product state the dephasing acts on.
GENERATED_L4 = {
    "noise": {"kind": "collective_axis", "num_qubits": 4, "amplitude": 0.2, "axis": "z"},
    "logical_state": [[0.6, 0.0], [0.8, 0.0]],
}
# The same noise from the default logical state |0>: |0000> does not evolve
# under collective z, so validate's first-order convergence errors are both
# roundoff.
GENERATED_STATIONARY = {"noise": GENERATED_L4["noise"]}


def _jobs(configs: Path, generated: Path) -> list:
    """(command, config path, extra arguments) for every run to compare.

    Packaged configs are given relative to the tree, generated ones absolute.
    """
    jobs = []
    for path in sorted(configs.glob("*.yaml")):
        config = f"configs/{path.name}"
        jobs += [(command, config, ()) for command in COMMANDS]
        data = yaml.safe_load(path.read_text())
        if "code" in data:
            other = OTHER_ENGINE[data.get("engine", "density")]
            jobs += [(command, config, ("--engine", other)) for command in CROSS_COMMANDS]
    for name, noise in GENERATED_NOISE.items():
        path = generated / f"{name}.yaml"
        path.write_text(yaml.safe_dump({"noise": noise, **GENERATED_BASE}))
        jobs += [(command, str(path), ()) for command in GENERATED_COMMANDS]
    path = generated / "collective_z_l4.yaml"
    path.write_text(yaml.safe_dump({**GENERATED_BASE, **GENERATED_L4}))
    for extra in ((), ("--engine", "trajectory")):
        jobs += [(command, str(path), extra) for command in GENERATED_COMMANDS]
    path = generated / "collective_z_l4_stationary.yaml"
    path.write_text(yaml.safe_dump({**GENERATED_BASE, **GENERATED_STATIONARY}))
    jobs.append(("validate", str(path), ()))
    return jobs


def _run(tree: Path, command: str, config: str, extra: tuple):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "corrqec.cli", command, "--config", config, *extra],
        cwd=tree,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    return proc.returncode, proc.stdout


def _first_difference(rev: str, old: bytes, new: bytes) -> str:
    old_lines, new_lines = old.splitlines(), new.splitlines()
    for i in range(max(len(old_lines), len(new_lines))):
        a = old_lines[i] if i < len(old_lines) else b"<end of output>"
        b = new_lines[i] if i < len(new_lines) else b"<end of output>"
        if a != b:
            return (f"line {i + 1}:\n  {rev}: {a.decode(errors='replace')}\n"
                    f"  here: {b.decode(errors='replace')}")
    return "trailing bytes differ"


def main(argv) -> int:
    rev = argv[1] if len(argv) > 1 else "HEAD"
    here = repo_root()
    with (
        tempfile.TemporaryDirectory(prefix="same_outputs_configs_") as generated,
        rev_tree(here, rev, "same_outputs_") as there,
    ):
        jobs = _jobs(here / "configs", Path(generated))
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [
                (job, pool.submit(_run, there, *job), pool.submit(_run, here, *job))
                for job in jobs
            ]
            mismatches = 0
            for (command, config, extra), old, new in futures:
                (old_code, old_out), (new_code, new_out) = old.result(), new.result()
                name = " ".join((command, Path(config).name, *extra))
                if old_code != new_code:
                    mismatches += 1
                    print(f"DIFF {name}: exit {old_code} at {rev}, {new_code} here")
                elif old_out != new_out:
                    mismatches += 1
                    print(f"DIFF {name} (exit {new_code}), first difference at "
                          f"{_first_difference(rev, old_out, new_out)}")
                else:
                    print(f"same {name} (exit {new_code}, {len(new_out)} bytes)")
    print(f"{len(jobs) - mismatches}/{len(jobs)} outputs identical to {rev}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
