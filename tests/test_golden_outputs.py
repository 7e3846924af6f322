"""The seeded CLI outputs, pinned byte for byte on the build that recorded them.

`tests/golden_outputs.json` holds the exit code and the sha256 of stdout of
the fast runs of `tools/same_outputs.py`: every `cycle`, `trajectories` and
`validate` run, about a second or less each.  The `scaling` runs take
seconds and are left to that tool.  The `trajectories` logs pin the jump
decisions as well.  Every run goes through `cli.main` in this process.

The bytes depend on numpy's loops and on the BLAS kernel, so the file also
holds a fingerprint of the numpy and BLAS build and of the CPU features
numpy found.  Where the fingerprint differs the test skips and says why.

A change that alters outputs on purpose re-records the file, and says so:

    PYTHONPATH=src python3 tests/test_golden_outputs.py
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from corrqec.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"
TOOLS = ROOT / "tools"
FAST_COMMANDS = ("cycle", "trajectories", "validate")


def fingerprint() -> dict:
    """numpy's version, its BLAS build and the CPU features numpy found."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "cpu_features": config["SIMD Extensions"]["found"],
    }


def _same_outputs():
    # tools/same_outputs.py lists the runs; it imports its neighbour revtree.
    spec = importlib.util.spec_from_file_location("_same_outputs", TOOLS / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "path", [str(TOOLS), *sys.path]):
        spec.loader.exec_module(module)
    return module


def record_outputs(workdir: Path) -> dict:
    """{run name: {"exit", "sha256"}} for every fast run of same_outputs.py."""
    outputs = {}
    for command, config, extra in _same_outputs()._jobs(ROOT / "configs", workdir):
        if command not in FAST_COMMANDS:
            continue
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([command, "--config", str(ROOT / config), *extra])
        name = " ".join((command, Path(config).name, *extra))
        digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
        outputs[name] = {"exit": code, "sha256": digest}
    return outputs


def test_cli_outputs_match_the_recorded_bytes(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    here = fingerprint()
    if golden["fingerprint"] != here:
        pytest.skip(f"outputs recorded on {golden['fingerprint']}, this build is {here}")
    outputs = record_outputs(tmp_path)
    assert sorted(outputs) == sorted(golden["runs"])
    changed = {name: out for name, out in outputs.items() if out != golden["runs"][name]}
    assert not changed, f"{len(changed)} of {len(outputs)} outputs changed: {sorted(changed)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="golden_outputs_") as workdir:
        runs = record_outputs(Path(workdir))
    GOLDEN.write_text(json.dumps({"fingerprint": fingerprint(), "runs": runs}, indent=1) + "\n")
    print(f"recorded {len(runs)} runs in {GOLDEN}")
