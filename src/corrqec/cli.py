"""Command-line interface.

Subcommands:
  cycle         per-interval fidelity sweep over delta_t_values
  scaling       final fidelity versus number of correction cycles N
  validate      cross-module invariant suite, pass/fail report
  trajectories  raw jump logs of the unraveled noise, no correction

Exit codes: 0 success, 1 configuration error (an over-cap register too),
2 numerical-gate failure (step size, PSD, integration accuracy, a simulation
invariant such as norm collapse or a branch probability outside [0, 1]),
3 validation failure.
"""

from __future__ import annotations

import argparse
import errno
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import load_config
from .errors import ConfigError, ResourceError, SimulationError
from .experiment import (
    ENGINES,
    render_cycle_csv,
    render_jump_log_csv,
    render_scaling_csv,
    run_cycle_fidelity,
    run_repetition_scaling,
    run_trajectory_logs,
    run_validation_suite,
    write_text,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_GATE = 2
EXIT_VALIDATION = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrqec",
        description=(
            "Simulate spatially correlated decoherence on qubits and its "
            "suppression by single-qubit-error correcting codes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("cycle", "per-cycle fidelity versus correction interval"),
        ("scaling", "final fidelity versus number of correction cycles"),
        ("validate", "run the invariant validation suite"),
        ("trajectories", "export raw quantum-jump logs"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=None, help="override base_seed")
        p.add_argument(
            "--engine",
            choices=ENGINES,
            default=None,
            help="override the configured engine",
        )
        if name in ("cycle", "scaling"):
            p.add_argument(
                "--no-correction",
                action="store_true",
                help="skip the correction step (control run)",
            )
    return parser


def _check_out(out_path) -> None:
    """Refuse an --out path that cannot be a file, before any run.

    That is a directory (an empty path is the current one), or a path whose
    directory is missing or not a directory.
    """
    if out_path is None:
        return
    path = Path(out_path)
    if path.is_dir():
        code = errno.EISDIR
    elif not path.parent.is_dir():
        code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
    else:
        return
    raise ConfigError(f"cannot write {out_path}: {os.strerror(code)}")


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            write_text(out_path, text)
        except OSError as err:
            raise ConfigError(f"cannot write {out_path}: {err.strerror or err}") from err
        logger.info("wrote %s", out_path)


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; report those as config errors and
        # keep 2 reserved for numerical gates.
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG

    try:
        _check_out(args.out)
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, base_seed=args.seed)
        if args.engine is not None:
            cfg = replace(cfg, engine=args.engine)

        if args.command == "cycle":
            result = run_cycle_fidelity(cfg, correction=not args.no_correction)
            _emit(render_cycle_csv(result), args.out)
            _log_fit(result)
        elif args.command == "scaling":
            result = run_repetition_scaling(cfg, correction=not args.no_correction)
            _emit(render_scaling_csv(result), args.out)
            _log_fit(result)
        elif args.command == "trajectories":
            logs = run_trajectory_logs(cfg)
            _emit(render_jump_log_csv(logs), args.out)
        else:  # validate
            report = run_validation_suite(cfg)
            _emit(report.render(), args.out)
            if not report.passed:
                return EXIT_VALIDATION
    except (ConfigError, ResourceError) as err:
        # A ResourceError is a register over the qubit cap set in the config.
        logger.error("configuration error: %s", err)
        return EXIT_CONFIG
    except SimulationError as err:
        # Step size, PSD floor, integration accuracy, and the invariants the
        # engines assert as they run (norm collapse, branch probabilities).
        logger.error("numerical gate: %s", err)
        return EXIT_GATE
    return EXIT_OK


def _log_fit(result) -> None:
    if result.fit is not None:
        logger.info(
            "%s sweep (%s engine%s): slope=%.4f stderr=%.4f, %.2fs",
            result.sweep,
            result.engine,
            "" if result.corrected else ", no correction",
            result.fit.slope,
            result.fit.stderr,
            result.wall_time_s,
        )
    else:
        logger.info("%s sweep: no fit: too few positive infidelities, or one sweep value", result.sweep)


if __name__ == "__main__":
    sys.exit(main())
