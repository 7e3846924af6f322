"""Deterministic density-matrix integrator for the correlated-noise master equation.

This is the ground-truth engine: classical RK4 applied directly to the
2^L x 2^L density matrix,

    d rho / dt = -i H_eff rho + i rho H_eff^dag + sum_n xi_n s_n rho s_n^dag,

with no stochastic element.  Trajectory sampling and the first-order error
channel are validated against it.

The dissipator is two matrix products over the stacked jump operators: the
(n*d, d) stack of sqrt(xi_n) s_n times rho, laid side by side as a (d, n*d)
block row, times the (n*d, d) stack of sqrt(xi_n) s_n^dag.  The stacks are
built once per JumpChannelSet (its `jump_stacks`).  The block row is a
zeroed (d, n, d) array allocated once per `evolve_exact` call and reused by
every stage of every step: the first product writes each live block's
s_n rho straight into its place in it, through a transposed view, and
never touches the blocks that are exactly zero (zero-rate channels, clipped
from roundoff, come first in build_channels' ascending order; the span of
live blocks is cached on the channel set).  The second product reads the
block row as (d, n*d) and keeps its full n*d inner dimension, because a
shorter one changes how the product accumulates and moves the last digit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationError
from .noise import JumpChannelSet
from .operators import is_nonnegative, is_positive

logger = logging.getLogger(__name__)

# Trace-drift policy: below _DRIFT_FIX leave alone, between _DRIFT_FIX and
# _DRIFT_FAIL renormalize and log, above _DRIFT_FAIL abort.
_DRIFT_FIX = 1e-9
_DRIFT_FAIL = 1e-7

# Default internal step targets xi_max * dt <= 1e-3.
_DEFAULT_RATE_STEP = 1e-3


@dataclass(frozen=True)
class EvolutionConfig:
    """Integrator settings: internal step and total time.

    `dt_integrator` is the RK4 step, unrelated to the correction interval.
    """

    dt_integrator: float
    t_final: float

    def __post_init__(self):
        if not is_positive(self.dt_integrator):
            raise DomainError(
                f"dt_integrator must be positive and finite, got {self.dt_integrator}"
            )
        if not is_nonnegative(self.t_final):
            raise DomainError(f"t_final must be nonnegative and finite, got {self.t_final}")


def default_dt_integrator(ch: JumpChannelSet) -> float:
    """Step size keeping xi_max * dt at 1e-3; 1e-3 outright for a silent spec."""
    xi_max = float(ch.eigenvalues.max(initial=0.0))
    return _DEFAULT_RATE_STEP / xi_max if xi_max > 0 else _DEFAULT_RATE_STEP


def lindblad_rhs(rho: np.ndarray, ch: JumpChannelSet) -> np.ndarray:
    """Right-hand side -i H_eff rho + i rho H_eff^dag + sum_n xi_n s_n rho s_n^dag."""
    return _rhs(ch)(_check_density(np.asarray(rho, dtype=complex), ch))


def _check_density(rho: np.ndarray, ch: JumpChannelSet) -> np.ndarray:
    if rho.shape != ch.H_eff.shape:
        raise DomainError(
            f"density matrix shape {rho.shape} does not match channel dimension "
            f"{ch.H_eff.shape}"
        )
    return rho


def _rhs(ch: JumpChannelSet):
    """The right-hand side as `rhs(rho)`, writing into one block row it owns.

    sum_n s_n rho s_n^dag = [s_1 rho | ... | s_n rho] @ [s_1^dag; ...; s_n^dag].
    Each call overwrites the live blocks of the block row and reads the whole
    row, so the returned function must not run concurrently with itself.
    Every block has d >= 2 rows, so each block's product is a GEMM whose
    rows equal those of the whole stack's product.
    """
    h_eff = ch.H_eff
    h_dag = h_eff.conj().T
    s_left, s_right = ch.jump_stacks
    d, n = ch.dim, ch.num_channels
    blocks = ch._live_blocks
    s_live = s_left.reshape(n, d, d)[blocks]
    block_row = np.zeros((d, n, d), dtype=complex)
    live_out = block_row.transpose(1, 0, 2)[blocks]
    flat = block_row.reshape(d, n * d)

    def rhs(rho: np.ndarray) -> np.ndarray:
        out = -1j * (h_eff @ rho - rho @ h_dag)
        np.matmul(s_live, rho, out=live_out)
        out += flat @ s_right
        return out

    return rhs


def evolve_exact(rho0: np.ndarray, ch: JumpChannelSet, cfg: EvolutionConfig) -> np.ndarray:
    """Integrate the master equation from rho0 for cfg.t_final.

    Returns the final density matrix; trace drift beyond 1e-9 is repaired by
    renormalization (and logged), beyond 1e-7 it raises IntegrationError.
    """
    rho = _check_density(np.array(rho0, dtype=complex), ch)
    rhs = _rhs(ch)

    n_full, remainder = divmod(cfg.t_final, cfg.dt_integrator)
    n_full = int(n_full)
    # Fold a remainder indistinguishable from float roundoff into the last step.
    if remainder < 1e-12 * max(cfg.t_final, cfg.dt_integrator):
        remainder = 0.0

    renorm_count = 0
    for step in range(n_full + (1 if remainder else 0)):
        dt = cfg.dt_integrator if step < n_full else remainder
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        t = (step + 1) * cfg.dt_integrator if step < n_full else cfg.t_final

        tr = float(rho.trace().real)
        drift = abs(tr - 1.0)
        if drift >= _DRIFT_FAIL:
            raise IntegrationError(
                f"trace drift {drift:.3e} at t={t:.6g} exceeds {_DRIFT_FAIL:.1e}; "
                f"reduce dt_integrator below {cfg.dt_integrator:.3g}"
            )
        if drift > _DRIFT_FIX:
            rho = rho / tr
            renorm_count += 1

    if renorm_count:
        logger.info(
            "renormalized trace %d time(s) over t_final=%g (dt=%g)",
            renorm_count,
            cfg.t_final,
            cfg.dt_integrator,
        )

    lowest = float(np.linalg.eigvalsh(rho).min())
    if lowest < -1e-8:
        raise IntegrationError(
            f"integration lost positivity: eigenvalue {lowest:.3e}; "
            f"reduce dt_integrator below {cfg.dt_integrator:.3g}"
        )
    return rho

