"""Deterministic density-matrix integrator for the correlated-noise master equation.

This is the ground-truth engine: classical RK4 applied directly to the
2^L x 2^L density matrix,

    d rho / dt = -i H_eff rho + i rho H_eff^dag + sum_n xi_n s_n rho s_n^dag,

with no stochastic element.  Trajectory sampling and the first-order error
channel are validated against it.

The dissipator is two matrix products over the stacked jump operators: the
(n*d, d) stack of sqrt(xi_n) s_n times rho, laid side by side as a (d, n*d)
block row, times the (n*d, d) stack of sqrt(xi_n) s_n^dag.  The stacks are
built once per JumpChannelSet (its `jump_stacks`).  The first product runs
only over the span of stack blocks that are not exactly zero (zero-rate
channels, clipped from roundoff, come first in build_channels' ascending
order; the span is cached on the channel set too) and writes into a zeroed
array; the second keeps its full n*d inner dimension, because a shorter one
changes how the product accumulates and moves the last digit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationError
from .noise import JumpChannelSet

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
        if not self.dt_integrator > 0:
            raise DomainError(f"dt_integrator must be positive, got {self.dt_integrator}")
        if self.t_final < 0:
            raise DomainError(f"t_final must be nonnegative, got {self.t_final}")


def default_dt_integrator(ch: JumpChannelSet) -> float:
    """Step size keeping xi_max * dt at 1e-3; 1e-3 outright for a silent spec."""
    xi_max = float(ch.eigenvalues.max(initial=0.0))
    return _DEFAULT_RATE_STEP / xi_max if xi_max > 0 else _DEFAULT_RATE_STEP


def lindblad_rhs(rho: np.ndarray, ch: JumpChannelSet) -> np.ndarray:
    """Right-hand side -i H_eff rho + i rho H_eff^dag + sum_n xi_n s_n rho s_n^dag."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != ch.H_eff.shape:
        raise DomainError(
            f"density matrix shape {rho.shape} does not match channel dimension "
            f"{ch.H_eff.shape}"
        )
    return _rhs_precomposed(rho, ch.H_eff, *ch.jump_stacks, ch._live_stack_rows)


def _rhs_precomposed(
    rho: np.ndarray,
    h_eff: np.ndarray,
    s_left: np.ndarray,
    s_right: np.ndarray,
    live: slice,
) -> np.ndarray:
    out = -1j * (h_eff @ rho - rho @ h_eff.conj().T)
    # sum_n s_n rho s_n^dag = [s_1 rho | ... | s_n rho] @ [s_1^dag; ...; s_n^dag];
    # the stack rows outside `live` are exactly zero and so are their products.
    d = rho.shape[0]
    products = np.zeros(s_left.shape, dtype=complex)
    np.matmul(s_left[live], rho, out=products[live])
    out += products.reshape(-1, d, d).transpose(1, 0, 2).reshape(d, -1) @ s_right
    return out


def evolve_exact(rho0: np.ndarray, ch: JumpChannelSet, cfg: EvolutionConfig) -> np.ndarray:
    """Integrate the master equation from rho0 for cfg.t_final.

    Returns the final density matrix; trace drift beyond 1e-9 is repaired by
    renormalization (and logged), beyond 1e-7 it raises IntegrationError.
    """
    rho = np.array(rho0, dtype=complex)
    if rho.shape != ch.H_eff.shape:
        raise DomainError(
            f"density matrix shape {rho.shape} does not match channel dimension "
            f"{ch.H_eff.shape}"
        )
    h_eff = ch.H_eff
    s_left, s_right = ch.jump_stacks
    live = ch._live_stack_rows

    n_full, remainder = divmod(cfg.t_final, cfg.dt_integrator)
    n_full = int(n_full)
    # Fold a remainder indistinguishable from float roundoff into the last step.
    if remainder < 1e-12 * max(cfg.t_final, cfg.dt_integrator):
        remainder = 0.0

    renorm_count = 0
    for step in range(n_full + (1 if remainder else 0)):
        dt = cfg.dt_integrator if step < n_full else remainder
        k1 = _rhs_precomposed(rho, h_eff, s_left, s_right, live)
        k2 = _rhs_precomposed(rho + 0.5 * dt * k1, h_eff, s_left, s_right, live)
        k3 = _rhs_precomposed(rho + 0.5 * dt * k2, h_eff, s_left, s_right, live)
        k4 = _rhs_precomposed(rho + dt * k3, h_eff, s_left, s_right, live)
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

