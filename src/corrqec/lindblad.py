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
block row as (d, n*d) and drops the leading exactly-zero columns of that
row, with the matching rows of the right stack, only up to the largest
block-aligned skip that this BLAS gives the same bytes as the full product
(largest_exact_skip).  A shorter inner dimension in general changes how the
product accumulates and moves the last digit; dropping a zero prefix that
ends on one of the BLAS's K-panel boundaries does not.  Where no skip is
byte-equal the helper returns 0 and the product keeps its full n*d inner
dimension.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DomainError, IntegrationError
from .noise import JumpChannelSet
from .operators import check_finite_square, is_nonnegative, is_positive

logger = logging.getLogger(__name__)

# Trace-drift policy: below _DRIFT_FIX leave alone, between _DRIFT_FIX and
# _DRIFT_FAIL renormalize and log, above _DRIFT_FAIL abort.
_DRIFT_FIX = 1e-9
_DRIFT_FAIL = 1e-7

# Default internal step targets xi_max * dt <= 1e-3.
_DEFAULT_RATE_STEP = 1e-3

# Pseudo-random products each candidate skip of largest_exact_skip must
# reproduce, to test the summation order.
_SKIP_PROBES = 3
# The entries of its zero-sum products: the sign of an exactly-zero sum
# depends on the signs of its terms, which random values never show.
_SIGNED_ZEROS = np.array([complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)])
_SIGNS = np.concatenate([_SIGNED_ZEROS, [1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]])


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
    return _rhs(ch)(check_finite_square(rho, "density matrix", ch.dim))


@cache
def largest_exact_skip(d: int, n: int, zero_blocks: int) -> int:
    """The most leading columns of a (d, n*d) block row the second product may drop.

    The block row is a (d, n, d) array read as (d, n*d) whose first
    `zero_blocks` blocks are exactly zero; it multiplies an (n*d, d) stack.
    Tries the block-aligned skips zero_blocks*d, (zero_blocks-1)*d, ..., d,
    largest first, and returns the first for which `flat[:, skip:] @
    right[skip:]` has the same bytes as `flat @ right` on every product of
    _probes, or 0 when none does.  The BLAS's summation order depends on
    the shapes, not the data, so a pseudo-random probe tells an identical
    order from a different one; the sign of an exactly-zero sum does depend on
    the data, so the zero-sum probes enumerate the signs of its terms.
    Memoized: each shape is probed once per process.
    """
    for skip in range(zero_blocks * d, 0, -d):
        if _skip_is_exact(d, n, zero_blocks, skip):
            return skip
    return 0


def _skip_is_exact(d: int, n: int, zero_blocks: int, skip: int) -> bool:
    """Whether dropping `skip` columns keeps the bytes of every probe product."""
    return all(
        (flat[:, skip:] @ right[skip:]).tobytes() == (flat @ right).tobytes()
        for flat, right in _probes(d, n, zero_blocks, skip)
    )


def _probes(d: int, n: int, zero_blocks: int, skip: int):
    """(flat, right) pairs in the block-row layout with `zero_blocks` zero blocks.

    First _SKIP_PROBES products of pseudo-random values, then the zero sums:
    rows whose live part is one signed zero against columns whose dropped
    rows, kept zero-block rows and live rows each hold one entry of _SIGNS,
    for every combination, d rows and d columns per product.
    """
    drawn = 0

    def draw(*shape):
        # sin at consecutive integers from 1: full mantissas in [-1, 1] and
        # the same values on every call sequence.  numpy.random would work
        # too, but importing it adds about 6 MB to a density-only process.
        nonlocal drawn
        count = 2 * math.prod(shape)
        values = np.sin(np.arange(drawn + 1, drawn + count + 1, dtype=float))
        drawn += count
        return values.view(complex).reshape(shape)

    def chunks(values):
        # The columns of `values`, cycled to a whole number of chunks of d.
        count = values.shape[-1]
        cycled = values[..., np.arange(-(-count // d) * d) % count]
        return np.moveaxis(cycled.reshape(*values.shape[:-1], -1, d), -2, 0)

    for _ in range(_SKIP_PROBES):
        block_row = np.zeros((d, n, d), dtype=complex)
        block_row[:, zero_blocks:] = draw(d, n - zero_blocks, d)
        yield block_row.reshape(d, n * d), draw(n * d, d)
    bounds = (0, skip, zero_blocks * d, n * d)
    patterns = np.stack(np.meshgrid(_SIGNS, _SIGNS, _SIGNS)).reshape(3, -1)
    for zeros in chunks(_SIGNED_ZEROS):
        block_row = np.zeros((d, n, d), dtype=complex)
        block_row[:, zero_blocks:] = zeros[:, None, None]
        for columns in chunks(patterns):
            right = np.empty((n * d, d), dtype=complex)
            for lo, hi, values in zip(bounds, bounds[1:], columns):
                right[lo:hi] = values
            yield block_row.reshape(d, n * d), right


def _rhs(ch: JumpChannelSet):
    """The right-hand side as `rhs(rho)`, writing into one block row it owns.

    sum_n s_n rho s_n^dag = [s_1 rho | ... | s_n rho] @ [s_1^dag; ...; s_n^dag].
    Each call overwrites the live blocks of the block row and reads the whole
    row past its skipped prefix, so the returned function must not run
    concurrently with itself.  Every block has d >= 2 rows, so each block's
    product is a GEMM whose rows equal those of the whole stack's product.
    The second product drops the largest_exact_skip(d, n, zero_blocks)
    leading columns of the row and rows of the right stack, where
    zero_blocks counts the exactly-zero blocks ahead of the live span; that
    skip is 0, the full product, wherever the BLAS gives no byte-equal one.
    """
    h_eff = ch.H_eff
    h_dag = h_eff.conj().T
    s_left, s_right = ch.jump_stacks
    d, n = ch.dim, ch.num_channels
    blocks = ch._live_blocks
    s_live = s_left.reshape(n, d, d)[blocks]
    block_row = np.zeros((d, n, d), dtype=complex)
    live_out = block_row.transpose(1, 0, 2)[blocks]
    skip = largest_exact_skip(d, n, blocks.start)
    flat = block_row.reshape(d, n * d)[:, skip:]
    s_tail = s_right[skip:]

    def rhs(rho: np.ndarray) -> np.ndarray:
        out = -1j * (h_eff @ rho - rho @ h_dag)
        np.matmul(s_live, rho, out=live_out)
        out += flat @ s_tail
        return out

    return rhs


def evolve_exact(rho0: np.ndarray, ch: JumpChannelSet, cfg: EvolutionConfig) -> np.ndarray:
    """Integrate the master equation from rho0 for cfg.t_final.

    Returns the final density matrix; trace drift beyond 1e-9 is repaired by
    renormalization (and logged), beyond 1e-7 it raises IntegrationError.
    """
    rho = check_finite_square(np.array(rho0, dtype=complex), "density matrix", ch.dim)
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
        # Written as "not <" so that a NaN trace fails the gate too.
        if not drift < _DRIFT_FAIL:
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

