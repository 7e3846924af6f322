"""Correlated-noise description: correlation kernels, rate matrices, jump channels.

The environment couples to every qubit through all three Pauli axes, so its
second-order statistics live on the 3L-dimensional flat channel index of
:mod:`.operators`.  Integrating the bath correlation function over time lag
produces two 3L x 3L Hermitian matrices: A (dissipative rates, positive
semidefinite) and B (coherent frequency shifts).  Diagonalizing A by a
unitary U gives the jump channels

    s_n = sum_m U[n, m] sigma_m,      xi_n >= 0,

and the non-Hermitian generator of no-jump evolution

    H_eff = (1/2) sum_{m',m} B[m', m] sigma_{m'} sigma_m
            - (i/2) sum_n xi_n s_n^dag s_n.

Spatial structure interpolates between independent noise (A diagonal) and
collective noise (A of rank one on a single axis); both extremes and the
exponentially decaying intermediate case are provided as kernel factories.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, SimulationError
from .operators import (
    AXES,
    axis_block,
    check_hermitian,
    is_integer,
    is_nonnegative,
    is_positive,
    pauli_stack,
    psd_eigensystem,
    _check_qubit_count,
    _frozen_array,
)

_RECON_TOL = 1e-9
_ROW_NORM_TOL = 1e-10
_DAMPING_TOL = 1e-9
# Channels whose rate is this far below the largest one are kept but inert,
# preserving the fixed 3L channel count and numbering.
_INERT_RATIO = 1e-12

# Per-qubit (x, y) axis block whose unit-rate eigenchannel is sqrt(2) * |0><1|,
# the lowering operator that annihilates |0>.
LOWERING_BLOCK = 0.5 * np.array(
    [[1.0, 1.0j, 0.0], [-1.0j, 1.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex
)


@dataclass(frozen=True)
class CorrelationKernel:
    """Factorized bath correlation: f(tau) = spatial * exp(-|tau|/tau_c).

    `spatial` is the 3L x 3L table C over flat channel indices; Hermiticity
    of the correlation function requires C to be Hermitian as a matrix.
    `tau_c` is the bath memory time (seconds), `g1` the coupling (rad/s);
    tau_c must be positive and g1 nonnegative, both finite (A scales with
    g1^2 tau_c, so an infinite one makes A non-finite).
    """

    num_qubits: int
    spatial: np.ndarray
    tau_c: float
    g1: float
    kind: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "num_qubits", _check_qubit_count(self.num_qubits))
        dim = 3 * self.num_qubits
        spatial = check_hermitian(self.spatial, "spatial table")
        if spatial.shape != (dim, dim):
            raise DomainError(f"spatial table must be 3L x 3L = {dim}x{dim}, got {spatial.shape}")
        if not is_positive(self.tau_c):
            raise DomainError(f"tau_c must be positive and finite, got {self.tau_c}")
        if not is_nonnegative(self.g1):
            raise DomainError(f"g1 must be nonnegative and finite, got {self.g1}")
        object.__setattr__(self, "spatial", _frozen_array(spatial))


def _separable_table(num_qubits: int, qubit_table, block: np.ndarray) -> np.ndarray:
    """Spatial table kron(qubit_table(L), block) of an L x L qubit table and a 3x3 axis block.

    The qubit count is checked before anything of size L is built.
    """
    return np.kron(qubit_table(_check_qubit_count(num_qubits)), block)


def independent_kernel(
    num_qubits: int, amplitude: float = 1.0, tau_c: float = 0.5, g1: float = 1.0
) -> CorrelationKernel:
    """Uncorrelated noise: C = amplitude * identity over (qubit, axis)."""
    spatial = _separable_table(num_qubits, lambda n: amplitude * np.eye(n), axis_block(*AXES))
    return CorrelationKernel(num_qubits, spatial, tau_c, g1, kind="independent")


def collective_axis_kernel(
    num_qubits: int,
    axis: int = 3,
    amplitude: float = 1.0,
    tau_c: float = 0.5,
    g1: float = 1.0,
) -> CorrelationKernel:
    """Maximally correlated noise on one axis: every qubit pair couples alike."""
    spatial = _separable_table(num_qubits, lambda n: amplitude * np.ones((n, n)), axis_block(axis))
    return CorrelationKernel(num_qubits, spatial, tau_c, g1, kind="collective_axis")


def exponential_kernel(
    num_qubits: int,
    amplitude: float = 1.0,
    correlation_length: float = 1.0,
    tau_c: float = 0.5,
    g1: float = 1.0,
    axis: int | None = None,
) -> CorrelationKernel:
    """Axis-diagonal correlations decaying as exp(-|l - l'| / correlation_length).

    With ``axis=None`` every Pauli axis carries the same spatial profile.
    Passing an axis (1, 2, or 3) restricts the noise to that axis alone,
    e.g. axis=3 gives spatially correlated dephasing.  The restricted form
    keeps the total rate within a small multiple of the largest eigenvalue,
    which is what the repetition-scaling experiments need: with all three
    axes active the summed rate at unit max eigenvalue is large enough that
    the smallest repetition counts leave the perturbative regime.
    """
    # +inf passes: exp(-k / inf) = 1 is the uniform-profile limit.
    if not correlation_length > 0:
        raise DomainError(
            f"correlation_length must be positive, got {correlation_length}"
        )

    def profile(n):
        # one Python division per distance |l - l'|: a tiny length gives -inf without a warning
        decay = np.array([amplitude * np.exp(-k / correlation_length) for k in range(n)])
        return decay[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]

    block = axis_block(*(AXES if axis is None else (axis,)))
    spatial = _separable_table(num_qubits, profile, block)
    return CorrelationKernel(num_qubits, spatial, tau_c, g1, kind="exponential")


def cross_axis_kernel(
    num_qubits: int,
    axis_block: np.ndarray,
    tau_c: float = 0.5,
    g1: float = 1.0,
) -> CorrelationKernel:
    """Identical 3x3 axis block on every qubit, no inter-qubit correlation.

    The block mixes Pauli axes on each site, e.g. :data:`LOWERING_BLOCK`
    yields one lowering channel per qubit.
    """
    block = np.asarray(axis_block, dtype=complex)
    if block.shape != (3, 3):
        raise DomainError(f"axis_block must be 3x3, got {block.shape}")
    spatial = _separable_table(num_qubits, np.eye, block)
    return CorrelationKernel(num_qubits, spatial, tau_c, g1, kind="cross_axis")


def lowering_kernel(
    num_qubits: int, tau_c: float = 0.5, g1: float = 1.0
) -> CorrelationKernel:
    """Per-qubit lowering noise (sqrt(2) |0><1| channels), uncorrelated in space."""
    return cross_axis_kernel(num_qubits, LOWERING_BLOCK, tau_c=tau_c, g1=g1)


@dataclass(frozen=True)
class NoiseSpec:
    """Validated rate matrix A (Hermitian PSD) and shift matrix B (Hermitian).

    noise_spec_direct validates A and B; num_qubits passes the qubit-count
    rule (a positive integer, is_integer, within MAX_QUBITS) here.
    """

    num_qubits: int
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "num_qubits", _check_qubit_count(self.num_qubits))
        object.__setattr__(self, "A", _frozen_array(self.A))
        object.__setattr__(self, "B", _frozen_array(self.B))


def noise_spec_direct(A, B=None, num_qubits: int | None = None) -> NoiseSpec:
    """Build a NoiseSpec from explicit matrices, bypassing any kernel.

    A and B pass the matrix gate (square, finite, Hermitian within HERM_TOL)
    and A the PSD floor: eigenvalues in [-1e-10, 0) are clamped to zero (A is
    reconstructed from the clamped spectrum), anything lower is rejected.
    B defaults to zero.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] % 3 != 0:
        raise DomainError(f"A must be square 3L x 3L, got shape {A.shape}")
    if num_qubits is not None and _check_qubit_count(num_qubits) != A.shape[0] // 3:
        raise DomainError(
            f"A is {A.shape[0]}x{A.shape[0]} but num_qubits={num_qubits} implies "
            f"{3 * num_qubits}x{3 * num_qubits}"
        )
    num_qubits = _check_qubit_count(A.shape[0] // 3)
    w, v = psd_eigensystem(A, "A")
    B = check_hermitian(np.zeros_like(A) if B is None else B, "B")
    if B.shape != A.shape:
        raise DomainError(f"B shape {B.shape} does not match A shape {A.shape}")
    if w.min(initial=0.0) < 0.0:
        w = np.clip(w, 0.0, None)
        A = (v * w) @ v.conj().T
    return NoiseSpec(num_qubits=num_qubits, A=A, B=0.5 * (B + B.conj().T))


@dataclass(frozen=True)
class DirectNoise:
    """Explicit A/B input with validation deferred to resolve().

    Lets a config file carry deliberately bad matrices to the validation
    suite, which reports the gate failure instead of dying at load time.
    Only the type of num_qubits (None to infer it from A, or an integer) is
    checked here; its value is checked against A and the cap on resolve().
    """

    A: object
    B: object = None
    num_qubits: int | None = None

    def __post_init__(self):
        if not (self.num_qubits is None or is_integer(self.num_qubits)):
            raise DomainError(f"num_qubits must be an integer or None, got {self.num_qubits!r}")

    def resolve(self) -> NoiseSpec:
        return noise_spec_direct(self.A, self.B, num_qubits=self.num_qubits)


def integrate_kernel(kernel: CorrelationKernel) -> NoiseSpec:
    """Time-integrate a factorized exponential kernel into rate matrices.

    With f(tau) = C * exp(-|tau|/tau_c) the full-line integral is closed form,
    A = g1^2 * 2 tau_c * C, and the shift matrix B vanishes because the
    temporal profile is even in tau.
    """
    A = kernel.g1**2 * 2.0 * kernel.tau_c * kernel.spatial
    return noise_spec_direct(A, num_qubits=kernel.num_qubits)


def max_rate(spec: NoiseSpec) -> float:
    """Largest jump rate xi_max = largest eigenvalue of A."""
    return float(np.linalg.eigvalsh(spec.A).max(initial=0.0))


def rescale_to_unit_max_rate(spec: NoiseSpec) -> NoiseSpec:
    """Rescale time units so the largest jump rate is exactly 1.

    Both A and B are rates, so dividing both by xi_max leaves the physics
    unchanged up to the time relabeling.  A zero spec is returned as is.
    """
    xi_max = max_rate(spec)
    if xi_max <= 0.0:
        return spec
    return NoiseSpec(spec.num_qubits, spec.A / xi_max, spec.B / xi_max)


@dataclass(frozen=True)
class JumpChannelSet:
    """Diagonalized noise: rates, mixing unitary, jump operators, H_eff.

    `eigenvalues[n]` and `jump_ops[n]` follow the flat channel index; the
    mixing matrix satisfies A = U^dag diag(xi) U and each jump operator is
    s_n = sum_m U[n, m] sigma_m.  `inert[n]` flags channels whose rate is
    negligible relative to the largest; they carry zero jump probability but
    keep index n occupied.
    """

    num_qubits: int
    eigenvalues: np.ndarray
    U: np.ndarray
    jump_ops: np.ndarray
    H_eff: np.ndarray
    inert: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _frozen_array(self.eigenvalues, float))
        object.__setattr__(self, "U", _frozen_array(self.U))
        object.__setattr__(self, "jump_ops", _frozen_array(self.jump_ops))
        object.__setattr__(self, "H_eff", _frozen_array(self.H_eff))
        object.__setattr__(self, "inert", _frozen_array(self.inert, bool))

    @property
    def dim(self) -> int:
        return self.H_eff.shape[0]

    @property
    def num_channels(self) -> int:
        return self.eigenvalues.shape[0]

    @cached_property
    def jump_stacks(self) -> tuple[np.ndarray, np.ndarray]:
        """The (n*d, d) stacks of sqrt(xi_n) s_n and of sqrt(xi_n) s_n^dag, read-only.

        The density engine's dissipator is two matrix products over them,
        so they are built once per channel set.  Inert channels enter with
        weight ~0 harmlessly.
        """
        scaled = np.sqrt(self.eigenvalues)[:, None, None] * self.jump_ops
        right = np.conjugate(scaled.transpose(0, 2, 1), order="C")
        stacks = scaled.reshape(-1, self.dim), right.reshape(-1, self.dim)
        for stack in stacks:
            stack.setflags(write=False)
        return stacks

    @cached_property
    def _live_blocks(self) -> slice:
        """The blocks of jump_stacks[0] from its first to its last that is not exactly zero.

        Zero-rate channels (rates clipped from negative roundoff) come first
        in build_channels' ascending order, so the density engine's first
        dissipator product skips them by running over this span only.
        """
        d = self.dim
        live = np.flatnonzero(self.jump_stacks[0].reshape(-1, d * d).any(axis=1))
        return slice(int(live[0]), int(live[-1] + 1)) if live.size else slice(0, 0)


def assemble_channel_set(
    spec: NoiseSpec, xi: np.ndarray, U: np.ndarray
) -> JumpChannelSet:
    """Assemble jump operators and H_eff from an explicit eigensystem of A.

    build_channels is the normal entry point; this one accepts any valid
    (xi, U) pair so alternative degenerate-eigenbasis choices can be compared
    (the dissipator must not depend on the choice).
    """
    sigmas = pauli_stack(spec.num_qubits)
    jump_ops = np.einsum("nm,mij->nij", U, sigmas)

    xi_max = xi.max(initial=0.0)
    inert = xi < _INERT_RATIO * xi_max if xi_max > 0 else np.ones_like(xi, dtype=bool)

    damping = np.einsum(
        "n,nji,njk->ik", xi, jump_ops.conj(), jump_ops, optimize=True
    )
    if np.any(spec.B):
        shift = 0.5 * np.einsum(
            "pq,pij,qjk->ik", spec.B, sigmas, sigmas, optimize=True
        )
    else:
        shift = np.zeros_like(damping)
    h_eff = shift - 0.5j * damping

    # Construction self-checks; failure means a numerics bug, not bad input.
    recon = np.max(np.abs(U.conj().T @ (xi[:, None] * U) - spec.A))
    if recon > _RECON_TOL:
        raise SimulationError(f"rate-matrix reconstruction residual {recon:.3e}")
    row_norms = np.abs(U) ** 2 @ np.ones(U.shape[1])
    if np.max(np.abs(row_norms - 1.0)) > _ROW_NORM_TOL:
        raise SimulationError("channel mixing matrix rows are not normalized")
    anti = 1j * (h_eff - h_eff.conj().T)
    if np.max(np.abs(anti - damping)) > _DAMPING_TOL:
        raise SimulationError("H_eff damping part does not match the dissipator")

    return JumpChannelSet(
        num_qubits=spec.num_qubits,
        eigenvalues=xi,
        U=U,
        jump_ops=jump_ops,
        H_eff=h_eff,
        inert=inert,
    )


def build_channels(spec: NoiseSpec) -> JumpChannelSet:
    """Diagonalize A into jump channels and assemble H_eff.

    Eigenvalues come out in ascending order; any orthonormal basis of a
    degenerate eigenspace is acceptable, the resulting dissipator is basis
    independent.
    """
    w, v = psd_eigensystem(spec.A, "A")
    xi = np.clip(w, 0.0, None)
    # A = V diag(xi) V^dag, so the mixing matrix with A = U^dag diag U is V^dag.
    return assemble_channel_set(spec, xi, v.conj().T)
