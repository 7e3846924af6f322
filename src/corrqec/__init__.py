"""Simulator of spatially correlated qubit decoherence and its suppression
by single-qubit-error correcting codes.

Layers, bottom up: dense Pauli/state kernels (:mod:`.operators`), correlation
kernels and jump channels (:mod:`.noise`), exact master-equation integration
(:mod:`.lindblad`), stochastic trajectory unraveling and the first-order
error channel (:mod:`.trajectory`), the five-qubit code (:mod:`.qecc`), and
the experiment drivers plus CLI (:mod:`.experiment`, :mod:`.cli`).
"""

from .errors import (
    ConfigError,
    DomainError,
    IntegrationError,
    ResourceError,
    SimulationError,
    StepSizeError,
)
from .noise import (
    LOWERING_BLOCK,
    CorrelationKernel,
    DirectNoise,
    JumpChannelSet,
    NoiseSpec,
    build_channels,
    collective_axis_kernel,
    cross_axis_kernel,
    exponential_kernel,
    independent_kernel,
    integrate_kernel,
    lowering_kernel,
    noise_spec_direct,
    rescale_to_unit_max_rate,
)
from .lindblad import EvolutionConfig, default_dt_integrator, evolve_exact
from .trajectory import ensemble_density, sample_ensemble
from .qecc import correction_channel, encode, five_qubit_code
from .experiment import (
    ExperimentConfig,
    FidelityResult,
    ValidationReport,
    run_cycle_fidelity,
    run_repetition_scaling,
    run_trajectory_logs,
    run_validation_suite,
)
from .config import load_config, parse_config

__version__ = "0.1.0"
