"""YAML experiment configuration: strict schema, complex values as [re, im].

Example:

    noise:
      kind: exponential
      num_qubits: 5
      amplitude: 1.0
      correlation_length: 2.0
      axis: z          # omit for all three axes
      tau_c: 0.5
      g1: 1.0
      normalize: true
    code: five_qubit
    logical_state: [[1.0, 0.0], [0.0, 0.0]]
    t_total: 0.5
    n_values: [5, 10, 20, 40, 80]
    delta_t_values: [0.002, 0.003, 0.004, 0.006, 0.008, 0.012, 0.016, 0.02]
    trajectories: 2000
    base_seed: 12345
    engine: density

Unknown keys anywhere are errors; so are missing required keys for the chosen
noise kind.  Scalars may be written as plain numbers, complex entries as
[re, im] pairs.
"""

from __future__ import annotations

import yaml

from .errors import ConfigError, DomainError
from .experiment import ExperimentConfig
from .noise import (
    DirectNoise,
    collective_axis_kernel,
    cross_axis_kernel,
    exponential_kernel,
    independent_kernel,
    lowering_kernel,
)

_TOP_KEYS = {
    "noise",
    "code",
    "logical_state",
    "t_total",
    "n_values",
    "delta_t_values",
    "trajectories",
    "trajectory_substeps",
    "base_seed",
    "engine",
}

_NOISE_KEYS = {
    "kind",
    "num_qubits",
    "amplitude",
    "axis",
    "correlation_length",
    "axis_block",
    "tau_c",
    "g1",
    "A",
    "B",
    "normalize",
}

_AXES = {"x": 1, "y": 2, "z": 3, 1: 1, 2: 2, 3: 3}

_KINDS = ("independent", "collective_axis", "exponential", "cross_axis", "lowering", "direct")


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _complex_value(value, where: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        return complex(value[0], value[1])
    raise ConfigError(f"{where} must be a number or a [re, im] pair, got {value!r}")


def _complex_matrix(value, where: str):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a nonempty nested list of [re, im] pairs")
    return [
        [_complex_value(entry, f"{where}[{i}][{j}]") for j, entry in enumerate(row)]
        for i, row in enumerate(value)
    ]


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return section[key]


def _parse_noise(section) -> tuple:
    """Returns (kernel_or_spec, normalize_rates)."""
    if not isinstance(section, dict):
        raise ConfigError("noise section must be a mapping")
    _reject_unknown(section, _NOISE_KEYS, "noise")
    kind = _require(section, "kind", "noise")
    if kind not in _KINDS:
        raise ConfigError(f"noise.kind must be one of {_KINDS}, got {kind!r}")
    normalize = section.get("normalize", True)
    if not isinstance(normalize, bool):
        raise ConfigError("noise.normalize must be a boolean")

    used = {"kind", "normalize"}

    def take_number(key, default=None):
        used.add(key)
        if key not in section:
            if default is None:
                raise ConfigError(f"noise.{key} is required for kind {kind!r}")
            return default
        return _number(section[key], f"noise.{key}")

    if kind == "direct":
        used |= {"A", "B", "num_qubits"}
        a = _complex_matrix(_require(section, "A", "noise"), "noise.A")
        b = _complex_matrix(section["B"], "noise.B") if "B" in section else None
        num_qubits = section.get("num_qubits")
        if num_qubits is not None and (
            isinstance(num_qubits, bool) or not isinstance(num_qubits, int)
        ):
            raise ConfigError("noise.num_qubits must be an integer")
        extras = set(section) - used
        if extras:
            raise ConfigError(
                f"key(s) {', '.join(sorted(extras))} do not apply to noise.kind=direct"
            )
        # Hermiticity/PSD gates fire when the experiment resolves the spec, so
        # the validation suite can report a deliberately bad matrix.
        return DirectNoise(A=a, B=b, num_qubits=num_qubits), normalize

    used.add("num_qubits")
    num_qubits = _require(section, "num_qubits", "noise")
    if isinstance(num_qubits, bool) or not isinstance(num_qubits, int):
        raise ConfigError("noise.num_qubits must be an integer")
    tau_c = take_number("tau_c", 0.5)
    g1 = take_number("g1", 1.0)

    try:
        if kind == "independent":
            amplitude = take_number("amplitude", 1.0)
            kernel = independent_kernel(num_qubits, amplitude, tau_c=tau_c, g1=g1)
        elif kind == "collective_axis":
            amplitude = take_number("amplitude", 1.0)
            used.add("axis")
            axis = section.get("axis", "z")
            if axis not in _AXES:
                raise ConfigError(f"noise.axis must be x, y, z or 1..3, got {axis!r}")
            kernel = collective_axis_kernel(
                num_qubits, _AXES[axis], amplitude, tau_c=tau_c, g1=g1
            )
        elif kind == "exponential":
            amplitude = take_number("amplitude", 1.0)
            correlation_length = take_number("correlation_length")
            used.add("axis")
            axis = section.get("axis")
            if axis is not None and axis not in _AXES:
                raise ConfigError(f"noise.axis must be x, y, z or 1..3, got {axis!r}")
            kernel = exponential_kernel(
                num_qubits,
                amplitude,
                correlation_length,
                tau_c=tau_c,
                g1=g1,
                axis=None if axis is None else _AXES[axis],
            )
        elif kind == "cross_axis":
            used.add("axis_block")
            block = _complex_matrix(
                _require(section, "axis_block", "noise"), "noise.axis_block"
            )
            kernel = cross_axis_kernel(num_qubits, block, tau_c=tau_c, g1=g1)
        else:  # lowering
            kernel = lowering_kernel(num_qubits, tau_c=tau_c, g1=g1)
    except DomainError as err:
        raise ConfigError(f"invalid noise parameters: {err}") from err

    extras = set(section) - used
    if extras:
        raise ConfigError(
            f"key(s) {', '.join(sorted(extras))} do not apply to noise.kind={kind}"
        )
    return kernel, normalize


def parse_config(data) -> ExperimentConfig:
    """Build an ExperimentConfig from already-parsed YAML data."""
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a mapping")
    _reject_unknown(data, _TOP_KEYS, "config")
    noise, normalize = _parse_noise(_require(data, "noise", "config"))

    kwargs = {"noise": noise, "normalize_rates": normalize}
    if "code" in data:
        if not isinstance(data["code"], str):
            raise ConfigError("code must be a string")
        kwargs["code"] = data["code"]
    if "logical_state" in data:
        pair = data["logical_state"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError("logical_state must be a two-entry list [alpha, beta]")
        kwargs["logical_state"] = (
            _complex_value(pair[0], "logical_state[0]"),
            _complex_value(pair[1], "logical_state[1]"),
        )
    if "t_total" in data:
        kwargs["t_total"] = _number(data["t_total"], "t_total")
    if "n_values" in data:
        if not isinstance(data["n_values"], list):
            raise ConfigError("n_values must be a list of integers")
        values = []
        for i, n in enumerate(data["n_values"]):
            if isinstance(n, bool) or not isinstance(n, int):
                raise ConfigError(f"n_values[{i}] must be an integer, got {n!r}")
            values.append(n)
        kwargs["n_values"] = tuple(values)
    if "delta_t_values" in data:
        if not isinstance(data["delta_t_values"], list):
            raise ConfigError("delta_t_values must be a list of numbers")
        kwargs["delta_t_values"] = tuple(
            _number(x, f"delta_t_values[{i}]")
            for i, x in enumerate(data["delta_t_values"])
        )
    if "trajectories" in data:
        m = data["trajectories"]
        if isinstance(m, bool) or not isinstance(m, int):
            raise ConfigError("trajectories must be an integer")
        kwargs["trajectories"] = m
    if "trajectory_substeps" in data:
        k = data["trajectory_substeps"]
        if isinstance(k, bool) or not isinstance(k, int):
            raise ConfigError("trajectory_substeps must be an integer")
        kwargs["trajectory_substeps"] = k
    if "base_seed" in data:
        s = data["base_seed"]
        if isinstance(s, bool) or not isinstance(s, int) or s < 0:
            raise ConfigError("base_seed must be a nonnegative integer")
        kwargs["base_seed"] = s
    if "engine" in data:
        if not isinstance(data["engine"], str):
            raise ConfigError("engine must be a string")
        kwargs["engine"] = data["engine"]

    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    """Read and validate a YAML config file."""
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except yaml.YAMLError as err:
        raise ConfigError(f"invalid YAML in {path}: {err}") from err
    try:
        return parse_config(data)
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None
