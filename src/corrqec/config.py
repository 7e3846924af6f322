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
noise kind, and keys that do not apply to it.  A noise key left out takes the
default of the kernel factory in `corrqec.noise`; this module holds no default
of its own.  Scalars may be written as plain numbers, complex entries as
[re, im] pairs.  Past the YAML forms (numbers, [re, im] pairs, axis names,
nested lists) this module checks no value: the factories check the noise
parameters and `ExperimentConfig` checks the rest.
"""

from __future__ import annotations

from dataclasses import fields

import yaml

from .errors import ConfigError, DomainError, ResourceError
from .experiment import ExperimentConfig
from .noise import (
    DirectNoise,
    collective_axis_kernel,
    cross_axis_kernel,
    exponential_kernel,
    independent_kernel,
    lowering_kernel,
)
from .operators import AXIS_LABELS, is_number, is_real_number

# `normalize_rates` is written as noise.normalize.
_TOP_KEYS = {f.name for f in fields(ExperimentConfig)} - {"normalize_rates"}

# noise.kind -> (factory, optional keys, required keys).
_KINDS = {
    "independent": (independent_kernel, ("amplitude", "tau_c", "g1"), ("num_qubits",)),
    "collective_axis": (
        collective_axis_kernel,
        ("axis", "amplitude", "tau_c", "g1"),
        ("num_qubits",),
    ),
    "exponential": (
        exponential_kernel,
        ("amplitude", "axis", "tau_c", "g1"),
        ("num_qubits", "correlation_length"),
    ),
    "cross_axis": (cross_axis_kernel, ("tau_c", "g1"), ("num_qubits", "axis_block")),
    "lowering": (lowering_kernel, ("tau_c", "g1"), ("num_qubits",)),
    # Hermiticity/PSD gates fire when the experiment resolves the spec, so
    # the validation suite can report a deliberately bad matrix.
    "direct": (DirectNoise, ("B", "num_qubits"), ("A",)),
}

_NOISE_KEYS = {"kind", "normalize"}.union(*(opt + req for _, opt, req in _KINDS.values()))

_AXES = {key: axis for axis, label in AXIS_LABELS.items() for key in (label, axis)}


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(map(str, unknown)))}")


def _number(value, where: str) -> float:
    if not is_real_number(value):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _axis(value, where: str):
    # null means every axis (exponential); the collective factory rejects it.
    # A boolean is no axis, although True == 1 would find the key 1.
    if value is None or (isinstance(value, str) or is_real_number(value)) and value in _AXES:
        return _AXES.get(value)
    raise ConfigError(f"{where} must be x, y, z or 1..3, got {value!r}")


def _complex_pair(value):
    """An [re, im] pair of numbers as a complex; any other value as it is."""
    if isinstance(value, list) and len(value) == 2 and all(map(is_real_number, value)):
        return complex(value[0], value[1])
    return value


def _complex_value(value, where: str) -> complex:
    value = _complex_pair(value)
    if not is_number(value):
        raise ConfigError(f"{where} must be a number or a [re, im] pair, got {value!r}")
    return complex(value)


def _complex_matrix(value, where: str):
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(row, list) and len(row) == len(value[0]) for row in value)
    ):
        raise ConfigError(f"{where} must be a nonempty rectangular nested list of [re, im] pairs")
    return [
        [_complex_value(entry, f"{where}[{i}][{j}]") for j, entry in enumerate(row)]
        for i, row in enumerate(value)
    ]


# How each noise key's YAML form becomes the factory's argument; num_qubits
# passes as it is, to the factory's integer rule.
_CONVERT = {
    "amplitude": _number,
    "correlation_length": _number,
    "tau_c": _number,
    "g1": _number,
    "axis": _axis,
    "axis_block": _complex_matrix,
    "A": _complex_matrix,
    "B": _complex_matrix,
}


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return section[key]


def _parse_noise(section):
    """One factory call for a noise section, passing only the keys it gives."""
    if not isinstance(section, dict):
        raise ConfigError("noise section must be a mapping")
    _reject_unknown(section, _NOISE_KEYS, "noise")
    kind = _require(section, "kind", "noise")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigError(f"noise.kind must be one of {tuple(_KINDS)}, got {kind!r}")
    factory, optional, required = _KINDS[kind]
    extras = set(section) - {"kind", "normalize", *optional, *required}
    if extras:
        raise ConfigError(f"key(s) {', '.join(sorted(extras))} do not apply to noise.kind={kind}")
    for key in required:
        if section.get(key) is None:
            raise ConfigError(f"noise.{key} is required for kind {kind!r}")
    kwargs = {
        key: _CONVERT[key](section[key], f"noise.{key}") if key in _CONVERT else section[key]
        for key in (*required, *optional)
        if key in section
    }
    try:
        return factory(**kwargs)
    except (DomainError, ResourceError) as err:
        raise ConfigError(f"invalid noise parameters: {err}") from err


def parse_config(data) -> ExperimentConfig:
    """Build an ExperimentConfig from already-parsed YAML data."""
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a mapping")
    _reject_unknown(data, _TOP_KEYS, "config")
    kwargs = dict(data)
    kwargs["noise"] = _parse_noise(_require(data, "noise", "config"))
    if "normalize" in data["noise"]:
        kwargs["normalize_rates"] = data["noise"]["normalize"]
    if isinstance(data.get("logical_state"), list):
        kwargs["logical_state"] = [_complex_pair(a) for a in data["logical_state"]]
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    """Read and validate a YAML config file.

    The file is read as bytes, which PyYAML decodes, so bytes that do not
    decode are invalid YAML (a ConfigError) whatever the locale's encoding.
    """
    try:
        with open(path, "rb") as fh:
            data = yaml.safe_load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except yaml.YAMLError as err:
        raise ConfigError(f"invalid YAML in {path}: {err}") from err
    try:
        return parse_config(data)
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None
