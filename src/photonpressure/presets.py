"""Ready-made parameter sets for the measured device.

Each preset is a flat dotted-key dictionary in SI units (angular frequencies
in rad/s, flux in PHI_0 units).  They freeze the device numbers in one place
so simulations, golden tests and the CLI all reference a single source of
truth.  Scenes A-C of the coupling-sweep family are derived from the fitted
flux-arch model at the quoted bias points; scene D and the remaining scenes
carry the directly reported values.
"""

from __future__ import annotations

import math

from .errors import ConfigError

TWO_PI = 2.0 * math.pi

# backaction scene: the damping peak 2pi*22 kHz with the effective cavity
# linewidth 2pi*110 kHz fixes g = sqrt(peak * kappa_eff)/2 exactly
_G_BACKACTION = 0.5 * math.sqrt((TWO_PI * 22e3) * (TWO_PI * 110e3))

# amplification scene: cooperativity 6/11 narrows 2pi*22 kHz to 2pi*10 kHz
_C_PPIA = 6.0 / 11.0
_G_PPIA = 0.5 * math.sqrt(_C_PPIA * (TWO_PI * 250e3) * (TWO_PI * 22e3))

# fitted flux arch, shared by the geometry chain and the coupling chain
_ARCH = {
    "squid.omega0": TWO_PI * 5.844e9,
    "squid.dilution": 0.982,
    "squid.gamma_l": 0.59,
    "squid.total_inductance": 742e-12,
    "squid.bias_max": 0.546,
}

_PRESETS: dict[str, dict] = {
    # measured response parameter sets
    "lf": {
        "lf.omega0": TWO_PI * 391.18e6,
        "lf.gamma_i": TWO_PI * 7.4e3,
        "lf.gamma_e": TWO_PI * 13.8e3,
        "lf.gamma0": TWO_PI * 22e3,
    },
    "hf": {
        "hf.omega0": TWO_PI * 5.844e9,
        "hf.kappa_i": TWO_PI * 222e3,
        "hf.kappa_e": TWO_PI * 28e3,
    },
    "hf_fit": {
        "hf.omega0": TWO_PI * 5.844e9,
        "hf.kappa_i": TWO_PI * 163e3,
        "hf.kappa_e": TWO_PI * 28e3,
    },
    # device geometry: inputs of the full derivation chain
    "geometry": {
        "geometry.plate_area": 7.68e-7,
        "geometry.dielectric_thickness": 130e-9,
        "geometry.relative_permittivity": 11.8,
        "geometry.coupling_capacitance": 434e-15,
        "geometry.feedline_impedance": 50.0,
        "geometry.lf_frequency": TWO_PI * 391e6,
        "idc.finger_count": 90,
        "idc.finger_length": 100e-6,
        "idc.finger_width": 1e-6,
        "idc.gap_width": 1e-6,
        "idc.effective_permittivity": (11.8 + 1.0) / 2.0,
        "idc.parallel_count": 2,
        "idc.coupling_capacitance": 2e-15,
        "idc.hf_frequency": TWO_PI * 5.844e9,
        "loop.side": 10e-6,
        "loop.near_distance": 1e-6,
        "loop.far_distance": 11e-6,
        "loop.inductance": 120e-12,
        "junction.critical_current": 10e-6,
        **_ARCH,
    },
    # fitted flux arch and the coupling chain.  The coupling values 21 nA,
    # 14 pH and 145 uPHI_0 (also in "ppia") are the paper's quoted numbers,
    # not what the geometry chain gives: `params --preset geometry` reports
    # 21.975 nA, 14.387 pH and 152.90 uPHI_0.  They stay as reported inputs.
    "flux_arch": {**_ARCH, "coupling.zero_point_flux_phi0": 145e-6},
    "coupling": {
        "coupling.mutual_inductance": 14e-12,
        "coupling.zero_point_current": 21e-9,
        "coupling.zero_point_flux_phi0": 145e-6,
    },
    # sideband-pump scenes
    "backaction": {
        "lf.omega0": TWO_PI * 391e6,
        "lf.gamma_i": TWO_PI * 7.4e3,
        "lf.gamma_e": TWO_PI * 14.6e3,
        "lf.gamma0": TWO_PI * 22e3,
        "drive.g": _G_BACKACTION,
        "drive.kappa_eff": TWO_PI * 110e3,
        "drive.flux_bias": 0.14,
        "drive.n_c": 40.0,
    },
    "strong_coupling_A": {
        "hf.omega0": TWO_PI * 5.844e9,
        "hf.kappa_i": TWO_PI * 222e3,
        "hf.kappa_e": TWO_PI * 28e3,
        "lf.omega0": TWO_PI * 391e6,
        "lf.gamma0": TWO_PI * 22e3,
        "drive.g": TWO_PI * 49.2e3,
        "drive.detuning": -TWO_PI * 391e6,
        "drive.n_c": 70.0,
        "drive.flux_bias": 0.20,
    },
    "strong_coupling_B": {
        "hf.omega0": TWO_PI * 5.844e9,
        "hf.kappa_i": TWO_PI * 222e3,
        "hf.kappa_e": TWO_PI * 28e3,
        "lf.omega0": TWO_PI * 391e6,
        "lf.gamma0": TWO_PI * 22e3,
        "drive.g": TWO_PI * 111.8e3,
        "drive.detuning": -TWO_PI * 391e6,
        "drive.n_c": 70.0,
        "drive.flux_bias": 0.35,
    },
    "strong_coupling_C": {
        "hf.omega0": TWO_PI * 5.844e9,
        "hf.kappa_i": TWO_PI * 222e3,
        "hf.kappa_e": TWO_PI * 28e3,
        "lf.omega0": TWO_PI * 391e6,
        "lf.gamma0": TWO_PI * 22e3,
        "drive.g": TWO_PI * 191.5e3,
        "drive.detuning": -TWO_PI * 391e6,
        "drive.n_c": 70.0,
        "drive.flux_bias": 0.45,
    },
    "strong_coupling_D": {
        "hf.omega0": TWO_PI * 5.844e9,
        "hf.kappa_i": TWO_PI * 186.4e3,
        "hf.kappa_e": TWO_PI * 28e3,
        "lf.omega0": TWO_PI * 391e6,
        "lf.gamma0": TWO_PI * 22e3,
        "drive.g": TWO_PI * 250e3,
        "drive.detuning": -TWO_PI * 391e6,
        "drive.n_c": 70.0,
        "drive.flux_bias": 0.50,
    },
    # blue-pump amplification scene
    "ppia": {
        "hf.omega0": TWO_PI * 5.844e9,
        "hf.kappa_i": TWO_PI * 225e3,
        "hf.kappa_e": TWO_PI * 25e3,
        "lf.omega0": TWO_PI * 391e6,
        "lf.gamma0": TWO_PI * 22e3,
        "drive.g": _G_PPIA,
        "drive.detuning": TWO_PI * 391e6,
        "drive.cooperativity": _C_PPIA,
        "drive.flux_bias": 0.50,
        "thermal.n_th": 4.0,
        "thermal.n_cavity": 0.0,
        "thermal.gamma0_eff": TWO_PI * 10e3,
        "coupling.zero_point_current": 21e-9,  # quoted; the chain gives 21.975 nA
    },
    # output-line calibration
    "detection": {
        "detection.hemt_noise_temperature": 5.5,
        "detection.hemt_added_photons": 20.0,
        "detection.output_efficiency": 0.7,
        "detection.total_gain": 1e7,
        "detection.measurement_bandwidth": 200.0,
        "detection.input_attenuation_db": -61.0,
    },
}


def experiment_presets() -> dict[str, dict]:
    """All presets, deep-copied so callers can override freely."""
    return {name: dict(values) for name, values in _PRESETS.items()}


def preset(name: str) -> dict:
    """One preset by name; raises ``KeyError`` listing the catalog."""
    try:
        return dict(_PRESETS[name])
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(_PRESETS)}") from None


def need(params: dict, key: str, default=None) -> float:
    """Value of ``key`` in a flat parameter set, as a finite float.

    ``default`` is used when the key is absent; without one a missing key is
    a :class:`ConfigError`, and so is a value that is not a finite number
    (a JSON ``true`` or ``false`` included).
    """
    if key in params:
        value = params[key]
    elif default is not None:
        value = default
    else:
        raise ConfigError(f"missing parameter {key!r}")
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"parameter {key!r} must be a finite number, not {value!r}")
    return number
