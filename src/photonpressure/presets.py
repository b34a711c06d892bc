"""Ready-made parameter sets for the measured device.

Each preset is a flat dotted-key dictionary in SI units (angular frequencies
in rad/s, flux in PHI_0 units), and each serves at least one command.  The
presets are built from shared parts, so each device number is written once:
``_HF`` is the cavity at 5.844 GHz, ``_LF`` the radio-frequency mode at
391 MHz, ``_ARCH`` the fitted flux arch, and ``_red_scene`` builds the four
strong-coupling scenes A-D.  The rates g of scenes A-C follow from the flux
arch at their bias points (``test_presets`` pins them to it); scene D and the
other scenes carry the directly reported values.  The detection chain has no
preset: its defaults are those of ``synth.detection_from``.
"""

from __future__ import annotations

import math

from .errors import ConfigError

TWO_PI = 2.0 * math.pi

# backaction scene: the damping peak 2pi*22 kHz with the effective cavity
# linewidth 2pi*110 kHz fixes g = sqrt(peak * kappa_eff)/2 exactly
_G_BACKACTION = 0.5 * math.sqrt((TWO_PI * 22e3) * (TWO_PI * 110e3))

# the flux-tunable cavity at its sweet spot and the radio-frequency mode
_HF = {
    "hf.omega0": TWO_PI * 5.844e9,
    "hf.kappa_i": TWO_PI * 222e3,
    "hf.kappa_e": TWO_PI * 28e3,
}
_LF = {"lf.omega0": TWO_PI * 391e6, "lf.gamma0": TWO_PI * 22e3}

# amplification scene: cooperativity 6/11 narrows 2pi*22 kHz to 2pi*10 kHz
_C_PPIA = 6.0 / 11.0
_G_PPIA = 0.5 * math.sqrt(_C_PPIA * (TWO_PI * 250e3) * _LF["lf.gamma0"])

# fitted flux arch, shared by the geometry chain and the flux_arch preset
_ARCH = {
    "squid.omega0": _HF["hf.omega0"],
    "squid.dilution": 0.982,
    "squid.gamma_l": 0.59,
    "squid.total_inductance": 742e-12,
}


def _red_scene(g_hz: float, flux_bias: float) -> dict:
    """A strong-coupling scene: the pump on the red sideband with 70 photons."""
    return {**_HF, **_LF, "drive.g": TWO_PI * g_hz, "drive.detuning": -_LF["lf.omega0"],
            "drive.n_c": 70.0, "drive.flux_bias": flux_bias}


_PRESETS: dict[str, dict] = {
    # measured response parameter sets
    "lf": {
        "lf.omega0": TWO_PI * 391.18e6,
        "lf.gamma_i": TWO_PI * 7.4e3,
        "lf.gamma_e": TWO_PI * 13.8e3,
        "lf.gamma0": _LF["lf.gamma0"],
    },
    "hf": _HF,
    "hf_fit": {**_HF, "hf.kappa_i": TWO_PI * 163e3},
    # device geometry: inputs of the full derivation chain
    "geometry": {
        "geometry.plate_area": 7.68e-7,
        "geometry.dielectric_thickness": 130e-9,
        "geometry.relative_permittivity": 11.8,
        "geometry.coupling_capacitance": 434e-15,
        "geometry.feedline_impedance": 50.0,
        "geometry.lf_frequency": _LF["lf.omega0"],
        "idc.finger_count": 90,
        "idc.finger_length": 100e-6,
        "idc.finger_width": 1e-6,
        "idc.gap_width": 1e-6,
        "idc.effective_permittivity": (11.8 + 1.0) / 2.0,
        "idc.parallel_count": 2,
        "idc.coupling_capacitance": 2e-15,
        "idc.hf_frequency": _HF["hf.omega0"],
        "loop.side": 10e-6,
        "loop.near_distance": 1e-6,
        "loop.far_distance": 11e-6,
        "loop.inductance": 120e-12,
        "junction.critical_current": 10e-6,
        **_ARCH,
    },
    # fitted flux arch with the quoted zero-point flux 145 uPHI_0.  Like the
    # quoted 21 nA in "ppia", it is the paper's number, not what the geometry
    # chain gives: `params --preset geometry` reports 152.90 uPHI_0 and
    # 21.975 nA.  Both stay as reported inputs.
    "flux_arch": {**_ARCH, "coupling.zero_point_flux_phi0": 145e-6},
    # sideband-pump scenes
    "backaction": {
        **_LF,
        "lf.gamma_i": TWO_PI * 7.4e3,
        "lf.gamma_e": TWO_PI * 14.6e3,
        "drive.g": _G_BACKACTION,
        "drive.kappa_eff": TWO_PI * 110e3,
        "drive.flux_bias": 0.14,
        "drive.n_c": 40.0,
    },
    "strong_coupling_A": _red_scene(49.2e3, 0.20),
    "strong_coupling_B": _red_scene(111.8e3, 0.35),
    "strong_coupling_C": _red_scene(191.5e3, 0.45),
    "strong_coupling_D": {**_red_scene(250e3, 0.50), "hf.kappa_i": TWO_PI * 186.4e3},
    # blue-pump amplification scene
    "ppia": {
        **_HF,
        "hf.kappa_i": TWO_PI * 225e3,
        "hf.kappa_e": TWO_PI * 25e3,
        **_LF,
        "drive.g": _G_PPIA,
        "drive.detuning": _LF["lf.omega0"],
        "drive.cooperativity": _C_PPIA,
        "drive.flux_bias": 0.50,
        "thermal.n_th": 4.0,
        "thermal.n_cavity": 0.0,
        "coupling.zero_point_current": 21e-9,  # quoted; the chain gives 21.975 nA
    },
}


def preset(name: str) -> dict:
    """One preset by name; an unknown name is a :class:`ConfigError` listing the
    catalog."""
    try:
        return dict(_PRESETS[name])
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(_PRESETS)}") from None


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
