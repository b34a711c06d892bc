"""Synthetic measurement data from ground-truth parameters.

Forward models for the complex reflection traces and blue-pump spectra, with
an optional instrumental background and seeded noise, so that every fitting
routine has a round-trip oracle.  Parameter sets are flat dotted-key
dictionaries (the same schema the presets and the CLI use), read through
:func:`presets.need`: a missing key or a value that is not a finite number is
a :class:`ConfigError` naming its path.

This module holds the readers that turn a parameter set into the inputs
shared by several commands: the pump sideband and detuning, the cavity
linewidth, the probed resonance, the low-frequency mode's thermal
occupation, the background (one ``background.<field>`` key per
:class:`BackgroundModel` field, which is also how a fit report writes it),
the noise and the detection chain.  The commands read their other model keys
themselves: ``backaction`` drive.g and drive.kappa_eff, ``nms`` lf.omega0
and lf.gamma0, ``psd`` hf.omega0 for its units, and the pumped ``fit`` its
fixed parameters.

Randomness uses the counter-based Philox generator keyed by (seed, stream):
identical inputs give bit-identical traces, and independent streams are safe
to generate in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import (BackgroundModel, cooperativity, lf_s11_pumped, s11_bare,
                       s11_pumped)
from .errors import ConfigError, DomainError
from .constants import hbar
from .presets import need
from .traces import ComplexTrace, SpectrumTrace

if TYPE_CHECKING:
    from .noise import DetectionChain

__all__ = ["NoiseSpec", "make_rng", "synth_s11", "synth_psd", "pump_sideband",
           "pump_detuning", "cavity_linewidth", "probed_resonance", "lf_occupation",
           "background_from", "noise_from", "detection_from"]

_NOISE_KINDS = ("none", "additive-complex-gaussian", "multiplicative-gaussian")


@dataclass(frozen=True)
class NoiseSpec:
    """Seeded measurement noise; identical seed implies identical trace."""

    kind: str = "none"
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _NOISE_KINDS:
            raise DomainError(f"noise kind must be one of {_NOISE_KINDS}")
        if self.sigma < 0:
            raise DomainError("noise sigma must be >= 0")
        if not 0 <= self.seed < 2 ** 128:
            raise DomainError("noise seed must be in [0, 2**128)")


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator: one key per seed, one block per stream."""
    return np.random.Generator(np.random.Philox(key=seed, counter=stream << 128))


def pump_sideband(params: dict, sideband: str = "red") -> str:
    """drive.sideband, else ``sideband``: "red" or "blue"."""
    sideband = str(params.get("drive.sideband", sideband))
    if sideband not in ("red", "blue"):
        raise ConfigError(f"drive.sideband must be red or blue, not {sideband!r}")
    return sideband


def pump_detuning(params: dict, sideband: str = "red") -> float:
    """Pump detuning: drive.detuning, else -lf.omega0 (red) or +lf.omega0 (blue,
    by :func:`pump_sideband`) plus drive.sideband_offset."""
    sideband = pump_sideband(params, sideband)
    if "drive.detuning" in params:
        return need(params, "drive.detuning")
    sign = -1.0 if sideband == "red" else 1.0
    return sign * need(params, "lf.omega0") + need(params, "drive.sideband_offset", 0.0)


def cavity_linewidth(params: dict) -> float:
    """hf.kappa_i + hf.kappa_e when positive, else drive.kappa_eff."""
    kappa = need(params, "hf.kappa_i", 0.0) + need(params, "hf.kappa_e", 0.0)
    return kappa if kappa > 0 else need(params, "drive.kappa_eff")


def probed_resonance(params: dict, model: str) -> str:
    """Key of the resonance a reflection ``model`` probes: "lf.omega0" for
    "lf_pumped", and for "bare" without hf.omega0; "hf.omega0" otherwise."""
    if model == "lf_pumped" or (model == "bare" and "hf.omega0" not in params):
        return "lf.omega0"
    return "hf.omega0"


def lf_occupation(params: dict, kappa: float) -> float:
    """thermal.n_lf, else thermal.n_th heated by blue-sideband backaction,
    (n_th + 1) / (1 - C) - 1, with C from drive.g, the cavity linewidth
    ``kappa`` and lf.gamma0; C >= 1 is a :class:`DomainError`."""
    if "thermal.n_lf" in params:
        return need(params, "thermal.n_lf")
    coop = cooperativity(need(params, "drive.g"), kappa, need(params, "lf.gamma0"))
    if coop >= 1:
        raise DomainError("cooperativity >= 1 on the amplifying sideband")
    return (need(params, "thermal.n_th") + 1.0) / (1.0 - coop) - 1.0


def background_from(params: dict, model: str) -> BackgroundModel | None:
    """The ``background.<field>`` keys as a :class:`BackgroundModel`, or None
    without any; absent fields take the dataclass defaults, except that
    reference_frequency defaults to the probed resonance."""
    if not any(key.startswith("background.") for key in params):
        return None
    defaults = {f.name: f.default for f in fields(BackgroundModel)}
    defaults["reference_frequency"] = need(params, probed_resonance(params, model))
    return BackgroundModel(**{name: need(params, f"background.{name}", value)
                              for name, value in defaults.items()})


def noise_from(params: dict, seed: int) -> NoiseSpec | None:
    sigma = need(params, "noise.sigma", 0.0)
    if sigma != 0.0 and "noise.kind" not in params:
        raise ConfigError(f"noise.sigma = {sigma:g} has no effect without noise.kind; "
                          f"set it to one of {_NOISE_KINDS[1:]}")
    kind = str(params.get("noise.kind", "none"))
    if kind == "none":
        return None
    if sigma == 0.0:
        raise ConfigError(f"noise.kind = {kind} has no effect without a non-zero noise.sigma")
    return NoiseSpec(kind, sigma, seed=seed)


def detection_from(params: dict) -> DetectionChain:
    from .noise import DetectionChain  # only the spectrum commands load noise

    return DetectionChain(
        hemt_noise_temperature=need(params, "detection.hemt_noise_temperature", 5.5),
        hemt_added_photons=need(params, "detection.hemt_added_photons", 20.0),
        output_efficiency=need(params, "detection.output_efficiency", 0.7),
        total_gain=need(params, "detection.total_gain", 1e7),
        measurement_bandwidth=need(params, "detection.measurement_bandwidth", 200.0),
        input_attenuation_db=need(params, "detection.input_attenuation_db", 0.0),
    )


def _apply_noise(values, noise: NoiseSpec | None):
    if noise is None or noise.kind == "none" or noise.sigma == 0.0:
        return values
    rng = make_rng(noise.seed)
    if noise.kind == "additive-complex-gaussian":
        return values + noise.sigma * (rng.standard_normal(values.size)
                                       + 1j * rng.standard_normal(values.size))
    return values * (1.0 + noise.sigma * rng.standard_normal(values.size))


def synth_s11(model: str, params: dict, grid_hz, background: BackgroundModel | None = None,
              noise: NoiseSpec | None = None) -> ComplexTrace:
    """Synthesize a complex reflection trace.

    ``model`` is one of "bare", "pumped" (cavity side, probe frequencies are
    absolute) or "lf_pumped" (direct low-frequency reflection).  The "bare"
    model reads the hf.* keys and falls back to the lf.* ones, so a single
    resonator of either kind can be synthesized.  The pumped models take the
    pump from :func:`pump_detuning` (red by default).  A background's
    circle_rotation theta turns the resonance as ``fit_resonance`` models it,
    S -> 1 - (1 - S) e^{i theta}, before the background multiplies it.
    """
    grid = np.asarray(grid_hz, dtype=float)
    omega = 2.0 * np.pi * grid
    if model == "bare":
        if probed_resonance(params, model) == "hf.omega0":
            vals = s11_bare(omega, need(params, "hf.omega0"),
                            need(params, "hf.kappa_i"), need(params, "hf.kappa_e"))
        else:
            vals = s11_bare(omega, need(params, "lf.omega0"),
                            need(params, "lf.gamma_i"), need(params, "lf.gamma_e"))
    elif model == "pumped":
        vals = s11_pumped(omega, need(params, "hf.omega0"),
                          need(params, "hf.kappa_i"), need(params, "hf.kappa_e"),
                          need(params, "lf.omega0"), need(params, "lf.gamma0"),
                          need(params, "drive.g"), pump_detuning(params))
    elif model == "lf_pumped":
        vals = lf_s11_pumped(omega, need(params, "lf.omega0"),
                             need(params, "lf.gamma_i"), need(params, "lf.gamma_e"),
                             need(params, "drive.g"), pump_detuning(params),
                             cavity_linewidth(params))
    else:
        raise ConfigError(f"unknown reflection model {model!r}")

    if background is not None:
        if background.circle_rotation:  # at 0, 1 - (1 - S) need not equal S bit for bit
            vals = 1.0 - (1.0 - vals) * np.exp(1j * background.circle_rotation)
        vals = vals * background.evaluate(omega)
    return ComplexTrace(grid, _apply_noise(vals, noise))


def synth_psd(params: dict, grid_hz, detection: DetectionChain,
              noise: NoiseSpec | None = None) -> SpectrumTrace:
    """Synthesize a detected power spectral density, W/Hz.

    The grid is absolute (Hz) around the cavity; the pump sits at
    hf.omega0 + :func:`pump_detuning` (blue by default), and the photon-units
    spectrum is scaled by gain * hbar * omega0 (narrow band, fixed photon
    energy).  The low-frequency occupation comes from :func:`lf_occupation`.
    """
    from .noise import psd_blue_pump

    grid = np.asarray(grid_hz, dtype=float)
    omega0 = need(params, "hf.omega0")
    detuning = pump_detuning(params, "blue")
    offsets = 2.0 * np.pi * grid - (omega0 + detuning)
    kappa = need(params, "hf.kappa_i") + need(params, "hf.kappa_e")
    photons = psd_blue_pump(
        offsets,
        kappa=kappa,
        kappa_e=need(params, "hf.kappa_e"),
        gamma0=need(params, "lf.gamma0"),
        lf_frequency=need(params, "lf.omega0"),
        g=need(params, "drive.g"),
        detuning=detuning,
        n_lf=lf_occupation(params, kappa),
        n_cavity=need(params, "thermal.n_cavity", 0.0),
        n_add_eff=detection.effective_added_photons,
    )
    values = detection.total_gain * hbar * omega0 * photons
    return SpectrumTrace(grid, _apply_noise(values, noise), units="W/Hz")
