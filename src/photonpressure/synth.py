"""Synthetic measurement data from ground-truth parameters.

Forward models for the complex reflection traces and blue-pump spectra, with
an optional instrumental background and seeded noise, so that every fitting
routine has a round-trip oracle.  Parameter sets are flat dotted-key
dictionaries (the same schema the presets and the CLI use), read through
:func:`presets.need`: a missing key or a value that is not a finite number is
a :class:`ConfigError` naming its path.

Randomness uses the counter-based Philox generator keyed by (seed, stream):
identical inputs give bit-identical traces, and independent streams are safe
to generate in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import BackgroundModel, lf_s11_pumped, s11_bare, s11_pumped
from .errors import ConfigError, DomainError
from .noise import DetectionChain, psd_blue_pump
from .constants import hbar
from .presets import need
from .traces import ComplexTrace, SpectrumTrace

__all__ = ["NoiseSpec", "make_rng", "synth_s11", "synth_psd"]

_NOISE_KINDS = ("none", "additive-complex-gaussian", "multiplicative-gaussian")


@dataclass(frozen=True)
class NoiseSpec:
    """Seeded measurement noise; identical seed implies identical trace."""

    kind: str = "none"
    sigma: float = 0.0
    seed: int = 0
    stream: int = 0

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


def _apply_noise(values, noise: NoiseSpec | None):
    if noise is None or noise.kind == "none" or noise.sigma == 0.0:
        return values
    rng = make_rng(noise.seed, noise.stream)
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
    resonator of either kind can be synthesized.
    """
    if background is not None and background.circle_rotation:
        raise ConfigError("apply the circle rotation inside the response, "
                          "not in the synthesized background")
    grid = np.asarray(grid_hz, dtype=float)
    omega = 2.0 * np.pi * grid
    if model == "bare":
        if "hf.omega0" in params:
            vals = s11_bare(omega, need(params, "hf.omega0"),
                            need(params, "hf.kappa_i"), need(params, "hf.kappa_e"))
        else:
            vals = s11_bare(omega, need(params, "lf.omega0"),
                            need(params, "lf.gamma_i"), need(params, "lf.gamma_e"))
    elif model == "pumped":
        vals = s11_pumped(omega, need(params, "hf.omega0"),
                          need(params, "hf.kappa_i"), need(params, "hf.kappa_e"),
                          need(params, "lf.omega0"), need(params, "lf.gamma0"),
                          need(params, "drive.g"), need(params, "drive.detuning"))
    elif model == "lf_pumped":
        kappa = need(params, "hf.kappa_i", 0.0) + need(params, "hf.kappa_e", 0.0)
        if kappa <= 0:
            kappa = need(params, "drive.kappa_eff")
        vals = lf_s11_pumped(omega, need(params, "lf.omega0"),
                             need(params, "lf.gamma_i"), need(params, "lf.gamma_e"),
                             need(params, "drive.g"), need(params, "drive.detuning"),
                             kappa)
    else:
        raise ConfigError(f"unknown reflection model {model!r}")

    if background is not None:
        vals = vals * background.evaluate(omega)
    return ComplexTrace(grid, _apply_noise(vals, noise))


def synth_psd(params: dict, grid_hz, detection: DetectionChain,
              noise: NoiseSpec | None = None) -> SpectrumTrace:
    """Synthesize a detected power spectral density, W/Hz.

    The grid is absolute (Hz) around the cavity; the pump sits at
    hf.omega0 + drive.detuning, and the photon-units spectrum is scaled by
    gain * hbar * omega0 (narrow band, fixed photon energy).
    """
    grid = np.asarray(grid_hz, dtype=float)
    omega0 = need(params, "hf.omega0")
    detuning = need(params, "drive.detuning",
                    need(params, "lf.omega0") + need(params, "drive.sideband_offset", 0.0))
    offsets = 2.0 * np.pi * grid - (omega0 + detuning)
    photons = psd_blue_pump(
        offsets,
        kappa=need(params, "hf.kappa_i") + need(params, "hf.kappa_e"),
        kappa_e=need(params, "hf.kappa_e"),
        gamma0=need(params, "lf.gamma0"),
        lf_frequency=need(params, "lf.omega0"),
        g=need(params, "drive.g"),
        detuning=detuning,
        n_lf=need(params, "thermal.n_lf"),
        n_cavity=need(params, "thermal.n_cavity", 0.0),
        n_add_eff=detection.effective_added_photons,
    )
    values = detection.total_gain * hbar * omega0 * photons
    return SpectrumTrace(grid, _apply_noise(values, noise), units="W/Hz")
