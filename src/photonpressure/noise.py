"""Noise spectra for a blue-sideband pump, and detection-chain calibration.

With the pump on the upper sideband the thermal and vacuum fluctuations of
the low-frequency mode are amplified and scattered to the cavity resonance,
where they appear as a narrow peak on top of the detection-chain noise floor.
This module evaluates that power spectral density and inverts measured
spectra to mode occupations.

Conventions: PSDs are handled internally in photon units (occupation-like,
the spectrum divided by hbar*omega*gain); the anti-Stokes peak appears at
probe-pump offsets Omega near -Omega0 and is indexed by the offset
``delta = -(Omega + Omega0)`` from its center.  The amplified linewidth is
Gamma0' = Gamma0 * (1 - C), so cooperativities C >= 1 are an error state
(self-oscillation), not extrapolated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .traces import SpectrumTrace

__all__ = [
    "DetectionChain",
    "psd_blue_pump",
    "extract_current_psd",
    "thermal_photons_from_peak",
    "backaction_free",
]


@dataclass(frozen=True)
class DetectionChain:
    """Output line model: amplifier noise, pre-amplifier losses and gain."""

    hemt_noise_temperature: float       # K
    hemt_added_photons: float           # n_add referred to the amplifier input
    output_efficiency: float            # eta in (0, 1]
    total_gain: float                   # power gain of the full output line
    measurement_bandwidth: float        # Hz
    input_attenuation_db: float = 0.0   # input-line attenuation, dB (negative)

    def __post_init__(self):
        if not 0 < self.output_efficiency <= 1:
            raise DomainError("output efficiency must lie in (0, 1]")
        if self.hemt_added_photons < 0:
            raise DomainError("added photons must be >= 0")
        if self.total_gain <= 0 or self.measurement_bandwidth <= 0:
            raise DomainError("gain and bandwidth must be positive")

    @property
    def effective_added_photons(self) -> float:
        """Added photons referred to the cavity output through the lossy link:
        n/eta + (1-eta)/(2 eta)."""
        n_add, efficiency = self.hemt_added_photons, self.output_efficiency
        return n_add / efficiency + (1.0 - efficiency) / (2.0 * efficiency)


def psd_blue_pump(offset, *, kappa, kappa_e, gamma0, lf_frequency, g, detuning,
                  n_lf, n_cavity=0.0, n_add_eff=0.0):
    """Output power spectral density in photon units under a sideband pump.

    ``offset`` is the probe-pump offset Omega (the anti-Stokes peak sits at
    Omega = -Omega0 for a pump detuned by ``detuning`` = +Omega0 + delta_b):

        S = 1/2 + n_add' +
            [ke*g^2*|chi_lf|^2*|chi_c|^2*Gamma0*(n_LF+1) + ke*|chi_c|^2*k*n_c]
            / |1 - g^2*chi_c*chi_lf|^2

    with chi_c = 1/(k/2 + i(Omega+Delta)) and
    chi_lf = 1/(Gamma0/2 + i(Omega+Omega0)); an array of the shape of
    ``offset``.
    """
    if kappa <= 0 or kappa_e < 0 or gamma0 <= 0:
        raise DomainError("rates must be positive")
    if n_lf < 0 or n_cavity < 0:
        raise DomainError("occupations must be >= 0")
    om = np.asarray(offset, dtype=float)
    chi_c = 1.0 / (0.5 * kappa + 1j * (om + detuning))
    chi_lf = 1.0 / (0.5 * gamma0 + 1j * (om + lf_frequency))
    abs2_c = chi_c.real ** 2 + chi_c.imag ** 2
    abs2_lf = chi_lf.real ** 2 + chi_lf.imag ** 2
    loop = 1.0 - g ** 2 * chi_c * chi_lf
    num = kappa_e * g ** 2 * abs2_lf * abs2_c * gamma0 * (n_lf + 1.0) \
        + kappa_e * abs2_c * kappa * n_cavity
    return 0.5 + n_add_eff + num / (loop.real ** 2 + loop.imag ** 2)


def extract_current_psd(trace: SpectrumTrace, background: float, n_add_eff: float,
                        kappa: float, kappa_e: float, cooperativity: float,
                        gamma0: float, i_zpf: float) -> SpectrumTrace:
    """Convert a measured voltage PSD to the mode's current PSD.

    S_I = [S_V/S_b - 1] * [1/2 + n_add'] * 2 k/(C ke Gamma0) * I_zpf^2

    ``background`` is the fitted flat noise floor S_b in the same units as
    the trace values; the gain and photon-energy scale cancel in the ratio.
    """
    if background <= 0:
        raise DomainError("background PSD must be positive")
    if not 0 < cooperativity:
        raise DomainError("cooperativity must be positive")
    if not 0 < kappa_e <= kappa:
        raise DomainError("need 0 < kappa_e <= kappa")
    values = (trace.values / background - 1.0) * (0.5 + n_add_eff) \
        * 2.0 * kappa / (cooperativity * kappa_e * gamma0) * i_zpf ** 2
    return SpectrumTrace(trace.frequency_hz, values, units="A^2/Hz")


def thermal_photons_from_peak(peak_current_psd: float, gamma0: float,
                              gamma0_eff: float, i_zpf: float) -> float:
    """Amplified occupation from the on-resonance current PSD.

    n_LF = S_I0 * Gamma0'^2 / (8 Gamma0 I_zpf^2) - 1.
    """
    if min(peak_current_psd, gamma0, gamma0_eff, i_zpf) <= 0:
        raise DomainError("inputs must be positive")
    return peak_current_psd * gamma0_eff ** 2 / (8.0 * gamma0 * i_zpf ** 2) - 1.0


def backaction_free(n_lf: float, cooperativity: float) -> float:
    """Undriven thermal occupation n_th = (1 - C) n_LF - C.

    Inverts the parametric amplification of the mode population; only
    meaningful below the self-oscillation threshold C = 1.
    """
    if cooperativity >= 1:
        raise DomainError(f"cooperativity {cooperativity} >= 1: occupation diverges on the "
                          "amplifying sideband")
    if cooperativity < 0 or n_lf < 0:
        raise DomainError("cooperativity and occupation must be >= 0")
    return (1.0 - cooperativity) * n_lf - cooperativity
