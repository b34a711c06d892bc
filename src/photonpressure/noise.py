"""Noise spectra for a blue-sideband pump, and detection-chain calibration.

With the pump on the upper sideband the thermal and vacuum fluctuations of
the low-frequency mode are amplified and scattered to the cavity resonance,
where they appear as a narrow peak on top of the detection-chain noise floor.
This module evaluates that power spectral density, converts between photon
flux, electrical and current/flux units, and inverts measured spectra to
mode occupations.

Conventions: PSDs are handled internally in photon units (occupation-like,
the spectrum divided by hbar*omega*gain); the anti-Stokes peak appears at
probe-pump offsets Omega near -Omega0 and is indexed by the offset
``delta = -(Omega + Omega0)`` from its center.  The amplified linewidth is
Gamma0' = Gamma0 * (1 - C), so cooperativities C >= 1 are an error state
(self-oscillation), not extrapolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import hbar, k_B
from .errors import CalibrationError, DomainError, UnstableRegimeError
from .traces import SpectrumTrace

__all__ = [
    "DetectionChain",
    "ThermalState",
    "hemt_noise_power_dbm",
    "input_attenuation_estimate",
    "bose_occupation",
    "effective_added_photons",
    "psd_blue_pump",
    "psd_on_sideband",
    "current_psd",
    "flux_psd",
    "extract_current_psd",
    "thermal_photons_from_peak",
    "backaction_free",
    "photons_to_watts",
    "watts_to_photons",
    "current_to_flux_psd",
    "flux_to_current_psd",
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
    effective_added_photons: float | None = None

    def __post_init__(self):
        if not 0 < self.output_efficiency <= 1:
            raise DomainError("output efficiency must lie in (0, 1]")
        if self.total_gain <= 0 or self.measurement_bandwidth <= 0:
            raise DomainError("gain and bandwidth must be positive")
        derived = effective_added_photons(self.hemt_added_photons, self.output_efficiency)
        if self.effective_added_photons is None:
            object.__setattr__(self, "effective_added_photons", derived)
        elif abs(self.effective_added_photons - derived) > 1e-12 * max(derived, 1.0):
            raise DomainError("effective added photons inconsistent with n_add/eta")


@dataclass(frozen=True)
class ThermalState:
    """Occupations of the two modes and the pump-amplified population."""

    bath_temperature: float     # K
    cavity_occupation: float    # thermal photons in the cavity
    lf_occupation: float        # n_th of the low-frequency mode
    amplified_occupation: float  # n_LF under blue-sideband drive
    cooperativity: float

    def __post_init__(self):
        if min(self.cavity_occupation, self.lf_occupation, self.amplified_occupation) < 0:
            raise DomainError("occupations must be >= 0")
        if self.cooperativity < 1:
            lhs = self.amplified_occupation + 1.0
            rhs = (self.lf_occupation + 1.0) / (1.0 - self.cooperativity)
            if abs(lhs - rhs) > 1e-12 * rhs:
                raise DomainError("amplified occupation inconsistent with (n_th+1)/(1-C)")


def hemt_noise_power_dbm(noise_temperature: float, bandwidth: float) -> float:
    """Thermal noise power of the amplifier in dBm over ``bandwidth``.

    10*log10(k_B*T / 1 mW) + 10*log10(bandwidth / Hz).
    """
    if noise_temperature <= 0 or bandwidth <= 0:
        raise DomainError("noise temperature and bandwidth must be positive")
    return 10.0 * math.log10(k_B * noise_temperature / 1e-3) + 10.0 * math.log10(bandwidth)


def input_attenuation_estimate(snr_db: float, source_power_dbm: float,
                               rt_attenuators_db: float, hemt_to_sample_loss_db: float,
                               hemt_noise_dbm: float) -> float:
    """Input-line attenuation from a signal-to-noise calibration, in dB.

    The power reaching the amplifier is the noise floor plus the observed
    SNR; adding the loss between sample and amplifier gives the on-chip
    power, and referencing to the source power behind the room-temperature
    attenuators yields the line attenuation (a negative number).
    """
    power_at_hemt = hemt_noise_dbm + snr_db
    power_on_chip = power_at_hemt + hemt_to_sample_loss_db
    return power_on_chip - (source_power_dbm - rt_attenuators_db)


def bose_occupation(frequency, temperature: float):
    """Thermal occupation 1/(exp(hbar*omega/kT) - 1); zero at T = 0."""
    if temperature < 0:
        raise DomainError("temperature must be >= 0")
    om = np.asarray(frequency, dtype=float)
    if np.any(om <= 0):
        raise DomainError("frequency must be positive")
    if temperature == 0.0:
        out = np.zeros_like(om)
    else:
        out = 1.0 / np.expm1(hbar * om / (k_B * temperature))
    return out if out.ndim else float(out)


def effective_added_photons(n_add: float, efficiency: float) -> float:
    """Added noise referred through a lossy link: n/eta + (1-eta)/(2 eta)."""
    if not 0 < efficiency <= 1:
        raise DomainError("efficiency must lie in (0, 1]")
    if n_add < 0:
        raise DomainError("added photons must be >= 0")
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
    chi_lf = 1/(Gamma0/2 + i(Omega+Omega0)).
    """
    if kappa <= 0 or kappa_e < 0 or gamma0 <= 0:
        raise DomainError("rates must be positive")
    if n_lf < 0 or n_cavity < 0:
        raise DomainError("occupations must be >= 0")
    om = np.atleast_1d(np.asarray(offset, dtype=float))
    chi_c = 1.0 / (0.5 * kappa + 1j * (om + detuning))
    chi_lf = 1.0 / (0.5 * gamma0 + 1j * (om + lf_frequency))
    abs2_c = chi_c.real ** 2 + chi_c.imag ** 2
    abs2_lf = chi_lf.real ** 2 + chi_lf.imag ** 2
    loop = 1.0 - g ** 2 * chi_c * chi_lf
    num = kappa_e * g ** 2 * abs2_lf * abs2_c * gamma0 * (n_lf + 1.0) \
        + kappa_e * abs2_c * kappa * n_cavity
    out = 0.5 + n_add_eff + num / (loop.real ** 2 + loop.imag ** 2)
    return out if np.ndim(offset) else float(out[0])


def psd_on_sideband(offset_from_peak, kappa, kappa_e, cooperativity, gamma0,
                    gamma0_eff, n_lf, n_add_eff=0.0):
    """Lorentzian limit of the spectrum for a pump exactly on the sideband.

    S = 1/2 + n_add' + 4 (ke/k) C Gamma0^2 / (Gamma0'^2 + 4 delta^2) (n_LF+1),
    a peak of FWHM Gamma0' on the flat background.
    """
    if kappa <= 0 or kappa_e < 0 or gamma0 <= 0 or gamma0_eff <= 0:
        raise DomainError("rates must be positive")
    d = np.asarray(offset_from_peak, dtype=float)
    out = 0.5 + n_add_eff + (4.0 * kappa_e / kappa * cooperativity * gamma0 ** 2
                             / (gamma0_eff ** 2 + 4.0 * d ** 2) * (n_lf + 1.0))
    return out if d.ndim else float(out)


def current_psd(offset_from_peak, gamma0, gamma0_eff, i_zpf, n_lf):
    """Current fluctuation spectral density of the low-frequency mode, A^2/Hz.

    S_I = 8 Gamma0 / (Gamma0'^2 + 4 delta^2) * I_zpf^2 * (n_LF + 1).
    """
    if gamma0 <= 0 or gamma0_eff <= 0:
        raise DomainError("rates must be positive")
    d = np.asarray(offset_from_peak, dtype=float)
    out = 8.0 * gamma0 / (gamma0_eff ** 2 + 4.0 * d ** 2) * i_zpf ** 2 * (n_lf + 1.0)
    return out if d.ndim else float(out)


def flux_psd(offset_from_peak, gamma0, gamma0_eff, phi_zpf, n_lf):
    """Flux fluctuation spectral density threading the loop, Wb^2/Hz.

    Same Lorentzian as :func:`current_psd` scaled by phi_zpf^2 instead of
    I_zpf^2, i.e. S_Phi = (phi_zpf/I_zpf)^2 * S_I = M^2 * S_I.
    """
    return current_psd(offset_from_peak, gamma0, gamma0_eff, phi_zpf, n_lf)


def extract_current_psd(trace: SpectrumTrace, background: float, n_add_eff: float,
                        kappa: float, kappa_e: float, cooperativity: float,
                        gamma0: float, i_zpf: float) -> SpectrumTrace:
    """Convert a measured voltage PSD to the mode's current PSD.

    S_I = [S_V/S_b - 1] * [1/2 + n_add'] * 2 k/(C ke Gamma0) * I_zpf^2

    ``background`` is the fitted flat noise floor S_b in the same units as
    the trace values; the gain and photon-energy scale cancel in the ratio.
    """
    if background <= 0:
        raise CalibrationError("background PSD must be positive")
    if not 0 < cooperativity:
        raise CalibrationError("cooperativity must be positive")
    if not 0 < kappa_e <= kappa:
        raise CalibrationError("need 0 < kappa_e <= kappa")
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
        raise UnstableRegimeError(
            f"cooperativity {cooperativity} >= 1: occupation diverges on the "
            "amplifying sideband")
    if cooperativity < 0 or n_lf < 0:
        raise DomainError("cooperativity and occupation must be >= 0")
    return (1.0 - cooperativity) * n_lf - cooperativity


def photons_to_watts(values, frequency: float):
    """Convert a photon-units PSD to W/Hz at carrier ``frequency`` (rad/s)."""
    if frequency <= 0:
        raise DomainError("frequency must be positive")
    return np.asarray(values) * (hbar * frequency)


def watts_to_photons(values, frequency: float):
    """Inverse of :func:`photons_to_watts`."""
    if frequency <= 0:
        raise DomainError("frequency must be positive")
    return np.asarray(values) / (hbar * frequency)


def current_to_flux_psd(values, mutual_inductance: float):
    """S_Phi = M^2 * S_I."""
    return np.asarray(values) * mutual_inductance ** 2


def flux_to_current_psd(values, mutual_inductance: float):
    """S_I = S_Phi / M^2."""
    if mutual_inductance == 0:
        raise DomainError("mutual inductance must be nonzero")
    return np.asarray(values) / mutual_inductance ** 2
