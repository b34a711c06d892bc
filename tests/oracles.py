"""Closed forms that the tests check program code against.

No command evaluates these; each is a second formula for a quantity the
program computes another way, or a textbook value a test needs as an input:

- :func:`effective_lf_susceptibility`: the pumped low-frequency
  susceptibility, from the program's own ``dynamics._pumped_terms``;
- :func:`backaction_exact`: the self-energy backaction at any detuning,
  against which ``dynamics.backaction_sideband`` is checked;
- :func:`psd_on_sideband` and :func:`current_psd`: the Lorentzian limits of
  ``noise.psd_blue_pump``, in photon and in current units;
- :func:`bose_occupation` and :func:`hemt_noise_power_dbm`: the thermal
  occupation and the amplifier's noise power;
- :func:`squid_frequency`: the flux arch, from the program's own
  ``squid._arch_at``.

Each checks its inputs and raises :class:`DomainError`, as the program's
functions do.
"""

import math

import numpy as np

from photonpressure.constants import hbar, k_B
from photonpressure.dynamics import _pumped_terms
from photonpressure.errors import DomainError
from photonpressure.squid import _arch_at


def effective_lf_susceptibility(offset, lf_frequency, lf_linewidth, g, detuning, kappa):
    """Low-frequency susceptibility including the pump-mediated self-energy.

    chi_eff = 1 / (Omega0^2 - Omega^2 - i*Omega*Gamma0
                   - 2i*Omega0*g^2*[chi_c(Omega) - chi_c*(-Omega)])
    """
    if lf_linewidth <= 0 or kappa <= 0:
        raise DomainError("rates must be positive")
    om = np.asarray(offset)
    om = om.astype(complex if np.iscomplexobj(om) else float)
    return _pumped_terms(om, kappa, lf_frequency, lf_linewidth, g, detuning)[-1]


def backaction_exact(detuning, g, kappa, lf_frequency):
    """Pump-induced frequency shift and damping of the low-frequency mode.

    Evaluated from the self-energy at the mode frequency:

        shift   = g^2 [ (D+W)/(k^2/4+(D+W)^2) + (D-W)/(k^2/4+(D-W)^2) ]
        damping = g^2 k [ 1/(k^2/4+(D+W)^2) - 1/(k^2/4+(D-W)^2) ]

    with D the pump detuning, W the mode frequency and k the cavity
    linewidth.  Valid for any detuning.  Returns ``(shift, damping)`` in
    rad/s, each of the shape of ``detuning``.
    """
    if kappa <= 0:
        raise DomainError("cavity linewidth must be positive")
    d = np.asarray(detuning, dtype=float)
    plus = kappa ** 2 / 4.0 + (d + lf_frequency) ** 2
    minus = kappa ** 2 / 4.0 + (d - lf_frequency) ** 2
    shift = g ** 2 * ((d + lf_frequency) / plus + (d - lf_frequency) / minus)
    damping = g ** 2 * kappa * (1.0 / plus - 1.0 / minus)
    return shift, damping


def psd_on_sideband(offset_from_peak, kappa, kappa_e, cooperativity, gamma0,
                    gamma0_eff, n_lf, n_add_eff=0.0):
    """Lorentzian limit of the spectrum for a pump exactly on the sideband.

    S = 1/2 + n_add' + 4 (ke/k) C Gamma0^2 / (Gamma0'^2 + 4 delta^2) (n_LF+1),
    a peak of FWHM Gamma0' on the flat background; an array of the shape of
    ``offset_from_peak``.
    """
    if kappa <= 0 or kappa_e < 0 or gamma0 <= 0 or gamma0_eff <= 0:
        raise DomainError("rates must be positive")
    d = np.asarray(offset_from_peak, dtype=float)
    return 0.5 + n_add_eff + (4.0 * kappa_e / kappa * cooperativity * gamma0 ** 2
                              / (gamma0_eff ** 2 + 4.0 * d ** 2) * (n_lf + 1.0))


def current_psd(offset_from_peak, gamma0, gamma0_eff, i_zpf, n_lf):
    """Current fluctuation spectral density of the low-frequency mode, A^2/Hz.

    S_I = 8 Gamma0 / (Gamma0'^2 + 4 delta^2) * I_zpf^2 * (n_LF + 1), an array
    of the shape of ``offset_from_peak``.
    """
    if gamma0 <= 0 or gamma0_eff <= 0:
        raise DomainError("rates must be positive")
    d = np.asarray(offset_from_peak, dtype=float)
    return 8.0 * gamma0 / (gamma0_eff ** 2 + 4.0 * d ** 2) * i_zpf ** 2 * (n_lf + 1.0)


def bose_occupation(frequency, temperature: float):
    """Thermal occupation 1/(exp(hbar*omega/kT) - 1), zero at T = 0: an array
    of the shape of ``frequency``."""
    if temperature < 0:
        raise DomainError("temperature must be >= 0")
    om = np.asarray(frequency, dtype=float)
    if np.any(om <= 0):
        raise DomainError("frequency must be positive")
    if temperature == 0.0:
        return np.zeros_like(om)
    return 1.0 / np.expm1(hbar * om / (k_B * temperature))


def hemt_noise_power_dbm(noise_temperature: float, bandwidth: float) -> float:
    """Thermal noise power of the amplifier in dBm over ``bandwidth``.

    10*log10(k_B*T / 1 mW) + 10*log10(bandwidth / Hz).
    """
    if noise_temperature <= 0 or bandwidth <= 0:
        raise DomainError("noise temperature and bandwidth must be positive")
    return 10.0 * math.log10(k_B * noise_temperature / 1e-3) + 10.0 * math.log10(bandwidth)


def squid_frequency(flux_bias, omega0, dilution, gamma_l):
    """Cavity resonance frequency (rad/s) at ``flux_bias`` in PHI_0 units, of the
    bias's shape as numpy returns it (a numpy float for a scalar); the bias must
    stay inside the arch, cos(pi * gamma_l * phi) > 0."""
    return _arch_at(flux_bias, omega0, dilution, gamma_l)[0]
