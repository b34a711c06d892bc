"""Frequency-domain response of the driven, linearized two-mode system.

A strong pump at detuning Delta from the cavity turns the flux coupling into
a beam-splitter / amplifier interaction with multi-photon rate
g = sqrt(n_c) * g0.  This module evaluates the resulting susceptibilities,
reflection responses, backaction on the low-frequency mode, and the hybrid
normal modes.  Probe frequencies for the cavity-side response are offsets
from the pump, Omega = omega_probe - omega_pump; the low-frequency side is
probed directly at its own (absolute) frequency.

All functions are pure.  The responses take a grid (of frequencies, pump
offsets or couplings) and return arrays of its shape; a 0-d grid gives numpy
scalars.  chi_c, chi_c*(-Omega) and chi_eff are written once, in
:func:`_pumped_terms`; :func:`_pumped_reflection` returns them with the
reflection, so the pumped fit builds its Jacobian from the same terms.
:class:`BackgroundModel` is the instrumental background of a trace; its
phase factor, and the fit's, comes from :func:`_cis`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "BackgroundModel",
    "effective_lf_susceptibility",
    "s11_bare",
    "s11_pumped",
    "lf_s11_pumped",
    "backaction_exact",
    "backaction_sideband",
    "normal_modes",
    "cooperativity",
]


@dataclass(frozen=True)
class BackgroundModel:
    """Linear amplitude and phase background with a resonance rotation.

    Evaluates (a0 + a1*(w - w_ref)) * exp(i*(b0 + b1*(w - w_ref))); the
    rotation ``circle_rotation`` applies to the resonance term only and is
    kept here so a fit result carries the full instrumental model.  Slopes
    are per rad/s.
    """

    amplitude_offset: float = 1.0
    amplitude_slope: float = 0.0
    phase_offset: float = 0.0
    phase_slope: float = 0.0
    circle_rotation: float = 0.0
    reference_frequency: float = 0.0  # rad/s

    def evaluate(self, omega):
        w = np.asarray(omega, dtype=float) - self.reference_frequency
        return (self.amplitude_offset + self.amplitude_slope * w) \
            * _cis(self.phase_offset + self.phase_slope * w)


def _cis(x):
    """exp(i x) for real ``x``, an array of its shape: cos x and sin x are
    written into the real and imaginary views of one complex array, which
    skips the complex exponential's real factor and the product 1j * x."""
    out = np.empty(np.shape(x), complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def _cavity_terms(om, kappa, detuning):
    """chi_c(Omega) = 1/(kappa/2 - i(Delta + Omega)) and chi_c*(-Omega)."""
    return (1.0 / (0.5 * kappa - 1j * (detuning + om)),
            1.0 / (0.5 * kappa + 1j * (detuning - om)))


def _pumped_terms(om, kappa, lf_frequency, lf_linewidth, g, detuning):
    """Intermediates of the pumped response at pump offsets ``om``.

    Returns chi_c, chi_cm = chi_c*(-Omega), a = 2i*Omega0*g^2,
    p = Omega0^2 - Omega^2 - i*Omega*Gamma0 and chi_eff = 1/(p - a*(chi_c - chi_cm)).
    """
    chi_c, chi_cm = _cavity_terms(om, kappa, detuning)
    a = 2j * lf_frequency * g ** 2
    p = lf_frequency ** 2 - om ** 2 - 1j * om * lf_linewidth
    return chi_c, chi_cm, a, p, 1.0 / (p - a * (chi_c - chi_cm))


def _pumped_reflection(om, kappa_i, kappa_e, lf_frequency, lf_linewidth, g, detuning):
    """:func:`s11_pumped` at pump offsets ``om``, without its checks, and the
    :func:`_pumped_terms` tuple it was computed from."""
    terms = _pumped_terms(om, kappa_i + kappa_e, lf_frequency, lf_linewidth, g, detuning)
    chi_c, _, a, _, chi_eff = terms
    return np.conj(1.0 - kappa_e * chi_c * (1.0 + a * chi_c * chi_eff)), terms


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


def s11_bare(omega, omega0, kappa_i, kappa_e):
    """Reflection 1 - 2*kappa_e/(kappa_i + kappa_e + 2i(omega - omega0)).

    Same form for either resonator; pass the matching rates.
    """
    if kappa_i < 0 or kappa_e < 0 or kappa_i + kappa_e <= 0:
        raise DomainError("decay rates must be >= 0 with a positive total")
    om = np.asarray(omega, dtype=float)
    return 1.0 - 2.0 * kappa_e / (kappa_i + kappa_e + 2j * (om - omega0))


def s11_pumped(omega_probe, omega0, kappa_i, kappa_e, lf_frequency, lf_linewidth,
               g, detuning):
    """Cavity reflection with a pump at omega0 + detuning.

    S11 = 1 - kappa_e*chi_c*[1 + 2i*Omega0*g^2*chi_c*chi_eff], evaluated at
    the probe-pump offset implied by ``omega_probe``.  Reduces to
    :func:`s11_bare` at g = 0: the rotating-frame result is conjugated to
    match the +2i*Delta sign convention of the bare response.
    """
    if kappa_i < 0 or kappa_e < 0 or kappa_i + kappa_e <= 0:
        raise DomainError("decay rates must be >= 0 with a positive total")
    if lf_linewidth <= 0:
        raise DomainError("low-frequency linewidth must be positive")
    om = np.asarray(omega_probe, dtype=float) - (omega0 + detuning)
    return _pumped_reflection(om, kappa_i, kappa_e, lf_frequency, lf_linewidth,
                              g, detuning)[0]


def lf_s11_pumped(omega, lf_frequency, gamma_i, gamma_e, g, detuning, kappa):
    """Low-frequency reflection including pump-induced backaction.

    High-Q form: S11 = 1 - Gamma_e / (Gamma0/2 - i(Omega - Omega0) + i*Sigma)
    with the self-energy Sigma = -i g^2 [chi_c(Omega) - chi_c*(-Omega)].
    The dip sits at the shifted frequency with the backaction-broadened
    linewidth; g = 0 recovers the bare response (conjugated as in
    :func:`s11_pumped`).
    """
    if gamma_i < 0 or gamma_e < 0 or gamma_i + gamma_e <= 0:
        raise DomainError("decay rates must be >= 0 with a positive total")
    if kappa <= 0:
        raise DomainError("cavity linewidth must be positive")
    om = np.asarray(omega, dtype=float)
    chi_c, chi_cm = _cavity_terms(om, kappa, detuning)
    sigma = -1j * g ** 2 * (chi_c - chi_cm)
    return np.conj(1.0 - gamma_e / (0.5 * (gamma_i + gamma_e) - 1j * (om - lf_frequency)
                                    + 1j * sigma))


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


def backaction_sideband(offset, g, kappa_eff, sideband="red"):
    """Resolved-sideband approximation of the backaction.

        shift   = 4 g^2 d / (k^2 + 4 d^2)
        damping = +-4 g^2 k / (k^2 + 4 d^2)   (+ red, - blue)

    ``offset`` is the pump detuning from the chosen sideband and ``kappa_eff``
    the effective cavity linewidth under drive.  Returns ``(shift, damping)``
    in rad/s, each of the shape of ``offset``.
    """
    if kappa_eff <= 0:
        raise DomainError("effective cavity linewidth must be positive")
    if sideband not in ("red", "blue"):
        raise DomainError(f"sideband must be 'red' or 'blue', got {sideband!r}")
    d = np.asarray(offset, dtype=float)
    denom = kappa_eff ** 2 + 4.0 * d ** 2
    shift = 4.0 * g ** 2 * d / denom
    damping = 4.0 * g ** 2 * kappa_eff / denom
    if sideband == "blue":
        damping = -damping
    return shift, damping


def normal_modes(g, kappa, gamma0, lf_frequency):
    """Hybrid eigenmodes for an exact red-sideband pump.

    omega_pm = Omega0 - i(kappa+Gamma0)/4 +- sqrt(g^2 - ((kappa-Gamma0)/4)^2)

    The principal square root of the (possibly negative) discriminant is
    used: above the threshold g = (kappa-Gamma0)/4 the two modes split in
    frequency and share the linewidth (kappa+Gamma0)/2; below it the
    splitting is zero and the linewidths differ.  (The alternative
    strong-coupling convention, splitting exceeding the hybrid linewidth,
    corresponds to g > (kappa+Gamma0)/4 and is left to the caller.)

    Returns the complex ``(upper, lower)`` eigenfrequencies in rad/s, each of
    the shape of ``g``; a mode's linewidth is -2 times its imaginary part.
    """
    if kappa <= 0 or gamma0 <= 0:
        raise DomainError("rates must be positive")
    g = np.asarray(g, dtype=float)
    disc = np.emath.sqrt(g ** 2 - ((kappa - gamma0) / 4.0) ** 2)
    base = lf_frequency - 0.25j * (kappa + gamma0)
    return base + disc, base - disc


def cooperativity(g, kappa, gamma0) -> float:
    """C = 4 g^2 / (kappa * Gamma0)."""
    if kappa <= 0 or gamma0 <= 0:
        raise DomainError("rates must be positive")
    return 4.0 * g ** 2 / (kappa * gamma0)
