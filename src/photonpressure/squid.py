"""Flux-tunable cavity model.

The cavity inductance contains a SQUID whose Josephson inductance grows with
the flux threading the loop.  A phenomenological arch-widening exponent
``gamma_l`` absorbs loop inductance and non-sinusoidal current-phase effects,
so the resonance frequency over one arch reads

    omega0(phi) = omega0(0) / sqrt(dilution + (1 - dilution)/cos(pi*gamma_l*phi))

with the bias ``phi`` in flux-quantum units and the dilution
Lambda = (L_total - L_J0/2) / L_total.  Each function takes the arch as the
three numbers (omega0(0), dilution, gamma_l) and checks the ones it uses;
``_arch`` is its one evaluation, also used by the flux-arch fit of :mod:`fitting`.
The junction values L_J0 and I_c are two functions.  Flux is in PHI_0, all else SI.
"""

from __future__ import annotations

import numpy as np

from .constants import PHI_0
from .errors import DomainError

__all__ = [
    "screening_parameter",
    "junction_inductance",
    "critical_current",
    "squid_frequency",
    "flux_responsivity",
    "single_photon_coupling",
]


def screening_parameter(loop_inductance: float, critical_current: float) -> float:
    """SQUID screening beta_L = 2 L_loop I_c / PHI_0 (dimensionless)."""
    return 2.0 * loop_inductance * critical_current / PHI_0


def junction_inductance(dilution: float, total_inductance: float) -> float:
    """Single-junction inductance L_J0 = 2 (1 - Lambda) L_total, in H."""
    if total_inductance <= 0:
        raise DomainError("total inductance must be positive")
    if not 0 < dilution < 1:
        raise DomainError("dilution must lie in (0, 1)")
    return 2.0 * (1.0 - dilution) * total_inductance


def critical_current(junction_inductance: float) -> float:
    """Single-junction critical current I_c = PHI_0 / (2 pi L_J0), in A."""
    return PHI_0 / (2.0 * np.pi * junction_inductance)


def _arch(u, c, omega0, dilution):
    """The arch omega0 / sqrt|dilution + (1 - dilution)/c| at angles ``u``, with c = cos(u)
    as the caller checked or clamped it, and a thunk for its d/d(omega0, dilution, u)."""
    s = dilution + (1.0 - dilution) / c
    root = np.sqrt(np.abs(s))

    def derivatives():
        ds = -0.5 * omega0 / (root * s)
        return 1.0 / root, ds * (1.0 - 1.0 / c), ds * (1.0 - dilution) * np.sin(u) / c ** 2

    return omega0 / root, derivatives


def _arch_at(flux_bias, omega0, dilution, gamma_l):
    """:func:`_arch` at bias points in PHI_0 units, which must lie inside the arch."""
    if not 0 < dilution < 1:
        raise DomainError("dilution must lie in (0, 1)")
    if gamma_l <= 0:
        raise DomainError("arch widening must be positive")
    if omega0 <= 0:
        raise DomainError("sweet-spot frequency must be positive")
    u = np.pi * gamma_l * np.asarray(flux_bias, dtype=float)
    c = np.cos(u)
    if np.any(c <= 0.0):
        raise DomainError(f"flux bias beyond the arch (|phi| >= {0.5 / gamma_l:.4f} "
                          "PHI_0): Josephson inductance diverges")
    return _arch(u, c, omega0, dilution)


def squid_frequency(flux_bias, omega0, dilution, gamma_l):
    """Cavity resonance frequency (rad/s) at ``flux_bias`` in PHI_0 units, of the
    bias's shape as numpy returns it (a numpy float for a scalar); the bias must
    stay inside the arch, cos(pi * gamma_l * phi) > 0."""
    return _arch_at(flux_bias, omega0, dilution, gamma_l)[0]


def flux_responsivity(flux_bias, omega0, dilution, gamma_l):
    """Signed derivative of the cavity frequency with bias, rad/s per PHI_0.

    Analytic derivative of the arch model; negative for positive bias.  The
    magnitude is what enters the coupling rate.
    """
    _, derivatives = _arch_at(flux_bias, omega0, dilution, gamma_l)
    return derivatives()[2] * np.pi * gamma_l


def single_photon_coupling(flux_bias, omega0, dilution, gamma_l, zero_point_flux_phi0: float):
    """Vacuum coupling rate g0 = |d omega0/d phi| * phi_zpf, rad/s.

    ``zero_point_flux_phi0`` is the zero-point flux threading the loop in
    PHI_0 units.  Zero at the sweet spot by symmetry.
    """
    if zero_point_flux_phi0 < 0:
        raise DomainError("zero-point flux must be >= 0")
    return abs(flux_responsivity(flux_bias, omega0, dilution, gamma_l)) * zero_point_flux_phi0
