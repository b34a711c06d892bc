"""Lumped-element circuit parameters from geometry.

Both resonators: parallel-plate and interdigitated capacitances, the
inductance from a measured resonance, feedline coupling rates, current
zero-point fluctuations and the wire-to-loop mutual inductance.  Each function
takes plain numbers and checks the ones it uses; ``cli.cmd_params`` chains
them the same way for both resonators.  All quantities are SI; angular
frequencies are rad/s.
"""

from __future__ import annotations

import math

from .constants import epsilon_0, hbar, mu_0
from .errors import DomainError

__all__ = [
    "elliptic_k",
    "parallel_plate_capacitance",
    "idc_capacitance",
    "infer_inductance",
    "external_linewidth",
    "zero_point_current",
    "mutual_inductance",
]


def elliptic_k(k: float) -> float:
    """Complete elliptic integral of the first kind K(k), modulus convention.

    Evaluated with the arithmetic-geometric mean, converging quadratically;
    the iteration is stopped at 1e-15 relative, well below the 1e-12 target.
    """
    if not 0 <= k < 1:
        raise DomainError(f"elliptic modulus must satisfy 0 <= k < 1, got {k}")
    a, b = 1.0, math.sqrt(1.0 - k * k)
    while abs(a - b) > 1e-15 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def parallel_plate_capacitance(plate_area: float, dielectric_thickness: float,
                               relative_permittivity: float) -> float:
    """C = eps0 * eps_r * A / t for a parallel-plate capacitor."""
    if plate_area <= 0:
        raise DomainError("plate area must be positive")
    if dielectric_thickness <= 0:
        raise DomainError("dielectric thickness must be positive")
    if relative_permittivity < 1:
        raise DomainError("relative permittivity must be >= 1")
    return epsilon_0 * relative_permittivity * plate_area / dielectric_thickness


def idc_capacitance(finger_count: int, finger_length: float, finger_width: float,
                    gap_width: float, effective_permittivity: float) -> float:
    """Capacitance of one interdigitated capacitor: N fingers of length l,
    width a and gap b; eps_eff is (eps_substrate + 1)/2 for a thick substrate.

    Uses the conformal-mapping result for periodic coplanar fingers: interior
    fingers contribute (N-3) * C1/2 and the two outer fingers 2*C1*C2/(C1+C2),
    with C_i = 2 eps0 eps_eff l K(k_i)/K(k_i') and moduli

        k1 = sin(pi/2 * a/(a+b)),   k2 = 2 sqrt(a(a+b)) / (2a+b).

    Capacitors in parallel add; the caller multiplies by their number.
    """
    if finger_count < 3:
        raise DomainError("interdigitated capacitor needs at least 3 fingers")
    if min(finger_length, finger_width, gap_width) <= 0:
        raise DomainError("finger dimensions must be positive")
    if effective_permittivity < 1:
        raise DomainError("effective permittivity must be >= 1")
    a, b, length = finger_width, gap_width, finger_length
    k1 = math.sin(0.5 * math.pi * a / (a + b))
    k2 = 2.0 * math.sqrt(a * (a + b)) / (2.0 * a + b)

    def unit_cap(k: float) -> float:
        kp = math.sqrt(1.0 - k * k)
        return 2.0 * epsilon_0 * effective_permittivity * length \
            * elliptic_k(k) / elliptic_k(kp)

    c1 = unit_cap(k1)
    c2 = unit_cap(k2)
    return (finger_count - 3) * c1 / 2.0 + 2.0 * c1 * c2 / (c1 + c2)


def infer_inductance(frequency: float, capacitance: float, coupling_capacitance: float) -> float:
    """Inductance 1/(omega^2 (C + Cc)) that resonates at ``frequency`` with ``capacitance``
    and, in parallel, the ``coupling_capacitance`` to the feedline."""
    if frequency <= 0 or capacitance <= 0:
        raise DomainError("frequency and capacitance must be positive")
    if coupling_capacitance < 0:
        raise DomainError("coupling capacitance must be >= 0")
    return 1.0 / (frequency * frequency * (capacitance + coupling_capacitance))


def external_linewidth(feedline_impedance: float, coupling_capacitance: float,
                       inductance: float, capacitance: float) -> float:
    """Feedline-induced decay rate Z0*Cc^2 / (L*(C+Cc)^2) in rad/s."""
    if feedline_impedance <= 0 or inductance <= 0 or capacitance <= 0:
        raise DomainError("impedance, inductance and capacitance must be positive")
    if coupling_capacitance < 0:
        raise DomainError("coupling capacitance must be >= 0")
    c_tot = capacitance + coupling_capacitance
    return feedline_impedance * coupling_capacitance ** 2 / (inductance * c_tot * c_tot)


def zero_point_current(inductance: float, frequency: float) -> float:
    """Ground-state current fluctuation sqrt(hbar*omega/(2L)) of an LC mode."""
    if inductance <= 0 or frequency <= 0:
        raise DomainError("inductance and frequency must be positive")
    return math.sqrt(hbar * frequency / (2.0 * inductance))


def mutual_inductance(loop_side: float, near_distance: float, far_distance: float) -> float:
    """Mutual inductance of a wire hugging three sides of a square loop.

    Line-current model: M = 3 * (mu0/2pi) * D * ln(d2/d1), distances taken
    between wire centers.
    """
    if loop_side <= 0:
        raise DomainError("loop side must be positive")
    if not far_distance > near_distance > 0:
        raise DomainError("need far_distance > near_distance > 0")
    return 3.0 * mu_0 / (2.0 * math.pi) * loop_side * math.log(far_distance / near_distance)

