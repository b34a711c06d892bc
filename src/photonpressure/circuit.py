"""Lumped-element circuit parameters from geometry.

Covers the electrical description of both resonators: parallel-plate and
interdigitated capacitances, LC resonance algebra, feedline coupling rates,
current zero-point fluctuations and the wire-to-loop mutual inductance.  All
quantities are SI; angular frequencies are rad/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import epsilon_0, hbar, mu_0
from .errors import DomainError

__all__ = [
    "LumpedResonatorSpec",
    "IdcSpec",
    "ResonatorParams",
    "elliptic_k",
    "parallel_plate_capacitance",
    "idc_capacitance",
    "lc_frequency",
    "infer_inductance",
    "external_linewidth",
    "zero_point_current",
    "mutual_inductance",
    "derive_resonator",
]


@dataclass(frozen=True)
class LumpedResonatorSpec:
    """Geometry and material description of a parallel-plate LC resonator.

    The total inductance is not part of the geometry: :func:`derive_resonator`
    infers it from the measured resonance frequency.
    """

    plate_area: float                 # m^2
    dielectric_thickness: float       # m
    relative_permittivity: float      # dimensionless, >= 1
    coupling_capacitance: float       # F
    feedline_impedance: float = 50.0  # ohm

    def __post_init__(self):
        if self.plate_area <= 0:
            raise DomainError("plate area must be positive")
        if self.dielectric_thickness <= 0:
            raise DomainError("dielectric thickness must be positive")
        if self.relative_permittivity < 1:
            raise DomainError("relative permittivity must be >= 1")
        if self.coupling_capacitance < 0:
            raise DomainError("coupling capacitance must be >= 0")
        if self.feedline_impedance <= 0:
            raise DomainError("feedline impedance must be positive")


@dataclass(frozen=True)
class IdcSpec:
    """One interdigitated capacitor: N fingers of length l, width a, gap b."""

    finger_count: int
    finger_length: float              # m
    finger_width: float               # m
    gap_width: float                  # m
    effective_permittivity: float     # (eps_substrate + 1)/2 for a thick substrate

    def __post_init__(self):
        if self.finger_count < 3:
            raise DomainError("interdigitated capacitor needs at least 3 fingers")
        if min(self.finger_length, self.finger_width, self.gap_width) <= 0:
            raise DomainError("finger dimensions must be positive")
        if self.effective_permittivity < 1:
            raise DomainError("effective permittivity must be >= 1")


@dataclass(frozen=True)
class ResonatorParams:
    """Electrical parameters of one LC mode coupled to a feedline."""

    resonance_frequency: float  # rad/s
    external_rate: float        # rad/s
    total_inductance: float     # H
    total_capacitance: float    # F, without the coupling capacitor


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


def parallel_plate_capacitance(spec: LumpedResonatorSpec) -> float:
    """C = eps0 * eps_r * A / t for a parallel-plate capacitor."""
    return epsilon_0 * spec.relative_permittivity * spec.plate_area / spec.dielectric_thickness


def idc_capacitance(spec: IdcSpec) -> float:
    """Capacitance of an interdigitated capacitor.

    Uses the conformal-mapping result for periodic coplanar fingers: interior
    fingers contribute (N-3) * C1/2 and the two outer fingers 2*C1*C2/(C1+C2),
    with C_i = 2 eps0 eps_eff l K(k_i)/K(k_i') and moduli

        k1 = sin(pi/2 * a/(a+b)),   k2 = 2 sqrt(a(a+b)) / (2a+b).

    Capacitors in parallel add; the caller multiplies by their number.
    """
    a, b, length = spec.finger_width, spec.gap_width, spec.finger_length
    k1 = math.sin(0.5 * math.pi * a / (a + b))
    k2 = 2.0 * math.sqrt(a * (a + b)) / (2.0 * a + b)

    def unit_cap(k: float) -> float:
        kp = math.sqrt(1.0 - k * k)
        return 2.0 * epsilon_0 * spec.effective_permittivity * length \
            * elliptic_k(k) / elliptic_k(kp)

    c1 = unit_cap(k1)
    c2 = unit_cap(k2)
    return (spec.finger_count - 3) * c1 / 2.0 + 2.0 * c1 * c2 / (c1 + c2)


def lc_frequency(inductance: float, capacitance: float) -> float:
    """Resonance frequency 1/sqrt(L*C) of a parallel LC circuit, rad/s."""
    if inductance <= 0 or capacitance <= 0:
        raise DomainError("inductance and capacitance must be positive")
    return 1.0 / math.sqrt(inductance * capacitance)


def infer_inductance(frequency: float, capacitance: float) -> float:
    """Invert ``lc_frequency``: the inductance that resonates at ``frequency``."""
    if frequency <= 0 or capacitance <= 0:
        raise DomainError("frequency and capacitance must be positive")
    return 1.0 / (frequency * frequency * capacitance)


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


def derive_resonator(spec: LumpedResonatorSpec, measured_frequency: float) -> ResonatorParams:
    """Full derivation chain for a parallel-plate resonator.

    Computes the plate capacitance from geometry, infers the total inductance
    from the measured resonance frequency, and evaluates the external
    linewidth from the coupling capacitor.
    """
    c = parallel_plate_capacitance(spec)
    inductance = infer_inductance(measured_frequency, c + spec.coupling_capacitance)
    rate = external_linewidth(spec.feedline_impedance, spec.coupling_capacitance,
                              inductance, c)
    return ResonatorParams(
        resonance_frequency=lc_frequency(inductance, c + spec.coupling_capacitance),
        external_rate=rate,
        total_inductance=inductance,
        total_capacitance=c,
    )
