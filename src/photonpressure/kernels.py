"""Hot numeric kernels: the reflection responses and the pump-frame spectrum.

Each kernel evaluates one closed-form expression elementwise on a float64
grid of angular frequencies, with scalar rates and frequencies in rad/s, and
returns a new array.  They do no validation: :mod:`dynamics` and :mod:`noise`
check the physical domain, coerce the grid to a flat float64 array and call
them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["s11_bare", "s11_pumped", "lf_s11_pumped", "psd_blue"]


def s11_bare(omega, omega0, kappa_i, kappa_e):
    return 1.0 - 2.0 * kappa_e / (kappa_i + kappa_e + 2j * (omega - omega0))


def s11_pumped(omega_probe, omega0, kappa_i, kappa_e, lf_freq, gamma0, g, detuning):
    # evaluated in the rotating frame of the intracavity field, then
    # conjugated so that g = 0 reproduces s11_bare (the +2i*Delta sign
    # convention of the bare response) exactly
    kappa = kappa_i + kappa_e
    om = omega_probe - (omega0 + detuning)          # offset from the pump
    chi_c = 1.0 / (0.5 * kappa - 1j * (detuning + om))
    chi_cm = 1.0 / (0.5 * kappa + 1j * (detuning - om))   # conj(chi_c(-om))
    chi_lf = 1.0 / (lf_freq ** 2 - om ** 2 - 1j * om * gamma0
                    - 2j * lf_freq * g ** 2 * (chi_c - chi_cm))
    s = 1.0 - kappa_e * chi_c * (1.0 + 2j * lf_freq * g ** 2 * chi_c * chi_lf)
    return np.conj(s)


def lf_s11_pumped(omega, lf_freq, gamma_i, gamma_e, g, detuning, kappa):
    # same convention choice as s11_pumped: conjugate the rotating-frame
    # result so g = 0 is exactly the bare reflection
    gamma0 = gamma_i + gamma_e
    chi_c = 1.0 / (0.5 * kappa - 1j * (detuning + omega))
    chi_cm = 1.0 / (0.5 * kappa + 1j * (detuning - omega))
    sigma = -1j * g ** 2 * (chi_c - chi_cm)         # shift - i*damping/2
    s = 1.0 - gamma_e / (0.5 * gamma0 - 1j * (omega - lf_freq) + 1j * sigma)
    return np.conj(s)


def psd_blue(omega, kappa, kappa_e, gamma0, lf_freq, g, detuning,
             n_lf, n_cav, n_add_eff):
    chi_c = 1.0 / (0.5 * kappa + 1j * (omega + detuning))
    chi_lf = 1.0 / (0.5 * gamma0 + 1j * (omega + lf_freq))
    abs2_c = chi_c.real ** 2 + chi_c.imag ** 2
    abs2_lf = chi_lf.real ** 2 + chi_lf.imag ** 2
    loop = 1.0 - g ** 2 * chi_c * chi_lf
    num = kappa_e * g ** 2 * abs2_lf * abs2_c * gamma0 * (n_lf + 1.0) \
        + kappa_e * abs2_c * kappa * n_cav
    return 0.5 + n_add_eff + num / (loop.real ** 2 + loop.imag ** 2)
