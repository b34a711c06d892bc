"""Physical constants used throughout the package (SI units).

The values are the CODATA 2022 recommended values, written out as literals so
that importing the package loads no physics-constants library.
"""

epsilon_0 = 8.8541878188e-12      # vacuum permittivity, F/m
hbar = 1.0545718176461565e-34     # reduced Planck constant, J s
k_B = 1.380649e-23                # Boltzmann constant, J/K (exact)
mu_0 = 1.25663706127e-06          # vacuum permeability, N/A^2

# Magnetic flux quantum h/2e in Wb (CODATA).  All external flux arguments are
# expressed in units of PHI_0; this constant is the single point of conversion.
PHI_0 = 2.067833848e-15

__all__ = ["PHI_0", "epsilon_0", "hbar", "k_B", "mu_0"]
