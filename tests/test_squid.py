import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from photonpressure.errors import DomainError
from photonpressure.squid import (critical_current, flux_responsivity, junction_inductance,
                                  single_photon_coupling, squid_frequency)

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def device():
    # fitted arch of the measured cavity: omega0(0), dilution, gamma_l
    return (TWO_PI * 5.844e9, 0.982, 0.59)


class TestJunction:
    def test_derived_junction_parameters(self):
        l_j = junction_inductance(0.982, 742e-12)
        assert l_j == pytest.approx(26.712e-12, rel=1e-6)
        assert critical_current(l_j) == pytest.approx(12.32e-6, rel=1e-3)
        assert l_j == pytest.approx(27e-12, rel=0.03)
        assert critical_current(l_j) == pytest.approx(12e-6, rel=0.03)

    def test_invalid_dilution(self):
        with pytest.raises(DomainError, match="dilution must lie in"):
            junction_inductance(1.2, 742e-12)
        with pytest.raises(DomainError, match="dilution must lie in"):
            squid_frequency(0.1, TWO_PI * 5.844e9, 1.2, 0.59)


class TestSquidFrequency:
    def test_sweet_spot_identity(self, device):
        assert squid_frequency(0.0, *device) == device[0]

    def test_direct_evaluation_on_arch(self, device):
        # frozen direct evaluations of the fitted arch model
        assert squid_frequency(0.14, *device) == pytest.approx(
            TWO_PI * 5.84217891391493e9, rel=1e-12)
        assert squid_frequency(0.5, *device) == pytest.approx(
            TWO_PI * 5.809308717911073e9, rel=1e-12)

    def test_beyond_arch_raises(self, device):
        edge = 0.5 / device[2]
        with pytest.raises(DomainError, match="beyond the arch"):
            squid_frequency(edge + 1e-6, *device)
        with pytest.raises(DomainError, match="beyond the arch"):
            squid_frequency(np.array([0.0, edge + 0.01]), *device)

    @given(phi=st.floats(min_value=-0.8, max_value=0.8))
    def test_even_in_flux(self, device, phi):
        assert squid_frequency(phi, *device) == pytest.approx(
            squid_frequency(-phi, *device), rel=1e-14)

    @given(phi=st.floats(min_value=-0.5, max_value=0.5))
    def test_model_periodicity(self, device, phi):
        # the phenomenological arch repeats with period 2/gamma_l in PHI_0
        period = 2.0 / device[2]
        assert squid_frequency(phi + period, *device) == pytest.approx(
            squid_frequency(phi, *device), rel=1e-12)


class TestResponsivity:
    def test_sweet_spot_is_stationary(self, device):
        assert flux_responsivity(0.0, *device) == 0.0

    def test_frozen_value(self, device):
        assert flux_responsivity(0.14, *device) == pytest.approx(
            -TWO_PI * 26.752976741617235e6, rel=1e-12)

    @given(phi=st.floats(min_value=-0.8, max_value=0.8))
    def test_odd_in_flux(self, device, phi):
        assert flux_responsivity(phi, *device) == pytest.approx(
            -flux_responsivity(-phi, *device), rel=1e-13, abs=1e-3)

    def test_matches_finite_difference(self, device):
        rng = np.random.default_rng(7)
        phi = rng.uniform(-0.8, 0.8, size=100)
        step = 1e-6
        fd = (squid_frequency(phi + step, *device)
              - squid_frequency(phi - step, *device)) / (2 * step)
        analytic = flux_responsivity(phi, *device)
        assert np.max(np.abs(fd - analytic) / np.abs(analytic).clip(min=1e3)) < 1e-6

    def test_magnitude_at_usable_edge(self, device):
        # the largest usable bias of the measured device
        resp = abs(flux_responsivity(0.546, *device))
        assert resp == pytest.approx(TWO_PI * 300e6, rel=0.05)


class TestSinglePhotonCoupling:
    PHI_ZPF = 145e-6

    def test_sweet_spot_zero(self, device):
        assert single_photon_coupling(0.0, *device, self.PHI_ZPF) == 0.0

    def test_peak_value(self, device):
        g0 = single_photon_coupling(0.546, *device, self.PHI_ZPF)
        assert g0 == pytest.approx(TWO_PI * 40e3, rel=0.05)

    def test_ratio_to_linewidth(self, device):
        # vacuum coupling reaches about a tenth of the cavity linewidth at
        # the largest bias used for the coupling sweep
        g0 = single_photon_coupling(0.50, *device, self.PHI_ZPF)
        assert g0 / (TWO_PI * 250e3) == pytest.approx(0.1, rel=0.25)

    def test_continuous_inside_arch(self, device):
        coarse = np.linspace(-0.8, 0.8, 4001)
        fine = np.linspace(-0.8, 0.8, 8001)
        g_coarse = single_photon_coupling(coarse, *device, self.PHI_ZPF)
        g_fine = single_photon_coupling(fine, *device, self.PHI_ZPF)
        assert np.all(np.isfinite(g_coarse)) and np.all(np.isfinite(g_fine))
        # halving the grid step halves the largest neighbor jump, as it must
        # for a continuously differentiable curve
        ratio = np.abs(np.diff(g_coarse)).max() / np.abs(np.diff(g_fine)).max()
        assert ratio == pytest.approx(2.0, rel=0.1)
