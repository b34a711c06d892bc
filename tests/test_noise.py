import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from photonpressure.constants import hbar, k_B
from photonpressure.errors import DomainError
from photonpressure.noise import (DetectionChain, backaction_free, extract_current_psd,
                                  psd_blue_pump, thermal_photons_from_peak)
from photonpressure.traces import SpectrumTrace

from oracles import bose_occupation, current_psd, hemt_noise_power_dbm, psd_on_sideband

TWO_PI = 2 * math.pi


class TestHemtNoise:
    def test_quoted_floor(self):
        assert hemt_noise_power_dbm(5.5, 200.0) == pytest.approx(-168.2, abs=0.05)

    def test_unit_bandwidth(self):
        assert hemt_noise_power_dbm(5.5, 1.0) == pytest.approx(
            hemt_noise_power_dbm(5.5, 200.0) - 10 * math.log10(200), abs=1e-9)

    @given(df=st.floats(min_value=1.0, max_value=1e6))
    def test_doubling_bandwidth_adds_3db(self, df):
        assert hemt_noise_power_dbm(5.5, 2 * df) - hemt_noise_power_dbm(5.5, df) \
            == pytest.approx(10 * math.log10(2), abs=1e-9)


class TestBoseOccupation:
    def test_zero_temperature(self):
        assert bose_occupation(TWO_PI * 391e6, 0.0) == 0.0

    def test_high_temperature_limit(self):
        om = TWO_PI * 391e6
        t = 50 * hbar * om / k_B
        classical = k_B * t / (hbar * om)
        assert bose_occupation(om, t) == pytest.approx(classical, rel=0.01)

    def test_device_base_temperature(self):
        # direct evaluation at 391 MHz and 15 mK gives 0.401 (the quoted
        # occupancy 0.44 is not reproduced by the formula; see the ledger)
        assert bose_occupation(TWO_PI * 391e6, 15e-3) == pytest.approx(
            0.4009873173604937, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            bose_occupation(-1.0, 0.1)
        with pytest.raises(DomainError):
            bose_occupation(TWO_PI * 391e6, -0.1)


def added_photons(n_add, efficiency):
    """``DetectionChain.effective_added_photons`` for one amplifier and link."""
    return DetectionChain(5.5, n_add, efficiency, 1e7, 200.0).effective_added_photons


class TestAddedPhotons:
    def test_quoted_chain(self):
        n = added_photons(20.0, 0.7)
        assert n == pytest.approx(28.785714285714285, rel=1e-12)
        assert n == pytest.approx(29.0, rel=0.01)

    def test_lossless(self):
        assert added_photons(20.0, 1.0) == 20.0

    def test_pure_loss_half_photon(self):
        assert added_photons(0.0, 0.5) == pytest.approx(0.5, rel=1e-14)

    def test_domain(self):
        for eta in (0.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                added_photons(1.0, eta)


def ppia_kwargs(presets):
    scene = presets["ppia"]
    kappa = scene["hf.kappa_i"] + scene["hf.kappa_e"]
    return dict(kappa=kappa, kappa_e=scene["hf.kappa_e"],
                gamma0=scene["lf.gamma0"], lf_frequency=scene["lf.omega0"],
                g=scene["drive.g"], detuning=scene["drive.detuning"])


class TestBluePumpPsd:
    N_ADD = added_photons(20.0, 0.7)

    def test_flat_background_without_coupling(self, presets):
        kw = ppia_kwargs(presets)
        kw["g"] = 0.0
        offsets = np.linspace(-1e6, 1e6, 101) - kw["lf_frequency"]
        psd = psd_blue_pump(offsets, n_lf=0.0, n_cavity=0.0,
                            n_add_eff=self.N_ADD, **kw)
        np.testing.assert_allclose(psd, 0.5 + self.N_ADD, rtol=1e-14)

    def test_peak_excess_closed_form(self, presets):
        kw = ppia_kwargs(presets)
        coop = presets["ppia"]["drive.cooperativity"]
        gamma0_eff = kw["gamma0"] * (1 - coop)
        n_lf = 10.0
        peak = psd_blue_pump(-kw["lf_frequency"], n_lf=n_lf,
                             n_add_eff=self.N_ADD, **kw)
        expected = 4 * (kw["kappa_e"] / kw["kappa"]) * coop \
            * (kw["gamma0"] / gamma0_eff) ** 2 * (n_lf + 1)
        assert peak - (0.5 + self.N_ADD) == pytest.approx(expected, rel=1e-9)

    def test_linewidth_narrowing(self, presets):
        # the loop denominator narrows the peak to Gamma0' = Gamma0 (1 - C),
        # 2pi*10 kHz for the amplification scene
        kw = ppia_kwargs(presets)
        coop = presets["ppia"]["drive.cooperativity"]
        gamma0_eff = kw["gamma0"] * (1 - coop)
        assert gamma0_eff == pytest.approx(TWO_PI * 10e3, rel=1e-12)
        offsets = -kw["lf_frequency"] + np.linspace(-8, 8, 400001) * gamma0_eff
        psd = psd_blue_pump(offsets, n_lf=10.0, n_add_eff=self.N_ADD, **kw)
        excess = psd - (0.5 + self.N_ADD)
        half = excess.max() / 2
        above = offsets[excess >= half]
        fwhm = above[-1] - above[0]
        assert fwhm == pytest.approx(gamma0_eff, rel=0.05)

    def test_excess_nonnegative_below_threshold(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            kappa = 10 ** rng.uniform(4, 6)
            gamma0 = kappa * 10 ** rng.uniform(-3, -1)
            lf = kappa * 10 ** rng.uniform(2, 4)
            coop = rng.uniform(0.01, 0.99)
            g = math.sqrt(coop * kappa * gamma0 / 4)
            ke = kappa * rng.uniform(0.05, 0.95)
            offsets = -lf + np.linspace(-50, 50, 501) * gamma0
            psd = psd_blue_pump(offsets, kappa=kappa, kappa_e=ke, gamma0=gamma0,
                                lf_frequency=lf, g=g, detuning=lf + rng.uniform(-1, 1) * kappa,
                                n_lf=rng.uniform(0, 20), n_add_eff=0.0)
            assert np.all(psd >= 0.5 - 1e-12)


class TestOnSidebandPsd:
    def test_background_at_large_offset(self):
        val = psd_on_sideband(1e12, TWO_PI * 250e3, TWO_PI * 25e3, 0.5,
                              TWO_PI * 22e3, TWO_PI * 11e3, 4.0, n_add_eff=29.0)
        assert val == pytest.approx(29.5, rel=1e-9)

    def test_fwhm_is_narrowed_linewidth(self):
        gamma0_eff = TWO_PI * 10e3
        d = np.linspace(-5, 5, 400001) * gamma0_eff
        psd = psd_on_sideband(d, TWO_PI * 250e3, TWO_PI * 25e3, 6 / 11,
                              TWO_PI * 22e3, gamma0_eff, 4.0, n_add_eff=29.0)
        excess = psd - 29.5
        above = d[excess >= excess.max() / 2]
        assert above[-1] - above[0] == pytest.approx(gamma0_eff, rel=1e-3)

    def test_matches_full_psd_on_exact_sideband(self):
        # algebraic agreement improves as Gamma0/kappa -> 0; evaluated in the
        # pump frame with a zero-frequency mode so no precision is lost in
        # forming the offsets
        kappa, gamma0 = 1.0, 1e-8
        coop = 0.5
        g = math.sqrt(coop * kappa * gamma0 / 4)
        gamma0_eff = gamma0 * (1 - coop)
        d = np.linspace(-5, 5, 2001) * gamma0_eff
        exact = psd_blue_pump(-d, kappa=kappa, kappa_e=0.1, gamma0=gamma0,
                              lf_frequency=0.0, g=g, detuning=0.0,
                              n_lf=10.0, n_add_eff=29.0)
        lorentzian = psd_on_sideband(d, kappa, 0.1, coop, gamma0, gamma0_eff,
                                     10.0, n_add_eff=29.0)
        assert np.max(np.abs(exact - lorentzian) / lorentzian) < 1e-9

    def test_integrated_excess(self):
        # quadrature over +-50 Gamma0' plus the analytic tail equals the
        # closed-form line-integrated excess to 0.1%
        kappa, ke, coop = TWO_PI * 250e3, TWO_PI * 25e3, 6 / 11
        gamma0, n_lf = TWO_PI * 22e3, 4.0
        gamma0_eff = gamma0 * (1 - coop)
        d = np.linspace(-50, 50, 2001) * gamma0_eff
        excess = psd_on_sideband(d, kappa, ke, coop, gamma0, gamma0_eff, n_lf) - 0.5
        numeric = np.trapezoid(excess, d)
        strength = 4 * (ke / kappa) * coop * gamma0**2 * (n_lf + 1)
        tail = strength / gamma0_eff * (math.pi / 2 - math.atan(100.0))
        analytic = (math.pi / 2) * 4 * (ke / kappa) * coop * gamma0**2 / gamma0_eff * (n_lf + 1)
        assert numeric + tail == pytest.approx(analytic, rel=1e-3)


class TestCurrentAndFluxPsd:
    I_ZPF = 21e-9

    def test_peak_value(self):
        gamma0, gamma0_eff = TWO_PI * 22e3, TWO_PI * 10e3
        n_lf = (4.0 + 1.0) / (1 - 0.6) - 1.0
        peak = current_psd(0.0, gamma0, gamma0_eff, self.I_ZPF, n_lf)
        assert peak == pytest.approx(
            8 * gamma0 / gamma0_eff**2 * self.I_ZPF**2 * (n_lf + 1), rel=1e-14)
        # the measured device sits at the nA^2/Hz scale
        assert peak == pytest.approx(1.544e-18, rel=1e-3)
        assert 1e-19 < peak < 1e-17

class TestExtraction:
    def test_pure_background_gives_zero(self):
        freq = np.linspace(5.843e9, 5.845e9, 64)
        trace = SpectrumTrace(freq, np.full(64, 3.3e-18), units="W/Hz")
        out = extract_current_psd(trace, 3.3e-18, 29.0, TWO_PI * 250e3,
                                  TWO_PI * 25e3, 0.55, TWO_PI * 22e3, 21e-9)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-40)
        assert out.units == "A^2/Hz"

    def test_round_trip_through_conversions(self):
        # forward: current PSD -> photon excess -> voltage PSD;
        # backward: extraction recovers the input exactly
        kappa, ke, coop = TWO_PI * 250e3, TWO_PI * 25e3, 0.55
        gamma0, i_zpf = TWO_PI * 22e3, 21e-9
        gamma0_eff = gamma0 * (1 - coop)
        n_add, gain, om0 = 29.0, 1e7, TWO_PI * 5.844e9
        freq = np.linspace(-5e4, 5e4, 501) + 5.844e9
        d = TWO_PI * (freq - 5.844e9)
        s_i = current_psd(d, gamma0, gamma0_eff, i_zpf, 11.5)
        excess = coop / 2 * (ke / kappa) * gamma0 / i_zpf**2 * s_i
        s_v = gain * hbar * om0 * (0.5 + n_add + excess)
        s_b = gain * hbar * om0 * (0.5 + n_add)
        out = extract_current_psd(SpectrumTrace(freq, s_v, units="W/Hz"),
                                  s_b, n_add, kappa, ke, coop, gamma0, i_zpf)
        np.testing.assert_allclose(out.values, s_i, rtol=1e-9)

    def test_nonpositive_background_rejected(self):
        freq = np.linspace(1e9, 2e9, 32)
        trace = SpectrumTrace(freq, np.ones(32), units="W/Hz")
        with pytest.raises(DomainError, match="background PSD must be positive"):
            extract_current_psd(trace, 0.0, 29.0, TWO_PI * 250e3,
                                TWO_PI * 25e3, 0.55, TWO_PI * 22e3, 21e-9)


class TestThermalPhotons:
    def test_peak_round_trip(self):
        gamma0, gamma0_eff, i_zpf = TWO_PI * 22e3, TWO_PI * 10e3, 21e-9
        for n_lf in (0.1, 1.0, 4.0, 11.5, 300.0):
            peak = current_psd(0.0, gamma0, gamma0_eff, i_zpf, n_lf)
            assert thermal_photons_from_peak(peak, gamma0, gamma0_eff, i_zpf) \
                == pytest.approx(n_lf, rel=1e-12)

    def test_no_amplification_limit(self):
        assert backaction_free(4.0, 0.0) == 4.0

    @given(n_th=st.floats(0, 50), coop=st.floats(0, 0.95))
    def test_amplification_inverse(self, n_th, coop):
        n_lf = (n_th + 1) / (1 - coop) - 1
        assert backaction_free(n_lf, coop) == pytest.approx(n_th, abs=1e-9)

    def test_threshold_rejected(self):
        with pytest.raises(DomainError, match="occupation diverges"):
            backaction_free(10.0, 1.0)


class TestRecordTypes:
    def test_detection_chain_invariant(self):
        chain = DetectionChain(5.5, 20.0, 0.7, 1e7, 200.0)
        assert chain.effective_added_photons == pytest.approx(28.7857142857, rel=1e-11)
        with pytest.raises(DomainError):
            DetectionChain(5.5, -1.0, 0.7, 1e7, 200.0)


def test_psd_blue_pump_golden_values():
    # values recorded at fixed grid indices, symmetric about the spectral peak
    grid = TWO_PI * np.linspace(-391.3e6, -390.7e6, 4001)
    out = psd_blue_pump(grid, kappa=TWO_PI * 250e3, kappa_e=TWO_PI * 25e3,
                        gamma0=TWO_PI * 22e3, lf_frequency=TWO_PI * 391e6,
                        g=TWO_PI * 27e3, detuning=TWO_PI * 391e6, n_lf=10.0,
                        n_cavity=0.0, n_add_eff=28.8)
    assert out.shape == grid.shape
    assert out.dtype == np.float64
    golden = [29.300457099366643, 29.304934728836393, 30.31650417703558,
              39.86860987836556, 30.31650417703558, 29.304934728836393,
              29.300457099366643]
    np.testing.assert_allclose(out[[0, 1000, 1900, 2000, 2100, 3000, 4000]], golden,
                               rtol=1e-13, atol=0)
