import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from photonpressure.dynamics import (_cis, backaction_exact, backaction_sideband,
                                     cooperativity, effective_lf_susceptibility,
                                     lf_s11_pumped, normal_modes, s11_bare,
                                     s11_pumped)
from photonpressure.errors import DomainError

TWO_PI = 2 * math.pi

OM0 = TWO_PI * 391e6
GAMMA0 = TWO_PI * 22e3
KAPPA = TWO_PI * 250e3


class TestEffectiveSusceptibility:
    def test_decoupled_limit(self):
        om = OM0 + np.linspace(-5 * GAMMA0, 5 * GAMMA0, 101)
        chi = effective_lf_susceptibility(om, OM0, GAMMA0, 0.0, -OM0, KAPPA)
        bare = 1.0 / (OM0**2 - om**2 - 1j * om * GAMMA0)
        np.testing.assert_allclose(chi, bare, rtol=1e-14)

    @pytest.mark.parametrize("offset_frac", [-0.3, 0.0, 0.4])
    def test_peak_follows_backaction(self, offset_frac):
        # weak coupling at a slightly detuned red-sideband pump: the response
        # peak sits at the shifted frequency with the broadened linewidth
        # (residual deviations scale as C*Gamma0/kappa, so the check uses a
        # narrow mode)
        gamma0 = 1e-3 * KAPPA
        g = 0.25 * math.sqrt(KAPPA * gamma0)  # C = 0.25
        delta_r = offset_frac * KAPPA
        (shift,), (damping,) = backaction_exact(np.array([-OM0 + delta_r]), g, KAPPA, OM0)
        om = OM0 + np.linspace(-8 * gamma0, 8 * gamma0, 400001)
        mag2 = np.abs(effective_lf_susceptibility(om, OM0, gamma0, g,
                                                  -OM0 + delta_r, KAPPA)) ** 2
        peak = om[np.argmax(mag2)]
        half = mag2.max() / 2
        above = om[mag2 >= half]
        fwhm = above[-1] - above[0]
        assert peak - OM0 == pytest.approx(shift, abs=0.02 * gamma0)
        assert fwhm == pytest.approx(gamma0 + damping, rel=0.005)

    def test_poles_match_normal_modes(self):
        # analytic continuation to complex frequency: Newton refinement of
        # the susceptibility poles against the closed-form eigenvalues
        def pole(seed, g):
            z = np.array([seed])
            for _ in range(60):
                f = 1.0 / effective_lf_susceptibility(z, OM0, GAMMA0, g, -OM0, KAPPA)
                h = 1e-7 * abs(z)
                fp = (1.0 / effective_lf_susceptibility(z + h, OM0, GAMMA0, g, -OM0, KAPPA)
                      - 1.0 / effective_lf_susceptibility(z - h, OM0, GAMMA0, g, -OM0, KAPPA)) / (2 * h)
                step = f / fp
                z = z - step
                if abs(step[0]) < 1e-12 * abs(z[0]):
                    break
            return z[0]

        rng = np.random.default_rng(11)
        for _ in range(12):
            g = OM0 * 10 ** rng.uniform(-3, -1)   # up to OM0/10
            (upper,), (lower,) = normal_modes(np.array([g]), KAPPA, GAMMA0, OM0)
            zp, zm = pole(upper, g), pole(lower, g)
            split = (upper - lower).real
            # the pole pair separation matches the eigenvalue splitting to 1%
            assert abs((zp - zm) - (upper - lower)) < 0.01 * split
            # absolute positions agree to 1% of the splitting once the
            # rotating-wave corrections ~ g/(4 Omega0) are below that level
            if g <= 0.025 * OM0:
                assert abs(zp - upper) < 0.01 * split
                assert abs(zm - lower) < 0.01 * split


class TestBareReflection:
    def test_critical_coupling(self):
        assert s11_bare(OM0, OM0, GAMMA0 / 2, GAMMA0 / 2) == pytest.approx(0.0, abs=1e-15)

    def test_lf_dip_depth(self):
        gi, ge = TWO_PI * 7.4e3, TWO_PI * 13.8e3
        dip = abs(s11_bare(TWO_PI * 391.18e6, TWO_PI * 391.18e6, gi, ge))
        assert dip == pytest.approx(abs(gi - ge) / (gi + ge), rel=1e-12)
        assert dip == pytest.approx(0.30, abs=0.005)

    @given(delta=st.floats(1e9, 1e14))
    def test_off_resonant_reflection(self, delta):
        assert abs(s11_bare(OM0 + delta, OM0, GAMMA0, GAMMA0)) == pytest.approx(
            1.0, abs=1e-3)


class TestPumpedReflection:
    def test_reduces_to_bare_at_zero_coupling(self):
        om = TWO_PI * 5.844e9 + np.linspace(-2e6, 2e6, 2001) * TWO_PI
        pumped = s11_pumped(om, TWO_PI * 5.844e9, TWO_PI * 222e3, TWO_PI * 28e3,
                            OM0, GAMMA0, 0.0, -OM0)
        bare = s11_bare(om, TWO_PI * 5.844e9, TWO_PI * 222e3, TWO_PI * 28e3)
        np.testing.assert_allclose(pumped, bare, rtol=0, atol=1e-12)

    def test_transparency_window_width(self):
        # weak coupling, narrow LF line: the induced window in the power
        # response has FWHM Gamma0 * (1 + C)
        gamma0 = 1e-4 * KAPPA
        coop = 1.0
        g = 0.5 * math.sqrt(coop * KAPPA * gamma0)
        ke, ki = 0.3 * KAPPA, 0.7 * KAPPA
        om0 = TWO_PI * 5.844e9
        lf = OM0
        probe = om0 + np.linspace(-10, 10, 200001) * gamma0 * (1 + coop)
        pumped = np.abs(s11_pumped(probe, om0, ki, ke, lf, gamma0, g, -lf)) ** 2
        bare = np.abs(s11_bare(probe, om0, ki, ke)) ** 2
        excess = pumped - bare
        half = excess.max() / 2
        above = probe[excess >= half]
        fwhm = above[-1] - above[0]
        assert fwhm == pytest.approx(gamma0 * (1 + coop), rel=0.01)

    def test_window_depth_against_cooperativity(self):
        # at exact red-sideband pump and cavity center the reflection rises
        # to 1 - (2 ke/k)/(1+C); checked for 100 random resolved-sideband draws
        rng = np.random.default_rng(1)
        for _ in range(100):
            kappa = TWO_PI * 10 ** rng.uniform(4, 6)
            lf = kappa * 10 ** rng.uniform(4, 5)
            gamma0 = kappa * 10 ** rng.uniform(-4, -2)
            coop = 10 ** rng.uniform(-1, 2)
            g = math.sqrt(coop * kappa * gamma0 / 4.0)
            ke = kappa * rng.uniform(0.05, 0.5)
            # pump at -lf below the (zero-frequency) cavity, probe at center
            s = s11_pumped(0.0, 0.0, kappa - ke, ke, lf, gamma0, g, -lf)
            depth = 2 * ke / kappa / (1 + coop)
            assert abs(s - (1 - depth)) < 1e-3 * (2 * ke / kappa)

    def test_strong_coupling_split(self, presets):
        scene = presets["strong_coupling_D"]
        om0 = scene["hf.omega0"]
        probe = om0 + TWO_PI * np.linspace(-1e6, 1e6, 200001)
        mag = np.abs(s11_pumped(probe, om0, scene["hf.kappa_i"], scene["hf.kappa_e"],
                                scene["lf.omega0"], scene["lf.gamma0"],
                                scene["drive.g"], scene["drive.detuning"]))
        i_min = np.argmin(mag)
        mask = np.abs(probe - probe[i_min]) > scene["drive.g"] / 2
        j_min = np.argmin(np.where(mask, mag, np.inf))
        split = abs(probe[j_min] - probe[i_min]) / TWO_PI
        assert split == pytest.approx(500e3, rel=0.01)


class TestLfPumpedReflection:
    def test_zero_coupling_is_bare_response(self):
        gi, ge = TWO_PI * 7.4e3, TWO_PI * 13.8e3
        om = OM0 + np.linspace(-10, 10, 1001) * (gi + ge)
        with_pump = lf_s11_pumped(om, OM0, gi, ge, 0.0, -OM0, KAPPA)
        bare = s11_bare(om, OM0, gi, ge)
        np.testing.assert_allclose(with_pump, bare, rtol=1e-13)

    @pytest.mark.parametrize("offset_frac", [0.0, 0.25])
    def test_linewidth_tracks_backaction(self, offset_frac):
        # measure the magnitude dip width against the backaction prediction;
        # a narrow mode keeps the C*Gamma0/kappa distortion below the bar
        delta_r = offset_frac * KAPPA
        gamma0 = 1e-3 * KAPPA
        coop = 0.5
        g = 0.5 * math.sqrt(coop * KAPPA * gamma0)
        _, (damping,) = backaction_exact(np.array([-OM0 + delta_r]), g, KAPPA, OM0)
        om = OM0 + np.linspace(-30, 30, 600001) * gamma0
        mag2 = np.abs(lf_s11_pumped(om, OM0, gamma0 / 2, gamma0 / 2, g,
                                    -OM0 + delta_r, KAPPA)) ** 2
        dip = 1.0 - mag2
        half = dip.max() / 2
        above = om[dip >= half]
        fwhm = above[-1] - above[0]
        assert fwhm == pytest.approx(gamma0 + damping, rel=0.01)

    def test_strong_coupling_two_dips(self, presets):
        scene = presets["strong_coupling_D"]
        kappa = scene["hf.kappa_i"] + scene["hf.kappa_e"]
        g = scene["drive.g"]
        om = scene["lf.omega0"] + TWO_PI * np.linspace(-1e6, 1e6, 200001)
        mag = np.abs(lf_s11_pumped(om, scene["lf.omega0"], TWO_PI * 11e3,
                                   TWO_PI * 11e3, g, scene["drive.detuning"], kappa))
        i_min = np.argmin(mag)
        mask = np.abs(om - om[i_min]) > g / 2
        j_min = np.argmin(np.where(mask, mag, np.inf))
        split = abs(om[j_min] - om[i_min])
        assert split == pytest.approx(2 * g, rel=0.05)


class TestBackaction:
    def test_zero_coupling(self):
        (shift,), (damping,) = backaction_exact(np.array([-OM0]), 0.0, KAPPA, OM0)
        assert shift == 0.0 and damping == 0.0

    def test_zero_detuning_cancellation(self):
        (shift,), (damping,) = backaction_exact(np.array([0.0]), TWO_PI * 50e3, KAPPA, OM0)
        assert shift == pytest.approx(0.0, abs=1e-20)
        assert damping == pytest.approx(0.0, abs=1e-20)

    def test_exact_is_odd_in_detuning(self):
        d = np.linspace(-3 * KAPPA, 3 * KAPPA, 101)
        plus = backaction_exact(d, TWO_PI * 30e3, KAPPA, OM0)
        minus = backaction_exact(-d, TWO_PI * 30e3, KAPPA, OM0)
        for m, p in zip(minus, plus):  # the shift, then the damping
            np.testing.assert_allclose(m, -p, rtol=1e-12, atol=1e-30)

    def test_sideband_swap_flips_damping_only(self):
        d = np.linspace(-5 * KAPPA, 5 * KAPPA, 101)
        red_shift, red_damping = backaction_sideband(d, TWO_PI * 30e3, KAPPA, "red")
        blue_shift, blue_damping = backaction_sideband(d, TWO_PI * 30e3, KAPPA, "blue")
        np.testing.assert_allclose(blue_damping, -red_damping, rtol=1e-14)
        np.testing.assert_allclose(blue_shift, red_shift, rtol=1e-14)

    def test_cooperativity_defining_limit(self):
        # deep resolved sideband: the on-sideband damping approaches 4g^2/k
        kappa = 1.0
        lf = kappa / 1e-3
        g = 0.01
        _, (damping,) = backaction_exact(np.array([-lf]), g, kappa, lf)
        assert damping == pytest.approx(4 * g**2 / kappa, rel=1e-3)
        assert abs(damping / (4 * g**2 / kappa) - 1) < 1e-6

    def test_exact_matches_sideband_in_resolved_regime(self):
        # normalized to the curve peaks, the agreement is far below 1% when
        # kappa/Omega0 = 1e-3 over offsets up to 5 kappa
        kappa = 1.0
        lf = kappa / 1e-3
        g = 0.01
        d = np.linspace(-5 * kappa, 5 * kappa, 2001)
        exact_shift, exact_damping = backaction_exact(-lf + d, g, kappa, lf)
        approx_shift, approx_damping = backaction_sideband(d, g, kappa, "red")
        shift_err = np.max(np.abs(exact_shift - approx_shift))
        damp_err = np.max(np.abs(exact_damping - approx_damping))
        assert shift_err < 0.01 * (g**2 / kappa)
        assert damp_err < 0.01 * (4 * g**2 / kappa)

    def test_peak_positions_of_sideband_curves(self):
        g, kappa = TWO_PI * 24.6e3, TWO_PI * 110e3
        d = np.linspace(-5 * kappa, 5 * kappa, 1000001)
        shift, damping = backaction_sideband(d, g, kappa, "red")
        i = np.argmax(np.abs(shift))
        assert abs(d[i]) == pytest.approx(kappa / 2, rel=1e-3)
        assert np.max(np.abs(shift)) == pytest.approx(g**2 / kappa, rel=1e-9)
        assert np.max(damping) == pytest.approx(4 * g**2 / kappa, rel=1e-12)

    def test_far_detuned_sideband_limits(self):
        g = TWO_PI * 30e3
        (shift,), (damping,) = backaction_sideband(np.array([1e12 * KAPPA]), g, KAPPA, "red")
        assert abs(shift) < 1e-11 * (g**2 / KAPPA)
        assert abs(damping) < 1e-11 * (4 * g**2 / KAPPA)

    def test_device_backaction_peak(self, presets):
        scene = presets["backaction"]
        (shift,), (damping,) = backaction_sideband(np.array([0.0]), scene["drive.g"],
                                                   scene["drive.kappa_eff"], "red")
        assert damping == pytest.approx(TWO_PI * 22e3, rel=1e-12)
        assert shift == 0.0

    def test_invalid_sideband_label(self):
        with pytest.raises(DomainError):
            backaction_sideband(0.0, 1.0, 1.0, "green")


class TestNormalModes:
    def test_zero_coupling_recovers_bare_modes(self):
        (upper,), (lower,) = normal_modes(np.array([0.0]), KAPPA, GAMMA0, OM0)
        assert upper == pytest.approx(OM0 - 0.5j * GAMMA0, rel=1e-14)
        assert lower == pytest.approx(OM0 - 0.5j * KAPPA, rel=1e-14)
        assert upper.real - lower.real == 0.0
        assert -2.0 * upper.imag == pytest.approx(GAMMA0, rel=1e-12)
        assert -2.0 * lower.imag == pytest.approx(KAPPA, rel=1e-12)

    def test_threshold_double_root(self):
        g_th = (KAPPA - GAMMA0) / 4
        upper, lower = normal_modes(g_th * np.array([1.0, 1 + 1e-9]), KAPPA, GAMMA0, OM0)
        at, above = upper.real - lower.real
        assert at == 0.0
        assert upper[0].imag == pytest.approx(lower[0].imag, rel=1e-12)
        assert above > 0.0

    def test_deep_strong_coupling_linewidths(self):
        (upper,), (lower,) = normal_modes(np.array([100 * KAPPA]), KAPPA, GAMMA0, OM0)
        assert -2.0 * upper.imag == pytest.approx((KAPPA + GAMMA0) / 2, rel=1e-9)
        assert -2.0 * lower.imag == pytest.approx((KAPPA + GAMMA0) / 2, rel=1e-9)
        assert upper.real - lower.real == pytest.approx(200 * KAPPA, rel=1e-3)

    def test_trace_invariance_random_draws(self):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            g = 10 ** rng.uniform(0, 7)
            kappa = 10 ** rng.uniform(1, 7)
            gamma0 = 10 ** rng.uniform(0, 6)
            lf = 10 ** rng.uniform(6, 10)
            (upper,), (lower,) = normal_modes(np.array([g]), kappa, gamma0, lf)
            total = upper + lower
            expected = 2 * lf - 0.5j * (kappa + gamma0)
            assert abs(total - expected) <= 1e-9 * abs(expected)
            assert -2.0 * (upper.imag + lower.imag) == pytest.approx(kappa + gamma0,
                                                                     rel=1e-9)

    def test_array_equals_scalar_loop(self):
        # a grid across the threshold mixes real and imaginary roots; each 0-d
        # coupling gives its grid element
        g_th = (KAPPA - GAMMA0) / 4
        grid = np.concatenate([[0.0, g_th], np.linspace(0.0, 5 * g_th, 2001)])
        columns = normal_modes(grid, KAPPA, GAMMA0, OM0)
        rows = [normal_modes(g, KAPPA, GAMMA0, OM0) for g in grid]
        for i, column in enumerate(columns):  # upper, then lower
            assert column.shape == grid.shape
            assert np.array_equal(column, [row[i] for row in rows]), i


class TestCooperativity:
    def test_zero_coupling(self):
        assert cooperativity(0.0, KAPPA, GAMMA0) == 0.0

    def test_coupling_sweep_maximum(self, presets):
        scene = presets["strong_coupling_D"]
        c = cooperativity(scene["drive.g"],
                          scene["hf.kappa_i"] + scene["hf.kappa_e"],
                          scene["lf.gamma0"])
        assert c == pytest.approx(53.0, rel=0.01)

    def test_power_sweep_maximum(self):
        # quoted maximum of the drive-power sweep: g/pi = 1 MHz at C = 130
        # implies kappa * Gamma0 = 4 g^2 / 130
        g = TWO_PI * 500e3
        gamma0 = TWO_PI * 25e3
        kappa = 4 * g**2 / (130 * gamma0)
        assert cooperativity(g, kappa, gamma0) == pytest.approx(130.0, rel=1e-12)
        assert kappa / TWO_PI == pytest.approx(307.7e3, rel=1e-3)


RESPONSES = {"s11_bare": s11_bare, "s11_pumped": s11_pumped,
             "lf_s11_pumped": lf_s11_pumped}

ARGS = {
    "s11_bare": (TWO_PI * 5.844e9, TWO_PI * 163e3, TWO_PI * 28e3),
    "s11_pumped": (TWO_PI * 5.844e9, TWO_PI * 163e3, TWO_PI * 28e3,
                   TWO_PI * 391e6, TWO_PI * 22e3, TWO_PI * 250e3, -TWO_PI * 391e6),
    "lf_s11_pumped": (TWO_PI * 391e6, TWO_PI * 7.4e3, TWO_PI * 13.8e3,
                      TWO_PI * 30e3, -TWO_PI * 391e6, TWO_PI * 250e3),
}

GRIDS = {
    "s11_bare": TWO_PI * np.linspace(5.842e9, 5.846e9, 4001),
    "s11_pumped": TWO_PI * np.linspace(5.842e9, 5.846e9, 4001),
    "lf_s11_pumped": TWO_PI * np.linspace(390.5e6, 391.5e6, 4001),
}


# Values recorded at fixed grid indices (symmetric about the resonance); they
# pin the arithmetic of each response, not just its shape.
GOLDEN_INDICES = [0, 1000, 1900, 2000, 2100, 3000, 4000]
GOLDEN = {
    "s11_bare": [
        0.999333020754366 - 0.013968151741023399j,
        0.9973501671381605 - 0.027746940961682287j,
        0.8601482721194035 - 0.14644159987450026j,
        0.7068062827225131 + 0j,
        0.8601482721194035 + 0.14644159987450026j,
        0.9973501671381605 + 0.027746940961682287j,
        0.999333020754366 + 0.013968151741023399j,
    ],
    "s11_pumped": [
        0.9993104397165375 - 0.014189292652293874j,
        0.9969671044373942 - 0.029557934537171832j,
        0.9844865066714388 + 0.04914770914084368j,
        0.9951534607035805 - 3.4631664902468906e-05j,
        0.9844418068605161 - 0.04924701180819021j,
        0.9969681985595416 + 0.02955269281745149j,
        0.9993105533635782 + 0.014188128135156129j,
    ],
    "lf_s11_pumped": [
        0.9993876535021681 - 0.027680350857823242j,
        0.9972856607737404 - 0.055711328482574735j,
        0.7203409443341484 - 0.3768707054428494j,
        0.22471909635199627 + 5.012736017316556e-05j,
        0.7203761007411216 + 0.37686005913550147j,
        0.997285711218704 + 0.05571081202154723j,
        0.9993876591564914 + 0.02768022312120196j,
    ],
}


@pytest.mark.parametrize("name", sorted(ARGS))
def test_golden_values(name):
    out = RESPONSES[name](GRIDS[name], *ARGS[name])
    assert out.shape == GRIDS[name].shape
    assert out.dtype == np.complex128
    np.testing.assert_allclose(out[GOLDEN_INDICES], GOLDEN[name], rtol=1e-13, atol=0)


class TestCis:
    def test_within_one_ulp_of_complex_exp(self):
        # numpy picks its float64 sin, cos and complex exp kernels by CPU, so
        # the parts may differ from exp(1j x) by rounding, never by more
        x = np.random.default_rng(0).uniform(-1.0, 1.0, 200_000) * np.logspace(-3, 6, 200_000)
        got, ref = _cis(x), np.exp(1j * x)
        np.testing.assert_array_max_ulp(got.real, ref.real, maxulp=1)
        np.testing.assert_array_max_ulp(got.imag, ref.imag, maxulp=1)

    def test_zero_dimensional_input(self):
        got, ref = _cis(np.float64(0.3)), np.exp(0.3j)
        assert got.shape == () and got.dtype == complex
        np.testing.assert_array_max_ulp(got.real, ref.real, maxulp=1)
        np.testing.assert_array_max_ulp(got.imag, ref.imag, maxulp=1)
