import math

import numpy as np
import pytest

from photonpressure.dynamics import cooperativity, s11_pumped
from photonpressure.errors import ConfigError, DomainError
from photonpressure.fitting import BackgroundModel, fit_resonance
from photonpressure.noise import DetectionChain, extract_current_psd, thermal_photons_from_peak
from photonpressure.synth import NoiseSpec, make_rng, noise_from, synth_psd, synth_s11
from photonpressure.constants import hbar

TWO_PI = 2 * math.pi


@pytest.fixture
def detection():
    return DetectionChain(5.5, 20.0, 0.7, 1e7, 200.0)


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(123, 0).standard_normal(16)
        b = make_rng(123, 0).standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_independent(self):
        a = make_rng(123, 0).standard_normal(16)
        b = make_rng(123, 1).standard_normal(16)
        assert not np.array_equal(a, b)


class TestSynthS11:
    def test_clean_trace_matches_dynamics(self, presets):
        scene = presets["strong_coupling_B"]
        grid = np.linspace(5.8425e9, 5.8455e9, 501)
        trace = synth_s11("pumped", scene, grid)
        direct = s11_pumped(TWO_PI * grid, scene["hf.omega0"], scene["hf.kappa_i"],
                            scene["hf.kappa_e"], scene["lf.omega0"], scene["lf.gamma0"],
                            scene["drive.g"], scene["drive.detuning"])
        np.testing.assert_allclose(trace.values, direct, rtol=0, atol=1e-15)

    def test_background_applied(self, presets):
        scene = presets["hf"]
        grid = np.linspace(5.8425e9, 5.8455e9, 201)
        bg = BackgroundModel(0.9, 0.0, 0.3, 0.0,
                             reference_frequency=TWO_PI * 5.844e9)
        plain = synth_s11("bare", scene, grid)
        shaped = synth_s11("bare", scene, grid, background=bg)
        np.testing.assert_allclose(shaped.values, plain.values * 0.9 * np.exp(0.3j),
                                   rtol=1e-14)

    def test_background_rotation_turns_the_resonance(self, presets):
        # the rotation fit_resonance models: 1 - (1 - S) e^{i theta}, then the
        # background multiplies it
        grid = np.linspace(5.8425e9, 5.8455e9, 201)
        bg = BackgroundModel(0.9, 0.0, 0.3, 0.0, circle_rotation=0.1,
                             reference_frequency=TWO_PI * 5.844e9)
        plain = synth_s11("bare", presets["hf"], grid).values
        turned = synth_s11("bare", presets["hf"], grid, background=bg).values
        np.testing.assert_allclose(
            turned, (1.0 - (1.0 - plain) * np.exp(0.1j)) * 0.9 * np.exp(0.3j), rtol=1e-14)

    def test_seeded_noise_reproducible(self, presets):
        scene = presets["hf"]
        grid = np.linspace(5.8425e9, 5.8455e9, 201)
        one = synth_s11("bare", scene, grid,
                        noise=NoiseSpec("additive-complex-gaussian", 0.01, seed=7))
        two = synth_s11("bare", scene, grid,
                        noise=NoiseSpec("additive-complex-gaussian", 0.01, seed=7))
        np.testing.assert_array_equal(one.values, two.values)
        other = synth_s11("bare", scene, grid,
                          noise=NoiseSpec("additive-complex-gaussian", 0.01, seed=8))
        assert not np.array_equal(one.values, other.values)

    def test_strong_coupling_dip_separation_readback(self, presets):
        scene = presets["strong_coupling_D"]
        f0 = scene["hf.omega0"] / TWO_PI
        grid = np.linspace(f0 - 2e6, f0 + 2e6, 2001)
        trace = synth_s11("pumped", scene, grid)
        mag = np.abs(trace.values)
        i = int(np.argmin(mag))
        masked = np.where(np.abs(grid - grid[i]) > 250e3, mag, np.inf)
        j = int(np.argmin(masked))
        separation = abs(grid[j] - grid[i])
        step = grid[1] - grid[0]
        # the dips sit 2g apart up to interference corrections below one step
        assert abs(separation - 2 * scene["drive.g"] / TWO_PI) <= step
        assert mag[i] < 0.9 * np.median(mag)

    def test_missing_key_reported_by_path(self, presets):
        scene = dict(presets["strong_coupling_B"])
        del scene["drive.g"]
        with pytest.raises(ConfigError, match="drive.g"):
            synth_s11("pumped", scene, np.linspace(5.84e9, 5.85e9, 64))

    def test_unknown_model(self, presets):
        with pytest.raises(ConfigError):
            synth_s11("weird", presets["hf"], np.linspace(5.84e9, 5.85e9, 64))

    def test_forward_inverse_closure(self, presets):
        scene = presets["hf_fit"]
        f0 = scene["hf.omega0"] / TWO_PI
        span = 8 * (scene["hf.kappa_i"] + scene["hf.kappa_e"]) / TWO_PI
        grid = np.linspace(f0 - span / 2, f0 + span / 2, 1201)
        fit = fit_resonance(synth_s11("bare", scene, grid))
        assert abs(fit.value("omega0") - scene["hf.omega0"]) / scene["hf.omega0"] < 1e-8
        assert abs(fit.value("kappa_i") - scene["hf.kappa_i"]) / scene["hf.kappa_i"] < 1e-8
        assert abs(fit.value("kappa_e") - scene["hf.kappa_e"]) / scene["hf.kappa_e"] < 1e-8

    def test_noise_scaling_of_fit_scatter(self, presets):
        # fitted-parameter scatter grows linearly with sigma
        scene = presets["hf_fit"]
        f0 = scene["hf.omega0"] / TWO_PI
        span = 8 * (scene["hf.kappa_i"] + scene["hf.kappa_e"]) / TWO_PI
        grid = np.linspace(f0 - span / 2, f0 + span / 2, 401)
        spreads = []
        for sigma in (0.01, 0.04):
            vals = []
            for seed in range(100):
                noise = NoiseSpec("additive-complex-gaussian", sigma, seed=seed)
                fit = fit_resonance(synth_s11("bare", scene, grid, noise=noise))
                vals.append(fit.value("kappa_i"))
            spreads.append(np.std(vals))
        assert spreads[1] / spreads[0] == pytest.approx(4.0, rel=0.3)


class TestSynthPsd:
    def test_flat_spectrum_without_coupling(self, presets, detection):
        scene = dict(presets["ppia"])
        scene["drive.g"] = 0.0
        scene["thermal.n_lf"] = 10.0
        grid = np.linspace(5.8435e9, 5.8445e9, 301)
        trace = synth_psd(scene, grid, detection)
        level = detection.total_gain * hbar * scene["hf.omega0"] \
            * (0.5 + detection.effective_added_photons)
        np.testing.assert_allclose(trace.values, level, rtol=1e-12)
        assert trace.units == "W/Hz"

    def test_extraction_pipeline_recovers_occupation(self, presets, detection):
        scene = dict(presets["ppia"])
        coop = scene["drive.cooperativity"]
        n_lf = (scene["thermal.n_th"] + 1) / (1 - coop) - 1
        scene["thermal.n_lf"] = n_lf
        f_peak = (scene["hf.omega0"] + scene["drive.detuning"]
                  - scene["lf.omega0"]) / TWO_PI
        grid = f_peak + np.linspace(-2e5, 2e5, 4001)
        trace = synth_psd(scene, grid, detection)
        background = detection.total_gain * hbar * scene["hf.omega0"] \
            * (0.5 + detection.effective_added_photons)
        kappa = scene["hf.kappa_i"] + scene["hf.kappa_e"]
        current = extract_current_psd(trace, background,
                                      detection.effective_added_photons,
                                      kappa, scene["hf.kappa_e"], coop,
                                      scene["lf.gamma0"],
                                      presets["ppia"]["coupling.zero_point_current"])
        gamma_eff = scene["lf.gamma0"] * (1 - coop)
        n_rec = thermal_photons_from_peak(current.values.max(), scene["lf.gamma0"],
                                          gamma_eff,
                                          presets["ppia"]["coupling.zero_point_current"])
        assert n_rec == pytest.approx(n_lf, rel=1e-6)

    def test_occupation_follows_drive_g(self, presets, detection):
        # without thermal.n_lf, n_th is heated by the cooperativity of drive.g
        scene = dict(presets["ppia"])
        grid = np.linspace(5.8435e9, 5.8445e9, 301)
        kappa = scene["hf.kappa_i"] + scene["hf.kappa_e"]
        for g in (scene["drive.g"], 1e4):
            scene["drive.g"] = g
            coop = cooperativity(g, kappa, scene["lf.gamma0"])
            explicit = dict(scene)
            explicit["thermal.n_lf"] = (scene["thermal.n_th"] + 1) / (1 - coop) - 1
            np.testing.assert_array_equal(synth_psd(scene, grid, detection).values,
                                          synth_psd(explicit, grid, detection).values)
        scene["drive.g"] = 1e6
        with pytest.raises(DomainError, match="cooperativity"):
            synth_psd(scene, grid, detection)

    def test_temperature_series_monotone(self, presets, detection):
        from photonpressure.noise import bose_occupation
        scene = dict(presets["ppia"])
        coop = scene["drive.cooperativity"]
        f_peak = (scene["hf.omega0"] + scene["drive.detuning"]
                  - scene["lf.omega0"]) / TWO_PI
        grid = f_peak + np.linspace(-1e5, 1e5, 801)
        peaks = []
        for t_bath in (0.015, 0.05, 0.1, 0.15, 0.22):
            # bath occupation plus the device's residual ~3.6 photons
            n_th = bose_occupation(scene["lf.omega0"], t_bath) + 3.6
            scene["thermal.n_lf"] = (n_th + 1) / (1 - coop) - 1
            trace = synth_psd(scene, grid, detection)
            peaks.append(trace.values.max())
        assert np.all(np.diff(peaks) > 0)

    def test_multiplicative_noise_determinism(self, presets, detection):
        scene = dict(presets["ppia"])
        scene["thermal.n_lf"] = 10.0
        grid = np.linspace(5.8435e9, 5.8445e9, 301)
        noise = NoiseSpec("multiplicative-gaussian", 0.03, seed=3)
        one = synth_psd(scene, grid, detection, noise=noise)
        two = synth_psd(scene, grid, detection, noise=noise)
        np.testing.assert_array_equal(one.values, two.values)


class TestNoiseSpecValidation:
    def test_kinds(self):
        with pytest.raises(DomainError):
            NoiseSpec("salt-and-pepper", 0.1, 0)

    def test_sigma(self):
        with pytest.raises(DomainError):
            NoiseSpec("none", -0.1, 0)

    @pytest.mark.parametrize("seed", [-1, 2 ** 128])
    def test_seed_outside_generator_key_range(self, seed):
        with pytest.raises(DomainError):
            NoiseSpec("additive-complex-gaussian", 0.01, seed)

    def test_sigma_without_kind_is_config_error(self):
        # a sigma with no kind would be read and then have no effect
        with pytest.raises(ConfigError, match="noise.kind"):
            noise_from({"noise.sigma": 0.002}, seed=3)
        assert noise_from({"noise.sigma": 0.0}, seed=3) is None
        assert noise_from({"noise.kind": "none", "noise.sigma": 0.002}, seed=3) is None

    @pytest.mark.parametrize("sigma", [None, 0.0])
    def test_kind_without_sigma_is_config_error(self, sigma):
        # a kind with no sigma would be read and then have no effect
        params = {"noise.kind": "additive-complex-gaussian"}
        if sigma is not None:
            params["noise.sigma"] = sigma
        with pytest.raises(ConfigError, match="noise.sigma"):
            noise_from(params, seed=3)
