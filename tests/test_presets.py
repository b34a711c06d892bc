import math

import pytest

from photonpressure.cli import main
from photonpressure.dynamics import backaction_sideband, cooperativity
from photonpressure.errors import ConfigError
from photonpressure.presets import _PRESETS, need, preset
from photonpressure.squid import single_photon_coupling

TWO_PI = 2 * math.pi

# one command that each preset serves alone
PRESET_COMMANDS = {
    "lf": ["respond", "--model", "bare"],
    "hf": ["respond", "--model", "bare"],
    "hf_fit": ["respond", "--model", "bare"],
    "geometry": ["params"],
    "flux_arch": ["params"],
    "backaction": ["backaction"],
    **{f"strong_coupling_{x}": ["respond"] for x in "ABCD"},
    "ppia": ["psd"],
}


class TestCatalog:
    def test_known_scenes_present(self):
        assert set(PRESET_COMMANDS) == set(_PRESETS)

    @pytest.mark.parametrize("name", PRESET_COMMANDS)
    def test_every_preset_runs_a_command(self, tmp_path, name):
        argv = [*PRESET_COMMANDS[name], "--preset", name, "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert (tmp_path / "out").stat().st_size > 0

    def test_unknown_preset_lists_catalog(self):
        with pytest.raises(ConfigError, match="available"):
            preset("nope")

    def test_copies_are_independent(self):
        one = preset("backaction")
        one["drive.g"] = 0.0
        assert preset("backaction")["drive.g"] > 0

    def test_every_preset_value_reads_as_finite(self):
        for name, values in _PRESETS.items():
            for key in values:
                assert math.isfinite(need(values, key)), (name, key)


class TestSceneConsistency:
    def test_backaction_scene_peak(self):
        scene = preset("backaction")
        peak = backaction_sideband(0.0, scene["drive.g"],
                                   scene["drive.kappa_eff"], "red").damping_shift
        assert peak == pytest.approx(TWO_PI * 22e3, rel=1e-12)

    def test_strong_coupling_d_cooperativity(self):
        scene = preset("strong_coupling_D")
        c = cooperativity(scene["drive.g"],
                          scene["hf.kappa_i"] + scene["hf.kappa_e"],
                          scene["lf.gamma0"])
        assert c == pytest.approx(53.0, rel=0.01)
        assert scene["drive.g"] / math.pi == pytest.approx(TWO_PI * 250e3 / math.pi)

    def test_ppia_scene_narrowing(self):
        scene = preset("ppia")
        kappa = scene["hf.kappa_i"] + scene["hf.kappa_e"]
        coop = cooperativity(scene["drive.g"], kappa, scene["lf.gamma0"])
        assert coop == pytest.approx(scene["drive.cooperativity"], rel=1e-12)
        assert scene["lf.gamma0"] * (1 - coop) == pytest.approx(TWO_PI * 10e3, rel=1e-12)
        assert scene["hf.kappa_e"] / kappa == pytest.approx(0.1, rel=1e-12)

    @pytest.mark.parametrize("label", "ABC")
    def test_scene_coupling_follows_flux_arch(self, label):
        # g = sqrt(n_c) g0 at the scene's bias, within half a unit of the
        # quote's last digit.  Scene D's 250 kHz is the reported value, 3.0%
        # below the 257.70 kHz the arch gives at bias 0.50, so D is not here.
        arch, scene = preset("flux_arch"), preset(f"strong_coupling_{label}")
        g0 = single_photon_coupling(scene["drive.flux_bias"], arch["squid.omega0"],
                                    arch["squid.dilution"], arch["squid.gamma_l"],
                                    arch["coupling.zero_point_flux_phi0"])
        assert abs(math.sqrt(scene["drive.n_c"]) * g0 - scene["drive.g"]) <= TWO_PI * 50.0

    def test_coupling_scenes_grow_with_bias(self):
        gs = [preset(f"strong_coupling_{x}")["drive.g"] for x in "ABCD"]
        assert gs == sorted(gs)


class TestNeed:
    def test_value_default_and_missing(self):
        assert need({"a.b": "1.5"}, "a.b") == 1.5
        assert need({}, "a.b", 2) == 2.0
        with pytest.raises(ConfigError, match="missing parameter 'a.b'"):
            need({}, "a.b")

    @pytest.mark.parametrize("value", ["abc", None, math.nan, math.inf, -math.inf])
    def test_bad_value_names_its_key(self, value):
        with pytest.raises(ConfigError, match="'a.b'"):
            need({"a.b": value}, "a.b")
