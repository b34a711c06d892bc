import io
import json
import math

import numpy as np
import pytest

from photonpressure.cli import main
from photonpressure.dynamics import backaction_sideband, cooperativity
from photonpressure.errors import ConfigError, DomainError
from photonpressure.presets import _PRESETS, need, preset
from photonpressure.squid import single_photon_coupling

from oracles import squid_frequency

TWO_PI = 2 * math.pi

# every command that each preset serves, as the arguments before --preset
SWEEP = ["sweep", "--outer", "drive.sideband_offset:-4e5:4e5:3"]
PRESET_COMMANDS = {
    **{name: [["respond", "--model", "bare"], ["synth", "--model", "bare"]]
       for name in ("lf", "hf", "hf_fit")},
    "geometry": [["params"]],
    "flux_arch": [["params"]],
    "backaction": [["backaction"], ["respond", "--model", "lf_pumped"]],
    **{f"strong_coupling_{x}": [["respond"], ["synth", "--model", "pumped"], ["nms"], SWEEP]
       for x in "ABCD"},
    "ppia": [["psd"], ["synth", "--model", "psd"]],
}
PAIRS = [(name, argv) for name, commands in PRESET_COMMANDS.items() for argv in commands]

# each preset key is set to each of these in turn
EDGE_VALUES = (0.0, -1.0, 1e300, -1e300, 1e30, 1e-300, 1e-30, -1e-30)


def written_numbers(path):
    """Every number in an output file: a JSON report's values, or a table's."""
    text = path.read_text()
    if text.startswith("{"):
        return np.array([v for v in json.loads(text).values() if isinstance(v, float)])
    return np.loadtxt(io.StringIO(text), ndmin=1)


# each fit model: the preset its input is made from, and the command that
# writes that input (the arch points come from the arch model itself)
FIT_INPUTS = {
    "bare": ("hf_fit", ["synth", "--model", "bare"]),
    "pumped": ("strong_coupling_B", ["synth", "--model", "pumped"]),
    "lorentzian": ("ppia", ["psd"]),
    "backaction": ("backaction", ["backaction"]),
    "flux_arch": ("flux_arch", None),
}
# the preset keys each fit reads; a fit that reads none is given no preset
FIT_KEYS = {"pumped": ("hf.kappa_e", "lf.gamma0", "drive.g", "lf.omega0", "drive.detuning"),
            "flux_arch": ("squid.total_inductance",)}


def write_fit_input(model, overrides, path):
    """Write the input of ``fit --model model`` to ``path``, 201 points (19 arch
    points) from its preset with the values ``overrides`` set; returns the exit
    code of the command that wrote it."""
    name, command = FIT_INPUTS[model]
    if command is not None:
        settings = [arg for key, value in overrides.items()
                    for arg in ("--set", f"{key}={value!r}")]
        return main([*command, "--preset", name, "--points", "201", *settings,
                     "--out", str(path)])
    cfg = {**preset(name), **overrides}
    phi = np.linspace(-0.45, 0.45, 19)
    try:
        freq = squid_frequency(phi, *(cfg[key] for key in
                                      ("squid.omega0", "squid.dilution", "squid.gamma_l")))
    except DomainError:
        return DomainError.exit_code
    path.write_text("".join(f"{p:.17g} {f / TWO_PI:.17g}\n" for p, f in zip(phi, freq)))
    return 0


class TestCatalog:
    def test_known_scenes_present(self):
        assert set(PRESET_COMMANDS) == set(_PRESETS)

    @pytest.mark.parametrize("name", PRESET_COMMANDS)
    def test_every_preset_runs_a_command(self, tmp_path, name):
        for command in PRESET_COMMANDS[name]:
            out = tmp_path / command[0]
            assert main([*command, "--preset", name, "--out", str(out)]) == 0, command
            assert out.stat().st_size > 0

    @pytest.mark.parametrize("name, command", PAIRS,
                             ids=[f"{name}-{argv[0]}" for name, argv in PAIRS])
    def test_edge_values_exit_with_a_documented_code(self, tmp_path, name, command):
        # a run ends with exit 0 and only finite numbers written, or with one of
        # the documented error codes and no file; never with an exception
        out = tmp_path / "out"
        points = [] if command[0] == "params" else ["--points", "201"]
        for key in preset(name):
            for value in EDGE_VALUES:
                argv = [*command, "--preset", name, *points, "--set", f"{key}={value!r}",
                        "--out", str(out)]
                try:
                    code = main(argv)
                except Exception as exc:  # name the run; the chained traceback shows where
                    raise AssertionError(f"{' '.join(argv)} raised {exc!r}") from exc
                assert code in (0, 2, 3, 4, 5), argv
                if code == 0:
                    assert np.all(np.isfinite(written_numbers(out))), argv
                    out.unlink()
                else:
                    assert not out.exists(), argv

    @pytest.mark.parametrize("model", FIT_INPUTS)
    def test_fit_edge_values_exit_with_a_documented_code(self, tmp_path, capsys, model):
        # the fit runs on its input made with each preset key at each edge
        # value, and on the plain input with each key it reads at each edge
        # value; it ends with exit 0 and only finite numbers written, or with
        # one error line and no file
        name = FIT_INPUTS[model][0]
        keys = FIT_KEYS.get(model, ())
        plain = tmp_path / "plain.dat"
        assert write_fit_input(model, {}, plain) == 0
        runs = [(plain, key, value) for key in keys for value in EDGE_VALUES]
        for key in preset(name):
            for value in EDGE_VALUES:
                path = tmp_path / f"in{len(runs)}.dat"
                if write_fit_input(model, {key: value}, path) == 0:
                    runs.append((path, key, value))
        capsys.readouterr()
        out = tmp_path / "report.json"
        written = [out, tmp_path / "report.json.trace"]
        for path, key, value in runs:
            settings = ["--preset", name, "--set", f"{key}={value!r}"] if keys else []
            argv = ["fit", str(path), "--model", model, *settings, "--out", str(out)]
            try:
                code = main(argv)
            except Exception as exc:  # name the run; the chained traceback shows where
                raise AssertionError(f"{' '.join(argv)} raised {exc!r}") from exc
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4, 5), argv
            if code == 0:
                assert err == "", argv
                for report in (f for f in written if f.exists()):
                    assert np.all(np.isfinite(written_numbers(report))), argv
                    report.unlink()
            else:
                assert err.count("\n") == 1 and "Traceback" not in err, (argv, err)
                assert not any(f.exists() for f in written), argv

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
        _, (peak,) = backaction_sideband(np.array([0.0]), scene["drive.g"],
                                         scene["drive.kappa_eff"], "red")
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
