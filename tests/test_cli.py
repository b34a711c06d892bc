import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import photonpressure
from photonpressure.cli import main
from photonpressure.fitting import fit_lorentzian, fit_resonance
from photonpressure.squid import squid_frequency
from photonpressure.synth import make_rng
from photonpressure.traces import read_complex_trace, read_points, read_spectrum_trace

TWO_PI = 2 * math.pi
LF = TWO_PI * 391e6  # lf.omega0 of the strong_coupling and ppia presets


def run(*argv):
    return main(list(argv))


def package_env():
    """The environment of a child interpreter that imports this package."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(photonpressure.__file__).resolve().parents[1]),
         os.environ.get("PYTHONPATH", "")]))


class TestExitCodes:
    def test_unknown_preset_is_config_error(self, tmp_path, capsys):
        assert run("respond", "--preset", "nope", "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err.startswith("configuration error: unknown preset 'nope'")

    def test_bad_flag_is_config_error(self):
        assert run("respond", "--frobnicate") == 2

    def test_missing_key_is_config_error(self, tmp_path):
        assert run("backaction", "--out", str(tmp_path / "x")) == 2

    def test_malformed_file_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.dat"
        bad.write_text("1.0 2.0 3.0\nbroken line\n")
        assert run("fit", str(bad), "--model", "bare") == 3
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_is_parse_error(self, tmp_path):
        assert run("fit", str(tmp_path / "missing.dat")) == 3

    @pytest.mark.parametrize("argv, code, named", [
        (["fit", "{tmp}"], 3, "{tmp}"),
        (["params", "--params", "{tmp}"], 3, "{tmp}"),
        (["fit", "{tmp}/bin.dat"], 3, "{tmp}/bin.dat"),
        (["respond", "--preset", "strong_coupling_D", "--set", "drive.g=1e300"], 4, ""),
        (["backaction", "--preset", "backaction", "--set", "drive.g=1e200"], 4, ""),
        (["nms", "--preset", "strong_coupling_D", "--set", "drive.kappa_eff=1e308",
          "--set", "hf.kappa_i=1e308"], 4, ""),
        (["backaction", "--preset", "backaction", "--set", "drive.kappa_eff=1e-300"], 4, ""),
        (["respond", "--preset", "strong_coupling_D", "--params", "{tmp}/bool.json"], 2, ""),
        (["respond", "--preset", "strong_coupling_D", "--out", "{tmp}/missing/x.dat"], 2,
         "{tmp}/missing/x.dat"),
        # omega^2 underflows to 0 in circuit.infer_inductance, which divides by it
        (["params", "--preset", "geometry", "--set", "geometry.lf_frequency=1e-300"], 4,
         "too small"),
        (["params", "--preset", "geometry", "--set", "idc.hf_frequency=1e-300"], 4,
         "too small"),
        # normal_modes holds for a pump exactly on the red sideband only
        (["nms", "--preset", "ppia"], 4, "7.82e+08 Hz"),
        (["nms", "--preset", "strong_coupling_B", "--set", "drive.sideband=blue"], 4,
         "7.82e+08 Hz"),
        (["nms", "--preset", "strong_coupling_B", "--set", "drive.sideband_offset=3e5"], 4,
         "47746.5 Hz"),
    ], ids=["fit-directory", "params-directory", "fit-not-utf8", "respond-overflow",
            "backaction-overflow", "nms-overflow", "backaction-nan-row", "json-boolean",
            "unwritable-out", "params-lf-underflow", "params-hf-underflow", "nms-blue-preset",
            "nms-blue-sideband", "nms-sideband-offset"])
    def test_unusable_input_ends_with_one_error_line(self, tmp_path, capsys, argv, code,
                                                     named):
        # ``named`` is what the message must name (a file, or the value at
        # fault); a case with its own --out writes there instead of to out.dat
        (tmp_path / "bin.dat").write_bytes(b"\xff\xfe")
        (tmp_path / "bool.json").write_text('{"hf.kappa_i": true}')
        argv = [a.format(tmp=tmp_path) for a in argv]
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "out.dat")]
        out = Path(argv[argv.index("--out") + 1])
        assert run(*argv) == code
        label = {2: "configuration error", 3: "parse error", 4: "domain error"}[code]
        err = capsys.readouterr().err
        assert err.startswith(label + ": ") and err.count("\n") == 1
        assert named.format(tmp=tmp_path) in err
        assert not out.exists()

    @pytest.mark.parametrize("field, code", [("1_000", 3), ("１", 3), ("nan", 4), ("inf", 4)],
                             ids=["underscore", "fullwidth", "nan", "inf"])
    def test_trace_field_verdicts(self, tmp_path, capsys, field, code):
        # the trace reader parses with numpy.loadtxt: a field only float() takes
        # is a parse error that names its line; a non-finite number parses, and
        # the trace refuses it
        trace = tmp_path / "t.dat"
        trace.write_text(f"# columns: frequency_hz re im\n1 1 0\n2 {field} 0\n")
        out = tmp_path / "r.json"
        assert run("fit", str(trace), "--out", str(out)) == code
        assert ("line 3:" in capsys.readouterr().err) == (code == 3)
        assert not out.exists()

    def test_trace_without_dip_is_domain_error(self, tmp_path, capsys):
        # kappa_e = 0 decouples the resonator from the line: |S11| = 1
        # everywhere, and no resonance can be read off the trace
        flat, out = tmp_path / "flat.dat", tmp_path / "flat.json"
        assert run("synth", "--model", "bare", "--preset", "hf_fit",
                   "--set", "hf.kappa_e=0", "--out", str(flat)) == 0
        assert run("fit", str(flat), "--model", "bare", "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert err.startswith("domain error: ") and err.count("\n") == 1
        assert "no dip" in err
        assert not out.exists() and not Path(f"{out}.trace").exists()

    @pytest.mark.parametrize("argv, option, detail", [
        (["respond", "--preset", "strong_coupling_D", "--grid=-inf:1:5"], "--grid", "-inf:1:5"),
        (["backaction", "--preset", "backaction", "--grid=-inf:0:3"], "--grid", "-inf:0:3"),
        (["sweep", "--preset", "strong_coupling_D",
          "--outer", "drive.sideband_offset:-inf:1:3"], "--outer", "-inf:1:3"),
        (["sweep", "--preset", "strong_coupling_D",
          "--outer", "drive.sideband_offset:1:0:3"], "--outer", "start < stop"),
        (["sweep", "--preset", "strong_coupling_D",
          "--outer", "drive.sideband_offset:0:1:1"], "--outer", "at least 2 points"),
    ], ids=["respond", "backaction", "sweep", "sweep-reversed", "sweep-one-point"])
    def test_grid_end_not_finite_is_config_error(self, tmp_path, capsys, argv, option, detail):
        # the message names the option that gave the grid
        out = tmp_path / "out.dat"
        assert run(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {option} ") and detail in err, err
        assert not out.exists()

    def test_module_run_prints_one_line(self, tmp_path):
        # as a program, numpy's warnings about the NaN row would reach stderr too
        out = tmp_path / "ba.dat"
        proc = subprocess.run([sys.executable, "-m", "photonpressure.cli", "backaction",
                               "--preset", "backaction", "--set", "drive.kappa_eff=1e-300",
                               "--out", str(out)], capture_output=True, text=True,
                              env=package_env())
        assert proc.returncode == 4
        assert proc.stderr.startswith("domain error: ") and proc.stderr.count("\n") == 1
        assert not out.exists()

    def test_missing_out_fails_before_computing(self, monkeypatch, capsys):
        def computed(*args, **kwargs):
            raise AssertionError("computed a trace before checking --out")

        monkeypatch.setattr("photonpressure.cli.synth_s11", computed)
        assert run("synth", "--model", "bare", "--preset", "hf_fit") == 2
        assert run("sweep", "--preset", "strong_coupling_D",
                   "--outer", "drive.g:0:3e5:3") == 2
        assert capsys.readouterr().err.count("requires --out") == 2

    def test_domain_error(self, tmp_path):
        # evaluating the arch beyond its edge diverges
        assert run("params", "--preset", "geometry",
                   "--set", "squid.gamma_l=5.0",
                   "--out", str(tmp_path / "x")) == 4

    @pytest.mark.parametrize("setting, message", [
        ("geometry.plate_area=-1", "plate area must be positive"),
        ("geometry.dielectric_thickness=0", "dielectric thickness must be positive"),
        ("geometry.relative_permittivity=0.5", "relative permittivity must be >= 1"),
        ("geometry.coupling_capacitance=-1e-15", "coupling capacitance must be >= 0"),
        ("geometry.feedline_impedance=0",
         "impedance, inductance and capacitance must be positive"),
        ("idc.finger_count=2", "interdigitated capacitor needs at least 3 fingers"),
        ("idc.gap_width=0", "finger dimensions must be positive"),
        ("idc.effective_permittivity=0.9", "effective permittivity must be >= 1"),
        ("idc.coupling_capacitance=-1e-15", "coupling capacitance must be >= 0"),
        # a negative coupling capacitor larger than its capacitor
        ("geometry.coupling_capacitance=-1", "coupling capacitance must be >= 0"),
        ("idc.coupling_capacitance=-1", "coupling capacitance must be >= 0"),
        ("squid.dilution=1.2", "dilution must lie in (0, 1)"),
        ("squid.dilution=0", "dilution must lie in (0, 1)"),
        ("squid.gamma_l=0", "arch widening must be positive"),
        ("squid.omega0=-1", "sweet-spot frequency must be positive"),
        ("squid.total_inductance=0", "total inductance must be positive"),
        ("coupling.zero_point_flux_phi0=-1", "zero-point flux must be >= 0"),
    ], ids=["plate-area", "thickness", "permittivity", "coupling", "feedline",
            "fingers", "gap", "idc-permittivity", "idc-coupling", "coupling-large",
            "idc-coupling-large", "dilution-above", "dilution-zero", "widening",
            "sweet-spot", "total-inductance", "zero-point-flux"])
    def test_bad_geometry_is_domain_error(self, tmp_path, capsys, setting, message):
        # each circuit and arch function checks the inputs it uses
        out = tmp_path / "out.json"
        assert run("params", "--preset", "geometry", "--set", setting,
                   "--out", str(out)) == 4
        assert capsys.readouterr().err == f"domain error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("idc.finger_count", "90.5"), ("idc.parallel_count", "2.9"),
        ("idc.parallel_count", "0"), ("idc.parallel_count", "-1"),
    ], ids=["fractional-fingers", "fractional-parallel", "zero-parallel",
            "negative-parallel"])
    def test_count_not_a_whole_number_is_config_error(self, tmp_path, capsys, key, value):
        out = tmp_path / "out.json"
        assert run("params", "--preset", "geometry", "--set", f"{key}={value}",
                   "--out", str(out)) == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    def test_amplifying_cooperativity_is_domain_error(self, tmp_path):
        # thermal.n_lf follows drive.g; C = 4 g^2 / (kappa gamma0) >= 1 on the
        # blue sideband has no steady state
        out = tmp_path / "psd.dat"
        assert run("psd", "--preset", "ppia", "--set", "drive.g=1e6",
                   "--out", str(out)) == 4
        assert not out.exists()

    def test_nonconverged_fit_writes_no_files(self, tmp_path, monkeypatch, capsys):
        def nonconverged(*args, **kwargs):
            fit = fit_resonance(*args, **kwargs)
            fit.converged, fit.message = False, "maximum iterations reached"
            return fit

        trace = tmp_path / "hf.dat"
        out = tmp_path / "report.json"
        assert run("synth", "--model", "bare", "--preset", "hf_fit",
                   "--grid", "5.8425e9:5.8455e9:1201", "--out", str(trace)) == 0
        monkeypatch.setattr("photonpressure.fitting.fit_resonance", nonconverged)
        assert run("fit", str(trace), "--model", "bare", "--out", str(out)) == 5
        assert "maximum iterations reached" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["hf.dat"]

    def test_unidentifiable_backaction_fit_writes_nothing(self, tmp_path, capsys):
        # zero damping pins the seed at g = 0, where the model does not move
        # with either parameter: the normal matrix is singular, so there are
        # no uncertainties and no converged fit
        offsets = np.linspace(-3e5, 3e5, 51)
        points = tmp_path / "ba.dat"
        points.write_text("".join(f"{d:.17g} {d / 300:.17g} 0\n" for d in offsets))
        out = tmp_path / "z.json"
        assert run("fit", str(points), "--model", "backaction", "--out", str(out)) == 5
        assert "not identifiable" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value, code", [("0", 4), ("", 2)], ids=["zero", "empty"])
    def test_bad_flux_arch_total_inductance(self, tmp_path, value, code):
        # a set key is read whatever its truth value: 0 is not a positive
        # inductance, and an empty value is not a number
        arch = (TWO_PI * 5.844e9, 0.982, 0.59)
        phi = np.linspace(-0.5, 0.5, 21)
        points = tmp_path / "arch.dat"
        points.write_text("\n".join(f"{p:.17g} {f:.17g}" for p, f in
                                    zip(phi, squid_frequency(phi, *arch) / TWO_PI)) + "\n")
        out = tmp_path / "arch.json"
        assert run("fit", str(points), "--model", "flux_arch",
                   "--set", f"squid.total_inductance={value}", "--out", str(out)) == code
        assert not out.exists()

    def test_axis_collision(self, tmp_path):
        assert run("sweep", "--preset", "strong_coupling_D",
                   "--outer", "drive.g:0:1e5:3",
                   "--set", "drive.g=1.0",
                   "--out", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("argv", [
        ["respond", "--preset", "strong_coupling_D", "--set", "hf.kappa_i=abc"],
        ["nms", "--preset", "strong_coupling_D", "--set", "lf.gamma0=nan"],
        ["backaction", "--preset", "backaction", "--set", "drive.kappa_eff=nan"],
        ["nms", "--preset", "strong_coupling_D", "--set", "lf.omega0=inf"],
        ["respond", "--preset", "strong_coupling_D", "--points", "-5"],
        ["synth", "--model", "bare", "--preset", "hf_fit",
         "--set", "noise.kind=additive-complex-gaussian", "--set", "noise.sigma=0.01",
         "--seed", "-1"],
        ["respond", "--preset", "strong_coupling_D", "--set", "drive.sideband=green"],
        ["synth", "--model", "pumped", "--preset", "strong_coupling_A",
         "--set", "noise.sigma=0.002", "--seed", "3"],
        ["synth", "--model", "bare", "--preset", "hf_fit",
         "--set", "noise.kind=additive-complex-gaussian", "--seed", "3"],
    ], ids=["non-numeric", "nan-gamma0", "nan-kappa_eff", "inf-omega0",
            "negative-points", "negative-seed", "unknown-sideband", "sigma-without-kind",
            "kind-without-sigma"])
    def test_bad_value_is_config_error_and_writes_nothing(self, tmp_path, argv):
        out = tmp_path / "out.dat"
        assert run(*argv, "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["params", "--preset", "geometry", "--seed", "9"],
        ["params", "--preset", "geometry", "--units", "dbm"],
        ["respond", "--preset", "strong_coupling_D", "--units", "dbm"],
        ["backaction", "--preset", "backaction", "--seed", "9"],
        ["backaction", "--preset", "backaction", "--sideband", "blue"],
        ["nms", "--preset", "strong_coupling_D", "--units", "dbm"],
        ["synth", "--model", "bare", "--preset", "hf_fit", "--units", "dbm"],
        ["fit", "trace.dat", "--seed", "9"],
        ["sweep", "--preset", "strong_coupling_D", "--outer", "drive.g:0:1e5:3",
         "--seed", "9"],
    ], ids=["params-seed", "params-units", "respond-units", "backaction-seed",
            "backaction-sideband", "nms-units", "synth-bare-units", "fit-seed",
            "sweep-seed"])
    def test_option_the_command_does_not_read_is_config_error(self, tmp_path, argv):
        out = tmp_path / "out.dat"
        assert run(*argv, "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["respond", "--preset", "strong_coupling_D"],
        ["psd", "--preset", "ppia", "--set", "thermal.n_th=4"],
        ["sweep", "--preset", "strong_coupling_D", "--outer", "drive.g:0:1e5:3"],
    ], ids=["respond", "psd", "sweep"])
    def test_detuning_and_sideband_in_one_layer_is_config_error(self, tmp_path, argv):
        out = tmp_path / "out.dat"
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"drive.detuning": -LF, "drive.sideband": "red"}))
        assert run(*argv, "--set", "drive.detuning=-2.4e9",
                   "--set", "drive.sideband_offset=1e5", "--out", str(out)) == 2
        assert run(*argv, "--params", str(params), "--out", str(out)) == 2
        assert not out.exists()


class TestReproducibility:
    def test_identical_bytes_for_identical_config(self, tmp_path):
        a, b = tmp_path / "a.dat", tmp_path / "b.dat"
        for path in (a, b):
            assert run("synth", "--model", "bare", "--preset", "hf_fit",
                       "--set", "noise.kind=additive-complex-gaussian",
                       "--set", "noise.sigma=0.01", "--seed", "11",
                       "--grid", "5.8425e9:5.8455e9:257", "--out", str(path)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bare_lf_synth_matches_respond(self, tmp_path):
        # synth and respond share one default grid, built from lf.omega0 when
        # the parameters have no hf.omega0, and both apply background.*
        for extra in ([], ["--grid", "390e6:392e6:101"],
                      ["--set", "background.amplitude_offset=0.5"]):
            a, b = tmp_path / "a.dat", tmp_path / "b.dat"
            assert run("synth", "--model", "bare", "--preset", "lf", *extra,
                       "--out", str(a)) == 0
            assert run("respond", "--model", "bare", "--preset", "lf", *extra,
                       "--out", str(b)) == 0
            assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("extra", [
        [],
        ["--set", "noise.kind=multiplicative-gaussian", "--set", "noise.sigma=0.03",
         "--seed", "5", "--units", "si"],
    ], ids=["noiseless", "multiplicative-si"])
    def test_psd_synth_matches_psd(self, tmp_path, extra):
        a, b = tmp_path / "a.dat", tmp_path / "b.dat"
        argv = ["--preset", "ppia", "--set", "thermal.n_th=4", *extra]
        assert run("synth", "--model", "psd", *argv, "--out", str(a)) == 0
        assert run("psd", *argv, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_applies_background(self, tmp_path):
        # like respond and synth, sweep multiplies every trace by background.*
        argv = ["sweep", "--preset", "strong_coupling_D",
                "--outer", "drive.g:0:1e5:3", "--points", "41"]
        plain, scaled = tmp_path / "plain.dat", tmp_path / "scaled.dat"
        assert run(*argv, "--out", str(plain)) == 0
        assert run(*argv, "--set", "background.amplitude_offset=0.5",
                   "--out", str(scaled)) == 0
        _, a = read_points(plain, n_columns=42)
        _, b = read_points(scaled, n_columns=42)
        np.testing.assert_array_equal(b[:, 0], a[:, 0])
        np.testing.assert_allclose(b[:, 1:] - a[:, 1:], 20 * math.log10(0.5),
                                   rtol=0, atol=1e-6)

    @pytest.mark.parametrize("argv", [
        ["respond", "--preset", "strong_coupling_D", "--points", "101"],
        ["backaction", "--preset", "backaction", "--set", "drive.sideband=blue",
         "--points", "101"],
        ["nms", "--preset", "strong_coupling_D", "--points", "101"],
        ["psd", "--preset", "ppia", "--set", "thermal.n_th=4", "--units", "dbm",
         "--points", "101"],
    ], ids=["respond", "backaction", "nms", "psd"])
    def test_stdout_is_the_file_without_comments(self, tmp_path, capsys, argv):
        out = tmp_path / "out.dat"
        assert run(*argv, "--out", str(out)) == 0
        assert run(*argv) == 0
        rows = [line for line in out.read_bytes().splitlines(True)
                if not line.startswith(b"#")]
        assert capsys.readouterr().out.encode() == b"".join(rows)

    def test_lf_pumped_background_is_referenced_to_lf(self, tmp_path):
        # the background slope is referenced to the probed lf resonance, not to
        # hf.omega0 5.45 GHz away, where it would scale |S11| to ~30
        argv = ["synth", "--model", "lf_pumped", "--preset", "strong_coupling_D",
                "--set", "lf.gamma_i=46495.57", "--set", "lf.gamma_e=86708.65"]
        plain, shaped = tmp_path / "plain.dat", tmp_path / "shaped.dat"
        assert run(*argv, "--out", str(plain)) == 0
        assert run(*argv, "--set", "background.amplitude_slope=1e-9",
                   "--out", str(shaped)) == 0
        np.testing.assert_allclose(np.abs(read_complex_trace(shaped).values),
                                   np.abs(read_complex_trace(plain).values),
                                   rtol=0, atol=1e-2)

    @pytest.mark.parametrize("argv, sideband, detuning", [
        (["respond", "--preset", "strong_coupling_D", "--points", "101"],
         "drive.sideband_offset=1e5", -LF + 1e5),
        (["respond", "--preset", "strong_coupling_D", "--points", "101"],
         "drive.sideband=blue", LF),
        (["psd", "--preset", "ppia", "--set", "thermal.n_th=4", "--points", "101"],
         "drive.sideband_offset=1e5", LF + 1e5),
        (["sweep", "--preset", "strong_coupling_D", "--outer", "drive.g:1e5:3e5:3",
          "--points", "41"], "drive.sideband=blue", LF),
    ], ids=["respond-offset", "respond-blue", "psd-offset", "sweep-blue"])
    def test_sideband_keys_replace_the_preset_detuning(self, tmp_path, argv, sideband,
                                                       detuning):
        # a later layer's sideband key drops the preset's drive.detuning, so the
        # run equals one with that detuning given outright
        by_sideband, explicit, preset = (tmp_path / n for n in ("a.dat", "b.dat", "c.dat"))
        assert run(*argv, "--set", sideband, "--out", str(by_sideband)) == 0
        assert run(*argv, "--set", f"drive.detuning={detuning!r}",
                   "--out", str(explicit)) == 0
        assert run(*argv, "--out", str(preset)) == 0
        assert by_sideband.read_bytes() == explicit.read_bytes()
        assert by_sideband.read_bytes() != preset.read_bytes()

    def test_sideband_in_params_file_replaces_the_preset_detuning(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"drive.sideband_offset": 1e5}))
        argv = ["respond", "--preset", "strong_coupling_D", "--points", "101"]
        by_file, explicit = tmp_path / "a.dat", tmp_path / "b.dat"
        assert run(*argv, "--params", str(params), "--out", str(by_file)) == 0
        assert run(*argv, "--set", f"drive.detuning={-LF + 1e5!r}",
                   "--out", str(explicit)) == 0
        assert by_file.read_bytes() == explicit.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.dat", tmp_path / "b.dat"
        run("synth", "--model", "bare", "--preset", "hf_fit",
            "--set", "noise.kind=additive-complex-gaussian",
            "--set", "noise.sigma=0.01", "--seed", "11",
            "--grid", "5.8425e9:5.8455e9:257", "--out", str(a))
        run("synth", "--model", "bare", "--preset", "hf_fit",
            "--set", "noise.kind=additive-complex-gaussian",
            "--set", "noise.sigma=0.01", "--seed", "12",
            "--grid", "5.8425e9:5.8455e9:257", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()


class TestParams:
    def test_geometry_report_values(self, tmp_path):
        out = tmp_path / "report.json"
        assert run("params", "--preset", "geometry", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["lf.capacitance"] == pytest.approx(620e-12, rel=0.01)
        assert report["lf.inductance"] == pytest.approx(267e-12, rel=0.01)
        assert report["lf.external_rate"] == pytest.approx(TWO_PI * 14.5e3, rel=0.02)
        assert report["hf.idc_capacitance"] == pytest.approx(507e-15, rel=0.01)
        assert report["coupling.mutual_inductance"] == pytest.approx(14.39e-12, rel=1e-3)
        assert report["squid.junction_inductance"] == pytest.approx(27e-12, rel=0.02)

    def test_override_beats_preset(self, tmp_path):
        out = tmp_path / "report.json"
        assert run("params", "--preset", "geometry",
                   "--set", "geometry.plate_area=1.536e-6", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["lf.capacitance"] == pytest.approx(2 * 617.2e-12, rel=1e-3)

    def test_empty_override_set_is_identity(self, tmp_path):
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        run("params", "--preset", "geometry", "--out", str(one))
        run("params", "--preset", "geometry", "--out", str(two))
        assert one.read_bytes() == two.read_bytes()

    def test_g0_table_consistent(self, tmp_path):
        from photonpressure.squid import single_photon_coupling
        out = tmp_path / "report.json"
        run("params", "--preset", "geometry", "--out", str(out))
        report = json.loads(out.read_text())
        arch = (TWO_PI * 5.844e9, 0.982, 0.59)
        phi_zpf = report["coupling.zero_point_flux_phi0"]
        for phi in (0.0, 0.14, 0.5):
            assert report[f"coupling.g0_at_{phi:g}"] == pytest.approx(
                single_photon_coupling(phi, *arch, phi_zpf), rel=1e-9)


class TestFitRoundTrips:
    def test_bare_fit_recovers_hf_set(self, tmp_path):
        trace = tmp_path / "hf.dat"
        report_path = tmp_path / "report.json"
        assert run("synth", "--model", "bare", "--preset", "hf_fit",
                   "--set", "background.amplitude_offset=0.95",
                   "--set", "background.phase_slope=2e-9",
                   "--grid", "5.8425e9:5.8455e9:1201", "--out", str(trace)) == 0
        assert run("fit", str(trace), "--model", "bare", "--out", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        assert report["omega0"] == pytest.approx(TWO_PI * 5.844e9, rel=1e-9)
        assert report["kappa_i"] == pytest.approx(TWO_PI * 163e3, rel=1e-6)
        assert report["kappa_e"] == pytest.approx(TWO_PI * 28e3, rel=1e-6)
        assert report["converged"] is True
        corrected = report_path.parent / (report_path.name + ".trace")
        assert corrected.exists()

    def test_circle_rotation_round_trip(self, tmp_path):
        # synth applies background.circle_rotation, fit recovers it, and the
        # report fed back through --params reproduces the trace
        sigma = 1e-3
        argv = ["synth", "--model", "bare", "--preset", "hf_fit",
                "--grid", "5.8425e9:5.8455e9:1201"]
        background = ["--set", "background.amplitude_offset=0.95",
                      "--set", "background.phase_slope=2e-9",
                      "--set", "background.circle_rotation=0.1"]
        noisy, clean, again = (tmp_path / n for n in ("noisy.dat", "clean.dat", "again.dat"))
        report_path = tmp_path / "report.json"
        assert run(*argv, *background, "--set", "noise.kind=additive-complex-gaussian",
                   "--set", f"noise.sigma={sigma}", "--seed", "4", "--out", str(noisy)) == 0
        assert run(*argv, *background, "--out", str(clean)) == 0
        assert run("fit", str(noisy), "--model", "bare", "--out", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        assert (abs(report["background.circle_rotation"] - 0.1)
                < 3 * report["background.circle_rotation_err"])
        assert run(*argv, "--params", str(report_path), "--out", str(again)) == 0
        reproduced = read_complex_trace(again).values
        assert np.abs(reproduced - read_complex_trace(noisy).values).max() < 6 * sigma
        assert np.abs(reproduced - read_complex_trace(clean).values).max() < sigma

    def test_pumped_fit_recovers_coupling(self, tmp_path):
        trace = tmp_path / "ppit.dat"
        report_path = tmp_path / "report.json"
        assert run("synth", "--model", "pumped", "--preset", "strong_coupling_B",
                   "--grid", "5.8428e9:5.8452e9:2001", "--out", str(trace)) == 0
        assert run("fit", str(trace), "--model", "pumped",
                   "--preset", "strong_coupling_B", "--out", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        assert report["g"] == pytest.approx(TWO_PI * 111.8e3, rel=1e-3)
        assert report["kappa_i"] == pytest.approx(TWO_PI * 222e3, rel=1e-3)
        assert report["lf_frequency"] == pytest.approx(TWO_PI * 391e6, rel=1e-6)

    def test_weak_coupling_fit_finds_g_or_exits_5(self, tmp_path, presets):
        # scene A at g/2pi = 11.6 kHz, below the strong-coupling threshold,
        # fitted from a parameter file without drive.g and lf.omega0: the
        # report holds g within 5 of its sigma, or the fit is refused
        g = 73135.11901145386
        trace, params, out = tmp_path / "weak.dat", tmp_path / "weak.json", tmp_path / "r.json"
        scene = {k: v for k, v in presets["strong_coupling_A"].items()
                 if k not in ("drive.g", "lf.omega0")}
        params.write_text(json.dumps(scene))
        assert run("synth", "--model", "pumped", "--preset", "strong_coupling_A",
                   "--set", f"drive.g={g!r}", "--grid", "5842000000:5846000000:2001",
                   "--set", "background.amplitude_offset=0.8",
                   "--set", "background.amplitude_slope=1e-8",
                   "--set", "background.phase_offset=0.3",
                   "--set", "background.phase_slope=2e-8",
                   "--set", "noise.kind=additive-complex-gaussian",
                   "--set", "noise.sigma=0.005", "--seed", "27", "--out", str(trace)) == 0
        code = run("fit", str(trace), "--model", "pumped", "--params", str(params),
                   "--out", str(out))
        assert code in (0, 5)
        if code == 0:
            report = json.loads(out.read_text())
            assert abs(report["g"] - g) <= 5.0 * report["g_err"], report["g"]

    def test_lorentzian_fit_of_thermal_peak(self, tmp_path, presets):
        # the blue-pumped thermal peak of ppia sits at 5.844 GHz with the
        # effective width Gamma0 (1 - C); the report is the fit's own dict
        spectrum, report_path = tmp_path / "p.dat", tmp_path / "r.json"
        assert run("psd", "--preset", "ppia", "--set", "thermal.n_th=4",
                   "--out", str(spectrum)) == 0
        assert run("fit", str(spectrum), "--model", "lorentzian",
                   "--out", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        assert report["converged"] is True
        assert report["center"] == pytest.approx(5.844e9, abs=1.0)
        cfg = presets["ppia"]
        width = cfg["lf.gamma0"] * (1.0 - cfg["drive.cooperativity"]) / TWO_PI
        assert report["fwhm"] == pytest.approx(width, rel=0.1)
        assert report == fit_lorentzian(read_spectrum_trace(spectrum)).as_dict()

    def test_flux_arch_fit_from_point_file(self, tmp_path):
        arch = (TWO_PI * 5.844e9, 0.982, 0.59)
        phi = np.linspace(-0.5, 0.5, 21)
        freq_hz = squid_frequency(phi, *arch) / TWO_PI
        points = tmp_path / "arch.dat"
        points.write_text("# columns: flux_phi0 frequency_hz\n" + "\n".join(
            f"{p:.17g} {f:.17g}" for p, f in zip(phi, freq_hz)) + "\n")
        report_path = tmp_path / "arch.json"
        assert run("fit", str(points), "--model", "flux_arch",
                   "--set", "squid.total_inductance=742e-12",
                   "--out", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        assert report["dilution"] == pytest.approx(0.982, rel=1e-6)
        assert report["gamma_l"] == pytest.approx(0.59, rel=1e-6)
        assert report["junction_inductance"] == pytest.approx(26.7e-12, rel=0.01)
        assert report["critical_current"] == pytest.approx(12.3e-6, rel=0.01)

    def test_backaction_round_trip(self, tmp_path):
        curve = tmp_path / "ba.dat"
        report_path = tmp_path / "ba.json"
        assert run("backaction", "--preset", "backaction", "--out", str(curve)) == 0
        assert run("fit", str(curve), "--model", "backaction",
                   "--out", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        assert report["g"] == pytest.approx(TWO_PI * 24.6e3, rel=1e-3)
        assert report["kappa_eff"] == pytest.approx(TWO_PI * 110e3, rel=1e-6)


def noisy_fit_input(model, path):
    """Write a noisy input for ``fit --model model`` to ``path``; returns the
    fit's own arguments."""
    seed = ["--seed", "7", "--out", str(path)]
    if model in ("bare", "pumped"):
        preset, sigma = ("hf_fit", 0.01) if model == "bare" else ("strong_coupling_B", 5e-4)
        assert run("synth", "--model", model, "--preset", preset,
                   "--set", "noise.kind=additive-complex-gaussian",
                   "--set", f"noise.sigma={sigma}", *seed) == 0
        return ["--preset", preset]
    if model == "lorentzian":
        assert run("psd", "--preset", "ppia", "--set", "thermal.n_th=4",
                   "--set", "noise.kind=multiplicative-gaussian", "--set", "noise.sigma=0.03",
                   *seed) == 0
    elif model == "backaction":
        assert run("backaction", "--preset", "backaction", "--out", str(path)) == 0
        _, data = read_points(path, n_columns=3)
        data[:, 1:] += 200.0 * make_rng(7).standard_normal(data[:, 1:].shape)
        np.savetxt(path, data)
    else:
        path.write_bytes((Path(__file__).parent / "flux_arch.dat").read_bytes())
    return []


@pytest.mark.parametrize("model", ["bare", "pumped", "lorentzian", "flux_arch", "backaction"])
def test_fit_report_schema(tmp_path, model):
    # each value once, the engine's record, and for a resonance fit the
    # background under the background.* keys that --params reads back
    data, out = tmp_path / "in.dat", tmp_path / "report.json"
    fit_args = noisy_fit_input(model, data)
    assert run("fit", str(data), "--model", model, *fit_args, "--out", str(out)) == 0
    report = json.loads(out.read_text())
    floats = [v for v in report.values() if isinstance(v, float)]
    assert len({v.hex() for v in floats}) == len(floats), report
    assert report["evaluations"] >= report["iterations"] + 1
    assert isinstance(report["message"], str) and report["message"]
    if model in ("bare", "pumped"):
        fields = ("amplitude_offset", "amplitude_slope", "phase_offset", "phase_slope",
                  "circle_rotation")
        assert {f"background.{f}" for f in fields + ("reference_frequency",)} <= set(report)
        assert {f"background.{f}_err" for f in fields} <= set(report)
        undotted = {*fields, "reference_frequency", "theta"}
        assert not [key for key in report if key.removesuffix("_err") in undotted]


class TestSimulationCommands:
    def test_backaction_peak_damping(self, tmp_path):
        out = tmp_path / "ba.dat"
        assert run("backaction", "--preset", "backaction",
                   "--grid=-300e3:300e3:601", "--out", str(out)) == 0
        _, data = read_points(out, n_columns=3)
        i = np.argmin(np.abs(data[:, 0]))
        assert data[i, 2] == pytest.approx(22e3, rel=1e-9)
        # dispersive shift crosses zero at the sideband and peaks at +-k/2
        assert data[i, 1] == pytest.approx(0.0, abs=1e-6)

    def test_backaction_reads_cavity_linewidth_of_scene(self, tmp_path):
        # scene B has no drive.kappa_eff: its linewidth is hf.kappa_i + hf.kappa_e,
        # as for nms and respond --model lf_pumped
        from photonpressure.presets import preset

        scene = preset("strong_coupling_B")
        out = tmp_path / "bb.dat"
        assert run("backaction", "--preset", "strong_coupling_B",
                   "--grid=-1e5:1e5:3", "--out", str(out)) == 0
        _, data = read_points(out, n_columns=3)
        kappa = scene["hf.kappa_i"] + scene["hf.kappa_e"]
        assert data[1, 0] == 0.0
        assert data[1, 2] == pytest.approx(4 * scene["drive.g"] ** 2 / kappa / TWO_PI,
                                           rel=1e-12)

    def test_lf_pumped_response_of_backaction_scene(self, tmp_path):
        # the backaction scene's rates split its lf.gamma0, and its red pump
        # probed on the low-frequency mode is lf_s11_pumped with the
        # effective cavity linewidth
        from photonpressure.dynamics import lf_s11_pumped
        from photonpressure.presets import preset

        scene = preset("backaction")
        assert scene["lf.gamma_i"] + scene["lf.gamma_e"] == pytest.approx(
            scene["lf.gamma0"], rel=1e-12)
        out = tmp_path / "lf.dat"
        assert run("respond", "--model", "lf_pumped", "--preset", "backaction",
                   "--points", "401", "--out", str(out)) == 0
        trace = read_complex_trace(out)
        expected = lf_s11_pumped(TWO_PI * trace.frequency_hz, scene["lf.omega0"],
                                 scene["lf.gamma_i"], scene["lf.gamma_e"], scene["drive.g"],
                                 -scene["lf.omega0"], scene["drive.kappa_eff"])
        np.testing.assert_array_equal(trace.values, expected)

    def test_nms_zero_coupling_flat_branches(self, tmp_path):
        out = tmp_path / "nms.dat"
        assert run("nms", "--preset", "strong_coupling_D",
                   "--grid", "0:1:2", "--out", str(out)) == 0
        _, data = read_points(out)
        assert data[0, 3] == pytest.approx(22e3, rel=1e-9)
        assert data[0, 4] == pytest.approx(214.4e3, rel=1e-9)

    def test_psd_temperature_family_monotone(self, tmp_path):
        from photonpressure.noise import bose_occupation
        peaks = []
        for i, t in enumerate((0.015, 0.1, 0.22)):
            n_th = bose_occupation(TWO_PI * 391e6, t) + 3.6
            out = tmp_path / f"psd{i}.dat"
            assert run("psd", "--preset", "ppia",
                       "--set", f"thermal.n_th={n_th}",
                       "--points", "301", "--out", str(out)) == 0
            _, data = read_points(out, n_columns=2)
            peaks.append(data[:, 1].max())
        assert peaks[0] < peaks[1] < peaks[2]

    def test_sweep_zero_coupling_single_line(self, tmp_path):
        out = tmp_path / "sweep.dat"
        assert run("sweep", "--preset", "strong_coupling_D",
                   "--set", "drive.g=0",
                   "--outer", "drive.sideband_offset:-2e5:2e5:5",
                   "--grid", "5.8425e9:5.8455e9:401", "--out", str(out)) == 0
        _, data = read_points(out)
        dips = data[:, 1:].argmin(axis=1)
        assert np.all(dips == dips[0])

    def test_sweep_map_format(self, tmp_path):
        out = tmp_path / "sweep.dat"
        assert run("sweep", "--preset", "strong_coupling_C",
                   "--outer", "drive.g:0:2e5:3",
                   "--grid", "5.8428e9:5.8452e9:5", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        probe = np.linspace(5.8428e9, 5.8452e9, 5)
        assert lines[:3] == [
            "# outer: drive.g",
            "# columns: outer_value then |S11| in dB per probe point",
            "# probe_hz: " + " ".join(format(f, ".17g") for f in probe)]
        header, data = read_points(out, n_columns=6)
        assert header["outer"] == "drive.g"
        np.testing.assert_array_equal(data[:, 0], [0.0, 1e5, 2e5])
        for line, row in zip(lines[3:], data, strict=True):
            assert line == " ".join([format(row[0], ".17g")]
                                    + [format(v, ".9g") for v in row[1:]])

    def test_sweep_mirrors_under_offset_sign(self, tmp_path):
        # flipping the pump offset mirrors the map about the cavity center
        # (checked numerically: the plain fixed-probe-offset symmetry does
        # not hold; the joint mirror holds up to rotating-wave corrections)
        out = tmp_path / "sweep.dat"
        assert run("sweep", "--preset", "strong_coupling_C",
                   "--outer", "drive.sideband_offset:-2e5:2e5:9",
                   "--grid", "5.8428e9:5.8452e9:401", "--out", str(out)) == 0
        _, data = read_points(out)
        for row, mirror in zip(data, data[::-1]):
            np.testing.assert_allclose(row[1:], mirror[1:][::-1], rtol=0, atol=0.05)

    def test_avoided_crossing_in_sweep(self, tmp_path):
        out = tmp_path / "sweep.dat"
        assert run("sweep", "--preset", "strong_coupling_D",
                   "--outer", "drive.sideband_offset:-4e5:4e5:17",
                   "--grid", "5.8425e9:5.8455e9:801", "--out", str(out)) == 0
        _, data = read_points(out)
        probe_dips = data[:, 1:].argmin(axis=1)
        center_bin = np.argmin(np.abs(np.linspace(5.8425e9, 5.8455e9, 801) - 5.844e9))
        # the deepest response never enters the gap around the crossing and
        # switches branches as the pump crosses the sideband
        assert np.all(np.abs(probe_dips - center_bin) > 40)
        assert probe_dips[0] > center_bin > probe_dips[-1]

    def test_figure_commands_complete_quickly(self, tmp_path):
        start = time.time()
        assert run("respond", "--preset", "strong_coupling_D",
                   "--out", str(tmp_path / "d.dat")) == 0
        assert run("backaction", "--preset", "backaction",
                   "--out", str(tmp_path / "ba.dat")) == 0
        assert run("psd", "--preset", "ppia", "--set", "thermal.n_th=4",
                   "--out", str(tmp_path / "psd.dat")) == 0
        assert time.time() - start < 10.0


def test_cli_import_loads_only_numpy_beyond_stdlib():
    # every package the CLI import pulls in is the standard library, numpy or
    # this package itself: a heavy optional dependency would show up here
    code = ("import sys; before = set(sys.modules); import photonpressure.cli; "
            "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=package_env(), check=True)
    loaded = set(out.stdout.split())
    stdlib = sys.stdlib_module_names
    third_party = {m for m in loaded if m not in stdlib and m.lstrip("_") not in stdlib}
    assert "photonpressure" in third_party
    assert third_party <= {"numpy", "photonpressure"}


def readme_commands():
    """The ``photonpressure`` commands of the README's ``sh`` blocks, in order,
    as argument lists without the program name."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["photonpressure"]:
                commands.append(words[1:])
    return commands


README_COMMANDS = readme_commands()

# the package modules a command may load: every command resolves parameters
# and writes through synth and traces; params adds the geometry modules and
# fit the fit engine
TABLE_MODULES = {"cli", "constants", "dynamics", "errors", "noise", "presets", "synth",
                 "traces"}
MODULE_BUDGET = {"params": TABLE_MODULES | {"circuit", "squid"},
                 "fit": TABLE_MODULES | {"fitting", "lsq", "squid"}}


@pytest.mark.parametrize("position", range(len(README_COMMANDS)),
                         ids=[argv[0] for argv in README_COMMANDS])
def test_readme_command_module_budget(tmp_path, monkeypatch, position):
    # a fresh interpreter runs one README command through cli.main, after the
    # commands before it ran here (fit reads the trace synth wrote); it loads
    # only the package modules that command runs, and never numpy.ma
    monkeypatch.chdir(tmp_path)
    for argv in README_COMMANDS[:position]:
        assert main(argv) == 0, argv
    argv = README_COMMANDS[position]
    script = ("import json, sys; from photonpressure.cli import main; code = main(sys.argv[1:]); "
              "print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=package_env(), cwd=tmp_path, check=True)
    code, modules = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0
    loaded = {m.split(".", 1)[1] for m in modules if m.startswith("photonpressure.")}
    assert loaded <= MODULE_BUDGET.get(argv[0], TABLE_MODULES)
    assert "numpy.ma" not in modules


@pytest.mark.parametrize("argv", [argv for argv in README_COMMANDS if argv[0] in
                                  ("respond", "backaction", "nms", "synth", "sweep")],
                         ids=lambda argv: argv[0])
def test_table_command_loads_neither_noise_nor_json(tmp_path, argv):
    # noise serves the spectrum commands and json the parameter documents;
    # a command that writes a table from a preset loads neither
    script = ("import sys; from photonpressure.cli import main; code = main(sys.argv[1:]); "
              "print(code, 'photonpressure.noise' in sys.modules, 'json' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=package_env(), cwd=tmp_path, check=True)
    assert proc.stdout.split()[-3:] == ["0", "False", "False"]


def test_package_import_loads_no_numpy():
    # the submodules load on first access
    code = ("import sys, photonpressure as pp; bare = sorted(sys.modules); "
            "pp.fitting.fit_resonance, pp.presets.preset('lf'); "
            "print(' '.join(m for m in bare if m.split('.')[0] in ('numpy', 'photonpressure'))); "
            "print(' '.join(m for m in sys.modules if m.startswith('photonpressure.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=package_env(), check=True).stdout.splitlines()
    assert out[0] == "photonpressure"
    assert {"photonpressure.fitting", "photonpressure.presets"} <= set(out[1].split())
    assert "photonpressure.cli" not in out[1].split()


def test_package_exports_resolve():
    for name in photonpressure.__all__:
        assert getattr(photonpressure, name) is not None
    assert photonpressure.fitting is sys.modules["photonpressure.fitting"]
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        photonpressure.nope


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # the README's examples run in order (fit reads the trace synth wrote)
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) >= 8
    for argv in commands:
        assert main(argv) == 0, argv
