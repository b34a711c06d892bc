"""Command-line front end.

Commands
--------
params      derive circuit parameters from geometry
respond     cavity or low-frequency reflection trace
backaction  sideband-pump frequency shift and damping curves
nms         hybrid-mode branches versus coupling rate
psd         blue-pump output spectrum
fit         fit a trace file (resonance, lorentzian, flux arch, backaction)
synth       synthetic traces with background and seeded noise
sweep       2-D |S11| map in dB (outer parameter x probe frequency)

Parameters come from --preset, then --params FILE (flat JSON), then repeated
--set KEY=VALUE overrides, in increasing precedence (see :func:`apply_layer`);
:mod:`synth` turns the flat set into model inputs.  Grids are given as
START:STOP:POINTS in Hz.  Exit codes: 0 success, else the ``exit_code`` of
the :mod:`errors` class raised (2 configuration, 3 parse, 4 domain, 5 fit);
an output file that cannot be written is a configuration error.  ``params``
and ``fit`` import their geometry and fit modules when they run, so the other
commands never load them.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import dynamics
from .constants import hbar
from .errors import ConfigError, ConvergenceError, DomainError, PhotonPressureError
from .presets import need, preset as load_preset
from .synth import (background_from, cavity_linewidth, detection_from, noise_from,
                    probed_resonance, pump_detuning, pump_sideband, synth_psd, synth_s11)
from .traces import (SpectrumTrace, read_complex_trace, read_params,
                     read_points, read_spectrum_trace, write_columns,
                     write_complex_trace, write_params, write_spectrum_trace)

TWO_PI = 2.0 * math.pi

EXIT_OK = 0


# --- configuration plumbing -------------------------------------------------

def _parse_set(entry: str):
    key, sep, value = entry.partition("=")
    if not sep or not key:
        raise ConfigError(f"--set expects KEY=VALUE, got {entry!r}")
    try:
        return key.strip(), float(value)
    except ValueError:
        return key.strip(), value.strip()


def apply_layer(cfg: dict, layer: dict) -> None:
    """Update ``cfg`` with one parameter layer.  A layer that sets
    drive.sideband or drive.sideband_offset picks the pump by sideband, so it
    drops the drive.detuning it inherits; setting both kinds is an error."""
    if "drive.sideband" in layer or "drive.sideband_offset" in layer:
        if "drive.detuning" in layer:
            raise ConfigError("one layer sets both drive.detuning and "
                              "drive.sideband or drive.sideband_offset")
        cfg.pop("drive.detuning", None)
    cfg.update(layer)


def build_config(args) -> dict:
    """--preset, then --params, then all --set entries as one layer."""
    cfg: dict = {}
    if args.preset:
        apply_layer(cfg, load_preset(args.preset))
    if args.params:
        apply_layer(cfg, read_params(args.params))
    apply_layer(cfg, dict(_parse_set(entry) for entry in args.set or []))
    return cfg


def parse_grid(spec: str, option: str, default=None):
    """``START:STOP:POINTS`` as an evenly spaced grid, ``default`` if ``spec``
    is None; the messages name ``option``, the flag that gave ``spec``."""
    if spec is None:
        return default
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{option} expects START:STOP:POINTS, got {spec!r}")
    try:
        start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad {option} value: {exc}") from None
    if points < 2:
        raise ConfigError(f"{option} needs at least 2 points")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"{option} {spec!r} needs a finite start and stop")
    if not start < stop:
        raise ConfigError(f"{option} needs start < stop")
    return np.linspace(start, stop, points)


def _count(cfg: dict, key: str, default=None) -> int:
    """``need``, and the value must be a whole number >= 1."""
    value = need(cfg, key, default)
    if value < 1 or value != int(value):
        raise ConfigError(f"parameter {key!r} must be a whole number >= 1, not {value:g}")
    return int(value)


def _probe_grid(args, cfg: dict, model: str = "pumped"):
    """``--grid``, else ``--points`` around the probed resonance, built only then:
    +-200 kHz around lf.omega0, +-2 MHz around hf.omega0."""
    if args.grid is not None:
        return parse_grid(args.grid, "--grid")
    key = probed_resonance(cfg, model)
    center, half = need(cfg, key) / TWO_PI, (2e5 if key == "lf.omega0" else 2e6)
    return np.linspace(center - half, center + half, args.points)


# --- commands ---------------------------------------------------------------

def cmd_params(args) -> int:
    from . import circuit, squid
    from .constants import PHI_0

    cfg = build_config(args)
    report: dict = {}

    if "geometry.plate_area" in cfg:
        c_lf = circuit.parallel_plate_capacitance(
            plate_area=need(cfg, "geometry.plate_area"),
            dielectric_thickness=need(cfg, "geometry.dielectric_thickness"),
            relative_permittivity=need(cfg, "geometry.relative_permittivity"))
        c_coupling = need(cfg, "geometry.coupling_capacitance")
        omega_lf = need(cfg, "geometry.lf_frequency")
        l_lf = circuit.infer_inductance(omega_lf, c_lf, c_coupling)
        report["lf.capacitance"] = c_lf
        report["lf.inductance"] = l_lf
        report["lf.external_rate"] = circuit.external_linewidth(
            need(cfg, "geometry.feedline_impedance", 50.0), c_coupling, l_lf, c_lf)
        report["lf.zero_point_current"] = circuit.zero_point_current(l_lf, omega_lf)

    if "idc.finger_count" in cfg:
        c_single = circuit.idc_capacitance(
            finger_count=_count(cfg, "idc.finger_count"),
            finger_length=need(cfg, "idc.finger_length"),
            finger_width=need(cfg, "idc.finger_width"),
            gap_width=need(cfg, "idc.gap_width"),
            effective_permittivity=need(cfg, "idc.effective_permittivity"))
        c_total = c_single * _count(cfg, "idc.parallel_count", 1)
        c_coupling = need(cfg, "idc.coupling_capacitance", 0.0)
        omega_hf = need(cfg, "idc.hf_frequency")
        l_hf = circuit.infer_inductance(omega_hf, c_total, c_coupling)
        report["hf.idc_capacitance"] = c_single
        report["hf.capacitance"] = c_total
        report["hf.inductance"] = l_hf
        report["hf.external_rate"] = circuit.external_linewidth(
            need(cfg, "geometry.feedline_impedance", 50.0), c_coupling, l_hf, c_total)

    if "loop.side" in cfg and "lf.zero_point_current" in report:
        i_zpf = report["lf.zero_point_current"]
        m = circuit.mutual_inductance(need(cfg, "loop.side"), need(cfg, "loop.near_distance"),
                                      need(cfg, "loop.far_distance"))
        report["coupling.mutual_inductance"] = m
        report["coupling.zero_point_flux"] = m * i_zpf
        report["coupling.zero_point_flux_phi0"] = m * i_zpf / PHI_0

    if "squid.dilution" in cfg:
        arch = (need(cfg, "squid.omega0"), need(cfg, "squid.dilution"),
                need(cfg, "squid.gamma_l"))
        l_j = squid.junction_inductance(arch[1], need(cfg, "squid.total_inductance"))
        report["squid.junction_inductance"] = l_j
        report["squid.critical_current"] = squid.critical_current(l_j)
        if "loop.inductance" in cfg and "junction.critical_current" in cfg:
            report["squid.screening"] = squid.screening_parameter(
                need(cfg, "loop.inductance"), need(cfg, "junction.critical_current"))
        key = "coupling.zero_point_flux_phi0"
        if key in cfg or key in report:
            phi_zpf = need(cfg, key, report.get(key))
            for phi_b in (0.0, 0.14, 0.5):
                g0 = squid.single_photon_coupling(phi_b, *arch, phi_zpf)
                report[f"coupling.g0_at_{phi_b:g}"] = g0

    if not report:
        raise ConfigError("no geometry inputs found (geometry.*, idc.*, squid.*)")
    write_params(args.out, report)
    return EXIT_OK


def cmd_respond(args) -> int:
    cfg = build_config(args)
    trace = synth_s11(args.model, cfg, _probe_grid(args, cfg, args.model),
                      background=background_from(cfg, args.model),
                      noise=noise_from(cfg, args.seed))
    write_complex_trace(args.out, trace)
    return EXIT_OK


def cmd_backaction(args) -> int:
    cfg = build_config(args)
    g = need(cfg, "drive.g")
    kappa = cavity_linewidth(cfg)
    sideband = pump_sideband(cfg)
    grid = parse_grid(args.grid, "--grid", np.linspace(-3e5, 3e5, args.points))
    shift, damping = dynamics.backaction_sideband(TWO_PI * grid, g, kappa, sideband)
    write_columns(args.out, [grid, shift / TWO_PI, damping / TWO_PI],
                  {"columns": "offset_hz frequency_shift_hz damping_shift_hz",
                   "sideband": sideband})
    return EXIT_OK


def cmd_nms(args) -> int:
    cfg = build_config(args)
    lf_frequency = need(cfg, "lf.omega0")
    offset = pump_detuning(cfg) + lf_frequency  # 0 exactly when detuning == -lf.omega0
    if offset != 0.0:
        raise DomainError(f"nms models a pump exactly on the red sideband; this pump is "
                          f"{offset / TWO_PI:g} Hz from it")
    grid = parse_grid(args.grid, "--grid", np.linspace(0.0, 6e5, args.points))
    upper, lower = dynamics.normal_modes(TWO_PI * grid, cavity_linewidth(cfg),
                                         need(cfg, "lf.gamma0"), lf_frequency)
    columns = [grid, upper.real / TWO_PI, lower.real / TWO_PI,
               -2.0 * upper.imag / TWO_PI, -2.0 * lower.imag / TWO_PI]
    write_columns(args.out, columns, {"columns": "g_hz upper_hz lower_hz "
                                                 "linewidth_upper_hz linewidth_lower_hz"})
    return EXIT_OK


def cmd_psd(args) -> int:
    cfg = build_config(args)
    detection = detection_from(cfg)
    peak = (need(cfg, "hf.omega0") + pump_detuning(cfg, "blue")
            - need(cfg, "lf.omega0")) / TWO_PI
    grid = parse_grid(args.grid, "--grid", peak + np.linspace(-1.5e5, 1.5e5, args.points))
    trace = synth_psd(cfg, grid, detection, noise=noise_from(cfg, args.seed))
    omega0 = need(cfg, "hf.omega0")
    if args.units in (None, "photon"):
        values = trace.values / (detection.total_gain * hbar * omega0)
        trace = SpectrumTrace(trace.frequency_hz, values, units="photon")
    elif args.units == "dbm":
        values = 10.0 * np.log10(trace.values / 1e-3)
        trace = SpectrumTrace(trace.frequency_hz, values, units="dBm/Hz")
    write_spectrum_trace(args.out, trace)
    return EXIT_OK


def cmd_fit(args) -> int:
    from .fitting import fit_backaction, fit_flux_arch, fit_lorentzian, fit_resonance

    cfg = build_config(args)
    if args.model in ("bare", "pumped"):
        trace = read_complex_trace(args.infile)
        pumped = None
        if args.model == "pumped":
            pumped = {"kappa_e": need(cfg, "hf.kappa_e"), "gamma0": need(cfg, "lf.gamma0"),
                      "detuning": pump_detuning(cfg)}
            pumped.update({name: need(cfg, key) for name, key in
                           (("g", "drive.g"), ("lf_frequency", "lf.omega0")) if key in cfg})
        fit = fit_resonance(trace, model=args.model, pumped=pumped)
    elif args.model == "lorentzian":
        fit = fit_lorentzian(read_spectrum_trace(args.infile))
    elif args.model == "flux_arch":
        # columns: flux bias in PHI_0 units, resonance frequency in Hz
        _, data = read_points(args.infile, n_columns=2)
        total_l = (need(cfg, "squid.total_inductance")
                   if "squid.total_inductance" in cfg else None)
        fit = fit_flux_arch(data[:, 0], TWO_PI * data[:, 1], total_inductance=total_l)
    else:  # backaction; argparse restricts --model to these five
        _, data = read_points(args.infile, n_columns=3)
        fit = fit_backaction(TWO_PI * data[:, 0], TWO_PI * data[:, 1],
                             TWO_PI * data[:, 2])

    if not fit.converged:
        raise ConvergenceError(
            f"fit did not converge after {fit.iterations} iterations: {fit.message}")
    write_params(args.out, fit.as_dict())  # checks the report before writing either file
    if args.out and "corrected_trace" in fit.extras:
        write_complex_trace(str(args.out) + ".trace", fit.extras["corrected_trace"])
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.model == "psd":
        return cmd_psd(args)
    if args.units is not None:
        raise ConfigError("--units applies only to synth --model psd")
    if not args.out:
        raise ConfigError("synth requires --out")
    return cmd_respond(args)


def cmd_sweep(args) -> int:
    if not args.out:
        raise ConfigError("sweep requires --out")
    cfg = build_config(args)
    outer_specs = args.outer or []
    if len(outer_specs) != 1:
        raise ConfigError("sweep needs exactly one --outer KEY:START:STOP:POINTS")
    key, _, grid_part = outer_specs[0].partition(":")
    if not grid_part:
        raise ConfigError("--outer expects KEY:START:STOP:POINTS")
    if any(entry.startswith(key + "=") for entry in (args.set or [])):
        raise ConfigError(f"axis collision: {key!r} is both swept and set")
    outer = parse_grid(grid_part, "--outer")
    probe = _probe_grid(args, cfg)

    rows = []
    for value in outer:
        point = dict(cfg)
        apply_layer(point, {key: float(value)})
        trace = synth_s11("pumped", point, probe,
                          background=background_from(point, "pumped"))
        rows.append(20.0 * np.log10(np.abs(trace.values)))

    header = {"outer": key, "columns": "outer_value then |S11| in dB per probe point",
              "probe_hz": " ".join(format(f, ".17g") for f in probe)}
    write_columns(args.out, [outer, np.array(rows)], header,
                  [".17g"] + [".9g"] * probe.size)
    return EXIT_OK


# --- parser and entry point --------------------------------------------------

def _int_at_least(lowest: int):
    """argparse type: an integer >= ``lowest`` (anything else exits 2)."""
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as an invalid value
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be >= {lowest}, got {value}")
        return value
    return integer


def _add_common(sub, grid=True, seed=False, units=False):
    """The options every command reads, plus the optional ones it reads."""
    sub.add_argument("--preset", help="named parameter set")
    sub.add_argument("--params", help="flat JSON parameter file")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override one parameter (repeatable)")
    sub.add_argument("--out", help="output path (default: stdout)")
    if seed:
        sub.add_argument("--seed", type=_int_at_least(0), default=0)
    if units:
        sub.add_argument("--units", choices=("si", "photon", "dbm"))
    if grid:
        sub.add_argument("--grid", help="START:STOP:POINTS in Hz")
        sub.add_argument("--points", type=_int_at_least(2), default=2001,
                         help="points of the default grid")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonpressure",
        description="flux-coupled circuit modeling, simulation and fitting")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("params", help="derive circuit parameters")
    _add_common(p, grid=False)
    p.set_defaults(func=cmd_params)

    p = commands.add_parser("respond", help="reflection response trace")
    _add_common(p, seed=True)
    p.add_argument("--model", choices=("bare", "pumped", "lf_pumped"),
                   default="pumped")
    p.set_defaults(func=cmd_respond)

    p = commands.add_parser("backaction", help="sideband backaction curves")
    _add_common(p)
    p.set_defaults(func=cmd_backaction)

    p = commands.add_parser("nms", help="hybrid-mode branches vs coupling")
    _add_common(p)
    p.set_defaults(func=cmd_nms)

    p = commands.add_parser("psd", help="blue-pump output spectrum")
    _add_common(p, seed=True, units=True)
    p.set_defaults(func=cmd_psd)

    p = commands.add_parser("fit", help="fit a trace file")
    _add_common(p, grid=False)
    p.add_argument("infile", help="input trace file")
    p.add_argument("--model",
                   choices=("bare", "pumped", "lorentzian", "flux_arch", "backaction"),
                   default="bare")
    p.set_defaults(func=cmd_fit)

    p = commands.add_parser("synth", help="synthetic measurement data")
    _add_common(p, seed=True, units=True)
    p.add_argument("--model", choices=("bare", "pumped", "lf_pumped", "psd"),
                   default="bare")
    p.set_defaults(func=cmd_synth)

    p = commands.add_parser("sweep", help="2-D |S11| map in dB")
    _add_common(p)
    p.add_argument("--outer", action="append", metavar="KEY:START:STOP:POINTS",
                   help="outer sweep axis")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else ConfigError.exit_code
    # non-finite results are refused where written; numpy's warnings would repeat that
    try:
        with np.errstate(all="ignore"):
            return args.func(args)
    except PhotonPressureError as exc:
        error = exc
    except OSError as exc:  # the readers name their own file, so this is the output
        error = ConfigError(f"cannot write {exc.filename or args.out or 'standard output'}: "
                            f"{exc.strerror or exc}")
    except ArithmeticError:  # Python float arithmetic overflows or divides by an underflow
        error = DomainError("arithmetic error: a parameter is too large or too small")
    print(f"{error.label}: {error}", file=sys.stderr)
    return error.exit_code


if __name__ == "__main__":
    sys.exit(main())
