"""The three benchmark workloads: inputs from the seed, one cycle, output checks.

Every workload is a closed loop with one client: a cycle runs its operations
one after the other, each only after the previous one returned.  Inputs come
from the seed alone, so one seed always gives the same inputs.  Only names
that the package keeps public are used; the benchmark calls no kernel,
backend switch or configuration accessor directly.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from photonpressure import cli, dynamics, fitting, noise, presets, synth, traces
from photonpressure.fitting import BackgroundModel
from photonpressure.traces import ComplexTrace

TWO_PI = 2.0 * math.pi


@dataclass
class Op:
    """One timed operation of a cycle."""

    kind: str
    seconds: float
    nbytes: int = 0


def call(tracer, kind: str, op_id: str, fn):
    """Run ``fn`` once; return (result, wall seconds, error text or None).

    With a tracer the call is one top-level span named ``kind``.
    """
    if tracer is not None:
        tracer.op = op_id
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = fn()
        else:
            with tracer.span(kind):
                out = fn()
    except Exception as exc:  # an operation that raises is counted, not fatal
        return None, time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
    return out, time.perf_counter() - t0, None


def rel(value, target) -> float:
    return abs(value - target) / abs(target)


def exit_problems(err, code) -> list[str]:
    """What went wrong with a ``cli.main`` call, from ``call``'s error and its code."""
    if err:
        return [err]
    return [f"exit {code}"] if code else []


# --- fit_batch ----------------------------------------------------------------

# criterion-6 resonators: (omega0, kappa_i, kappa_e) in rad/s
BARE_SETS = {
    "hf": (TWO_PI * 5.844e9, TWO_PI * 163e3, TWO_PI * 28e3),
    "lf": (TWO_PI * 391.18e6, TWO_PI * 7.4e3, TWO_PI * 13.8e3),
}
PSD_DETECTION = noise.DetectionChain(5.5, 20.0, 0.7, 1e7, 200.0, -61.0)
PSD_N_TH = 4.0
# At sigma = 0.005 the fitted lf_frequency scatters by 1.3e-6 (relative, equal
# to the fit's own uncertainty), so the 1e-6 check would fail on statistics
# alone; at 5e-4 the check sits seven standard deviations out.
PUMPED_SIGMA = 5e-4
# The noise of every trace comes from one of the 100 seeds of acceptance
# criteria 5 and 6, whose worst-case bounds (2% and 10%) hold over exactly
# those seeds; with fresh draws the 2% check failed on 2 of ~600 hf fits.
NOISE_SEEDS = 100


@dataclass
class FitCase:
    label: str      # bare.hf, bare.lf, pumped or psd
    kind: str       # bare, pumped or psd
    data: object    # ComplexTrace or SpectrumTrace
    truth: dict


def fit_cases(noise_seed: int) -> list[FitCase]:
    """The four traces of one fit_batch cycle, built as criteria 5 and 6 do."""
    cases = []
    for label, (om0, ki, ke) in BARE_SETS.items():
        f0, span = om0 / TWO_PI, 8.0 * (ki + ke) / TWO_PI
        freq = np.linspace(f0 - span / 2, f0 + span / 2, 1201)
        bg = BackgroundModel(0.93, 0.04 / (TWO_PI * span), 0.4, 1.1 / (TWO_PI * span),
                             reference_frequency=math.pi * (freq[0] + freq[-1]))
        clean = dynamics.s11_bare(TWO_PI * freq, om0, ki, ke)
        clean = (1.0 - (1.0 - clean) * np.exp(0.1j)) * bg.evaluate(TWO_PI * freq)
        rng = synth.make_rng(noise_seed, 0)
        noisy = clean + 0.01 * (rng.standard_normal(freq.size)
                                + 1j * rng.standard_normal(freq.size))
        cases.append(FitCase(f"bare.{label}", "bare", ComplexTrace(freq, noisy),
                             {"kappa_i": ki, "kappa_e": ke}))

    scene = presets.preset("strong_coupling_B")
    f0 = scene["hf.omega0"] / TWO_PI
    freq = np.linspace(f0 - 1.2e6, f0 + 1.2e6, 2401)
    span = TWO_PI * (freq[-1] - freq[0])
    bg = BackgroundModel(0.93, 0.04 / span, 0.4, 1.1 / span,
                         reference_frequency=math.pi * (freq[0] + freq[-1]))
    trace = synth.synth_s11("pumped", scene, freq, background=bg, noise=synth.NoiseSpec(
        "additive-complex-gaussian", PUMPED_SIGMA, seed=noise_seed))
    cases.append(FitCase("pumped", "pumped", trace, {
        "kappa_e": scene["hf.kappa_e"], "gamma0": scene["lf.gamma0"],
        "detuning": scene["drive.detuning"], "g": scene["drive.g"],
        "lf_frequency": scene["lf.omega0"]}))

    cfg = presets.preset("ppia")
    coop = cfg["drive.cooperativity"]
    cfg["thermal.n_lf"] = (PSD_N_TH + 1.0) / (1.0 - coop) - 1.0
    f_peak = (cfg["hf.omega0"] + cfg["drive.detuning"] - cfg["lf.omega0"]) / TWO_PI
    grid = f_peak + np.linspace(-1.5e5, 1.5e5, 2001)
    psd = synth.synth_psd(cfg, grid, PSD_DETECTION, noise=synth.NoiseSpec(
        "multiplicative-gaussian", 0.03, seed=noise_seed))
    cases.append(FitCase("psd", "psd", psd, cfg))
    return cases


def fit_case(case: FitCase) -> dict:
    """Fit one case; returns the fitted values and whether every fit converged."""
    if case.kind == "bare":
        fit = fitting.fit_resonance(case.data)
        return {"converged": fit.converged, "params": dict(zip(fit.names, fit.params))}
    if case.kind == "pumped":
        t = case.truth
        fit = fitting.fit_resonance(case.data, model="pumped", pumped={
            "kappa_e": t["kappa_e"], "gamma0": t["gamma0"], "detuning": t["detuning"]})
        return {"converged": fit.converged, "params": dict(zip(fit.names, fit.params))}
    # criterion-5 chain: floor from a Lorentzian fit, current PSD, second fit
    cfg = case.truth
    coop, gamma0 = cfg["drive.cooperativity"], cfg["lf.gamma0"]
    i_zpf = cfg["coupling.zero_point_current"]
    v_fit = fitting.fit_lorentzian(case.data)
    current = noise.extract_current_psd(
        case.data, v_fit.value("offset"), PSD_DETECTION.effective_added_photons,
        cfg["hf.kappa_i"] + cfg["hf.kappa_e"], cfg["hf.kappa_e"], coop, gamma0, i_zpf)
    i_fit = fitting.fit_lorentzian(current)
    n_lf = noise.thermal_photons_from_peak(
        i_fit.value("offset") + i_fit.value("amplitude"), gamma0, gamma0 * (1.0 - coop), i_zpf)
    return {"converged": v_fit.converged and i_fit.converged,
            "params": {"n_th": noise.backaction_free(n_lf, coop)}}


def check_fit(case: FitCase, out: dict) -> list[str]:
    problems = [] if out["converged"] else ["did not converge"]
    p, t = out["params"], case.truth
    if case.kind == "bare":
        for name in ("kappa_i", "kappa_e"):
            if not rel(p[name], t[name]) <= 0.02:
                problems.append(f"{name} off by {rel(p[name], t[name]):.2%} (limit 2%)")
    elif case.kind == "pumped":
        if not rel(p["g"], t["g"]) <= 0.01:
            problems.append(f"g off by {rel(p['g'], t['g']):.2%} (limit 1%)")
        if not rel(p["lf_frequency"], t["lf_frequency"]) <= 1e-6:
            problems.append(f"lf_frequency off by {rel(p['lf_frequency'], t['lf_frequency']):.1e}"
                            " (limit 1e-6)")
    elif not rel(p["n_th"], PSD_N_TH) <= 0.10:
        problems.append(f"n_th off by {rel(p['n_th'], PSD_N_TH):.2%} (limit 10%)")
    return problems


class FitBatch:
    """Four fits per cycle, in process; the seed orders the noise seeds."""

    name = "fit_batch"
    warm_up = True

    def __init__(self, seed: int, workdir: Path):
        self.order = list(range(NOISE_SEEDS))
        random.Random(seed).shuffle(self.order)
        fit_cases(self.order[0])  # set-up time includes building one cycle's inputs

    def cycle(self, i: int, tally, tracer=None) -> list[Op]:
        ops = []
        for case in fit_cases(self.order[i % NOISE_SEEDS]):
            kind = f"fit_{case.kind}"
            out, dt, err = call(tracer, kind, f"{i}:{case.label}", lambda: fit_case(case))
            tally.record(f"cycle {i} {case.label}", [err] if err else check_fit(case, out))
            ops.append(Op(kind, dt))
        return ops


# --- cli_cold -----------------------------------------------------------------

def cli_commands(outdir: Path, seed: int) -> list[tuple[str, list[str], list[Path]]]:
    """The README's example commands: (name, argv, output files).

    ``params`` writes to standard output; ``fit`` reads the trace ``synth``
    wrote just before it and also writes the corrected trace.
    """
    o = outdir
    return [
        ("params", ["params", "--preset", "geometry"], []),
        ("respond", ["respond", "--preset", "strong_coupling_D", "--out", str(o / "d.dat")],
         [o / "d.dat"]),
        ("backaction", ["backaction", "--preset", "backaction", "--grid=-3e5:3e5:601",
                        "--out", str(o / "ba.dat")], [o / "ba.dat"]),
        ("nms", ["nms", "--preset", "strong_coupling_D", "--out", str(o / "nms.dat")],
         [o / "nms.dat"]),
        ("psd", ["psd", "--preset", "ppia", "--set", "thermal.n_th=4",
                 "--out", str(o / "psd.dat")], [o / "psd.dat"]),
        ("synth", ["synth", "--model", "bare", "--preset", "hf_fit",
                   "--set", "noise.kind=additive-complex-gaussian", "--set", "noise.sigma=0.01",
                   "--seed", str(seed), "--out", str(o / "trace.dat")], [o / "trace.dat"]),
        ("fit", ["fit", str(o / "trace.dat"), "--model", "bare",
                 "--out", str(o / "report.json")],
         [o / "report.json", o / "report.json.trace"]),
        ("sweep", ["sweep", "--preset", "strong_coupling_D",
                   "--outer", "drive.sideband_offset:-4e5:4e5:81", "--out", str(o / "map.dat")],
         [o / "map.dat"]),
    ]


def digest(stdout: bytes, files) -> str:
    h = hashlib.sha256(stdout)
    for path in files:
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def check_respond(path: Path) -> list[str]:
    """The written trace equals the same dynamics call made here."""
    scene = presets.preset("strong_coupling_D")
    center = scene["hf.omega0"] / TWO_PI
    grid = np.linspace(center - 2e6, center + 2e6, 2001)
    expected = dynamics.s11_pumped(TWO_PI * grid, scene["hf.omega0"], scene["hf.kappa_i"],
                                   scene["hf.kappa_e"], scene["lf.omega0"], scene["lf.gamma0"],
                                   scene["drive.g"], scene["drive.detuning"])
    got = traces.read_complex_trace(path)
    if not (np.array_equal(got.frequency_hz, grid) and np.array_equal(got.values, expected)):
        return ["respond output differs from dynamics.s11_pumped"]
    return []


def check_fit_report(path: Path) -> list[str]:
    """The fit of the synthesized trace recovers the preset within 2%."""
    truth = presets.preset("hf_fit")
    report = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    for name in ("kappa_i", "kappa_e"):
        err = rel(report[name], truth[f"hf.{name}"])
        if not err <= 0.02:
            problems.append(f"fit {name} off by {err:.2%} (limit 2%)")
    return problems


class CliCold:
    """The eight README commands, each as a fresh interpreter."""

    name = "cli_cold"
    warm_up = False  # every command is a cold start already

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.commands = cli_commands(workdir, seed)
        self.reference: dict[str, str] = {}
        src = str(Path(cli.__file__).resolve().parents[1])
        self.env = dict(os.environ, PYTHONPATH=src)

    def cycle(self, i: int, tally, tracer=None) -> list[Op]:
        ops = []
        for name, argv, outputs in self.commands:
            for path in outputs:
                path.unlink(missing_ok=True)
            run = functools.partial(
                subprocess.run, [sys.executable, "-m", "photonpressure.cli", *argv],
                cwd=self.workdir, env=self.env, capture_output=True, check=False)
            proc, dt, err = call(tracer, "cli", f"{i}:{name}", run)
            ops.append(Op("cli", dt))
            if err or proc.returncode != 0:
                detail = err or f"exit {proc.returncode}: {proc.stderr.decode()[-200:]}"
                tally.record(f"cycle {i} {name}", [detail])
                continue
            problems = []
            key = digest(proc.stdout, outputs)
            if self.reference.setdefault(name, key) != key:
                problems.append("output bytes differ from the first cycle")
            if i == 0 and name == "respond":
                problems += check_respond(outputs[0])
            if i == 0 and name == "fit":
                problems += check_fit_report(outputs[0])
            tally.record(f"cycle {i} {name}", problems)
        return ops


# --- bulk_io ------------------------------------------------------------------

SWEEP_OUTER = (-4e5, 4e5, 801)
RESPOND_POINTS = 200001


class BulkIO:
    """A large sweep map, a large trace written, and the trace read back."""

    name = "bulk_io"
    warm_up = True

    def __init__(self, seed: int, workdir: Path):
        self.map_path = workdir / "map.dat"
        self.trace_path = workdir / "trace.dat"
        self.scene = presets.preset("strong_coupling_D")
        start, stop, n = SWEEP_OUTER
        self.sweep_argv = ["sweep", "--preset", "strong_coupling_D",
                           "--outer", f"drive.sideband_offset:{start:g}:{stop:g}:{n}",
                           "--points", "2001", "--out", str(self.map_path)]
        self.respond_argv = ["respond", "--preset", "strong_coupling_D",
                             "--points", str(RESPOND_POINTS),
                             "--set", "noise.kind=additive-complex-gaussian",
                             "--set", "noise.sigma=0.01", "--seed", str(seed),
                             "--out", str(self.trace_path)]
        center = self.scene["hf.omega0"] / TWO_PI
        self.expected_trace = synth.synth_s11(
            "pumped", self.scene,
            np.linspace(center - 2e6, center + 2e6, RESPOND_POINTS),
            noise=synth.NoiseSpec("additive-complex-gaussian", 0.01, seed=seed))
        self.expected_rows = self._rows(sorted(random.Random(seed).sample(range(n), 3)))

    def _rows(self, indices) -> dict[int, list[str]]:
        """Rows of the map as text, from dynamics.s11_pumped called here."""
        s = self.scene
        center = s["hf.omega0"] / TWO_PI
        probe = np.linspace(center - 2e6, center + 2e6, 2001)
        rows = {}
        for j in indices:
            offset = float(np.linspace(*SWEEP_OUTER)[j])
            vals = dynamics.s11_pumped(2.0 * np.pi * probe, s["hf.omega0"], s["hf.kappa_i"],
                                       s["hf.kappa_e"], s["lf.omega0"], s["lf.gamma0"],
                                       s["drive.g"], -s["lf.omega0"] + offset)
            rows[j] = [format(offset, ".17g")] + [format(v, ".9g")
                                                  for v in 20.0 * np.log10(np.abs(vals))]
        return rows

    def check_map(self) -> list[str]:
        if not self.map_path.exists():
            return ["sweep wrote no map"]
        expected = self.expected_rows
        n_rows, problems = 0, []
        with open(self.map_path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#"):
                    continue
                if n_rows in expected and line.split() != expected[n_rows]:
                    problems.append(f"map row {n_rows} differs from 20*log10|s11_pumped|")
                n_rows += 1
        if n_rows != SWEEP_OUTER[2]:
            problems.append(f"map has {n_rows} rows, expected {SWEEP_OUTER[2]}")
        return problems

    def check_readback(self, got) -> list[str]:
        want = self.expected_trace
        if not (np.array_equal(got.frequency_hz, want.frequency_hz)
                and np.array_equal(got.values, want.values)):
            return ["read-back differs from the in-memory trace"]
        return []

    def cycle(self, i: int, tally, tracer=None) -> list[Op]:
        ops = []
        for path in (self.map_path, self.trace_path):
            path.unlink(missing_ok=True)

        code, dt, err = call(tracer, "sweep", f"{i}:sweep", lambda: cli.main(self.sweep_argv))
        ops.append(Op("sweep", dt))
        problems = exit_problems(err, code)
        tally.record(f"cycle {i} sweep", problems or self.check_map())

        code, dt, err = call(tracer, "write", f"{i}:write", lambda: cli.main(self.respond_argv))
        written = self.trace_path.stat().st_size if self.trace_path.exists() else 0
        ops.append(Op("write", dt, written))
        tally.record(f"cycle {i} respond", exit_problems(err, code))

        got, dt, err = call(tracer, "read", f"{i}:read",
                            lambda: traces.read_complex_trace(self.trace_path))
        ops.append(Op("read", dt, written))
        tally.record(f"cycle {i} read", [err] if err else self.check_readback(got))
        return ops


WORKLOADS = {w.name: w for w in (FitBatch, CliCold, BulkIO)}
