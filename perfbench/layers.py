"""Per-layer metrics: a fixed, seeded suite that times each module of the package.

The suite does the same work on every workload, so its counts repeat
exactly for a fixed seed.  Fits, the big sweep and the trace I/O run under a
tracer (see :mod:`spans`); kernels, import and in-process commands are timed
directly around their public entry points.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from photonpressure import cli, dynamics, noise, presets

from spans import patched, self_times
from workloads import (NOISE_SEEDS, RESPOND_POINTS, TWO_PI, BulkIO, FitBatch, cli_commands,
                       exit_problems, fit_cases)

FIT_CYCLES = 4      # 8 bare, 4 pumped and 4 PSD fits
BULK_CYCLES = 2
PROBES = 3          # subprocess probes and in-process command repeats
SMALL_REPS = 300    # repeats of a kernel call on a small grid
BIG_REPS = 3        # repeats on a 2M-point grid


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))


def parse_importtime(stderr: str) -> tuple[dict, dict]:
    """Cumulative microseconds of each top-level package line, and the sum of
    self microseconds over every module of each top-level package."""
    cumulative, self_sum = {}, defaultdict(int)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = int(fields[0]), int(fields[1])
        except (ValueError, IndexError):
            continue  # the column header
        name = fields[2].strip()
        top = name.split(".")[0]
        self_sum[top] += self_us
        if name == top:
            cumulative[top] = cum_us
    return cumulative, dict(self_sum)


def import_layer() -> dict:
    env = _child_env()
    interp = _median_time(lambda: subprocess.run(
        [sys.executable, "-c", "pass"], env=env, check=True), PROBES)
    rows = defaultdict(list)
    for _ in range(PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "photonpressure.cli",
             "params", "--preset", "geometry"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True)
        cumulative, self_sum = parse_importtime(proc.stderr)
        rows["import.photonpressure_ms"].append(cumulative["photonpressure"] / 1e3)
        rows["import.scipy_ms"].append(self_sum.get("scipy", 0) / 1e3)
        rows["import.numpy_ms"].append(self_sum.get("numpy", 0) / 1e3)
    out = {"interp_ms": (interp * 1e3, "ms")}
    out.update({k: (statistics.median(v), "ms") for k, v in rows.items()})
    return out


def cli_layer(workdir: Path, seed: int, tally) -> dict:
    """Each README command through ``cli.main`` in this process, after import."""
    workdir.mkdir(exist_ok=True)
    times = defaultdict(list)
    for _ in range(PROBES):
        for name, argv, _outputs in cli_commands(workdir, seed):
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                code = cli.main(argv)
                times[name].append(time.perf_counter() - t0)
            tally.record(f"layer cli {name}", exit_problems(None, code))
    return {f"cli.{name}_ms": (statistics.median(t) * 1e3, "ms") for name, t in times.items()}


def kernel_layer(seed: int) -> dict:
    """Reflection kernels at fit size and map size, normal modes and the PSD."""
    s = presets.preset("strong_coupling_D")
    lf = presets.preset("lf")
    kappa = s["hf.kappa_i"] + s["hf.kappa_e"]
    out = {}
    for n in (1201, 2000001):
        hf_grid = TWO_PI * np.linspace(s["hf.omega0"] / TWO_PI - 2e6,
                                       s["hf.omega0"] / TWO_PI + 2e6, n)
        lf_grid = TWO_PI * np.linspace(lf["lf.omega0"] / TWO_PI - 2e5,
                                       lf["lf.omega0"] / TWO_PI + 2e5, n)
        calls = {
            "s11_bare": lambda: dynamics.s11_bare(hf_grid, s["hf.omega0"], s["hf.kappa_i"],
                                                  s["hf.kappa_e"]),
            "s11_pumped": lambda: dynamics.s11_pumped(
                hf_grid, s["hf.omega0"], s["hf.kappa_i"], s["hf.kappa_e"], s["lf.omega0"],
                s["lf.gamma0"], s["drive.g"], s["drive.detuning"]),
            "lf_s11_pumped": lambda: dynamics.lf_s11_pumped(
                lf_grid, lf["lf.omega0"], lf["lf.gamma_i"], lf["lf.gamma_e"], s["drive.g"],
                s["drive.detuning"], kappa),
        }
        reps = SMALL_REPS if n < 10_000 else BIG_REPS
        for name, fn in calls.items():
            out[f"dynamics.{name}.ns_per_pt.n{n}"] = (_median_time(fn, reps) / n * 1e9, "ns/pt")
        del hf_grid, lf_grid, calls

    couplings = np.linspace(0.0, 6e5, 2001)
    loop = _median_time(lambda: [dynamics.normal_modes(TWO_PI * g, kappa, s["lf.gamma0"],
                                                       s["lf.omega0"]) for g in couplings],
                        PROBES)
    out["dynamics.normal_modes_us"] = (loop / couplings.size * 1e6, "us")

    p = presets.preset("ppia")
    offsets = np.linspace(-1.5e5, 1.5e5, 2001) * TWO_PI - p["lf.omega0"]
    psd = _median_time(lambda: noise.psd_blue_pump(
        offsets, kappa=p["hf.kappa_i"] + p["hf.kappa_e"], kappa_e=p["hf.kappa_e"],
        gamma0=p["lf.gamma0"], lf_frequency=p["lf.omega0"], g=p["drive.g"],
        detuning=p["drive.detuning"], n_lf=10.0, n_add_eff=28.8), SMALL_REPS)
    out["noise.psd_blue_pump.ns_per_pt.n2001"] = (psd / offsets.size * 1e9, "ns/pt")

    case = fit_cases(seed % NOISE_SEEDS)[3]
    extract = _median_time(lambda: noise.extract_current_psd(
        case.data, 1.0, 28.8, p["hf.kappa_i"] + p["hf.kappa_e"], p["hf.kappa_e"],
        p["drive.cooperativity"], p["lf.gamma0"], p["coupling.zero_point_current"]), SMALL_REPS)
    out["noise.extract_current_psd_us"] = (extract * 1e6, "us")
    return out


def fit_metrics(spans) -> dict:
    """lsq and fitting metrics per fit kind, from the spans of traced fits."""
    selfs = self_times(spans)
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for m in ("bare", "pumped", "psd"):
        fits = [s for s in spans if s.parent is None and s.name == f"fit_{m}"]
        per_fit = defaultdict(float)
        for f in fits:
            runs = [c for c in children[f.id] if c.name == "lsq"]
            evals = [r for run in runs for r in children[run.id] if r.name == "residual"]
            per_fit["runs"] += len(runs)
            per_fit["iterations"] += sum(run.info["iterations"] for run in runs)
            per_fit["evals"] += len(evals)
            per_fit["nonconverged"] += sum(not run.info["converged"] for run in runs)
            per_fit["lsq_self"] += sum(selfs[run.id] for run in runs)
            per_fit["residual"] += sum(r.duration for r in evals)
            per_fit["fit_self"] += selfs[f.id]
            if m != "psd":
                per_fit["stage3"] += runs[-1].duration
        n = len(fits)
        out[f"lsq.runs_per_fit.{m}"] = (per_fit["runs"] / n, "count")
        out[f"lsq.iterations_per_fit.{m}"] = (per_fit["iterations"] / n, "count")
        out[f"lsq.residual_evals_per_fit.{m}"] = (per_fit["evals"] / n, "count")
        out[f"lsq.self_ms_per_fit.{m}"] = (per_fit["lsq_self"] / n * 1e3, "ms")
        out[f"lsq.residual_ms_per_fit.{m}"] = (per_fit["residual"] / n * 1e3, "ms")
        out[f"lsq.nonconverged_frac.{m}"] = (per_fit["nonconverged"] / per_fit["runs"], "frac")
        out[f"fitting.self_ms_per_fit.{m}"] = (per_fit["fit_self"] / n * 1e3, "ms")
        if m != "psd":  # only fit_resonance has stages
            out[f"fitting.stage2_rounds_per_fit.{m}"] = (per_fit["runs"] / n - 1.0, "count")
            out[f"fitting.stage3_ms_per_fit.{m}"] = (per_fit["stage3"] / n * 1e3, "ms")
    return out


def bulk_metrics(spans, ops) -> dict:
    """Sweep evaluation versus formatting, synthesis and trace I/O rates.

    ``ops`` are the bulk operations in the order their top-level spans were
    opened; they carry the byte counts.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    rows = defaultdict(list)
    for top, op in zip((s for s in spans if s.parent is None), ops, strict=True):
        kids = children[top.id]
        if top.name == "sweep":
            evaluate = sum(k.duration for k in kids if k.name == "synth_s11")
            rows["cli.sweep_eval_s"].append(evaluate)
            rows["cli.sweep_format_s"].append(top.duration - evaluate)
        for k in kids:
            if top.name == "write" and k.name == "synth_s11":
                rows["synth.s11_ns_per_pt.n200001"].append(k.duration / RESPOND_POINTS * 1e9)
            elif k.name == "write_complex_trace":
                rows["traces.write_complex_trace.MBps"].append(op.nbytes / k.duration / 1e6)
            elif k.name == "read_complex_trace":
                rows["traces.read_complex_trace.MBps"].append(op.nbytes / k.duration / 1e6)
                rows["traces.read_us_per_row"].append(k.duration / RESPOND_POINTS * 1e6)
    units = {"cli.sweep_eval_s": "s", "cli.sweep_format_s": "s",
             "synth.s11_ns_per_pt.n200001": "ns/pt", "traces.write_complex_trace.MBps": "MB/s",
             "traces.read_complex_trace.MBps": "MB/s", "traces.read_us_per_row": "us/row"}
    return {name: (statistics.median(rows[name]), unit) for name, unit in units.items()}


def measure(seed: int, workdir: Path, tracer, tally) -> dict:
    """Every per-layer metric: name -> (value, unit)."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = import_layer()
    out.update(cli_layer(workdir / "cli", seed, tally))
    out.update(kernel_layer(seed))
    with patched(tracer):
        fits = FitBatch(seed, workdir)
        for i in range(FIT_CYCLES):
            fits.cycle(i, tally, tracer)
        first = len(tracer.spans)
        bulk = BulkIO(seed, workdir)
        bulk_ops = [op for i in range(BULK_CYCLES) for op in bulk.cycle(i, tally, tracer)]
    out.update(fit_metrics(tracer.spans[:first]))
    out.update(bulk_metrics(tracer.spans[first:], bulk_ops))
    return out
