"""Benchmark of the photonpressure package: one workload per run.

    python3 perfbench/run.py --workload fit_batch --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout.  ``--trace 0`` measures the end-to-end metrics, ``--trace 1``
the per-layer ones (see README.md beside this file).  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import Tracer, patched
from summary import TAIL_BEYOND, Tally, median, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5


def load_package():
    """Import photonpressure from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "photonpressure" / "__init__.py").is_file():
        sys.exit(f"error: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import photonpressure

    if Path(photonpressure.__file__).resolve().parent != SRC / "photonpressure":
        sys.exit(f"error: imported photonpressure from {photonpressure.__file__}")


def git_commit() -> str | None:
    """The commit checked out at ROOT, read from .git without calling git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"git_commit": git_commit(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "nproc": os.cpu_count(),
            "cpu_model": cpu, "numba_importable": importlib.util.find_spec("numba") is not None}


def measure_setup(args) -> float:
    """Median wall time of a fresh interpreter that imports and sets up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def warm_up(workload, tally) -> int:
    """Run cycle 0 untimed (still checked) unless the workload is cold by
    design; return the first cycle to time."""
    if workload.warm_up:
        workload.cycle(0, tally)
        return 1
    return 0


def closed_loop(workload, seconds: float, tally):
    """Cycles until time is up and there are enough operations for a tail
    percentile."""
    ops, i = [], warm_up(workload, tally)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(ops) <= TAIL_BEYOND:
        ops += workload.cycle(i, tally)
        i += 1
    return ops


def trace_overhead(workload, seconds: float, tally, tracer) -> float:
    """Busy time of traced cycles over the same cycles untraced, minus one.

    Each cycle's inputs run once plain and once traced, in alternating order.
    """
    busy = {False: 0.0, True: 0.0}
    i = warm_up(workload, tally)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for traced in ((False, True) if i % 2 else (True, False)):
            if traced:
                with patched(tracer):
                    ops = workload.cycle(i, tally, tracer)
            else:
                ops = workload.cycle(i, tally)
            busy[traced] += sum(op.seconds for op in ops)
        i += 1
    return busy[True] / busy[False] - 1.0


def workload_record(name: str, ops, setup_s: float, tally) -> dict:
    """The workload's own metrics: per-kind medians and tails, byte rates."""
    record = {"setup_s": (setup_s, "s"), "fail_frac": (tally.fail_frac, "frac")}
    if name == "fit_batch":
        record["fits_per_s"] = (len(ops) / sum(op.seconds for op in ops), "1/s")
    for kind in dict.fromkeys(op.kind for op in ops):
        seconds = [op.seconds for op in ops if op.kind == kind]
        if kind == "sweep":
            record["sweep_s"] = (median(seconds), "s")
            continue
        if kind in ("write", "read"):
            record[f"{kind}_MBps"] = (median(
                [op.nbytes / op.seconds / 1e6 for op in ops if op.kind == kind]), "MB/s")
            continue
        record[f"{kind}_ms_p50"] = (median(seconds) * 1e3, "ms")
        t = tail(seconds)
        if t:
            record[f"{kind}_ms_tail"] = (t[0] * 1e3, "ms", f"p{t[1]:.1f} of n={t[2]}")
    t = tail([op.seconds for op in ops])
    record["op_ms_tail"] = (t[0] * 1e3, "ms", f"p{t[1]:.1f} of n={t[2]}")
    return record


def end_to_end(ops, setup_s: float) -> dict:
    """The metrics every workload reports; an operation is one fit, one
    command or one bulk step, and throughput counts busy time only."""
    seconds = [op.seconds for op in ops]
    return {"setup_s": (setup_s, "s"),
            "ops_per_s": (len(ops) / sum(seconds), "1/s"),
            "op_ms_p50": (median(seconds) * 1e3, "ms")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("fit_batch", "cli_cold", "bulk_io"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    load_package()
    import layers
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        if args.setup_only:
            WORKLOADS[args.workload](args.seed, workdir)
            return 0
        if args.trace:
            workload = WORKLOADS[args.workload](args.seed, workdir)
            suite, loop = Tracer(), Tracer()
            metrics = layers.measure(args.seed, workdir / "layers", suite, tally)
            metrics["trace_overhead_frac"] = (
                trace_overhead(workload, args.seconds, tally, loop), "frac")
            spans_path = OUT / f"spans_{args.workload}_{args.seed}.jsonl"
            with open(spans_path, "w", encoding="utf-8") as fh:
                suite.dump(fh, "layers")
                loop.dump(fh, args.workload)
            print(f"spans: {spans_path.relative_to(ROOT)}")
            record = {}
        else:
            setup_s = measure_setup(args)
            workload = WORKLOADS[args.workload](args.seed, workdir)
            ops = closed_loop(workload, args.seconds, tally)
            record = workload_record(args.workload, ops, setup_s, tally)
            metrics = end_to_end(ops, setup_s)

    print("machine: " + json.dumps(machine()))
    for name, (value, unit, *note) in {**record, **metrics}.items():
        print(f"{name:44s} {value:14.6g} {unit:7s} {' '.join(note)}")
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
