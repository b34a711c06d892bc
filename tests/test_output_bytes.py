"""Output bytes of the README commands and of one fit per model, against a
committed table.

``output_digests.json`` holds, for every output the commands below write, its
SHA-256 digest and a few of its parsed values, with the numpy version and the
SIMD features numpy dispatched to when the table was made.  numpy picks its
float64 ``exp``, ``sin`` and ``log10`` kernels by CPU feature, so elsewhere a
last bit may round differently: there only the ``values`` check runs, which
compares table entries within a few ulp of their column's largest magnitude
and fit values within 1e-9 of their ``_err``.  Where numpy and its features
match the table, the ``sha256`` check runs as well.  The test id names each
check that ran.

A change that means to change output bytes writes the table again,

    PYTHONPATH=src python tests/test_output_bytes.py

and names every changed output in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from photonpressure.cli import main
from test_cli import README_COMMANDS

HERE = Path(__file__).resolve().parent
TABLE = HERE / "output_digests.json"
ARCH_POINTS = HERE / "flux_arch.dat"

# after the README's commands, which fit the bare trace: one fit per other model
FIT_COMMANDS = [
    ["synth", "--model", "pumped", "--preset", "strong_coupling_B",
     "--set", "noise.kind=additive-complex-gaussian", "--set", "noise.sigma=5e-4",
     "--seed", "7", "--out", "p.dat"],
    ["fit", "p.dat", "--model", "pumped", "--preset", "strong_coupling_B", "--out", "p.json"],
    ["fit", "psd.dat", "--model", "lorentzian", "--out", "l.json"],
    ["fit", "ba.dat", "--model", "backaction", "--out", "b.json"],
    ["fit", str(ARCH_POINTS), "--model", "flux_arch", "--out", "a.json"],
]

SAMPLES = 33    # parsed values kept per table, evenly spaced over its entries
FEW_ULP = 16
FIT_REL = 1e-9  # of a fit value's _err, and relative for a fit's other floats
# beyond a few ulp, of a column's largest magnitude: |S11| in dB is written
# in .9g after the sweep map's first column, and a corrected trace moves with
# the fit it divides out
TABLE_REL = {"map.dat": 1e-8, "report.json.trace": 1e-12, "p.json.trace": 1e-12}


def ulps(x):
    return FEW_ULP * np.spacing(abs(x))


def platform_tag() -> dict:
    """numpy's version and the SIMD features it dispatches to here (None when
    numpy does not say)."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return {"numpy": np.__version__, "simd": None}
    return {"numpy": np.__version__,
            "simd": sorted(f for f in __cpu_dispatch__ if __cpu_features__.get(f))}


def run_commands(workdir: Path) -> dict[str, bytes]:
    """Run every command through ``cli.main`` in ``workdir``; the bytes of each
    output, standard output under "<command> (stdout)"."""
    outputs = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in README_COMMANDS + FIT_COMMANDS:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(argv) == 0, argv
            if stdout.getvalue():
                outputs[f"{argv[0]} (stdout)"] = stdout.getvalue().encode()
    finally:
        os.chdir(cwd)
    for path in sorted(workdir.iterdir()):
        outputs[path.name] = path.read_bytes()
    return outputs


def is_report(name: str) -> bool:
    return name.endswith(".json") or name == "params (stdout)"


def table_values(data: bytes) -> np.ndarray:
    rows = [line.split() for line in data.decode().splitlines() if not line.startswith("#")]
    return np.array(rows, dtype=float)


def entry(name: str, data: bytes) -> dict:
    """One output's row of the table: its digest, and its report or a sample
    of its table."""
    row = {"sha256": hashlib.sha256(data).hexdigest()}
    if is_report(name):
        row["values"] = json.loads(data)
    else:
        values = table_values(data)
        flat = values.ravel()
        row["shape"] = list(values.shape)
        row["sample"] = [[int(i), float(flat[i])]
                         for i in np.linspace(0, flat.size - 1, SAMPLES).astype(int)]
    return row


def report_mismatches(name: str, got: dict, want: dict) -> list[str]:
    """A fit value may move by 1e-9 of its _err, a fit's other floats by 1e-9
    of themselves, and any float by a few ulp.  A fit whose every _err is
    below a few ulp of its value reproduced its data to rounding: its
    uncertainties and residual norm are rounding noise, so the uncertainties
    need only stay below that level, and the residual norm is not compared."""
    if set(got) != set(want):
        return [f"{name}: keys {sorted(set(got) ^ set(want))} differ"]
    fit = "converged" in want
    errs = {key[:-4]: value for key, value in want.items() if key.endswith("_err")}
    exact = fit and all(err <= ulps(want[base]) for base, err in errs.items())
    problems = []
    for key, value in want.items():
        if isinstance(value, bool) or not isinstance(value, float):
            ok = got[key] == value
        elif exact and key.endswith("_err"):
            ok = got[key] <= ulps(want[key[:-4]])
        elif exact and key == "residual_norm":
            ok = True
        else:
            tol = FIT_REL * errs.get(key, abs(value)) if fit else 0.0
            ok = abs(got[key] - value) <= max(tol, ulps(value))
        if not ok:
            problems.append(f"{name}: {key} = {got[key]!r}, table {value!r}")
    return problems


def table_mismatches(name: str, data: bytes, want: dict) -> list[str]:
    values = table_values(data)
    if list(values.shape) != want["shape"]:
        return [f"{name}: shape {values.shape}, table {want['shape']}"]
    scale = np.abs(values).max(axis=0)
    problems = []
    for i, value in want["sample"]:
        row, col = divmod(i, values.shape[1])
        tol = ulps(scale[col]) + (TABLE_REL.get(name, 0.0) * scale[col] if col else 0.0)
        if not abs(values[row, col] - value) <= tol:
            problems.append(f"{name}: entry {i} = {values[row, col]!r}, table {value!r}")
    return problems


def checks() -> list[str]:
    if not TABLE.exists():  # the first table is being written
        return ["sha256", "values"]
    table = json.loads(TABLE.read_text())
    same = {k: table[k] for k in ("numpy", "simd")} == platform_tag()
    return ["sha256", "values"] if same else ["values"]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_commands(tmp_path_factory.mktemp("outputs"))


@pytest.mark.parametrize("check", checks())
def test_outputs_match_table(outputs, check):
    table = json.loads(TABLE.read_text())["outputs"]
    assert sorted(outputs) == sorted(table)
    problems = []
    for name, data in outputs.items():
        want = table[name]
        if check == "sha256":
            if hashlib.sha256(data).hexdigest() != want["sha256"]:
                problems.append(f"{name}: bytes differ from the table")
        elif is_report(name):
            problems += report_mismatches(name, json.loads(data), want["values"])
        else:
            problems += table_mismatches(name, data, want)
    assert not problems, f"{check} check: " + "; ".join(problems)


def write_table() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        outputs = run_commands(Path(workdir))
    table = dict(platform_tag(), outputs={name: entry(name, data)
                                          for name, data in outputs.items()})
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_table()
