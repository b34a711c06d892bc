"""Trace containers and the plain-text file formats.

Every numeric table goes through :func:`write_columns`: '# key: value' header
lines, then one row of whitespace-separated numbers per line, in ".17g" unless
a column asks for another format.  Complex reflection traces are three columns
(frequency_hz, re, im); spectra two columns (frequency_hz, value) with a
'# units:' line.  The ``sweep`` map has '# outer:', '# columns:' and
'# probe_hz:' lines, then one row per outer value: the value in ".17g", then
|S11| in dB in ".9g" per probe point.  On standard output the same data rows
are written without the '#' lines.  Parameter sets and fit reports are flat
JSON documents with dotted keys and SI values.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TraceFormatError

__all__ = [
    "ComplexTrace",
    "SpectrumTrace",
    "read_complex_trace",
    "write_complex_trace",
    "read_spectrum_trace",
    "write_spectrum_trace",
    "read_points",
    "write_columns",
    "read_params",
    "write_params",
]


def _check_trace(trace, dtype) -> None:
    """Check a trace's grid and values and store them as arrays, the values
    as ``dtype``."""
    freq = np.asarray(trace.frequency_hz, dtype=float)
    if freq.ndim != 1 or freq.size < 2:
        raise DomainError("frequency grid must be a 1-D array with >= 2 points")
    if not np.all(np.diff(freq) > 0):
        raise DomainError("frequency grid must be strictly increasing")
    vals = np.asarray(trace.values, dtype=dtype)
    if vals.shape != freq.shape:
        raise DomainError("values must match the frequency grid")
    if not np.all(np.isfinite(vals)):
        raise DomainError("trace values must be finite")
    object.__setattr__(trace, "frequency_hz", freq)
    object.__setattr__(trace, "values", vals)


@dataclass(frozen=True)
class ComplexTrace:
    """Frequency-indexed complex reflection data."""

    frequency_hz: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _check_trace(self, complex)

    def __len__(self):
        return self.frequency_hz.size


@dataclass(frozen=True)
class SpectrumTrace:
    """Frequency-indexed real data (PSD or any scalar spectrum)."""

    frequency_hz: np.ndarray
    values: np.ndarray
    units: str = "photon"

    def __post_init__(self):
        _check_trace(self, float)

    def __len__(self):
        return self.frequency_hz.size


def _read_text(path) -> str:
    """The text of a UTF-8 file; one that cannot be opened, read or decoded is a
    :class:`TraceFormatError` that names it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceFormatError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None


def _row_error(lines, n_columns):
    """The :class:`TraceFormatError`, with its line number, for the first row
    that :func:`numpy.loadtxt` cannot read, with other than ``n_columns``
    fields, or with another width than the row before it; None if every row
    is good."""
    width = None
    for lineno, raw in enumerate(lines, start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        try:
            np.loadtxt([raw], comments="#")
        except ValueError:
            return TraceFormatError(f"could not parse {raw.strip()!r}", line=lineno)
        if n_columns is not None and len(fields) != n_columns:
            return TraceFormatError(
                f"expected {n_columns} columns, found {len(fields)}", line=lineno)
        if width is not None and len(fields) != width:
            return TraceFormatError("inconsistent column count", line=lineno)
        width = len(fields)
    return None


def read_points(path, n_columns=None):
    """Read a whitespace-separated numeric table, skipping '#' comments.

    Returns (header, array); ``header`` maps the '# key: value' entries of
    the lines that start with '#'.  The rows are parsed by
    :func:`numpy.loadtxt`, so a '#' after the numbers of a row starts a
    comment, and a field must be an ASCII number without '_' separators.
    Raises :class:`TraceFormatError` with the offending line number on any
    parse failure; only then are the rows read again one by one, to find it.
    """
    lines = _read_text(path).split("\n")
    header: dict[str, str] = {}
    for raw in (line for line in lines if "#" in line):
        line = raw.strip()
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if ":" in body:
                key, _, value = body.partition(":")
                header[key.strip()] = value.strip()
    # loadtxt warns on a table without rows, so that never reaches it
    if not any(line.split("#", 1)[0].strip() for line in lines):
        raise TraceFormatError(f"no data rows in {path}")
    try:
        data = np.loadtxt(lines, comments="#", ndmin=2)
    except ValueError as exc:
        raise _row_error(lines, n_columns) or TraceFormatError(str(exc)) from None
    if n_columns is not None and data.shape[1] != n_columns:
        raise _row_error(lines, n_columns)
    return header, data


_BLOCK_VALUES = 4096  # values formatted by one % call


def _format_rows(table, fmt):
    """The text of the rows of ``table``, each formatted with ``fmt``, a
    block of whole rows per ``%`` call, so no row needs a list or tuple of
    its own."""
    width = table.shape[1]
    values = table.ravel().tolist()
    step = max(1, _BLOCK_VALUES // width) * width
    for start in range(0, len(values), step):
        block = values[start:start + step]
        yield (fmt * (len(block) // width)) % tuple(block)


def write_columns(path, columns, header, formats=None):
    """Write numeric columns as text rows, one ``%``-format spec per column.

    ``columns`` are stacked side by side into one table, as
    :func:`numpy.column_stack` does, so a 2-D entry adds one column per
    column of its own.  ``formats`` defaults to ".17g" for every column.  To
    a file, ``header`` entries come first, in order, as '# key: value' lines;
    with no ``path`` the data rows alone go to standard output.  A NaN or
    infinite value is a :class:`DomainError`, raised before anything is
    written.
    """
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    if not np.isfinite(table).all():
        raise DomainError("output values must be finite, found nan or inf")
    fmt = " ".join("%" + spec for spec in formats or [".17g"] * table.shape[1]) + "\n"
    rows = _format_rows(table, fmt)
    if not path:
        sys.stdout.writelines(rows)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {key}: {value}\n" for key, value in header.items())
        fh.writelines(rows)


def read_complex_trace(path) -> ComplexTrace:
    """Read a three-column (frequency_hz, re, im) file."""
    _, data = read_points(path, n_columns=3)
    return ComplexTrace(data[:, 0], data[:, 1] + 1j * data[:, 2])


def write_complex_trace(path, trace: ComplexTrace) -> None:
    write_columns(path, [trace.frequency_hz, trace.values.real, trace.values.imag],
                  {"columns": "frequency_hz re im"})


def read_spectrum_trace(path) -> SpectrumTrace:
    """Read a two-column (frequency_hz, value) file; units from the header."""
    header, data = read_points(path, n_columns=2)
    return SpectrumTrace(data[:, 0], data[:, 1], units=header.get("units", "photon"))


def write_spectrum_trace(path, trace: SpectrumTrace) -> None:
    write_columns(path, [trace.frequency_hz, trace.values],
                  {"columns": "frequency_hz value", "units": trace.units})


def read_params(path) -> dict:
    """Read a flat JSON key/value document (dotted keys, SI values)."""
    import json  # only the commands that read or write JSON load it

    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise TraceFormatError("parameter document must be a JSON object")
    flat: dict[str, float | str] = {}
    for key, value in doc.items():
        if isinstance(value, dict):  # one level of nesting is tolerated
            for sub, v in value.items():
                flat[f"{key}.{sub}"] = v
        else:
            flat[key] = value
    return flat


def write_params(path, params: dict) -> None:
    """Write a flat JSON document; with no ``path``, to standard output.  A NaN
    or infinite value is a :class:`DomainError`, raised before anything is
    written."""
    bad = sorted(key for key, value in params.items()
                 if isinstance(value, float) and not np.isfinite(value))
    if bad:
        raise DomainError(f"output values must be finite, found nan or inf in {bad}")
    import json

    text = json.dumps(params, indent=2, sort_keys=True) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
