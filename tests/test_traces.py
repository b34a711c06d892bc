import numpy as np
import pytest

from photonpressure.errors import DomainError, TraceFormatError
from photonpressure.traces import (ComplexTrace, SpectrumTrace, read_params,
                                   read_complex_trace, read_points,
                                   read_spectrum_trace, write_columns,
                                   write_complex_trace, write_params,
                                   write_spectrum_trace)


class TestContainers:
    def test_grid_must_increase(self):
        with pytest.raises(DomainError):
            ComplexTrace(np.array([1.0, 1.0, 2.0]), np.zeros(3, complex))
        with pytest.raises(DomainError):
            SpectrumTrace(np.array([2.0, 1.0]), np.zeros(2))

    def test_finite_values_required(self):
        with pytest.raises(DomainError):
            SpectrumTrace(np.array([1.0, 2.0]), np.array([1.0, np.inf]))

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            ComplexTrace(np.array([1.0, 2.0]), np.zeros(3, complex))


class TestFileRoundTrips:
    def test_complex_trace(self, tmp_path):
        path = tmp_path / "trace.dat"
        freq = np.linspace(5.84e9, 5.85e9, 64)
        vals = np.exp(1j * np.linspace(0, 1, 64)) * np.linspace(0.9, 1.1, 64)
        write_complex_trace(path, ComplexTrace(freq, vals))
        back = read_complex_trace(path)
        np.testing.assert_allclose(back.frequency_hz, freq, rtol=0, atol=0)
        np.testing.assert_allclose(back.values, vals, rtol=0, atol=0)

        # one format spec per column; every data line is its values, re-formatted
        formats = [".17g", ".9g", ".9g"]
        write_columns(path, [freq, vals.real, vals.imag],
                      {"columns": "frequency_hz re im", "note": "x"}, formats)
        header, data = read_points(path, n_columns=3)
        assert header == {"columns": "frequency_hz re im", "note": "x"}
        lines = path.read_text().splitlines()
        assert lines[:2] == ["# columns: frequency_hz re im", "# note: x"]
        for line, row in zip(lines[2:], data, strict=True):
            assert line == " ".join(format(v, spec) for v, spec in zip(row, formats))
        np.testing.assert_array_equal(data[:, 0], freq)
        np.testing.assert_allclose(data[:, 1], vals.real, rtol=1e-8, atol=0)

    @pytest.mark.parametrize("shape", [(3001, 3), (3, 5000)], ids=["tall", "row-wider-than-block"])
    def test_rows_formatted_across_blocks(self, tmp_path, shape):
        # rows are formatted a block of rows at a time; a 2-D entry is one
        # column per column of its own
        table = np.random.default_rng(1).standard_normal(shape)
        path = tmp_path / "table.dat"
        write_columns(path, [table[:, 0], table[:, 1:]], {"columns": "x"},
                      [".17g"] + [".9g"] * (shape[1] - 1))
        expected = [" ".join([format(row[0], ".17g")] + [format(v, ".9g") for v in row[1:]])
                    for row in table]
        assert path.read_text().splitlines() == ["# columns: x"] + expected

    def test_spectrum_trace_units_header(self, tmp_path):
        path = tmp_path / "psd.dat"
        trace = SpectrumTrace(np.linspace(1e6, 2e6, 32), np.random.default_rng(0).random(32),
                              units="W/Hz")
        write_spectrum_trace(path, trace)
        assert "# units: W/Hz" in path.read_text()
        back = read_spectrum_trace(path)
        assert back.units == "W/Hz"
        np.testing.assert_allclose(back.values, trace.values, rtol=0, atol=0)

    def test_params_round_trip(self, tmp_path):
        path = tmp_path / "params.json"
        params = {"lf.omega0": 2.457e9, "lf.gamma0": 1.38e5}
        write_params(path, params)
        assert read_params(path) == params

    def test_nested_params_flattened(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text('{"lf": {"omega0": 1.0}, "drive.g": 2.0}')
        assert read_params(path) == {"lf.omega0": 1.0, "drive.g": 2.0}


class TestParseErrors:
    def test_bad_number_names_line(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("# columns: frequency_hz value\n1.0 2.0\n1.5 oops\n")
        with pytest.raises(TraceFormatError) as err:
            read_points(path)
        assert err.value.line == 3
        assert "line 3" in str(err.value)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("1.0 2.0 3.0\n1.5 2.5\n")
        with pytest.raises(TraceFormatError) as err:
            read_points(path)
        assert err.value.line == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.dat"
        path.write_text("# only comments\n")
        with pytest.raises(TraceFormatError):
            read_points(path)

    @pytest.mark.parametrize("text", ["# columns: a b\n# units: x\n", "", "\n  \n\t\n"],
                             ids=["comments", "empty", "blank"])
    def test_no_rows_is_an_error_not_a_warning(self, tmp_path, text):
        # numpy.loadtxt warns on a table without rows, and warnings are errors here
        path = tmp_path / "rowless.dat"
        path.write_text(text)
        with pytest.raises(TraceFormatError, match="no data rows"):
            read_points(path)

    # fields that float() takes but numpy.loadtxt, which parses the rows, does not
    @pytest.mark.parametrize("field", ["1_000", "１", "١"],
                             ids=["underscore", "fullwidth", "arabic-indic"])
    def test_float_only_numbers_refused_with_line(self, tmp_path, field):
        path = tmp_path / "bad.dat"
        path.write_text(f"# columns: a b c\n1 2 3\n\n4 {field} 6\n")
        with pytest.raises(TraceFormatError, match="could not parse") as err:
            read_points(path)
        assert err.value.line == 4

    def test_comment_after_numbers_is_dropped(self, tmp_path):
        # float() refuses "3 # note" as a field; numpy.loadtxt drops the comment,
        # and only a line that starts with '#' is a header entry
        path = tmp_path / "inline.dat"
        path.write_text("# units: W/Hz\n1 2 3 # note: x\n4 5 6#\n")
        header, data = read_points(path)
        assert header == {"units": "W/Hz"}
        np.testing.assert_array_equal(data, [[1, 2, 3], [4, 5, 6]])

    def test_blank_lines_and_whitespace_skipped(self, tmp_path):
        path = tmp_path / "blank.dat"
        path.write_text("\n  1\t2 3  \n\n   \n4 5 6\n\n")
        _, data = read_points(path, n_columns=3)
        np.testing.assert_array_equal(data, [[1, 2, 3], [4, 5, 6]])

    def test_values_bit_equal_to_float(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-300, 300, (50, 3))
        path = tmp_path / "bits.dat"
        path.write_text("".join(" ".join(format(v, spec) for v in row) + "\n"
                                for row, spec in zip(values, [".17g", ".9g", ".3e", ""] * 13)))
        _, data = read_points(path)
        expected = [[float(f) for f in line.split()] for line in path.read_text().splitlines()]
        assert data.tolist() == expected

    @pytest.mark.parametrize("text, line, message", [
        ("1 2 3\n\n4 5\n", 3, "inconsistent column count"),
        ("1 2 3 # ok\n4 5 6 7 # no\n", 2, "inconsistent column count"),
        ("# c\n1 2\n3 4\n", 2, "expected 3 columns, found 2"),
        ("1 2 3\n4 5 x\n", 2, "could not parse '4 5 x'"),
    ], ids=["ragged", "ragged-inline-comment", "narrow", "word"])
    def test_row_errors_name_the_line(self, tmp_path, text, line, message):
        path = tmp_path / "bad.dat"
        path.write_text(text)
        with pytest.raises(TraceFormatError, match=message) as err:
            read_points(path, n_columns=3 if message.startswith("expected") else None)
        assert err.value.line == line

    @pytest.mark.parametrize("field", ["nan", "inf", "-Infinity", "NaN"])
    def test_non_finite_numbers_parse_then_trace_refuses(self, tmp_path, field):
        path = tmp_path / "nonfinite.dat"
        path.write_text(f"1 0 0\n2 {field} 0\n")
        _, data = read_points(path, n_columns=3)
        assert not np.isfinite(data[1, 1])
        with pytest.raises(DomainError, match="finite"):
            read_complex_trace(path)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"a": 1,}')
        with pytest.raises(TraceFormatError):
            read_params(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_write_params_refuses_non_finite_before_writing(tmp_path, value):
    path = tmp_path / "report.json"
    with pytest.raises(DomainError, match="'g_err'"):
        write_params(path, {"g": 0.0, "g_err": value, "converged": True})
    assert not path.exists()
