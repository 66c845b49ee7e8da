import csv
import io
import json

import numpy as np
import pytest

from relayosc import artifacts
from relayosc.artifacts import dumps, write_csv


def _csv(header, columns):
    buf = io.StringIO()
    write_csv(buf, "t", "units", header, columns)
    return buf.getvalue()


class TestWriteCsv:
    def test_cells_by_column_type(self):
        text = _csv(["i", "x", "flag"], [np.arange(3), np.array([0.1, -0.0, 1e-300]),
                                         np.array([True, False, True])])
        assert text == "# relayosc t; units\ni,x,flag\n0,0.1,1\n1,-0.0,0\n2,1e-300,1\n"

    def test_floats_round_trip(self):
        x = np.random.default_rng(0).standard_normal(50) * 10.0 ** np.arange(-25, 25)
        rows = _csv(["x"], [x]).splitlines()[2:]
        assert np.array_equal([float(r) for r in rows], x)

    def test_empty_columns_write_the_header_only(self):
        assert _csv(["a", "b"], [[], np.array([], dtype=int)]) == "# relayosc t; units\na,b\n"

    @staticmethod
    def _oracle(header, columns):
        """The artifact as csv.writer writes the columns' Python values."""
        buf = io.StringIO()
        buf.write("# relayosc t; units\n")
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows(zip(*((c.astype(int) if c.dtype == bool else c).tolist()
                          for c in map(np.asarray, columns))))
        return buf.getvalue()

    @pytest.mark.parametrize("rows", [0, 1, 3, artifacts._CSV_CHUNK, 2 * artifacts._CSV_CHUNK + 5])
    def test_bytes_match_csv_writer(self, rows):
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1, -1e300]
        rng = np.random.default_rng(rows)
        floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20, rows)
        floats[: len(special)] = special[:rows]
        columns = [range(rows), floats, rng.random(rows) < 0.5,
                   rng.integers(-10**12, 10**12, rows), np.full(rows, -1.0),
                   [float(v) for v in floats[::-1]]]
        header = ["i", "x, quoted", "flag", "n", "u", "y"]
        assert _csv(header, columns) == self._oracle(header, columns)


class TestDumps:
    def test_arrays_complex_and_numpy_scalars(self):
        payload = {"m": np.eye(2), "z": (1.5 - 2j, complex(-3.0)), "k": np.int64(7),
                   "f": np.bool_(True), "w": np.complex128(0.5j)}
        assert json.loads(dumps(payload)) == {
            "m": [[1.0, 0.0], [0.0, 1.0]], "z": [[1.5, -2.0], [-3.0, 0.0]], "k": 7,
            "f": True, "w": [0.0, 0.5]}

    def test_unsupported_object_raises(self):
        with pytest.raises(TypeError):
            dumps({"x": object()})
