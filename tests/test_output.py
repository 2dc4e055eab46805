import numpy as np

from pseudosun.output import format_value, write_csv


def test_csv_fields_round_trip_exactly(tmp_path):
    values = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300, 0.1]
    rows = np.array([values, values[::-1]])
    columns = [f"c{k}" for k in range(len(values))]
    path = tmp_path / "table.csv"
    write_csv(path, ["# meta"], columns, rows)
    lines = path.read_text().splitlines()
    assert lines[:2] == ["# meta", ",".join(columns)]
    assert len(lines) == 2 + len(rows)
    for line, row in zip(lines[2:], rows):
        fields = line.split(",")
        assert fields == [format_value(v) for v in row]
        # Bit for bit, so -0.0 must come back with its sign.
        assert np.array([float(f) for f in fields]).tobytes() == row.tobytes()
