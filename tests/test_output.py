import tracemalloc

import numpy as np
import pytest

from pseudosun.output import format_value, write_csv, write_text


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


def test_rows_stream_in_blocks_with_bounded_memory(tmp_path):
    # 20,001 x 31 values are a 12.5 MB CSV. Built as one string, the text and
    # the rows as Python floats peaked at 38.6 MB under tracemalloc.
    rows = np.random.default_rng(5).standard_normal((20001, 31))
    columns = [f"c{k}" for k in range(31)]
    path = tmp_path / "table.csv"
    tracemalloc.start()
    try:
        write_csv(path, ["# meta"], columns, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    row_format = ",".join(["%.17g"] * 31)
    lines = ["# meta", ",".join(columns), *(row_format % tuple(row) for row in rows.tolist())]
    assert path.read_text() == "\n".join(lines) + "\n"


def test_failed_chunk_leaves_target_and_no_temp_file(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("old\n")

    def chunks():
        yield "new\n"
        raise ValueError("a chunk failed")

    with pytest.raises(ValueError, match="a chunk failed"):
        write_text(path, chunks())
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]
    assert path.read_text() == "old\n"
