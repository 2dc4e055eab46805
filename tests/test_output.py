import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudosun import cli
from pseudosun.config import example_config
from pseudosun.output import _decimal, format_value, write_csv, write_text


def percent_csv(header_lines, columns, rows):
    """The CSV text write_csv must give: every value as '%.17g' % value."""
    lines = [",".join("%.17g" % v for v in row) for row in np.atleast_2d(rows).tolist()]
    return "\n".join([*header_lines, ",".join(columns), *lines]) + "\n"


def written(path, rows):
    columns = [f"c{k}" for k in range(np.shape(rows)[-1])]
    write_csv(path, ["# meta"], columns, rows)
    return path.read_text(), percent_csv(["# meta"], columns, rows)


def ulps_around(values, count):
    """Each positive value and the count floats either side of it."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)[:, None] + np.arange(-count, count + 1)
    return bits.ravel().view(np.float64)


def is_tie(value):
    """Whether the exact decimal of value has 18 significant digits, the last a 5."""
    digits = "".join(map(str, Decimal(value).as_tuple().digits)).rstrip("0")
    return len(digits) == 18 and digits[-1] == "5"


#: (2**52 + 1) / 4 is 1125899906842624.25: its 18 digits end in a 5, so 17 digits are a tie,
#: as for the others, odd integers over 4 or 8 whose exact decimals have 18 digits.
HALFWAY = [(2**52 + 1) / 4, (2**53 - 1) / 4, (2**52 + 3) / 4, (2**50 + 1) / 8, -(2**51 + 7) / 8]


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


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda width: st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=width, max_size=width),
            min_size=1,
            max_size=40,
        )
    )
)
@example([[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]])
@example([[-1.7976931348623157e308, 1e-290, 9.999999999999999e-291, 1e290, 1.0000000000000002e290]])
def test_any_finite_rows_are_written_as_percent_17g(tmp_path_factory, rows):
    got, want = written(tmp_path_factory.mktemp("csv") / "table.csv", np.array(rows))
    assert got == want


def test_sweep_of_hard_values_is_written_as_percent_17g(tmp_path):
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    values = np.concatenate(
        [
            ulps_around(powers, 8),
            # The %g switch points: exponents -5 and -4, 16 and 17.
            ulps_around([1e-5, 1e-4, 9.5e-5, 1e16, 1e17, 9.99999999999999e16], 64),
            # Integers whose digits end in zeros, printed without a point.
            [400.0, 1e16, 12345678901234560.0, 2.0**53, 2.0**60, 100.0, 1e22, 1e23],
            # Next to a carry into the next power of ten. No float64 makes that carry at 17
            # digits: the gap below 10**k is over 1e-16 of it, and the carry takes 5e-18. So
            # the floats just below the powers, such as 9.9999999999999991e-05, come closest.
            ulps_around([1.0, 0.1, 9.9999999999999991e-05, 99999999999999984.0, 9.5], 3),
            HALFWAY,
        ]
    )
    values = np.concatenate([values, -values])
    values = np.concatenate([values, np.zeros(-len(values) % 7)])
    got, want = written(tmp_path / "table.csv", values.reshape(-1, 7))
    assert got == want
    # Ties take the '%.17g' fallback, as do magnitudes outside [1e-290, 1e290]. Inside it, of
    # the powers of ten and their neighbours only the ties do, such as 1e15 + 0.25.
    assert _decimal(np.array(HALFWAY))[2].tolist() == list(range(len(HALFWAY)))
    inside = ulps_around(powers[11:-11], 8)
    assert [v for v in inside[_decimal(inside)[2]] if not is_tie(v)] == []
    assert _decimal(ulps_around(powers[:10], 8))[2].size == 10 * 17


def test_million_random_bit_patterns_are_written_as_percent_17g(tmp_path):
    # write_csv formats rows by numpy arithmetic whose double-double products need every
    # float64 ufunc to round on its own, as numpy's do (no fused multiply-add), so under each
    # numpy the suite runs with, a million random bit patterns must give '%.17g' of each value.
    bits = np.random.default_rng(20261019).integers(0, 2**64, 10**6, dtype=np.uint64)
    rows = bits.view(np.float64).reshape(-1, 8)
    path = tmp_path / "bits.csv"
    write_csv(path, [], ["c%d" % k for k in range(8)], rows)
    got = path.read_text().splitlines()[1:]
    want = [",".join("%.17g" % v for v in row) for row in rows.tolist()]
    bad = [k for k, (g, w) in enumerate(zip(got, want)) if g != w]
    assert len(got) == len(want) and not bad, f"rows differ from '%.17g': {bad[:5]}"


def test_powers_of_ten_get_one_digit_and_their_exponent():
    # log10 may miss an exact power of ten by one; the digits must carry back to 10**16.
    digits, e, fallback = _decimal(10.0 ** np.arange(23))
    assert digits.tolist() == [10**16] * 23
    assert e.tolist() == list(range(23))
    assert fallback.size == 0


def test_fig2_tables_are_written_as_percent_17g(tmp_path, monkeypatch):
    tables = []
    write = cli.write_csv

    def capture(path, header_lines, columns, rows):
        tables.append((path, header_lines, columns, np.array(rows)))
        write(path, header_lines, columns, rows)

    monkeypatch.setattr(cli, "write_csv", capture)
    assert cli.main(["dynamics", "--config", str(example_config("fig2")), "--out", str(tmp_path)]) == 0
    assert len(tables) == 2
    for path, header_lines, columns, rows in tables:
        assert rows.shape == (2001, 7)
        assert path.read_text() == percent_csv(header_lines, columns, rows)
