"""CSV and plot-script emission with reproducibility headers.

Every CSV starts with '#'-prefixed metadata lines carrying the tool version,
the command, the SHA-256 of the exact (canonicalized) config block, and the
seed, followed by a plain header row and RFC-4180-style rows with 17
significant digits. Every file goes through write_text, which writes a temp
file beside the target and renames it over the target, so a crashed run never
leaves a truncated output behind. The temp file is created by os.open with
mode 0666, and the kernel clears the bits of the process umask, as for any
new file (0644 under umask 022); the rename keeps that mode.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np


def config_hash(block: dict) -> str:
    canonical = json.dumps(block, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def metadata_lines(version: str, command: str, block: dict, seed: int | None) -> list[str]:
    return [
        f"# pseudosun {version}",
        f"# command: {command}",
        f"# config-sha256: {config_hash(block)}",
        f"# seed: {'none' if seed is None else seed}",
    ]


#: Format of every number written: 17 significant digits give back the exact float64.
FLOAT_FORMAT = "%.17g"


def format_value(x) -> str:
    return FLOAT_FORMAT % float(x)


def write_text(path: Path, text: str) -> None:
    """Write text to path atomically, creating its directory if needed."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(temp, path)
        except OSError:
            os.unlink(temp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}")


def write_csv(path: Path, header_lines: list[str], columns: list[str], rows: np.ndarray) -> None:
    """Write a CSV with metadata comments, a header row, and numeric rows.

    One %-format pass per row. Rows become Python floats one at a time, so
    the table is never held as Python objects all at once.
    """
    data = np.atleast_2d(np.asarray(rows))
    row_format = ",".join([FLOAT_FORMAT] * data.shape[1])
    lines = [*header_lines, ",".join(columns)]
    lines.extend(row_format % tuple(row.tolist()) for row in data)
    write_text(path, "\n".join(lines) + "\n")


def script_name(csv_name: str) -> str:
    """Name of the gnuplot script written beside a CSV: its suffix replaced by .gp."""
    return Path(csv_name).with_suffix(".gp").name


def write_gnuplot(path: Path, csv_name: str, columns: list[str], title: str) -> None:
    """Emit a minimal gnuplot script plotting every column against the first."""
    plots = ", ".join(
        f"'{csv_name}' using 1:{k + 2} with lines title '{name}'"
        for k, name in enumerate(columns[1:])
    )
    script = "\n".join(
        [
            "set datafile separator ','",
            f"set title '{title}'",
            f"set xlabel '{columns[0]}'",
            "set key outside",
            f"plot {plots}",
            "pause -1",
        ]
    )
    write_text(path, script + "\n")
