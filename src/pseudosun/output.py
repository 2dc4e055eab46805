"""CSV and plot-script emission with reproducibility headers.

Every CSV starts with '#'-prefixed metadata lines carrying the tool version,
the command, the SHA-256 of the exact (canonicalized) config block, and the
seed, followed by a plain header row and RFC-4180-style rows with 17
significant digits. Files are written atomically (temp file then rename) so
a crashed run never leaves a truncated output behind, with the permissions
the process umask gives a newly created file.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
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


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _write_atomic(path: Path, text: str) -> None:
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            "w", dir=path.parent, prefix=f".{path.name}.", delete=False, encoding="utf-8"
        )
        try:
            with handle:
                handle.write(text)
            # The temp file is created 0600 and the rename keeps that mode.
            os.chmod(handle.name, 0o666 & ~_umask())
            os.replace(handle.name, path)
        except OSError:
            os.unlink(handle.name)
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
    _write_atomic(Path(path), "\n".join(lines) + "\n")


def write_text(path: Path, text: str) -> None:
    _write_atomic(Path(path), text)


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
    _write_atomic(Path(path), script + "\n")
