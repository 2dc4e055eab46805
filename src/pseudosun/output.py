"""CSV and plot-script emission with reproducibility headers.

Every CSV starts with '#'-prefixed metadata lines carrying the tool version,
the command, the SHA-256 of the exact (canonicalized) config block, and the
seed, followed by a plain header row and RFC-4180-style rows. Each number is
written with 17 significant digits, byte for byte as Python's '%.17g' writes
it, so it reads back as the exact float64. The rows are formatted by numpy
arithmetic over whole blocks of about _BLOCK_VALUES values (_format_rows); a
value whose rounding that arithmetic cannot certify (a tie, a non-finite value
or a magnitude outside [1e-290, 1e290]) goes through '%.17g' itself. Every
file goes through write_text, which writes a temp file beside the target and
renames it over the target, so a crashed run never leaves a truncated output
behind. The temp file is created by os.open with mode 0666, and the kernel
clears the bits of the process umask, as for any new file (0644 under umask
022); the rename keeps that mode.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from collections.abc import Iterable
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


def write_text(path: Path, text: str | Iterable[str]) -> None:
    """Write text, or its strings in turn, to path atomically, creating its directory if needed.

    Any exception, from the strings' iterator too, removes the temp file and keeps the target.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8") as handle:
                handle.writelines([text] if isinstance(text, str) else text)
            os.replace(temp, path)
        except BaseException:
            os.unlink(temp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}")


#: Values formatted per block: the block's temporaries, about 30 arrays of 8 bytes and four
#: of 32 bytes per value, peak at about 0.6 MB under tracemalloc.
_BLOCK_VALUES = 2048

# _decimal takes |v| in [1e-290, 1e290], where every product of its double-double step is a
# normal float64; the tables reach two decimal exponents past that each side, for the log10
# fix-up.
_E_LIM = 292
_E_COUNT = 2 * _E_LIM + 1
# A scaled value whose fraction lies this close to one half goes to '%.17g'. The double-double
# product errs by less than 2**-104 relative, under 1e-14 on a number below 1e17.
_HALF_MARGIN = 2.0**-20
# Veltkamp's constant 2**27 + 1: it splits a float64 into two halves of 26 bits.
_SPLIT = 134217729.0
_ZEROS = np.uint64(int.from_bytes(b"0" * 8, "little"))
_U8, _U16, _U32, _U48, _U56 = (np.uint64(n) for n in (8, 16, 32, 48, 56))


def _words(byte_rows) -> np.ndarray:
    """Rows of bytes as uint64 words, byte 0 of a row the least significant byte of its word 0."""
    return np.ascontiguousarray(byte_rows, dtype=np.uint8).view("<u8").astype(np.uint64)


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """Read-only lookup tables of _decimal and _format_rows, built on first use (about 3 ms).

    _format_rows writes each value as a cell of four words, 32 bytes:
    bytes 0-7 the sign and the "0." and zeros of -4 <= e <= -1, right-aligned;
    bytes 8-25 slots 0-17, the 17 digits and the decimal point;
    bytes 26-30 the exponent, "e+300" or "e-05", right-aligned, in scientific notation;
    byte 31 the separator, ',' or '\n'. Unused bytes are NUL, dropped at the end.
    """
    # 10**q for q = 16 - e as hi + lo, each correctly rounded from Python integers, and hi split
    # into two 26-bit halves by Veltkamp's method on its mantissa (10**308 * _SPLIT overflows).
    hi, lo = [], []
    for q in range(16 - _E_LIM, 17 + _E_LIM):
        if q >= 0:
            hi.append(float(10**q))
            lo.append(float(10**q - int(hi[-1])))
        else:
            den10 = 10**-q
            hi.append(1 / den10)
            num, den2 = hi[-1].as_integer_ratio()
            lo.append((den2 - num * den10) / (den2 * den10))
    hi = np.array(hi)
    mant, exp = np.frexp(hi)
    scaled = mant * _SPLIT
    hi_hi = np.ldexp(scaled - (scaled - mant), exp)

    # The four ASCII digits of 0..9999 in the low four bytes of a word, the first digit lowest.
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quad = np.zeros((10000, 8), np.uint8)
    quad[:, :4] = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), axis=-1).reshape(-1, 4)

    # Per decimal exponent: its layout class, fixed-point -4..16 (classes 0..20) or scientific
    # (class 21), as the first of the class's 18 x 2 rows (digit counts, signs) in the mask
    # tables; and its word 3, for a comma and then for a newline.
    e = np.arange(-_E_LIM, _E_LIM + 1)
    scientific = (e < -4) | (e > 16)
    class_row = np.where(scientific, 21, e + 4) * (18 * 2)
    exponent = b"".join(
        (b"e%+03d" % x if x < -4 or x > 16 else b"").rjust(5, b"\0") for x in e.tolist()
    )
    word3 = np.zeros((2, _E_COUNT, 8), np.uint8)
    word3[:, :, 2:7] = np.frombuffer(exponent, np.uint8).reshape(-1, 5)
    word3[:, :, 7] = [[ord(",")], [ord("\n")]]

    # Per (class, significant digits, sign), the cell's masks: the slots that keep the digits
    # where they are (before the point), the slots that take them shifted one slot on (after
    # the point), and the fixed bytes: the point, the sign, and the "0." and zeros of e < 0.
    cls = np.arange(22).reshape(-1, 1, 1, 1)
    nsig = np.arange(18).reshape(1, -1, 1, 1)
    negative = np.arange(2).reshape(1, 1, -1, 1)
    slot = np.arange(32) - 8
    point = np.where(cls < 4, 0, np.where(cls == 21, 1, cls - 3))
    end = np.where(nsig > point, nsig + 1, point)
    zeros = np.where(cls < 4, 4 - cls, 0)
    dot, nought, minus = (np.uint8(ord(c)) for c in ".0-")
    fixed = np.where((slot == point) & (0 < point) & (point < end), dot, np.uint8(0))
    fixed = np.where((zeros > 0) & (-zeros < slot) & (slot < 0), nought, fixed)
    fixed = np.where((zeros > 0) & (slot == -zeros), dot, fixed)
    fixed = np.where((zeros > 0) & (slot == -zeros - 1), nought, fixed)
    sign_slot = np.where(zeros > 0, -zeros - 2, -1)
    fixed = np.where((negative == 1) & (slot == sign_slot), minus, fixed)
    masks = [
        np.where(m, np.uint8(0xFF), np.uint8(0))
        for m in ((0 <= slot) & (slot < point), (point < slot) & (slot < end))
    ]
    masks = [np.broadcast_to(m, (22, 18, 2, 32)).reshape(-1, 32) for m in (*masks, fixed)]

    tables = (
        hi_hi,
        hi - hi_hi,
        np.array(lo),
        _words(quad).ravel(),
        class_row,
        _words(word3.reshape(-1, 8)).ravel(),
        *map(_words, masks),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - e) as p + s: p the rounded product, s its error, to about 2**-104 relative."""
    hi_hi, hi_lo, lo = _tables()[:3]
    index = _E_LIM - e
    bh, bl = hi_hi.take(index), hi_lo.take(index)
    p = a * (bh + bl)
    scaled = a * _SPLIT
    ah = scaled - (scaled - a)
    al = a - ah
    return p, (((ah * bh - p) + ah * bl + al * bh) + al * bl) + a * lo.take(index)


def _decimal(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|v| to 17 significant digits, correctly rounded: (digits, e, fallback).

    |v| rounds to digits * 10**(e - 16), digits a 17-digit integer; a zero has digits 0 and
    e 0. fallback indexes the values left to '%.17g': the non-finite ones, those outside
    [1e-290, 1e290] but zero, and those whose rounding lies too near a tie to certify.
    """
    a = np.abs(v)
    normal = (a >= 1e-290) & (a <= 1e290)
    zero = a == 0
    a = np.where(normal, a, 5.0)
    # log10 can miss the exponent by one next to a power of ten; p + s tells.
    e = np.floor(np.log10(a)).astype(np.int64)
    p, s = _scaled(a, e)
    miss = np.flatnonzero(((p - 1e16) + s < 0) | ((p - 1e17) + s >= 0))
    if miss.size:
        e[miss] += np.where(p[miss] < 5e16, -1, 1)
        p[miss], s[miss] = _scaled(a[miss], e[miss])
    whole = np.floor(s)
    frac = s - whole
    fallback = np.flatnonzero((np.abs(frac - 0.5) < _HALF_MARGIN) | ~(normal | zero))
    digits = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = np.flatnonzero(digits == 10**17)
    digits[carry] = 10**16
    e[carry] += 1
    digits *= ~zero
    return digits, e, fallback


def _format_rows(block: np.ndarray, separators: np.ndarray) -> str:
    """A 2-D float64 block as '%.17g' writes it: fields joined by ',' and rows ended by '\n'.

    separators holds, per value, 0 where a comma follows it and _E_COUNT where a newline does.
    """
    quad, class_row, word3, keep, shift, fixed = _tables()[3:]
    v = block.ravel()
    digits, e, fallback = _decimal(v)
    # The digits d0..d16 as ASCII: d0 alone, d1..d8 in w1 and d9..d16 in w2, first lowest.
    d0 = digits // 10**16
    rest = digits - d0 * 10**16
    h1 = rest // 10**8
    h2 = rest - h1 * 10**8
    q1 = h1 // 10**4
    q2 = h2 // 10**4
    w1 = quad.take(q1) | (quad.take(h1 - q1 * 10**4) << _U32)
    w2 = quad.take(q2) | (quad.take(h2 - q2 * 10**4) << _U32)
    # Significant digits: through the last digit that is not 0, and 1 for a zero. The digit
    # values d1..d16 (w ^ _ZEROS) become bytes 1..16 of a float, plus 1 for byte 0, whose
    # binary exponent gives the last nonzero byte: no byte exceeds 9, so no rounding of the
    # float carries into the next byte.
    last = (w1 ^ _ZEROS).astype(np.float64) * 2.0**8 + (w2 ^ _ZEROS).astype(np.float64) * 2.0**72
    last += 1.0
    nsig = (((last.view(np.int64) >> 52) - 1023) >> 3) + 1
    # Words 1-3 of the cells: the digits in slots 0-16, and shifted to slots 1-17.
    cell = np.empty((v.size, 4), np.uint64)
    shifted = np.empty((v.size, 4), np.uint64)
    np.bitwise_or((d0 + ord("0")).view(np.uint64), w1 << _U8, out=cell[:, 1])
    np.bitwise_or(w1 >> _U56, w2 << _U8, out=cell[:, 2])
    np.right_shift(w2, _U56, out=cell[:, 3])
    np.left_shift(cell[:, 1], _U8, out=shifted[:, 1])
    np.bitwise_or(w1 >> _U48, w2 << _U16, out=shifted[:, 2])
    np.right_shift(w2, _U48, out=shifted[:, 3])
    index = e + _E_LIM
    row = class_row.take(index) + (nsig << 1) + np.signbit(v)
    cell &= keep.take(row, axis=0)
    shifted &= shift.take(row, axis=0)
    cell |= shifted
    cell |= fixed.take(row, axis=0)
    cell[:, 3] |= word3.take(index + separators)
    text = cell.astype("<u8", copy=False).view(np.uint8)
    for k in fallback.tolist():
        field = format_value(v[k]).encode()
        text[k, :31] = 0
        text[k, : len(field)] = np.frombuffer(field, np.uint8)
    return text.tobytes().translate(None, b"\0").decode("ascii")


def write_csv(path: Path, header_lines: list[str], columns: list[str], rows: np.ndarray) -> None:
    """Write a CSV with metadata comments, a header row, and numeric rows.

    Whole rows, about _BLOCK_VALUES values at a time, are formatted by _format_rows and written
    before the next are made, so no text of the whole table is held at once.
    """
    data = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    step = max(1, _BLOCK_VALUES // data.shape[1])
    separators = np.zeros((step, data.shape[1]), np.int64)
    separators[:, -1] = _E_COUNT
    separators = separators.ravel()

    def chunks():
        yield "\n".join([*header_lines, ",".join(columns)]) + "\n"
        for start in range(0, len(data), step):
            block = data[start : start + step]
            yield _format_rows(block, separators[: block.size])

    write_text(path, chunks())


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
