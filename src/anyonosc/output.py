"""Serialization: RFC-4180 CSV, JSON metadata sidecars and self-contained SVG
heatmaps with an optional diagonal line."""

from __future__ import annotations

import datetime as _dt
import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import __version__

METADATA_REQUIRED_KEYS = ("artifact", "version", "created", "config_sha256",
                          "conventions", "columns", "units", "generator")


# Values formatted per kernel call in a CSV block: enough that the call's fixed
# cost (about 0.1 ms) vanishes, few enough that the call's temporaries (about
# 190 bytes a value) and the block's records and text (about 90 bytes a field,
# at most 2 * _BLOCK_VALUES fields) stay under two megabytes. A call of fewer
# than _KERNEL_MIN values goes to `%`: it would save at most about 0.3 ms, and
# a process writing only such tables (fig3's) paid for the kernel's first use
# (its tables) with 0.7 MB more peak RSS and slower set-up, for no faster ops.
_BLOCK_VALUES = 8192
_KERNEL_MIN = 1024


@dataclass(frozen=True, init=False)
class SweepResult:
    """One CSV's columns and units, one float64 array per column, the
    generator's metadata, and the (theta, xi, SpectrumGrid) panels the rows
    were read from, for the heatmaps.

    The column arrays (``arrays``) broadcast together to the result's grid
    ``shape``, one row per grid point in C order: each column stays at the
    extent its generator computed it over (an open grid). A table, ``rows``
    (tuples or a 2-D array), is the one-axis case, one array per table
    column. Checks itself where it is made, with ValueError on a bad row width
    or arrays that do not broadcast together and FloatingPointError on a
    non-finite value, so a writer never opens a file for a bad result.
    ``rows``, the (rows, columns) table, is formed on first read, read-only.
    """

    columns: tuple
    units: tuple
    arrays: tuple
    shape: tuple
    metadata: dict
    grids: tuple

    def __init__(self, columns, units, rows=None, metadata=None, grids=(), *, arrays=None):
        if len(units) != len(columns):
            raise ValueError("columns and units length mismatch")
        if arrays is None:
            try:
                table = np.asarray(rows, dtype=float)
            except ValueError as exc:  # ragged rows
                raise ValueError(f"row width mismatch: {exc}") from None
            if table.size == 0:
                table = table.reshape(0, len(columns))
            if table.shape != (len(rows), len(columns)):
                raise ValueError("row width mismatch")
            arrays = table.T
        elif len(arrays) != len(columns):
            raise ValueError("row width mismatch")
        arrays = tuple(np.asarray(a, dtype=float).view() for a in arrays)
        for a in arrays:
            if not np.isfinite(a).all():
                raise FloatingPointError("non-finite value in result")
            a.flags.writeable = False
        vars(self).update(columns=columns, units=units, arrays=arrays, metadata=metadata or {},
                          grids=grids, shape=np.broadcast_shapes(*(a.shape for a in arrays)))

    @functools.cached_property
    def rows(self) -> np.ndarray:
        table = np.stack(np.broadcast_arrays(*self.arrays), axis=-1).reshape(-1, len(self.columns))
        table.flags.writeable = False
        return table

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]


def _csv_field(text: str) -> str:
    if any(ch in text for ch in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


# -- %.17g as array code -----------------------------------------------------
#
# format(v, ".17g") prints the 17 significant digits D of |v|, correctly
# rounded half to even, and the decimal exponent X with
# |v| ~ D * 10**(X - 16), 10**16 <= D < 10**17. The kernel finds D and X for
# a whole array: s = |v| * 10**(16 - X) is a double-double product (10**p as
# hi + lo, |v| * hi exact by Dekker's two-product), within 1e-14 of its exact
# value. X starts as floor(log10 |v|) and is corrected by floor(s); D is s
# rounded, and a carry to 10**17 bumps X. Where 10**p is exact (0 <= p <= 22)
# s is exact and np.rint rounds half to even; elsewhere a value whose s lies
# within _TIE_MARGIN of a half is left to `%`, as is one whose X is outside
# [_X_LO, _X_HI].
#
# Each value becomes a record of four 64-bit words (32 bytes) whose unused
# bytes are NUL, byte i of a word being its bits 8i to 8i + 7: word 0 holds the
# sign, the "0.000" of fixed notation below 1, the first digit and a "." after
# it; words 1-2 the other 16 digits, where a "." after digit X (fixed notation,
# 1 <= X <= 15) moves the digits behind it one byte on; word 3 the digit moved
# out of word 2, "e+DDD" and the separator. The text of a block of records is
# their little-endian bytes with the NULs deleted (bytes.translate).

_X_LO, _X_HI = -290, 290
_TIE_MARGIN = 1e-6
_VELTKAMP = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves


def _words(byte_rows):
    """Words of the last axis (8 bytes) of a byte array, byte i as bits 8i-8i+7."""
    return np.ascontiguousarray(byte_rows, np.uint8).view("<u8")[..., 0].astype(np.uint64)


def _split(a):
    """Veltkamp's split a = a_h + a_l, each half 26 bits (a_h * b_h exact)."""
    t = _VELTKAMP * a
    a_h = t - (t - a)
    return a_h, a - a_h


# The tables below are built on first use (about 1.5 ms in all), so importing
# the package builds none.

@functools.cache
def _pow10():
    """10**p for p = 14 - _X_HI .. 18 - _X_LO (X two beyond the window, where
    log10 and the carry may put it) as hi = RN(10**p), its split and
    lo = RN(10**p - hi), from exact integer arithmetic."""
    hi, lo, big = [], [], 1
    for _ in range(_X_HI - 14):  # p < 0: 10**p = 1 / big
        big *= 10
        num, den = (1 / big).as_integer_ratio()
        hi.append(num / den)
        lo.append((den - num * big) / (den * big))
    hi.reverse()
    lo.reverse()
    big = 1
    for _ in range(19 - _X_LO):  # p >= 0
        hi.append(float(big))
        lo.append(float(big - int(hi[-1])))
        big *= 10
    hi = np.array(hi)
    mantissa, exponent = np.frexp(hi)  # split the mantissa: no overflow near 1e308
    m_h, m_l = _split(mantissa)
    return hi, np.ldexp(m_h, exponent), np.ldexp(m_l, exponent), np.array(lo)


@functools.cache
def _chunks():
    """For each 4-digit chunk c: the word of its 4 digit characters, and, as
    chunk j = 0..3 (digits 1 + 4j .. 4 + 4j of the 17), the index of its last
    nonzero digit among the 17 (-1 for c = 0)."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
    text = np.zeros((10 ** 4, 8), np.uint8)
    text[:, :4] = digits.T + ord("0")
    last = np.select(digits[::-1] > 0, (3, 2, 1, 0), -1)
    ends = np.where(last >= 0, last + 1 + 4 * np.arange(4)[:, None], -1)
    return _words(text), ends.astype(np.int8)


@functools.cache
def _forms():
    """Word 0 for each (form, last, first digit), and for words 1-2 (digits
    1-16) one row of six masks per (form, last): the digits kept before the
    "." in words 1 and 2, those kept from the "." on, and the "." words. The
    form is min(max(X, -5), 17) + 5: forms 0 and 22 are scientific notation,
    forms 1-21 fixed with X = form - 5; last is the index of the last nonzero
    digit (0 for D = 0)."""
    form = np.arange(23)[:, None]
    last = np.arange(17)
    X = form - 5
    fixed = (form >= 1) & (form <= 21)
    whole = fixed & (X >= 0)
    point = np.where(whole, X, np.where(fixed, -1, 0))  # digit the "." follows
    point = np.where(last > point, point, -1)  # no fraction, no "."
    kept = np.maximum(last, np.where(whole, X, 0))  # last digit written
    # word 0: sign, "0.000", first digit, and the "." when it follows that digit
    below_one = fixed & (X < 0)
    head = np.zeros((23, 17, 10, 8), np.uint8)
    head[..., 1:3] = np.where(below_one, (ord("0"), ord(".")), 0)[:, None, None]
    head[..., 3:6] = np.where(below_one & (np.arange(3) < -X - 1), ord("0"), 0)[:, None, None]
    head[..., 6] = np.arange(10) + ord("0")
    head[..., 7] = np.where(point == 0, ord("."), 0)[..., None]
    # words 1-2: digit r + 1 in byte r of 16; a "." after digit X moves digits
    # X + 1.. one byte on (the last into word 3)
    r = np.arange(16)
    digit = np.where(r + 1 <= kept[..., None], 0xFF, 0)
    moves = (r >= point[..., None]) & (point[..., None] >= 1)
    before = np.where(moves, 0, digit).astype(np.uint8)
    after = np.where(moves, digit, 0).astype(np.uint8)
    dot = np.where((r == point[..., None]) & (point[..., None] >= 1), ord("."), 0).astype(np.uint8)
    masks = [_words(m.reshape(23, 17, 2, 8)).reshape(-1, 2) for m in (before, after, dot)]
    return _words(head).ravel(), np.concatenate(masks, axis=1)


@functools.cache
def _exponents():
    """Word 3 (before the separator) for each X in the window."""
    X = np.arange(_X_LO, _X_HI + 1)
    size = np.abs(X)
    text = np.zeros((X.size, 8), np.uint8)
    text[:, 1] = ord("e")
    text[:, 2] = np.where(X < 0, ord("-"), ord("+"))
    text[:, 3] = np.where(size >= 100, size // 100 + ord("0"), 0)
    text[:, 4] = size // 10 % 10 + ord("0")
    text[:, 5] = size % 10 + ord("0")
    text[(X >= -4) & (X <= 16)] = 0  # fixed notation
    return _words(text)


_MINUS, _COMMA, _NEWLINE = _words([[ord("-")] + [0] * 7,
                                   [0] * 6 + [ord(",")] + [0],
                                   [0] * 6 + [ord("\n")] + [0]])


def _scaled(x, X):
    """(D, floor(s), tie) for s = x * 10**(16 - X): D is s rounded (half to
    even where 10**p is exact), tie marks an inexact s within _TIE_MARGIN of
    a half."""
    k = _X_HI + 2 - X  # row of p = 16 - X, counted from p = 14 - _X_HI
    hi, hi_h, hi_l, lo = (column[k] for column in _pow10())
    head = x * hi  # an integer once s >= 10**16 > 2**53
    x_h, x_l = _split(x)
    tail = ((x_h * hi_h - head) + x_h * hi_l + x_l * hi_h) + x_l * hi_l + x * lo
    below = np.floor(tail)
    tie = (np.abs(tail - below - 0.5) < _TIE_MARGIN) & (lo != 0)
    whole = head.astype(np.int64)
    return whole + np.rint(tail).astype(np.int64), whole + below.astype(np.int64), tie


def _kernel(values):
    """(records, left): the record of each value, and the values the kernel
    leaves to `%` (X outside the window, or a tie it cannot settle)."""
    x = np.abs(values)
    zero = x == 0
    x[zero] = 1.0
    X = np.floor(np.log10(x)).astype(np.int64)
    left = (X < _X_LO - 1) | (X > _X_HI + 1)  # log10 may be one off
    x[left] = 1.0  # a stand-in inside the window
    X[left] = 0
    D, floor_s, tie = _scaled(x, X)
    low = floor_s < 10 ** 16
    off = np.flatnonzero(low | (floor_s >= 10 ** 17))  # log10 was one off
    if off.size:
        X[off] += np.where(low[off], -1, 1)
        D[off], _, tie[off] = _scaled(x[off], X[off])
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    X[carry] += 1
    left |= tie | (X < _X_LO) | (X > _X_HI)
    D[zero] = 0
    X[zero | left] = 0
    return _layout(D, X, np.signbit(values)), left


def _layout(D, X, negative):
    """The four-word records of sign, digits D and exponent X."""
    chunk_text, chunk_last = _chunks()
    head, masks = _forms()
    first = D // 10 ** 16  # `//` and a multiply-subtract: np.divmod takes 4x as long
    rest = D - first * 10 ** 16
    high = rest // 10 ** 8
    low = rest - high * 10 ** 8
    chunks = []
    for half in (high, low):
        top = half // 10 ** 4
        chunks += [top, half - top * 10 ** 4]
    last = np.zeros(D.size, np.int8)
    for j, chunk in enumerate(chunks):
        np.maximum(last, chunk_last[j][chunk], out=last)
    key = (np.clip(X, -5, 17) + 5) * 17 + last
    mask = masks.take(key, 0)  # one row a value; take: a quarter of the time of masks[key]
    records = np.empty((D.size, 4), np.uint64)
    records[:, 0] = head[key * 10 + first] | negative * _MINUS
    carried = 0
    for j in (0, 1):
        digits = chunk_text[chunks[2 * j]] | chunk_text[chunks[2 * j + 1]] << 32
        moved = digits & mask[:, 2 + j]
        records[:, 1 + j] = (digits & mask[:, j]) | moved << 8 | mask[:, 4 + j] | carried
        carried = moved >> 56
    records[:, 3] = carried | _exponents()[X - _X_LO]
    return records


def _fixed_fields(form, width, values):
    """The text of each value (a 1-D float64 array) from one `%` call of
    ``form``, a left-justified field of ``width`` bytes that the text fits,
    as a (values, width) byte array with the padding turned into NULs."""
    text = (form * values.size % tuple(values.tolist())).encode("ascii")
    fields = np.frombuffer(text, np.uint8).reshape(-1, width)
    return np.where(fields == ord(" "), 0, fields).astype(np.uint8, copy=False)


def _fallback_records(values):
    """Records from one `%` call: each value a 24-byte %.17g field (the
    longest it prints)."""
    records = np.zeros((values.size, 4), np.uint64)
    records[:, :3] = _words(_fixed_fields("%-24.17g", 24, values).reshape(-1, 3, 8))
    return records


def _records(values):
    """The record of each value (a 1-D float64 array): the kernel's, or `%`'s
    for fewer than _KERNEL_MIN values and for each value the kernel leaves."""
    if values.size < _KERNEL_MIN:
        return _fallback_records(values)
    records, left = _kernel(values)
    if left.any():
        records[left] = _fallback_records(values[left])
    return records


def _csv_blocks(result):
    """The header line, then the rows as text in equal blocks of at most
    ``_BLOCK_VALUES`` freshly formatted values and twice as many fields.

    Every field is the bytes of ``format(v, ".17g")``; integers up to 2**53 in
    magnitude are exact in float64 and so print as integers. A column held at
    a smaller extent than the row count is shared: its values are formatted
    once, with their separators, at the head of a pool of records, and each
    row reads its value by the column's broadcast index. Each block formats
    the other columns' fields into the rest of the pool, and one gather from
    it lays out the block's records."""
    n_rows, width = math.prod(result.shape), len(result.columns)
    header = ",".join(_csv_field(f"{c} [{u}]") for c, u in zip(result.columns, result.units))
    shared = [k for k, a in enumerate(result.arrays) if a.size < n_rows]
    fresh = [k for k, a in enumerate(result.arrays) if a.size >= n_rows]
    separators = np.where(np.arange(width) < width - 1, _COMMA, _NEWLINE)
    most = max(1, min(_BLOCK_VALUES // max(1, len(fresh)), 2 * _BLOCK_VALUES // width))
    step = max(1, -(-n_rows // max(1, -(-n_rows // most))))  # equal blocks of <= most rows
    sizes = [result.arrays[k].size for k in shared]
    offsets = np.cumsum([0] + sizes)  # the pool row of each shared column's first value
    n_fresh, start = len(fresh), offsets[-1]  # the pool row of the first fresh record
    pool = np.empty((start + step * n_fresh, 4), np.uint64)
    if shared:
        pool[:start] = _records(np.concatenate([result.arrays[k].ravel() for k in shared]))
        pool[:start, 3] |= np.repeat(separators[shared], sizes)
    gathers = [np.broadcast_to(np.arange(offset, offset + size).reshape(result.arrays[k].shape),
                               result.shape).ravel()  # the pool row of each row's value
               for k, offset, size in zip(shared, offsets, sizes)]
    columns = [result.arrays[k].ravel() for k in fresh]
    index = np.empty((step, width), np.intp)  # the pool row of each field of a block
    index[:, fresh] = start + np.arange(step * n_fresh).reshape(step, n_fresh)
    records = np.empty((step, width, 4), np.uint64)
    fresh_separators = np.tile(separators[fresh], step)  # word 3 of each fresh field

    def block(lo):
        hi = min(lo + step, n_rows)
        if n_fresh:
            words = pool[start:start + (hi - lo) * n_fresh]
            words[:] = _records(np.stack([column[lo:hi] for column in columns], axis=1).ravel())
            words[:, 3] |= fresh_separators[:len(words)]
        for k, gather in zip(shared, gathers):
            index[:hi - lo, k] = gather[lo:hi]
        # every index is in range; "clip" spares np.take a buffered copy of out
        out = np.take(pool, index[:hi - lo], axis=0, out=records[:hi - lo], mode="clip")
        return out.astype("<u8", copy=False).tobytes().translate(None, b"\0").decode("ascii")

    return itertools.chain([header + "\n"], map(block, range(0, n_rows, step)))


def csv_text(result) -> str:
    """CSV body with a header naming columns and units, RFC-4180, LF endings."""
    return "".join(_csv_blocks(result))


def write_csv(result, path: str):
    blocks = _csv_blocks(result)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(blocks)
    return path


def read_csv(path: str):
    """Parse a CSV written by write_csv back into (columns, units, rows)."""
    import csv

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [tuple(float(x) for x in row) for row in reader if row]
    columns, units = [], []
    for cell in header:
        name, _, unit = cell.partition(" [")
        columns.append(name)
        units.append(unit.rstrip("]"))
    return tuple(columns), tuple(units), rows


def metadata_document(result, config, timestamp: str | None = None) -> dict:
    """Sidecar document, the one place provenance is computed.

    The config echo, its SHA-256 and the conventions come from ``config``;
    the generator name, and for a spectrum grid or the fig3 slices the
    ``grid`` block, come from ``result.metadata``. The timestamp is ISO-8601
    UTC unless given.
    """
    if timestamp is None:
        timestamp = _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")
    doc = {
        "artifact": "anyonosc",
        "version": __version__,
        "created": timestamp,
        "generator": result.metadata.get("generator", "unknown"),
        "config_sha256": config.sha256(),
        "conventions": config.conventions.as_dict(),
        "columns": list(result.columns),
        "units": list(result.units),
        "config": config.as_dict(),
    }
    if "grid" in result.metadata:
        doc["grid"] = result.metadata["grid"]
    return doc


def validate_metadata(doc: dict):
    """Check a sidecar against the documented schema; raises ValueError."""
    for key in METADATA_REQUIRED_KEYS:
        if key not in doc:
            raise ValueError(f"metadata missing required key {key!r}")
    if not isinstance(doc["columns"], list) or not isinstance(doc["units"], list):
        raise ValueError("metadata columns/units must be lists")
    if len(doc["columns"]) != len(doc["units"]):
        raise ValueError("metadata columns/units length mismatch")
    conv = doc["conventions"]
    for key in ("frequency", "conjugation", "jump_basis", "stat_dephasing"):
        if key not in conv:
            raise ValueError(f"metadata conventions missing {key!r}")
    return doc


def write_metadata(result, config, path: str, timestamp: str | None = None):
    doc = metadata_document(result, config, timestamp)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def sidecar_path(path: str) -> str:  # a CSV's metadata sidecar
    return path + ".meta.json"


def write_outputs(result, config, path: str, timestamp: str | None = None):
    """CSV plus its metadata sidecar (``sidecar_path``); returns written paths.

    The only writer of a CSV and its sidecar; a spectrum grid goes through
    ``grid_result`` first.
    """
    return [write_csv(result, path),
            write_metadata(result, config, sidecar_path(path), timestamp)]


def grid_result(grid, panel=None):
    """Long-format rows (omega_tau, omega_t, re, im) of a 2D spectrum grid,
    omega_t varying fastest, as one SweepResult on the (N, N) grid (omega_tau
    a column, omega_t a row), for every grid CSV (file or stdout). The grid's
    own metadata rides along as the sidecar's ``grid`` block, and the grid as
    the result's one panel at ``panel`` = (theta, xi), if given.
    """
    values = grid.values
    return SweepResult(columns=("omega_tau", "omega_t", "re", "im"),
                       units=("omega", "omega", "arb", "arb"),
                       arrays=(grid.axis[:, None], grid.axis[None, :], values.real, values.imag),
                       metadata={"generator": "spectrum-grid", "grid": grid.metadata},
                       grids=() if panel is None else ((*panel, grid),))


# ---------------------------------------------------------------------------
# SVG heatmap emitter (no external assets)

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 90, 40, 55
_WIDTH, _HEIGHT, _LEVELS = 760, 640, 64  # pixels; colors of the map and its scale bar


@functools.cache
def _diverging_palette(count: int):
    # blue -> white -> red, linear in each channel
    colors = []
    for k in range(count):
        t = k / (count - 1)
        if t < 0.5:
            u = t / 0.5
            r, g, b = int(40 + 215 * u), int(60 + 195 * u), 255
        else:
            u = (t - 0.5) / 0.5
            r, g, b = 255, int(255 - 195 * u), int(255 - 215 * u)
        colors.append(f"#{r:02x}{g:02x}{b:02x}")
    return tuple(colors)


@functools.cache
def _fills():
    """The map's _LEVELS colours "#rrggbb" as a (_LEVELS, 7) byte table."""
    return np.frombuffer("".join(_diverging_palette(_LEVELS)).encode("ascii"),
                         np.uint8).reshape(_LEVELS, 7)


def svg_heatmap(axis, z, title: str = "", diagonal: bool = False) -> str:
    """Self-contained SVG heatmap of a real-valued square grid, z[i, j] at
    (omega_tau, omega_t) = (axis_i, axis_j) as in a spectrum grid; ValueError
    unless z is finite and n x n on an axis of n >= 2 points whose span
    axis[-1] - axis[0] is finite and nonzero (the ticks divide by it).

    Linear diverging color map of _LEVELS colors symmetric about zero;
    horizontal runs of equal quantized color are merged into single rects to
    keep files small. ``diagonal`` draws omega_t = omega_tau dashed on top.
    The title is XML-escaped.
    """
    axis = np.asarray(axis, float)
    z = np.asarray(z, float)
    n = axis.size
    if axis.ndim != 1 or n < 2 or z.shape != (n, n):
        raise ValueError("heatmap needs an n x n grid on an axis of n >= 2 points, "
                         f"got grid shape {z.shape} and axis shape {axis.shape}")
    span = float(axis[-1]) - float(axis[0])  # Python floats: an overflow is inf, not a warning
    if not (math.isfinite(span) and span != 0.0):
        raise ValueError(f"heatmap axis needs a finite, nonzero span, got {axis[0]}:{axis[-1]}")
    vmax = float(np.max(np.abs(z)))  # NaN or inf if any value is
    if not np.isfinite(vmax):
        raise ValueError("heatmap values must be finite")
    vmax = vmax or 1.0
    palette = _diverging_palette(_LEVELS)
    quant = np.clip(((z / vmax) * 0.5 + 0.5) * (_LEVELS - 1), 0, _LEVELS - 1).round().astype(int)

    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    cell_w = plot_w / n
    cell_h = plot_h / n

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    # heatmap cells: one rect per run of equal quantized color along x, for
    # each y row in turn; a run ends where the next one starts (or at its row
    # end). A rect's x, y and width depend only on its column, its row and
    # its length, so each of those 3n numbers is formatted once, into a
    # NUL-padded 8-byte field; each rect's bytes are gathered from them and
    # the colour table by index, and the NULs deleted.
    rows = quant.T
    starts = np.ones(rows.shape, bool)
    starts[:, 1:] = rows[:, 1:] != rows[:, :-1]
    j, i = np.nonzero(starts)
    run = np.diff(j * n + i, append=n * n)
    c = np.arange(n)
    numbers = _fixed_fields("%-8.2f", 8, np.concatenate((
        _MARGIN_L + c * cell_w,                 # x pixel of column c, x = first index
        _MARGIN_T + plot_h - (c + 1) * cell_h,  # y pixel of row c, origin bottom-left
        (c + 1) * cell_w + 0.5)))               # width of a run of c + 1 cells
    m = i.size

    def const(text):  # the same bytes in every rect
        return np.broadcast_to(np.frombuffer(text.encode("ascii"), np.uint8), (m, len(text)))

    rects = np.concatenate((
        const('<rect x="'), numbers.take(i, 0), const('" y="'), numbers.take(n + j, 0),
        const('" width="'), numbers.take(2 * n + run - 1, 0),
        const(f'" height="{cell_h + 0.5:.2f}" fill="'), _fills().take(rows[j, i], 0),
        const('"/>\n')),
        axis=1)
    rects[-1, -1] = 0  # the last rect's newline is the join's
    parts.append(rects.tobytes().translate(None, b"\0").decode("ascii"))
    # frame
    parts.append(f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
                 'fill="none" stroke="black" stroke-width="1"/>')
    # ticks and labels
    ticks = np.linspace(axis[0], axis[-1], 5)
    fracs = (ticks - axis[0]) / (axis[-1] - axis[0])
    for tv, frac in zip(ticks, fracs):
        xpix = _MARGIN_L + frac * plot_w
        parts.append(f'<line x1="{xpix:.1f}" y1="{_MARGIN_T + plot_h}" x2="{xpix:.1f}" '
                     f'y2="{_MARGIN_T + plot_h + 5}" stroke="black"/>')
        parts.append(f'<text x="{xpix:.1f}" y="{_MARGIN_T + plot_h + 19}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{tv:.3g}</text>')
    for tv, frac in zip(ticks, fracs):
        ypix = _MARGIN_T + plot_h - frac * plot_h
        parts.append(f'<line x1="{_MARGIN_L - 5}" y1="{ypix:.1f}" x2="{_MARGIN_L}" '
                     f'y2="{ypix:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{ypix + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{tv:.3g}</text>')
    parts.append(f'<text x="{_MARGIN_L + plot_w / 2:.0f}" y="{_HEIGHT - 14}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13">omega_tau [omega]</text>')
    parts.append(f'<text x="20" y="{_MARGIN_T + plot_h / 2:.0f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 20 {_MARGIN_T + plot_h / 2:.0f})">omega_t [omega]</text>')
    if diagonal:  # dashed omega_t = omega_tau
        frac = (axis - axis[0]) / (axis[-1] - axis[0])
        xs, ys = (_MARGIN_L + frac * plot_w).tolist(), (_MARGIN_T + plot_h - frac * plot_h).tolist()
        pts = " ".join("%.1f,%.1f" % xy for xy in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="black" '
                     'stroke-width="1.5" stroke-dasharray="6,4"/>')
    # color scale bar
    bar_x = _WIDTH - _MARGIN_R + 20
    bar_h = plot_h
    seg = bar_h / _LEVELS
    for k in range(_LEVELS):
        parts.append(f'<rect x="{bar_x}" y="{_MARGIN_T + bar_h - (k + 1) * seg:.2f}" width="14" '
                     f'height="{seg + 0.5:.2f}" fill="{palette[k]}"/>')
    parts.append(f'<text x="{bar_x + 18}" y="{_MARGIN_T + 8}" font-family="sans-serif" '
                 f'font-size="11">{vmax:.3g}</text>')
    parts.append(f'<text x="{bar_x + 18}" y="{_MARGIN_T + bar_h}" font-family="sans-serif" '
                 f'font-size="11">{-vmax:.3g}</text>')
    parts.append("</svg>\n")
    return "\n".join(parts)


# A cell's Re within _NOISE_ULPS * eps * max |grid| of 0 is rounding noise of
# the grid's sum of pathway terms, not a signal: it is drawn as exactly 0.
_NOISE_ULPS = 64


def write_grid_svg(grid, path: str, title: str = "", diagonal: bool = False):
    """Render Re(values) of a spectrum grid to a standalone SVG file, each
    Re that is rounding noise (``_NOISE_ULPS``) drawn as 0: a grid whose real
    part is all noise is one colour, and no cell takes its colour from the
    sign of the noise."""
    values = grid.values
    noise = _NOISE_ULPS * np.finfo(float).eps * np.max(np.abs(values))
    re = np.where(np.abs(values.real) <= noise, 0.0, values.real)
    svg = svg_heatmap(grid.axis, re, title=title, diagonal=diagonal)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(svg)
    return path
