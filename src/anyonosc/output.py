"""Serialization: RFC-4180 CSV, JSON metadata sidecars and self-contained SVG
heatmaps with overlay polylines."""

from __future__ import annotations

import datetime as _dt
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from . import __version__

METADATA_REQUIRED_KEYS = ("artifact", "version", "created", "config_sha256",
                          "conventions", "columns", "units", "generator")


# Rows formatted per block: enough that the per-block cost vanishes, few enough
# that one block's Python floats and text stay near a megabyte.
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class SweepResult:
    """One CSV's columns, units and rows, and the generator's metadata.

    Checks itself where it is made: ``rows`` (tuples or a 2-D array) becomes
    one read-only float64 (rows, columns) table, with ValueError on a bad row
    width and FloatingPointError on a non-finite value, so a writer never
    opens a file for a bad result.
    """

    columns: tuple
    units: tuple
    rows: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        width = len(self.columns)
        if len(self.units) != width:
            raise ValueError("columns and units length mismatch")
        try:
            table = np.asarray(self.rows, dtype=float).view()
        except ValueError as exc:  # ragged rows
            raise ValueError(f"row width mismatch: {exc}") from None
        if table.size == 0:
            table = table.reshape(0, width)
        if table.shape != (len(self.rows), width):
            raise ValueError("row width mismatch")
        if not np.isfinite(table).all():
            raise FloatingPointError("non-finite value in result")
        table.flags.writeable = False
        object.__setattr__(self, "rows", table)

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]


def _csv_field(text: str) -> str:
    if any(ch in text for ch in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _column_fields(column: np.ndarray):
    """("%s", per-row text) for a column with at most half its values
    distinct, each distinct bit pattern formatted once (so -0.0 and 0.0 stay
    apart); ("%.17g", the values) for any other column."""
    bits, inverse = np.unique(column.view(np.uint64), return_inverse=True)
    if 2 * bits.size > column.size:
        return "%.17g", column
    text = np.array(["%.17g" % v for v in bits.view(np.float64).tolist()], dtype=object)
    return "%s", text[inverse]


def _csv_blocks(result):
    """The header line, then the rows as text in blocks of ``_BLOCK_ROWS``.

    Floats are ``%.17g``; integers up to 2**53 in magnitude are exact in the
    float64 table and so print as integers."""
    table = result.rows
    header = ",".join(_csv_field(f"{c} [{u}]") for c, u in zip(result.columns, result.units))
    fields = [_column_fields(col) for col in table.T]
    row = ",".join(fmt for fmt, _ in fields) + "\n"
    width = len(fields)

    def block(lo):
        hi = min(lo + _BLOCK_ROWS, len(table))
        flat = [None] * ((hi - lo) * width)
        for k, (_, col) in enumerate(fields):
            flat[k::width] = col[lo:hi].tolist()
        return row * (hi - lo) % tuple(flat)

    return itertools.chain([header + "\n"], map(block, range(0, len(table), _BLOCK_ROWS)))


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


def write_outputs(result, config, path: str, timestamp: str | None = None):
    """CSV plus its metadata sidecar (<path>.meta.json); returns written paths.

    The only writer of a CSV and its sidecar; a spectrum grid goes through
    ``grid_result`` first.
    """
    return [write_csv(result, path),
            write_metadata(result, config, path + ".meta.json", timestamp)]


def grid_result(grid):
    """Long-format rows (omega_tau, omega_t, re, im) of a 2D spectrum grid,
    omega_t varying fastest, as one SweepResult with an (N * N, 4) array of
    rows, for every grid CSV (file or stdout). The grid's own
    metadata rides along as the sidecar's ``grid`` block.
    """
    values = grid.values
    rows = np.empty(values.shape + (4,))
    rows[..., 0] = grid.axis[:, None]
    rows[..., 1] = grid.axis[None, :]
    rows[..., 2] = values.real
    rows[..., 3] = values.imag
    return SweepResult(columns=("omega_tau", "omega_t", "re", "im"),
                       units=("omega", "omega", "arb", "arb"),
                       rows=rows.reshape(-1, 4),
                       metadata={"generator": "spectrum-grid", "grid": grid.metadata})


# ---------------------------------------------------------------------------
# SVG heatmap emitter (no external assets)

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 90, 40, 55
_WIDTH, _HEIGHT, _LEVELS = 760, 640, 64  # pixels; colors of the map and its scale bar


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
    return colors


def _ticks(lo: float, hi: float, n: int = 5):
    return np.linspace(lo, hi, n)


def svg_heatmap(x_axis, y_axis, z, title: str = "", overlays=None) -> str:
    """Self-contained SVG heatmap of a real-valued grid over (omega_tau, omega_t).

    Linear diverging color map of _LEVELS colors symmetric about zero;
    horizontal runs of equal quantized color are merged into single rects to
    keep files small. Overlay polylines are drawn dashed on top. z[i, j] is
    the value at (x_i, y_j), as in a spectrum grid.
    """
    x_axis = np.asarray(x_axis, float)
    y_axis = np.asarray(y_axis, float)
    z = np.asarray(z, float)
    if not np.isfinite(z).all():
        raise ValueError("heatmap values must be finite")
    nx, ny = z.shape
    if nx != x_axis.size or ny != y_axis.size:
        raise ValueError("heatmap axes do not match grid shape")
    vmax = float(np.max(np.abs(z))) or 1.0
    palette = _diverging_palette(_LEVELS)
    quant = np.clip(((z / vmax) * 0.5 + 0.5) * (_LEVELS - 1), 0, _LEVELS - 1).round().astype(int)

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    cell_w = plot_w / nx
    cell_h = plot_h / ny

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    # heatmap cells: one rect per run of equal quantized color along x, for
    # each y row in turn; a run ends where the next one starts (or at its row end)
    rows = quant.T
    starts = np.ones(rows.shape, bool)
    starts[:, 1:] = rows[:, 1:] != rows[:, :-1]
    j, i = np.nonzero(starts)
    run = np.diff(j * nx + i, append=nx * ny)
    rect = ('<rect x="%.2f" y="%.2f" width="%.2f" '
            f'height="{cell_h + 0.5:.2f}" fill="%s"/>')
    parts.extend(rect % cell for cell in zip(
        (_MARGIN_L + i * cell_w).tolist(),                 # x pixel of column i, x = first index
        (_MARGIN_T + plot_h - (j + 1) * cell_h).tolist(),  # y pixel of row j, origin bottom-left
        (run * cell_w + 0.5).tolist(),
        np.array(palette, dtype=object)[rows[j, i]].tolist()))
    # frame
    parts.append(f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
                 'fill="none" stroke="black" stroke-width="1"/>')
    # ticks and labels
    for tv in _ticks(x_axis[0], x_axis[-1]):
        frac = (tv - x_axis[0]) / (x_axis[-1] - x_axis[0])
        xpix = _MARGIN_L + frac * plot_w
        parts.append(f'<line x1="{xpix:.1f}" y1="{_MARGIN_T + plot_h}" x2="{xpix:.1f}" '
                     f'y2="{_MARGIN_T + plot_h + 5}" stroke="black"/>')
        parts.append(f'<text x="{xpix:.1f}" y="{_MARGIN_T + plot_h + 19}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{tv:.3g}</text>')
    for tv in _ticks(y_axis[0], y_axis[-1]):
        frac = (tv - y_axis[0]) / (y_axis[-1] - y_axis[0])
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
    # overlay polylines (dashed)
    if overlays:
        for xs, ys in overlays:
            pts = []
            for xv, yv in zip(xs, ys):
                if not (x_axis[0] <= xv <= x_axis[-1] and y_axis[0] <= yv <= y_axis[-1]):
                    continue
                fx = (xv - x_axis[0]) / (x_axis[-1] - x_axis[0])
                fy = (yv - y_axis[0]) / (y_axis[-1] - y_axis[0])
                pts.append(f"{_MARGIN_L + fx * plot_w:.1f},{_MARGIN_T + plot_h - fy * plot_h:.1f}")
            if pts:
                parts.append(f'<polyline points="{" ".join(pts)}" fill="none" stroke="black" '
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
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_grid_svg(grid, path: str, title: str = "", overlays=None):
    """Render Re(values) of a spectrum grid to a standalone SVG file."""
    svg = svg_heatmap(grid.axis, grid.axis, grid.values.real, title=title, overlays=overlays)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(svg)
    return path
