"""Byte identity of the array-level CSV and SVG writers against the
per-field reference writers they replaced (kept here, verbatim, as the
reference), plus the checks a result makes on itself, before any writer can
open a file for it, and the CSV writer's %.17g kernel against
format(v, ".17g") on every kind of finite double."""

import json
import math
import re
import os
import tempfile
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from anyonosc import output
from anyonosc.output import (_BLOCK_VALUES, _KERNEL_MIN, _MARGIN_B, _MARGIN_L, _MARGIN_R,
                             _MARGIN_T, _TIE_MARGIN, _X_HI, _X_LO, SweepResult, _csv_field,
                             _diverging_palette, _fallback_records, _fixed_fields, _kernel,
                             _records, csv_text, grid_result, read_csv, svg_heatmap, write_csv)
from anyonosc.params import AnyonParams
from anyonosc.sweeps import (GENERATORS, GridSpec, RunConfig, SweepAxis, run_fig2, run_fig3,
                             run_spectrum, run_sweep)


def reference_format_number(value) -> str:
    """Decimal serialization at 17 significant digits (round-trips doubles)."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return format(float(value), ".17g")


def reference_csv_text(result, rows) -> str:
    """CSV body with a header naming columns and units, RFC-4180, LF endings.

    ``rows`` are the values as the generator made them (ints, bools, numpy
    scalars), before SweepResult holds them as one float64 table."""
    header = [f"{c} [{u}]" for c, u in zip(result.columns, result.units)]
    lines = [",".join(_csv_field(h) for h in header)]
    for row in rows:
        lines.append(",".join(reference_format_number(v) for v in row))
    return "\n".join(lines) + "\n"


def reference_svg_heatmap(x_axis, y_axis, z, title: str = "", xlabel: str = "omega_tau [omega]",
                ylabel: str = "omega_t [omega]", overlays=None,
                width: int = 760, height: int = 640, levels: int = 64) -> str:
    """Self-contained SVG heatmap of a real-valued grid.

    Linear diverging color map symmetric about zero; horizontal runs of equal
    quantized color are merged into single rects to keep files small. Overlay
    polylines are drawn dashed on top. z is indexed (x_index, y_index)
    following the spectrum grid convention (values[i, j] = (x_i, y_j)).
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
    palette = _diverging_palette(levels)
    quant = np.clip(((z / vmax) * 0.5 + 0.5) * (levels - 1), 0, levels - 1).round().astype(int)

    plot_w = width - _MARGIN_L - _MARGIN_R
    plot_h = height - _MARGIN_T - _MARGIN_B
    cell_w = plot_w / nx
    cell_h = plot_h / ny

    def px(i):  # x pixel of column i (x axis = grid first index)
        return _MARGIN_L + i * cell_w

    def py(j):  # y pixel of row j, origin bottom-left
        return _MARGIN_T + plot_h - (j + 1) * cell_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    # heatmap cells, run-length merged along x for each y row
    for j in range(ny):
        i = 0
        while i < nx:
            k = i + 1
            q = quant[i, j]
            while k < nx and quant[k, j] == q:
                k += 1
            parts.append(
                f'<rect x="{px(i):.2f}" y="{py(j):.2f}" width="{(k - i) * cell_w + 0.5:.2f}" '
                f'height="{cell_h + 0.5:.2f}" fill="{palette[q]}"/>'
            )
            i = k
    # frame
    parts.append(f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
                 'fill="none" stroke="black" stroke-width="1"/>')
    # ticks and labels
    for tv in np.linspace(x_axis[0], x_axis[-1], 5):
        frac = (tv - x_axis[0]) / (x_axis[-1] - x_axis[0])
        xpix = _MARGIN_L + frac * plot_w
        parts.append(f'<line x1="{xpix:.1f}" y1="{_MARGIN_T + plot_h}" x2="{xpix:.1f}" '
                     f'y2="{_MARGIN_T + plot_h + 5}" stroke="black"/>')
        parts.append(f'<text x="{xpix:.1f}" y="{_MARGIN_T + plot_h + 19}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{tv:.3g}</text>')
    for tv in np.linspace(y_axis[0], y_axis[-1], 5):
        frac = (tv - y_axis[0]) / (y_axis[-1] - y_axis[0])
        ypix = _MARGIN_T + plot_h - frac * plot_h
        parts.append(f'<line x1="{_MARGIN_L - 5}" y1="{ypix:.1f}" x2="{_MARGIN_L}" '
                     f'y2="{ypix:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{ypix + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{tv:.3g}</text>')
    parts.append(f'<text x="{_MARGIN_L + plot_w / 2:.0f}" y="{height - 14}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    parts.append(f'<text x="20" y="{_MARGIN_T + plot_h / 2:.0f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 20 {_MARGIN_T + plot_h / 2:.0f})">{ylabel}</text>')
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
    bar_x = width - _MARGIN_R + 20
    bar_h = plot_h
    seg = bar_h / levels
    for k in range(levels):
        parts.append(f'<rect x="{bar_x}" y="{_MARGIN_T + bar_h - (k + 1) * seg:.2f}" width="14" '
                     f'height="{seg + 0.5:.2f}" fill="{palette[k]}"/>')
    parts.append(f'<text x="{bar_x + 18}" y="{_MARGIN_T + 8}" font-family="sans-serif" '
                 f'font-size="11">{vmax:.3g}</text>')
    parts.append(f'<text x="{bar_x + 18}" y="{_MARGIN_T + bar_h}" font-family="sans-serif" '
                 f'font-size="11">{-vmax:.3g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"



# -- CSV ----------------------------------------------------------------------

SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e300, -1e300,
           1.7976931348623157e308, 1.0, -1.0, 0.1, 2.0 ** 53)
_floats = st.one_of(st.sampled_from(SPECIAL),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.builds(lambda m, s: s * m, st.floats(1e-20, 1e5), st.sampled_from((1, -1))))
_ints = st.integers(-2 ** 53, 2 ** 53)
# Each column kind draws one value per row; "repeated" draws every row from a
# small pool, so the column has at most a few distinct values.
_kinds = st.sampled_from(("float", "repeated", "int", "numpy-int", "bool"))


@st.composite
def _results(draw):
    n_rows = draw(st.integers(0, 40))
    columns = []
    for kind in draw(st.lists(_kinds, min_size=1, max_size=5)):
        if kind == "repeated":
            pool = draw(st.lists(_floats, min_size=1, max_size=3))
            values = draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
        else:
            element = {"float": _floats, "int": _ints, "numpy-int": _ints.map(np.int64),
                       "bool": st.booleans()}[kind]
            values = draw(st.lists(element, min_size=n_rows, max_size=n_rows))
        columns.append(values)
    names = tuple(f"c{k}" for k in range(len(columns)))
    rows = list(zip(*columns)) if n_rows else []
    if draw(st.booleans()):
        rows = np.array(rows, dtype=float).reshape(n_rows, len(columns))
    return SweepResult(names, ("1",) * len(names), rows), rows


def _assert_same_text(got, want):
    """got == want for two texts (str or bytes), else a failure naming the
    first differing offset with a short slice of each: pytest's own diff of
    two texts of a few hundred KB runs for minutes."""
    if got == want:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    lo = max(at - 20, 0)
    pytest.fail(f"texts differ at offset {at} (lengths {len(got)} and {len(want)}): "
                f"got {got[lo:at + 20]!r}, want {want[lo:at + 20]!r}")


def _assert_writes_reference_bytes(res, rows):
    want = reference_csv_text(res, rows)
    _assert_same_text(csv_text(res), want)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        write_csv(res, path)
        with open(path, "rb") as fh:
            _assert_same_text(fh.read(), want.encode("utf-8"))
        columns, _, read_back = read_csv(path)
    assert columns == res.columns
    got = np.array(read_back, dtype=float).reshape(res.rows.shape)
    assert np.array_equal(got.view(np.uint64), res.rows.view(np.uint64))  # -0.0 stays -0.0


class TestCsvBytes:
    @settings(deadline=None, max_examples=300)
    @given(_results())
    def test_matches_the_per_field_writer(self, made):
        _assert_writes_reference_bytes(*made)

    # every column of a table is fresh, so one block holds up to
    # _BLOCK_VALUES // 4 rows of these four: one block to five
    @pytest.mark.parametrize("n_rows", [_BLOCK_VALUES // 4 - 1, _BLOCK_VALUES // 4,
                                        _BLOCK_VALUES // 4 + 1, _BLOCK_VALUES // 2 - 1,
                                        _BLOCK_VALUES // 2, _BLOCK_VALUES // 2 + 1,
                                        _BLOCK_VALUES + 3])
    @pytest.mark.parametrize("as_array", [False, True], ids=["tuples", "array"])
    def test_more_rows_than_one_block(self, n_rows, as_array):
        rng = np.random.default_rng(n_rows)
        axis = np.linspace(-0.5, 0.5, 17)  # holds 0.0; add a -0.0 too
        axis[3] = -0.0
        repeated = np.resize(np.repeat(axis, 3), n_rows)
        unique = rng.choice((-1.0, 1.0), n_rows) * 10.0 ** rng.uniform(-20, 5, n_rows)
        unique[::97] = rng.choice(SPECIAL, unique[::97].size)
        ints = rng.integers(-2 ** 53, 2 ** 53, n_rows, endpoint=True).tolist()
        flags = (rng.random(n_rows) < 0.5).tolist()
        rows = list(zip(repeated.tolist(), unique.tolist(), ints, flags))
        if as_array:
            rows = np.array(rows, dtype=float)
        _assert_writes_reference_bytes(
            SweepResult(("axis", "value", "count", "flag"), ("1", "1", "1", "bool"), rows),
            rows)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("as_array", [False, True], ids=["tuples", "array"])
    def test_non_finite_is_refused_where_the_result_is_made(self, bad, as_array):
        rows = [(0.0, 1.0), (1.0, bad)]
        with pytest.raises(FloatingPointError, match="non-finite"):
            SweepResult(("a", "b"), ("1", "1"), np.array(rows) if as_array else rows)

    @pytest.mark.parametrize("rows", [[(0.0, 1.0, 2.0)], [(0.0, 1.0), (1.0,)],
                                      np.zeros((3, 3)), np.zeros(4)],
                             ids=["wide", "ragged", "wide-array", "flat-array"])
    def test_bad_row_width_is_refused_where_the_result_is_made(self, rows):
        with pytest.raises(ValueError, match="row width"):
            SweepResult(("a", "b"), ("1", "1"), rows)

    def test_a_result_is_one_read_only_table(self):
        rows = np.array([[0.0, 1.0], [2.0, 3.0]])
        res = SweepResult(("a", "b"), ("1", "1"), rows)
        with pytest.raises(ValueError, match="read-only"):
            res.rows[0, 0] = math.nan
        assert rows.flags.writeable  # the caller's array keeps its flags
        assert res.rows.dtype == np.float64 and res.rows.shape == (2, 2)
        assert np.array_equal(res.column("b"), [1.0, 3.0])
        assert SweepResult(("a",), ("1",), []).rows.shape == (0, 1)
        with pytest.raises(ValueError, match="columns and units"):
            SweepResult(("a", "b"), ("1",), rows)


def _table(columns, n_rows):
    """A SweepResult of the named 1-D columns, each resized to n_rows."""
    names = tuple(columns)
    rows = np.stack([np.resize(np.asarray(columns[c], float), n_rows) for c in names], axis=1)
    return SweepResult(names, ("1",) * len(names), rows.reshape(n_rows, len(names))), rows


def _grid(columns):
    """A SweepResult of the named arrays on their open grid, and its rows,
    broadcast here independently of the result."""
    names = tuple(columns)
    arrays = [np.asarray(columns[c], float) for c in names]
    rows = np.stack(np.broadcast_arrays(*arrays), axis=-1).reshape(-1, len(names))
    return SweepResult(names, ("1",) * len(names), arrays=arrays), rows


def _same_bits(got, want):
    return np.array_equal(np.asarray(got, float).view(np.uint64),
                          np.asarray(want, float).view(np.uint64))


def _assert_formatted(monkeypatch, res, rows, shared):
    """``csv_text(res)`` formats, in one first ``_records`` call, the values of
    ``shared`` (column name -> the values it is held at, in column order)
    once each, and then the fields of every other column of ``rows`` once per
    row, row by row; -0.0 and 0.0 count apart."""
    calls = []

    def spy(values):
        calls.append(values.copy())
        return _records(values)

    with monkeypatch.context() as patch:
        patch.setattr(output, "_records", spy)
        csv_text(res)
    if shared:
        assert _same_bits(calls.pop(0), np.concatenate([np.ravel(v) for v in shared.values()]))
    fresh = [k for k, name in enumerate(res.columns) if name not in shared]
    assert _same_bits(np.concatenate(calls) if calls else [], rows[:, fresh].ravel())


class TestCsvEdges:
    # the writer shares a column held at a smaller extent than the row count
    # and formats every other column fresh: both give the bytes of the
    # per-field writer
    @pytest.mark.parametrize("n_rows", [0, 1, 2, 3])
    def test_tiny_tables(self, n_rows):
        rng = np.random.default_rng(n_rows)
        res, rows = _table({"outer": [0.5] * 2 + [-0.0] * 2, "inner": [1.0, 2.0],
                            "value": rng.normal(size=3), "flag": [1.0]}, n_rows)
        _assert_writes_reference_bytes(res, rows)

    @pytest.mark.parametrize("as_period", [False, True], ids=["run", "period"])
    def test_signed_zeros_stay_apart(self, monkeypatch, as_period):
        axis = np.array([0.0, -0.0, 5e-324, -0.0, -2.5])  # 0.0 and -0.0 differ in bits only
        shape = (40, 5) if as_period else (5, 40)  # an inner or an outer axis
        res, rows = _grid({"axis": axis.reshape((1, 5) if as_period else (5, 1)),
                           "value": (np.arange(200) / 7.0).reshape(shape)})
        _assert_formatted(monkeypatch, res, rows, {"axis": axis})
        _assert_writes_reference_bytes(res, rows)

    def test_constant_column(self, monkeypatch):
        n_rows = 3000
        res, rows = _grid({"c": [-0.0], "v": np.linspace(-3, 3, n_rows), "d": [1e300]})
        assert len(rows) == n_rows
        _assert_formatted(monkeypatch, res, rows, {"c": [-0.0], "d": [1e300]})
        _assert_writes_reference_bytes(res, rows)

    def test_few_values_neither_runs_nor_periodic(self, monkeypatch):
        # a table column is formatted fresh, however few values it holds:
        # only a column's shape shares it
        rng = np.random.default_rng(11)
        n_rows = 3000
        pool = rng.choice(np.array([0.1, -0.0, 0.0, 7e-5, 1 / 3]), n_rows)
        res, rows = _table({"few": pool, "v": rng.normal(size=n_rows)}, n_rows)
        assert 2 * np.unique(pool).size <= n_rows
        _assert_formatted(monkeypatch, res, rows, {})
        _assert_writes_reference_bytes(res, rows)

    def test_first_value_recurs_inside_the_period(self, monkeypatch):
        # a table column that repeats a period is still one value per row
        res, rows = _table({"inner": [0.25, 1.0, 0.25, -3.0, 2.0], "v": np.arange(2000) * 0.1},
                           2000)
        _assert_formatted(monkeypatch, res, rows, {})
        _assert_writes_reference_bytes(res, rows)

    def test_runs_whose_values_repeat_a_period(self, monkeypatch):
        # the middle axis of three: each axis is formatted its count of values
        outer, middle, inner = np.arange(5.0), np.linspace(-1.0, 1.0, 7), np.linspace(0.0, 1.0, 11)
        res, rows = _grid({"outer": outer[:, None, None], "middle": middle[None, :, None],
                           "inner": inner[None, None, :],
                           "v": (np.arange(385) / 3.0).reshape(5, 7, 11)})
        _assert_formatted(monkeypatch, res, rows,
                          {"outer": outer, "middle": middle, "inner": inner})
        _assert_writes_reference_bytes(res, rows)

    def test_fresh_columns_apart(self, monkeypatch):
        # fresh, shared, fresh: the fresh fields are not one slice of the table
        rng = np.random.default_rng(5)
        shape = (125, 9, 11)  # 12,375 rows: four blocks
        axis = np.arange(9.0)
        res, rows = _grid({"a": rng.normal(size=shape), "axis": axis[None, :, None],
                           "b": -rng.exponential(size=shape) * 1e-7})
        _assert_formatted(monkeypatch, res, rows, {"axis": axis})
        assert len(list(output._csv_blocks(res))) == 1 + 4
        _assert_writes_reference_bytes(res, rows)

    # two fresh columns of four: a block holds _BLOCK_VALUES // 2 rows
    @pytest.mark.parametrize("n_rows", [_BLOCK_VALUES // 2, _BLOCK_VALUES // 2 + 1,
                                        _BLOCK_VALUES, _BLOCK_VALUES + 1])
    def test_block_edges(self, monkeypatch, n_rows):
        rng = np.random.default_rng(n_rows)
        n_outer = next(d for d in range(64, 0, -1) if n_rows % d == 0)
        outer, inner = np.linspace(-1, 1, n_outer), np.linspace(-1, 1, n_rows // n_outer)
        shape = (outer.size, inner.size)
        res, rows = _grid({"outer": outer[:, None], "inner": inner[None, :],
                           "re": rng.normal(size=shape), "im": rng.normal(size=shape) * 1e-3})
        _assert_formatted(monkeypatch, res, rows, {"outer": outer, "inner": inner})
        blocks = list(output._csv_blocks(res))
        assert len(blocks) == 1 + -(-n_rows // (_BLOCK_VALUES // 2))
        _assert_writes_reference_bytes(res, rows)

    def test_stdout_is_the_file(self, tmp_path, capsys):
        from anyonosc import cli
        config = RunConfig(params=AnyonParams(theta=0.7, xi=-0.2), t2=0.5)
        res = grid_result(run_spectrum(config))
        cli._write(config, [res], [])
        printed = capsys.readouterr().out
        path = tmp_path / "g.csv"
        write_csv(res, str(path))
        assert path.read_bytes() == printed.encode() == csv_text(res).encode()


# one small config per generator, for the properties over all of them
GENERATOR_CONFIGS = {
    "fig1": RunConfig(),
    "fig2": RunConfig(),
    "ep-locate": RunConfig(params=AnyonParams(theta=0.0, xi=1.0)),
    "sweep": RunConfig(sweep=(SweepAxis("beta", 0.5, 4.0, 3), SweepAxis("theta", 0.0, 3.0, 7),
                              SweepAxis("xi", -1.0, 1.0, 5))),
    "spectrum-grid": RunConfig(params=AnyonParams(theta=0.9, xi=0.6), grid=GridSpec(count=24)),
    "fig3-slices": RunConfig(grid=GridSpec(count=16), theta_list=(0.0, 1.5, 3.0),
                             xi_list=(0.0, 1.0)),
    "fig3-overlay": RunConfig(theta_list=(0.0, 1.5, 3.0), xi_list=(0.0, 1.0)),
}


class TestCsvSharing:
    # the axes of grids and sweeps are formatted once per value: were they
    # fresh, the bytes would be the same and the work more
    def test_grid_axes_are_formatted_once(self, monkeypatch):
        n = 256
        config = RunConfig(params=AnyonParams(theta=0.9, xi=0.6), t2=3.5, grid=GridSpec(count=n))
        grid = run_spectrum(config)
        res = grid_result(grid)
        rows = np.stack(np.broadcast_arrays(grid.axis[:, None], grid.axis[None, :],
                                            grid.values.real, grid.values.imag), -1).reshape(-1, 4)
        _assert_formatted(monkeypatch, res, rows, {"omega_tau": grid.axis, "omega_t": grid.axis})
        kernel = []
        monkeypatch.setattr(output, "_kernel", lambda values: kernel.append(values.size)
                            or _kernel(values))
        csv_text(res)
        assert sum(kernel) == 2 * n * n  # re and im, every value through the kernel

    @pytest.mark.parametrize("which", ["sweep", "fig2"])
    def test_sweep_axes_are_shared(self, monkeypatch, which):
        if which == "sweep":
            theta, xi = np.linspace(0.0, 3.0, 60), np.linspace(-1.0, 1.0, 70)
            res = run_sweep(RunConfig(sweep=(SweepAxis("theta", 0.0, 3.0, 60),
                                             SweepAxis("xi", -1.0, 1.0, 70))))
            # the single-oscillator rates depend on theta alone
            shared = {"theta": theta, "xi": xi,
                      **{name: res.arrays[res.columns.index(name)]
                         for name in ("gamma_stat", "re_gamma_full", "im_gamma_full")}}
            assert [res.arrays[res.columns.index(name)].size for name in shared] == \
                [60, 70, 60, 60, 60]
        else:
            res = run_fig2(RunConfig())
            theta, xi = np.linspace(0.0, math.pi, 201), np.array([0.0, 0.25, 0.5, 0.75, 1.0])
            shared = {"theta": theta, "xi": xi}  # ep_flag, over both axes, is fresh
        _assert_formatted(monkeypatch, res, np.array(res.rows), shared)

    def test_fig3_panels_are_formatted_once(self, monkeypatch):
        config = GENERATOR_CONFIGS["fig3-slices"]
        res = run_fig3(config)
        panels = [(theta, xi) for xi in config.xi_list for theta in config.theta_list]
        theta, xi = np.array(panels).T
        _assert_formatted(monkeypatch, res, np.array(res.rows),
                          {"theta": theta, "xi": xi, "detuning": config.grid.axis()})

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_a_result_writes_its_rows_as_a_table(self, monkeypatch, name):
        # the shape rule changes which values are formatted once, never a byte;
        # a column is shared exactly when its array holds fewer values than rows
        assert set(GENERATOR_CONFIGS) == set(GENERATORS)
        res = GENERATORS[name](GENERATOR_CONFIGS[name])
        table = SweepResult(res.columns, res.units, res.rows)
        assert csv_text(res) == csv_text(table)
        shared = {c: a for c, a in zip(res.columns, res.arrays) if a.size < len(res.rows)}
        _assert_formatted(monkeypatch, res, np.array(res.rows), shared)
        _assert_formatted(monkeypatch, table, np.array(res.rows), {})


# -- the %.17g kernel ---------------------------------------------------------

def _texts(records):
    """The text of each record (little-endian words), its NULs dropped."""
    return [bytes(r).replace(b"\0", b"").decode("ascii")
            for r in records.astype("<u8").view(np.uint8).reshape(len(records), 32)]


def _may_be_left(value) -> bool:
    """Whether the kernel may leave ``value`` to `%`: its exponent before or
    after rounding is outside the window, or its scaled value is near a tie."""
    exponent = Decimal(value).adjusted()  # exact floor(log10 |value|)
    printed = Decimal(format(value, ".17g")).adjusted()
    if not (_X_LO <= exponent <= _X_HI and _X_LO <= printed <= _X_HI):
        return True
    scaled = abs(Fraction(value)) * Fraction(10) ** (16 - exponent)
    return abs(scaled - math.floor(scaled) - Fraction(1, 2)) < 2 * _TIE_MARGIN


def _assert_formats(values):
    """The kernel writes format(v, ".17g") for every value it does not leave,
    leaves only what it may, and every writer path gives the same bytes."""
    values = np.asarray(values, np.float64)
    want = [format(v, ".17g") for v in values.tolist()]
    records, left = _kernel(values)
    for value, text, wanted, was_left in zip(values.tolist(), _texts(records), want,
                                              left.tolist()):
        if was_left:
            assert _may_be_left(value), value
        else:
            assert text == wanted, value
    assert _texts(_records(values)) == want
    assert _texts(_fallback_records(values)) == want


def _bits(value) -> int:
    return int(np.float64(value).view(np.uint64))


def _neighbours(value):
    return [np.nextafter(value, -math.inf), value, np.nextafter(value, math.inf)]


_EDGE_POWERS = [float(f"1e{k}") for k in (_X_LO - 1, _X_LO, _X_HI, _X_HI + 1)]
KERNEL_EXAMPLES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, -(2.0 ** 53 + 2),
    # 10**k and its neighbours at and beyond the window edges
    *[v for p in _EDGE_POWERS for v in _neighbours(p)],
    # exact ties where 10**(16 - X) is not a double: X = -8, -7, -6
    2.0 ** -25, 3 * 2.0 ** -24, -3 * 2.0 ** -24, 13 * 2.0 ** -24, 11 * 2.0 ** -23,
    # near-ties: |v| * 10**(16 - X) within 2e-16 of a half, closer than the
    # double-double product can tell (found by 2-D lattice reduction); the
    # kernel must leave them to `%`
    1.5788455701822577e-277, 2.2656426741135463e-256, 1.2416981319696095e-201,
    8.816224880246141e-145, 4.421976605688792e-92, 1.8506224967095329e-62,
    # X = 15 half-way values, rounded half to even from an exact product
    1000000000000000.25, 1000000000000000.75, -1234567890123456.5,
    # the double nearest 10**k lies below it and rounds up: a carry to X = k
    1e-14, 1e-79, 1e98, 1e220, 1e-305,
    # the %g notation switches at X = -5 / -4 and 16 / 17
    *_neighbours(1e-5), *_neighbours(1e-4), *_neighbours(1e16), *_neighbours(1e17),
    9.9999999999999995e-05, 99999999999999984.0, 0.1, 1.0 / 3.0, 123.0,
]


def _with_examples(test):
    for value in KERNEL_EXAMPLES:
        test = example(_bits(value))(test)
    return test


# 64-bit patterns whose exponent lies inside the kernel's window
_window_bits = st.builds(lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
                         st.integers(0, 1), st.integers(1023 - 960, 1023 + 960),
                         st.integers(0, 2 ** 52 - 1))


class TestKernel:
    @_with_examples
    @settings(deadline=None, max_examples=500)
    @given(st.integers(0, 2 ** 64 - 1))
    def test_every_finite_double(self, bits):
        value = float(np.uint64(bits).view(np.float64))
        assume(math.isfinite(value))
        _assert_formats([value])

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.one_of(_window_bits, st.integers(0, 2 ** 64 - 1)),
                    min_size=1, max_size=600))
    def test_arrays_of_doubles(self, patterns):
        values = np.array(patterns, np.uint64).view(np.float64)
        _assert_formats(values[np.isfinite(values)])

    def test_powers_of_ten_and_their_neighbours(self):
        powers = [float(f"1e{k}") for k in range(-323, 309)]
        values = np.array([v for p in powers for v in _neighbours(p)])
        _assert_formats(np.concatenate([values, -values]))

    def test_grid_and_sweep_tables_take_no_fallback(self, monkeypatch):
        # a correct kernel that left every value to `%` would pass the tests
        # above; on real tables it leaves nothing, the writer gives it every
        # value of the columns it formats row by row, and sends `%` only calls
        # too small for the kernel
        config = RunConfig(params=AnyonParams(theta=0.9, xi=0.6), t2=3.5)
        grid = grid_result(run_spectrum(config))
        sweep = run_sweep(RunConfig(sweep=(SweepAxis("theta", 0.0, 3.0, 60),
                                           SweepAxis("xi", -1.0, 1.0, 70))))
        sizes = {"kernel": [], "fallback": []}

        def counted(name, function):
            def call(values):
                sizes[name].append(values.size)
                return function(values)
            return call

        monkeypatch.setattr(output, "_kernel", counted("kernel", _kernel))
        monkeypatch.setattr(output, "_fallback_records", counted("fallback", _fallback_records))
        for result in (grid, sweep):
            assert not _kernel(result.rows.ravel())[1].any()
            rows = len(result.rows)
            fresh = sum(rows for column in result.rows.T
                        if 2 * np.unique(column.view(np.uint64)).size > rows)
            sizes["kernel"].clear()
            csv_text(result)
            assert sum(sizes["kernel"]) >= fresh > 0
        assert all(size < _KERNEL_MIN for size in sizes["fallback"])


# -- SVG ----------------------------------------------------------------------

def _svg_cases():
    rng = np.random.default_rng(5)
    x = np.linspace(-0.5, 0.5, 64)
    gauss = np.exp(-((x[:, None] - 0.1) ** 2 + (x[None, :] + 0.2) ** 2) / 0.02)
    checker = np.where((np.arange(9)[:, None] + np.arange(9)) % 2 == 0, 1.0, -1.0)
    return {
        "zeros": np.zeros((6, 6)),
        "constant": np.full((7, 7), 2.5),
        "alternating": checker,
        "alternating-rows": np.tile([1.0, -1.0], (8, 4)),
        "2x2": np.array([[1.0, -1.0], [0.25, 0.0]]),
        "random": rng.normal(size=(9, 9)),
        "odd": rng.normal(size=(17, 17)) * np.linspace(0.0, 1.0, 17),
        "spectrum-like": gauss - 0.5 * gauss[::-1],
    }


SVG_CASES = _svg_cases()


class TestSvgBytes:
    # every heatmap is a square grid on one axis, with at most the diagonal
    # omega_t = omega_tau drawn over it
    @pytest.mark.parametrize("case", sorted(SVG_CASES))
    @pytest.mark.parametrize("diagonal", [False, True], ids=["plain", "diagonal"])
    def test_matches_the_loop_writer(self, case, diagonal):
        z = SVG_CASES[case]
        x = np.linspace(-0.5, 0.5, z.shape[0])
        title = f"case {case}"
        want = reference_svg_heatmap(x, x, z, title, overlays=[(x, x)] if diagonal else None)
        assert svg_heatmap(x, z, title, diagonal) == want

    @given(n=st.integers(2, 300),
           kind=st.sampled_from(["zeros", "constant", "random", "wide", "smooth", "stripes"]),
           seed=st.integers(0, 2 ** 32 - 1), diagonal=st.booleans())
    @example(n=2, kind="random", seed=0, diagonal=True)
    @example(n=3, kind="zeros", seed=0, diagonal=False)
    @example(n=255, kind="wide", seed=1, diagonal=True)
    @example(n=300, kind="random", seed=2, diagonal=False)
    @settings(deadline=None, max_examples=60)
    def test_matches_the_loop_writer_at_any_size(self, n, kind, seed, diagonal):
        rng = np.random.default_rng(seed)
        x = np.linspace(-0.5, 0.5, n)
        z = {"zeros": lambda: np.zeros((n, n)),
             "constant": lambda: np.full((n, n), rng.normal()),
             "random": lambda: rng.normal(size=(n, n)),
             # values from 1e-300 to 1e300: almost every cell quantizes to the middle
             "wide": lambda: (rng.choice((-1.0, 1.0), (n, n))
                              * 10.0 ** rng.uniform(-300, 300, (n, n))),
             "smooth": lambda: np.sin(rng.uniform(1, 20) * x[:, None]) * np.cos(8 * x[None, :]),
             "stripes": lambda: np.repeat(rng.normal(size=(n, 1)), n, axis=1)}[kind]()
        want = reference_svg_heatmap(x, x, z, "t", overlays=[(x, x)] if diagonal else None)
        assert svg_heatmap(x, z, "t", diagonal) == want

    @pytest.mark.parametrize("n", [240, 256, 272])
    @pytest.mark.parametrize("t2", [0.0, 3.5])
    def test_spectrum_grids_match_the_loop_writer(self, n, t2):
        from anyonosc import AnyonParams, GridSpec, rephasing_response
        grid = rephasing_response(AnyonParams(theta=1.1, xi=0.6), t2=t2, grid=GridSpec(count=n))
        x, z = grid.axis, grid.values.real
        want = reference_svg_heatmap(x, x, z, "Re R3", overlays=[(x, x)])
        assert svg_heatmap(x, z, "Re R3", True) == want

    def test_file_bytes_are_the_heatmap_text(self, tmp_path):
        from anyonosc import AnyonParams, GridSpec, rephasing_response
        grid = rephasing_response(AnyonParams(theta=0.7, xi=-0.3), grid=GridSpec(count=33))
        path = tmp_path / "g.svg"
        output.write_grid_svg(grid, str(path), title="Re R3", diagonal=True)
        assert path.read_bytes() == svg_heatmap(grid.axis, grid.values.real, "Re R3",
                                                True).encode()

    def test_rect_text_is_formatted_once_per_distinct_number(self, monkeypatch):
        # the rects' x, y and width go through one fixed-width `%` call of 3n
        # values however many rects there are
        calls = []

        def counted(form, width, values):
            calls.append(values.size)
            return _fixed_fields(form, width, values)

        monkeypatch.setattr(output, "_fixed_fields", counted)
        rng = np.random.default_rng(3)
        x = np.linspace(-0.5, 0.5, 256)
        for z in (np.zeros((256, 256)), rng.normal(size=(256, 256))):
            calls.clear()
            svg = svg_heatmap(x, z)
            assert calls == [3 * 256]
        assert svg.count("<rect") > 256 * 200


class TestSvgNoise:
    # write_grid_svg draws Re as 0 where |Re| <= _NOISE_ULPS * eps * max |grid|
    FOUND = ["spectrum", "--theta", "3.141592653589793", "--xi", "-1",
             "--beta", "1.0273116113264862", "--gamma", "0.014859402524455678",
             "--coupling", "0.4115848532310565", "--t2", "14.759656645152145", "--grid", "20",
             "--jump-basis", "deformed"]

    def test_a_grid_of_rounding_noise_draws_as_one_colour(self, tmp_path, capsys):
        from anyonosc import cli
        from anyonosc.sweeps import config_from_dict
        path, csv = tmp_path / "g.svg", tmp_path / "g.csv"
        assert cli.main(self.FOUND + ["--svg", str(path), "--out", str(csv)]) == 0
        capsys.readouterr()
        doc = json.loads((tmp_path / "g.csv.meta.json").read_text())
        grid = run_spectrum(config_from_dict(doc["config"]))
        real, scale = grid.values.real, np.max(np.abs(grid.values))
        # the real part is noise of both signs, below one ulp of the grid's scale
        assert (real > 0).any() and (real < 0).any()
        assert np.max(np.abs(real)) <= np.finfo(float).eps * scale
        want = svg_heatmap(grid.axis, np.zeros_like(real), "Re R3, theta=3.142, xi=-1.00")
        assert path.read_text() == want
        cell_h = (640 - _MARGIN_T - _MARGIN_B) / 20 + 0.5  # a heatmap cell's rect, not the bar's
        fills = re.findall(rf'height="{cell_h:.2f}" fill="(#[0-9a-f]{{6}})"', want)
        assert len(fills) == 20 and len(set(fills)) == 1  # one rect a row, one colour

    def test_noise_cells_take_no_colour_from_their_sign(self, tmp_path):
        from anyonosc.spectra import SpectrumGrid
        rng = np.random.default_rng(7)
        n = 12
        values = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        scale = np.max(np.abs(values))
        noise = output._NOISE_ULPS * np.finfo(float).eps * scale
        cells = rng.random((n, n)) < 0.3
        values.real[cells] = rng.choice((-1.0, 1.0), cells.sum()) * noise * rng.random(cells.sum())
        values.real[0, 0] = -noise  # at the bound: noise
        values.real[0, 1] = -np.nextafter(noise, np.inf)  # beyond it: drawn as it is
        # x w^T with w the identity: the grid is these values exactly
        grid = SpectrumGrid(np.linspace(-0.5, 0.5, n), values, np.eye(n, dtype=complex))
        assert np.array_equal(grid.values, values)
        path = tmp_path / "g.svg"
        output.write_grid_svg(grid, str(path), "t")
        cleaned = np.where(cells, 0.0, values.real)
        cleaned[0, 0] = 0.0
        assert cleaned[0, 1] < 0.0
        assert path.read_text() == svg_heatmap(grid.axis, cleaned, "t")
        assert path.read_text() != svg_heatmap(grid.axis, values.real, "t")

    def test_a_generic_grid_draws_as_before(self, tmp_path):
        # no |Re| lies near the bound: the bytes are those of Re itself
        config = RunConfig(params=AnyonParams(theta=1.1, xi=0.3), grid=GridSpec(count=256))
        grid = run_spectrum(config)
        ratio = np.min(np.abs(grid.values.real)) / np.max(np.abs(grid.values))
        assert ratio > 4e-6
        path = tmp_path / "g.svg"
        output.write_grid_svg(grid, str(path), "Re R3", True)
        assert path.read_text() == svg_heatmap(grid.axis, grid.values.real, "Re R3", True)
