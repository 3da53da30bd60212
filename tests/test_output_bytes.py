"""Byte identity of the array-level CSV and SVG writers against the
per-field reference writers they replaced (kept here, verbatim, as the
reference), plus the checks a result makes on itself, before any writer can
open a file for it, and the CSV writer's %.17g kernel against
format(v, ".17g") on every kind of finite double."""

import math
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
                             _diverging_palette, _fallback_records, _kernel, _records,
                             csv_text, grid_result, read_csv, svg_heatmap, write_csv)
from anyonosc.sweeps import RunConfig, SweepAxis, run_spectrum, run_sweep


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

    # two of the table's four columns are fresh (value, count), so one block
    # holds up to _BLOCK_VALUES // 2 rows: one block, two, and three
    @pytest.mark.parametrize("n_rows", [_BLOCK_VALUES // 2 - 1, _BLOCK_VALUES // 2,
                                        _BLOCK_VALUES // 2 + 1, _BLOCK_VALUES + 3])
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
        config = RunConfig(t2=3.5)
        grid = grid_result(run_spectrum(config, config.params.with_(theta=0.9, xi=0.6)))
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
